#include "src/faults/fault_injector.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <string>

namespace tenantnet {

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown:
      return "link-down";
    case FaultKind::kInstanceCrash:
      return "instance-crash";
    case FaultKind::kGatewayRestart:
      return "gateway-restart";
    case FaultKind::kControlPlaneDegrade:
      return "control-plane-degrade";
    case FaultKind::kControlPlaneRestart:
      return "control-plane-restart";
  }
  return "?";
}

FaultSchedule FaultSchedule::Storm(uint64_t seed, const StormParams& params) {
  Rng rng(seed);
  // Kinds that actually have targets; drawn uniformly among themselves.
  std::vector<FaultKind> kinds;
  if (!params.links.empty()) {
    kinds.push_back(FaultKind::kLinkDown);
  }
  if (!params.instances.empty()) {
    kinds.push_back(FaultKind::kInstanceCrash);
  }
  if (!params.gateways.empty()) {
    kinds.push_back(FaultKind::kGatewayRestart);
  }
  if (params.include_control_plane) {
    kinds.push_back(FaultKind::kControlPlaneDegrade);
  }
  if (!params.restart_components.empty()) {
    kinds.push_back(FaultKind::kControlPlaneRestart);
  }
  FaultSchedule schedule;
  if (kinds.empty()) {
    return schedule;
  }
  int64_t window_ns = std::max<int64_t>(1, params.window.nanos());
  int64_t min_ns = std::max<int64_t>(0, params.min_duration.nanos());
  int64_t max_ns = std::max(min_ns + 1, params.max_duration.nanos());
  for (size_t i = 0; i < params.event_count; ++i) {
    FaultSpec spec;
    spec.kind = kinds[rng.NextU64(kinds.size())];
    spec.at = SimDuration::Nanos(
        static_cast<int64_t>(rng.NextU64(static_cast<uint64_t>(window_ns))));
    spec.duration = SimDuration::Nanos(
        min_ns + static_cast<int64_t>(rng.NextU64(
                     static_cast<uint64_t>(max_ns - min_ns))));
    switch (spec.kind) {
      case FaultKind::kLinkDown:
        spec.link = params.links[rng.NextU64(params.links.size())];
        break;
      case FaultKind::kInstanceCrash:
        spec.instance = params.instances[rng.NextU64(params.instances.size())];
        break;
      case FaultKind::kGatewayRestart:
        spec.node = params.gateways[rng.NextU64(params.gateways.size())];
        break;
      case FaultKind::kControlPlaneDegrade:
        break;
      case FaultKind::kControlPlaneRestart:
        spec.component = params.restart_components[rng.NextU64(
            params.restart_components.size())];
        break;
    }
    schedule.events.push_back(spec);
  }
  std::stable_sort(schedule.events.begin(), schedule.events.end(),
                   [](const FaultSpec& a, const FaultSpec& b) {
                     return a.at < b.at;
                   });
  return schedule;
}

FaultInjector::FaultInjector(EventQueue& queue, Topology& topology,
                             FlowControlSurface& flow_sim, CloudWorld* world,
                             MetricRegistry& metrics, FaultHooks hooks)
    : queue_(queue), topology_(topology), flow_sim_(flow_sim), world_(world),
      hooks_(std::move(hooks)) {
  injected_counter_ = &metrics.GetCounter("faults.injected");
  for (uint8_t k = 0; k < 5; ++k) {
    control_repair_ms_[k] = &metrics.GetHistogram(
        "faults.control_repair_ms." +
        std::string(FaultKindName(static_cast<FaultKind>(k))));
  }
}

Status FaultInjector::Validate(const FaultSpec& spec) const {
  if (spec.kind == FaultKind::kLinkDown &&
      (!spec.link.valid() ||
       Topology::DenseLinkIndex(spec.link) >= topology_.link_count())) {
    return InvalidArgumentError("fault names an unknown link");
  }
  return Status::Ok();
}

Status FaultInjector::Schedule(const FaultSchedule& schedule) {
  for (const FaultSpec& spec : schedule.events) {
    TN_RETURN_IF_ERROR(Validate(spec));
  }
  SimTime base = queue_.now();
  for (const FaultSpec& spec : schedule.events) {
    queue_.ScheduleAt(base + spec.at, [this, spec] { Inject(spec); });
  }
  return Status::Ok();
}

Status FaultInjector::InjectNow(const FaultSpec& spec) {
  TN_RETURN_IF_ERROR(Validate(spec));
  Inject(spec);
  return Status::Ok();
}

void FaultInjector::DownLink(LinkId link) {
  size_t idx = Topology::DenseLinkIndex(link);
  if (link_refs_.size() < topology_.link_count()) {
    link_refs_.resize(topology_.link_count(), 0);
  }
  if (++link_refs_[idx] == 1) {
    topology_.SetLinkUp(link, false);
    flow_sim_.SetLinkUp(link, false);
  }
}

void FaultInjector::RestoreLink(LinkId link) {
  size_t idx = Topology::DenseLinkIndex(link);
  assert(idx < link_refs_.size() && link_refs_[idx] > 0);
  if (--link_refs_[idx] == 0) {
    topology_.SetLinkUp(link, true);
    flow_sim_.SetLinkUp(link, true);
  }
}

void FaultInjector::Inject(const FaultSpec& spec) {
  ++faults_injected_;
  injected_counter_->Increment();
  switch (spec.kind) {
    case FaultKind::kLinkDown:
      DownLink(spec.link);
      break;
    case FaultKind::kInstanceCrash:
      assert(world_ != nullptr);
      if (++instance_refs_[spec.instance] == 1) {
        (void)world_->SetInstanceRunning(spec.instance, false);
      }
      break;
    case FaultKind::kGatewayRestart:
      for (LinkId link : topology_.IncidentLinks(spec.node)) {
        DownLink(link);
      }
      break;
    case FaultKind::kControlPlaneDegrade:
      if (++degrade_refs_ == 1 && hooks_.set_control_degraded) {
        hooks_.set_control_degraded(true);
      }
      break;
    case FaultKind::kControlPlaneRestart:
      // Ref-counted per component: only the first outstanding restart kills
      // it (a second one before reconcile extends the same outage).
      if (++restart_refs_[spec.component] == 1 && hooks_.on_restart_begin) {
        hooks_.on_restart_begin(spec);
      }
      break;
  }
  RunHookTimed(hooks_.on_inject, spec);
  queue_.ScheduleAfter(spec.duration, [this, spec] { Recover(spec); });
}

void FaultInjector::Recover(const FaultSpec& spec) {
  switch (spec.kind) {
    case FaultKind::kLinkDown:
      RestoreLink(spec.link);
      break;
    case FaultKind::kInstanceCrash:
      if (--instance_refs_[spec.instance] == 0) {
        (void)world_->SetInstanceRunning(spec.instance, true);
      }
      break;
    case FaultKind::kGatewayRestart:
      for (LinkId link : topology_.IncidentLinks(spec.node)) {
        RestoreLink(link);
      }
      break;
    case FaultKind::kControlPlaneDegrade:
      if (--degrade_refs_ == 0 && hooks_.set_control_degraded) {
        hooks_.set_control_degraded(false);
      }
      break;
    case FaultKind::kControlPlaneRestart:
      // Reconcile only when the last overlapping restart of this component
      // drains; its wall-clock cost is the repair cost of this kind.
      if (--restart_refs_[spec.component] == 0) {
        RunHookTimed(hooks_.on_restart_complete, spec);
      }
      break;
  }
  RunHookTimed(hooks_.on_recover, spec);
  ++faults_recovered_;
}

void FaultInjector::RunHookTimed(
    const std::function<void(const FaultSpec&)>& hook, const FaultSpec& spec) {
  if (!hook) {
    return;
  }
  auto start = std::chrono::steady_clock::now();
  hook(spec);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  control_repair_ms_[static_cast<size_t>(spec.kind)]->Record(ms);
}

}  // namespace tenantnet
