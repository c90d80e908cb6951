#include "src/restart/warm_restart.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "src/core/edge_filter.h"
#include "src/core/sip_lb.h"
#include "src/vnet/fabric.h"

namespace tenantnet {

RestartableComponent MakeFilterBankComponent(std::string name,
                                             EdgeFilterBank& bank) {
  auto snap = std::make_shared<FilterBankSnapshot>();
  RestartableComponent c;
  c.name = std::move(name);
  c.checkpoint = [&bank, snap] { *snap = bank.Checkpoint(); };
  c.begin = [&bank] { bank.BeginRestart(); };
  c.complete = [&bank, snap](RestartMode mode) {
    return bank.CompleteRestart(mode, *snap);
  };
  return c;
}

RestartableComponent MakeSipLbComponent(std::string name,
                                        SipLoadBalancer& lb) {
  auto snap = std::make_shared<SipLbSnapshot>();
  RestartableComponent c;
  c.name = std::move(name);
  c.checkpoint = [&lb, snap] { *snap = lb.Checkpoint(); };
  c.begin = [&lb] { lb.BeginRestart(); };
  c.complete = [&lb, snap](RestartMode mode) {
    return lb.CompleteRestart(mode, *snap);
  };
  return c;
}

RestartableComponent MakeRoutingComponent(std::string name,
                                          BaselineNetwork& net) {
  auto snap = std::make_shared<RoutingSnapshot>();
  RestartableComponent c;
  c.name = std::move(name);
  c.checkpoint = [&net, snap] { *snap = net.CheckpointRouting(); };
  c.begin = [&net] { net.BeginRoutingRestart(); };
  c.complete = [&net, snap](RestartMode mode) {
    return net.CompleteRoutingRestart(mode, *snap);
  };
  return c;
}

WarmRestartCoordinator::WarmRestartCoordinator(EventQueue& queue,
                                               MetricRegistry& metrics,
                                               RestartMode mode)
    : queue_(queue), mode_(mode), metrics_(&metrics) {
  begun_counter_ = &metrics.GetCounter("restart.begun");
  completed_counter_ = &metrics.GetCounter("restart.completed");
  reconcile_deltas_counter_ = &metrics.GetCounter("restart.reconcile_deltas");
  replayed_counter_ = &metrics.GetCounter("restart.replayed_mutations");
  dropped_counter_ = &metrics.GetCounter("restart.dropped_mutations");
}

uint32_t WarmRestartCoordinator::Register(RestartableComponent component) {
  Entry entry;
  entry.outage_ms =
      &metrics_->GetHistogram("restart.outage_ms." + component.name);
  entry.to_converged_ms =
      &metrics_->GetHistogram("restart.to_converged_ms." + component.name);
  entry.component = std::move(component);
  components_.push_back(std::move(entry));
  return static_cast<uint32_t>(components_.size() - 1);
}

WarmRestartCoordinator::Entry& WarmRestartCoordinator::Get(uint32_t id) {
  assert(id < components_.size());
  return components_[id];
}

const WarmRestartCoordinator::Entry& WarmRestartCoordinator::Get(
    uint32_t id) const {
  assert(id < components_.size());
  return components_[id];
}

void WarmRestartCoordinator::BeginRestart(uint32_t id) {
  Entry& entry = Get(id);
  if (entry.in_restart) {
    return;  // overlapping restarts extend the same outage
  }
  entry.component.checkpoint();
  entry.in_restart = true;
  entry.began_at = queue_.now();
  entry.component.begin();
  ++restarts_begun_;
  begun_counter_->Increment();
}

bool WarmRestartCoordinator::InRestart(uint32_t id) const {
  return Get(id).in_restart;
}

ReconcileStats WarmRestartCoordinator::CompleteRestart(uint32_t id) {
  Entry& entry = Get(id);
  if (!entry.in_restart) {
    return ReconcileStats{};
  }
  ReconcileStats stats = entry.component.complete(mode_);
  entry.in_restart = false;
  total_.Merge(stats);
  ++restarts_completed_;
  completed_counter_->Increment();
  reconcile_deltas_counter_->Increment(stats.deltas_applied);
  replayed_counter_->Increment(stats.replayed_mutations);
  dropped_counter_->Increment(stats.dropped_mutations);
  entry.outage_ms->Record((queue_.now() - entry.began_at).ToMillis());
  // Converged when the last reconcile-driven push lands; a component whose
  // reconcile applies synchronously converges at the completion call.
  SimTime converged = std::max(stats.converged_at, queue_.now());
  entry.to_converged_ms->Record((converged - entry.began_at).ToMillis());
  return stats;
}

void WarmRestartCoordinator::WireHooks(FaultHooks& hooks) {
  hooks.on_restart_begin = [this](const FaultSpec& spec) {
    BeginRestart(spec.component);
  };
  hooks.on_restart_complete = [this](const FaultSpec& spec) {
    CompleteRestart(spec.component);
  };
}

const Histogram& WarmRestartCoordinator::outage_ms(uint32_t id) const {
  return *Get(id).outage_ms;
}

const Histogram& WarmRestartCoordinator::to_converged_ms(uint32_t id) const {
  return *Get(id).to_converged_ms;
}

}  // namespace tenantnet
