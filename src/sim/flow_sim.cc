#include "src/sim/flow_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/sim/level_fill.h"

namespace tenantnet {

namespace {
// Region-growth safety margin: a link outside the incremental region whose
// post-fill demand lands within this relative distance of its effective
// capacity is pulled in and re-leveled exactly, so borderline saturation
// never silently diverges from the from-scratch oracle.
constexpr double kSaturationMargin = 1e-6;

// Region growth is monotone (links/flows are only ever added), so the pass
// loop terminates; this bound is a heuristic cutoff after which churn that
// keeps straddling group boundaries is cheaper to re-level as one full
// component fill.
constexpr int kMaxFillPasses = 10;
}  // namespace

FlowSim::FlowSim(EventQueue& queue, const Topology& topology)
    : queue_(queue), topology_(topology) {}

void FlowSim::EnsureLinkArrays(size_t dense_index) {
  if (dense_index < link_members_.size()) {
    return;
  }
  size_t size = std::max(dense_index + 1, topology_.link_count());
  link_members_.resize(size);
  link_allocated_bps_.resize(size, 0.0);
  link_stamp_.resize(size, 0);
  link_slot_.resize(size, 0);
  link_down_.resize(size, 0);
  link_lease_.resize(size, -1.0);
  link_frozen_.resize(size, 0);
  link_lambda_.resize(size, 0.0);
  link_group_.resize(size);
  link_probe_stamp_.resize(size, 0);
  link_probe_delta_.resize(size, 0.0);
}

double FlowSim::EffectiveCapacityBps(size_t dense_index) const {
  if (dense_index < link_down_.size() && link_down_[dense_index]) {
    return 0.0;
  }
  if (dense_index < link_lease_.size() && link_lease_[dense_index] >= 0.0) {
    return link_lease_[dense_index];
  }
  return topology_.link(LinkId(dense_index + 1)).capacity_bps;
}

Status FlowSim::SetLinkCapacityLease(LinkId link, double bps) {
  if (!link.valid() ||
      Topology::DenseLinkIndex(link) >= topology_.link_count()) {
    return InvalidArgumentError("unknown link id");
  }
  size_t idx = Topology::DenseLinkIndex(link);
  EnsureLinkArrays(idx);
  double lease = bps < 0.0 ? -1.0 : bps;
  if (link_lease_[idx] == lease) {
    return Status::Ok();
  }
  link_lease_[idx] = lease;
  if (batch_depth_ > 0) {
    pending_links_.push_back(idx);
  } else {
    Reallocate(nullptr, 0, &idx, 1, nullptr, 0);
  }
  return Status::Ok();
}

double FlowSim::LinkAllocatedBps(LinkId link) const {
  size_t idx = Topology::DenseLinkIndex(link);
  return idx < link_allocated_bps_.size() ? link_allocated_bps_[idx] : 0.0;
}

void FlowSim::AddFlowToLinks(FlowId id, LiveFlow& flow) {
  // FlowIds are allocated monotonically and never reused, so appending
  // keeps every member list sorted by ascending FlowId. RemoveFlowFromLinks
  // preserves the invariant with an ordered erase; the water-filler leans
  // on it to walk canonical-order member segments with no per-pass sort.
  flow.member_pos.resize(flow.state.path.size());
  for (size_t i = 0; i < flow.state.path.size(); ++i) {
    size_t idx = Topology::DenseLinkIndex(flow.state.path[i]);
    EnsureLinkArrays(idx);
    flow.member_pos[i] = static_cast<uint32_t>(link_members_[idx].size());
    link_members_[idx].push_back(
        LinkMember{id, &flow, static_cast<uint32_t>(i)});
  }
}

void FlowSim::RemoveFromGroup(LiveFlow& flow) {
  std::vector<LinkMember>& group = link_group_[flow.bind_link];
  uint32_t pos = flow.group_pos;
  group[pos] = group.back();
  group.pop_back();
  if (pos < group.size()) {
    group[pos].live->group_pos = pos;
  }
  flow.bind_kind = kBindFree;
}

void FlowSim::RemoveFlowFromLinks(FlowId id, LiveFlow& flow) {
  // The departing flow's demand leaves with it; allocations are maintained
  // as exact per-flow deltas (see CommitFill) so both fill modes agree on
  // every link's allocation bit-for-bit.
  double rate = flow.state.current_rate_bps;
  for (size_t i = 0; i < flow.state.path.size(); ++i) {
    size_t idx = Topology::DenseLinkIndex(flow.state.path[i]);
    std::vector<LinkMember>& members = link_members_[idx];
    uint32_t pos = flow.member_pos[i];
    // Ordered erase keeps the list sorted by FlowId; every shifted entry's
    // back-pointer is fixed in place (a shifted entry may be this same
    // flow if the path crosses the link twice).
    for (size_t j = pos + 1; j < members.size(); ++j) {
      const LinkMember& m = members[j];
      LiveFlow& moved = m.flow == id ? flow : *m.live;
      moved.member_pos[m.path_index] = static_cast<uint32_t>(j - 1);
      members[j - 1] = m;
    }
    members.pop_back();
    link_allocated_bps_[idx] =
        members.empty() ? 0.0 : link_allocated_bps_[idx] - rate;
  }
  if (flow.bind_kind == kBindLink) {
    RemoveFromGroup(flow);
  }
}

FlowId FlowSim::StartFlow(std::vector<LinkId> path, double bytes,
                          CompletionFn on_complete, double weight,
                          double rate_cap_bps, AbortFn on_abort) {
  if (!ValidFlowStart(bytes, weight)) {
    return FlowId();
  }
  FlowId id = flow_ids_.Next();
  SimTime now = queue_.now();
  if (path.empty()) {
    if (std::isfinite(bytes)) {
      // Same-node finite transfer: delivered instantaneously in the fluid
      // model; never enters the tracked set.
      bytes_delivered_ += bytes;
      if (on_complete) {
        queue_.ScheduleAt(now, [on_complete = std::move(on_complete), id,
                                now] { on_complete(id, now); });
      }
      return id;
    }
    // Persistent zero-link flow: tracked as a no-op (rate 0, no links, no
    // bytes) so a later CancelFlow finds it. No reallocation needed.
    LiveFlow flow;
    flow.state.bytes_total = bytes;
    flow.state.bytes_left = bytes;
    flow.state.weight = weight;
    flow.state.rate_cap_bps = rate_cap_bps;
    flow.state.start_time = now;
    flow.last_settle = now;
    flows_.emplace(id, std::move(flow));
    return id;
  }
  // A path across a downed link gets the contract of a link that fails
  // right after the start (see SetLinkUp): with a handler the flow aborts,
  // its handler firing through the queue now; without one it stalls at
  // rate 0 and counts as blackholed.
  const bool blocked = std::any_of(path.begin(), path.end(),
                                   [this](LinkId l) { return !IsLinkUp(l); });
  if (blocked && on_abort) {
    ++flows_aborted_;
    if (std::isfinite(bytes)) {
      bytes_blackholed_ += bytes;
    }
    queue_.ScheduleAt(now, [on_abort = std::move(on_abort), id, now] {
      on_abort(id, now);
    });
    return id;
  }
  LiveFlow flow;
  if (blocked && bytes > 0) {
    flow.blackhole_counted = true;
    ++flows_blackholed_;
    if (std::isfinite(bytes)) {
      bytes_blackholed_ += bytes;
    }
  }
  flow.state.path = std::move(path);
  flow.state.bytes_total = bytes;
  flow.state.bytes_left = bytes;
  flow.state.weight = weight;
  flow.state.rate_cap_bps = rate_cap_bps;
  flow.state.start_time = now;
  flow.on_complete = std::move(on_complete);
  flow.on_abort = std::move(on_abort);
  flow.last_settle = now;
  auto [it, inserted] = flows_.emplace(id, std::move(flow));
  AddFlowToLinks(id, it->second);
  if (batch_depth_ > 0) {
    pending_flows_.push_back(id);
  } else {
    ReallocateOne(id);
  }
  return id;
}

FlowId FlowSim::StartPersistentFlow(std::vector<LinkId> path, double weight,
                                    double rate_cap_bps, AbortFn on_abort) {
  return StartFlow(std::move(path), std::numeric_limits<double>::infinity(),
                   CompletionFn(), weight, rate_cap_bps, std::move(on_abort));
}

Status FlowSim::CancelFlow(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) {
    return NotFoundError("no such flow");
  }
  LiveFlow& flow = it->second;
  SettleFlow(flow);
  queue_.Cancel(flow.completion_event);
  if (std::isfinite(flow.state.bytes_total)) {
    bytes_delivered_ += flow.state.bytes_total - flow.state.bytes_left;
  }
  seed_links_scratch_.clear();
  for (LinkId link : flow.state.path) {
    seed_links_scratch_.push_back(Topology::DenseLinkIndex(link));
  }
  RemoveFlowFromLinks(id, flow);
  flows_.erase(it);
  if (!seed_links_scratch_.empty()) {
    if (batch_depth_ > 0) {
      pending_shrunk_links_.insert(pending_shrunk_links_.end(),
                                   seed_links_scratch_.begin(),
                                   seed_links_scratch_.end());
    } else {
      Reallocate(nullptr, 0, nullptr, 0, seed_links_scratch_.data(),
                 seed_links_scratch_.size());
    }
  }
  return Status::Ok();
}

Status FlowSim::SetLinkUp(LinkId link, bool up) {
  if (!link.valid() || Topology::DenseLinkIndex(link) >= topology_.link_count()) {
    return InvalidArgumentError("unknown link id");
  }
  size_t idx = Topology::DenseLinkIndex(link);
  EnsureLinkArrays(idx);
  uint8_t down = up ? 0 : 1;
  if (link_down_[idx] == down) {
    return Status::Ok();
  }
  link_down_[idx] = down;

  // Abort callbacks are collected inside the batch but fired only after it
  // closes (the component has reallocated by then), in ascending FlowId
  // order so replays of the same schedule are deterministic.
  std::vector<std::pair<FlowId, AbortFn>> aborted;
  {
    auto batch = Batch();
    if (!up) {
      std::vector<FlowId> crossing;
      crossing.reserve(link_members_[idx].size());
      for (const LinkMember& m : link_members_[idx]) {
        crossing.push_back(m.flow);
      }
      std::sort(crossing.begin(), crossing.end(),
                [](FlowId a, FlowId b) { return a.value() < b.value(); });
      crossing.erase(std::unique(crossing.begin(), crossing.end()),
                     crossing.end());
      for (FlowId fid : crossing) {
        auto it = flows_.find(fid);
        if (it == flows_.end()) {
          continue;
        }
        LiveFlow& flow = it->second;
        if (flow.on_abort) {
          AbortFn cb = AbortFlow(fid);
          if (cb) {
            aborted.emplace_back(fid, std::move(cb));
          }
        } else if (!flow.blackhole_counted) {
          SettleFlow(flow);
          if (std::isfinite(flow.state.bytes_total) &&
              flow.state.bytes_left <= 0) {
            // Payload fully settled at this very timestamp: the write-back
            // re-completes it now (delivered), so regardless of whether the
            // fault or the completion event wins the FIFO tie-break the
            // flow is never charged as blackholed.
            continue;
          }
          // The flow stays live but the water-filler will pin it at rate 0
          // (the downed link's budget is 0). Charge the blackhole tally at
          // the moment of the stall, with progress settled up to now.
          flow.blackhole_counted = true;
          ++flows_blackholed_;
          if (std::isfinite(flow.state.bytes_total)) {
            bytes_blackholed_ += flow.state.bytes_left;
          }
        }
      }
    }
    pending_links_.push_back(idx);
  }
  SimTime now = queue_.now();
  for (auto& [fid, cb] : aborted) {
    cb(fid, now);
  }
  return Status::Ok();
}

bool FlowSim::IsLinkUp(LinkId link) const {
  size_t idx = Topology::DenseLinkIndex(link);
  return idx >= link_down_.size() || !link_down_[idx];
}

size_t FlowSim::stalled_flow_count() const {
  size_t n = 0;
  for (const auto& [id, flow] : flows_) {
    if (flow.state.current_rate_bps > 0 || flow.state.path.empty()) {
      continue;
    }
    for (LinkId link : flow.state.path) {
      if (!IsLinkUp(link)) {
        ++n;
        break;
      }
    }
  }
  return n;
}

FlowSim::AbortFn FlowSim::AbortFlow(FlowId id) {
  assert(batch_depth_ > 0);
  auto it = flows_.find(id);
  if (it == flows_.end()) {
    return AbortFn();
  }
  LiveFlow& flow = it->second;
  SettleFlow(flow);
  queue_.Cancel(flow.completion_event);
  ++flows_aborted_;
  if (std::isfinite(flow.state.bytes_total)) {
    bytes_blackholed_ += flow.state.bytes_left;
    bytes_delivered_ += flow.state.bytes_total - flow.state.bytes_left;
  }
  AbortFn cb = std::move(flow.on_abort);
  for (LinkId link : flow.state.path) {
    pending_shrunk_links_.push_back(Topology::DenseLinkIndex(link));
  }
  RemoveFlowFromLinks(id, flow);
  flows_.erase(it);
  return cb;
}

Status FlowSim::SetRateCap(FlowId id, double rate_cap_bps) {
  auto it = flows_.find(id);
  if (it == flows_.end()) {
    return NotFoundError("no such flow");
  }
  it->second.state.rate_cap_bps = rate_cap_bps;
  if (it->second.state.path.empty()) {
    return Status::Ok();  // zero-link no-op flow: nothing to reallocate
  }
  if (batch_depth_ > 0) {
    pending_flows_.push_back(id);
  } else {
    ReallocateOne(id);
  }
  return Status::Ok();
}

Status FlowSim::SetWeight(FlowId id, double weight) {
  if (!(weight > 0)) {
    return InvalidArgumentError("weight must be > 0");
  }
  auto it = flows_.find(id);
  if (it == flows_.end()) {
    return NotFoundError("no such flow");
  }
  LiveFlow& flow = it->second;
  if (flow.state.weight == weight) {
    return Status::Ok();
  }
  flow.state.weight = weight;
  if (flow.state.path.empty()) {
    return Status::Ok();
  }
  // A weight change moves every fair-share denominator the flow sits in —
  // including on links that are not saturated today but whose level drops
  // below some member's recorded bind. Treat the whole path as
  // capacity-dirty so each of those links re-levels exactly.
  if (batch_depth_ > 0) {
    pending_flows_.push_back(id);
    for (LinkId link : flow.state.path) {
      pending_links_.push_back(Topology::DenseLinkIndex(link));
    }
  } else {
    seed_links_scratch_.clear();
    for (LinkId link : flow.state.path) {
      seed_links_scratch_.push_back(Topology::DenseLinkIndex(link));
    }
    Reallocate(&id, 1, seed_links_scratch_.data(), seed_links_scratch_.size(),
               nullptr, 0);
  }
  return Status::Ok();
}

Result<double> FlowSim::CurrentRate(FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end()) {
    return NotFoundError("no such flow");
  }
  return it->second.state.current_rate_bps;
}

const FlowState* FlowSim::FindFlow(FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() ? nullptr : &it->second.state;
}

void FlowSim::ForEachFlow(
    const std::function<void(FlowId, const FlowState&)>& fn) const {
  for (const auto& [id, flow] : flows_) {
    fn(id, flow.state);
  }
}

double FlowSim::LinkUtilization(LinkId link) const {
  size_t idx = Topology::DenseLinkIndex(link);
  if (idx >= link_allocated_bps_.size()) {
    return 0;
  }
  if (idx < link_down_.size() && link_down_[idx]) {
    return 1.0;  // a downed link has no headroom at all
  }
  double cap = topology_.link(link).capacity_bps;
  return cap > 0 ? std::min(1.0, link_allocated_bps_[idx] / cap) : 0;
}

SimDuration FlowSim::QueuePenalty(const std::vector<LinkId>& path,
                                  SimDuration per_link_base,
                                  SimDuration per_link_cap) const {
  SimDuration total = SimDuration::Zero();
  for (LinkId link : path) {
    total += QueuePenaltyForUtilization(LinkUtilization(link), per_link_base,
                                        per_link_cap);
  }
  return total;
}

double FlowSim::total_bytes_delivered() const {
  // Persistent flows deliver continuously; fold in the stretch since each
  // one's last settle point. Finite flows are credited at completion or
  // cancellation, as before.
  double total = bytes_delivered_;
  SimTime now = queue_.now();
  for (const auto& [id, flow] : flows_) {
    if (!std::isfinite(flow.state.bytes_total)) {
      total += flow.state.current_rate_bps *
               (now - flow.last_settle).ToSeconds() / 8.0;
    }
  }
  return total;
}

void FlowSim::SettleFlow(LiveFlow& flow) {
  SimTime now = queue_.now();
  if (now == flow.last_settle) {
    return;
  }
  double dt = (now - flow.last_settle).ToSeconds();
  flow.last_settle = now;
  if (dt <= 0) {
    return;
  }
  if (!std::isfinite(flow.state.bytes_total)) {
    bytes_delivered_ += flow.state.current_rate_bps * dt / 8.0;
    return;
  }
  flow.state.bytes_left = std::max(
      0.0, flow.state.bytes_left - flow.state.current_rate_bps * dt / 8.0);
}

void FlowSim::EndBatch() {
  if (batch_depth_ == 0) {
    ++unmatched_end_batches_;  // nothing open: refuse rather than underflow
    return;
  }
  if (--batch_depth_ > 0) {
    return;
  }
  if (pending_flows_.empty() && pending_links_.empty() &&
      pending_shrunk_links_.empty()) {
    return;
  }
  Reallocate(pending_flows_.data(), pending_flows_.size(),
             pending_links_.data(), pending_links_.size(),
             pending_shrunk_links_.data(), pending_shrunk_links_.size());
  pending_flows_.clear();
  pending_links_.clear();
  pending_shrunk_links_.clear();
}

void FlowSim::ReallocateOne(FlowId seed) {
  Reallocate(&seed, 1, nullptr, 0, nullptr, 0);
}

void FlowSim::Reallocate(const FlowId* seed_flows, size_t seed_flow_count,
                         const size_t* capdirty_links, size_t capdirty_count,
                         const size_t* shrunk_links, size_t shrunk_count) {
  ++reallocations_;
  ScopedTimerUs timer(realloc_micros_hist_);
  if (incremental_) {
    RelevelDelta(seed_flows, seed_flow_count, capdirty_links, capdirty_count,
                 shrunk_links, shrunk_count);
    return;
  }
  // Oracle mode: every touched link seeds the full component BFS.
  merged_links_scratch_.assign(capdirty_links, capdirty_links + capdirty_count);
  merged_links_scratch_.insert(merged_links_scratch_.end(), shrunk_links,
                               shrunk_links + shrunk_count);
  RefillComponent(seed_flows, seed_flow_count, merged_links_scratch_.data(),
                  merged_links_scratch_.size());
}

void FlowSim::AddRegionLink(size_t dense_index) {
  EnsureLinkArrays(dense_index);
  if (link_stamp_[dense_index] == stamp_) {
    return;
  }
  link_stamp_[dense_index] = stamp_;
  region_links_.push_back(dense_index);
  // Re-leveling a saturated link invalidates every rate it froze: its
  // whole bottleneck group joins the recompute set.
  for (const LinkMember& m : link_group_[dense_index]) {
    AddRecomputeFlow(m.flow, m.live);
  }
}

void FlowSim::AddRecomputeFlow(FlowId id, LiveFlow* live) {
  if (live->recompute_stamp == stamp_ || live->state.path.empty()) {
    return;
  }
  live->recompute_stamp = stamp_;
  recompute_flows_.emplace_back(id, live);
}

void FlowSim::RelevelDelta(const FlowId* seed_flows, size_t seed_flow_count,
                           const size_t* capdirty_links, size_t capdirty_count,
                           const size_t* shrunk_links, size_t shrunk_count) {
  ++stamp_;
  region_links_.clear();
  recompute_flows_.clear();
  for (size_t i = 0; i < capdirty_count; ++i) {
    AddRegionLink(capdirty_links[i]);
  }
  for (size_t i = 0; i < shrunk_count; ++i) {
    // Demand-only shrink: an unsaturated link that just lost a flow only
    // gained headroom — nobody's level there was binding, so it stays out.
    EnsureLinkArrays(shrunk_links[i]);
    if (link_frozen_[shrunk_links[i]]) {
      AddRegionLink(shrunk_links[i]);
    }
  }
  for (size_t i = 0; i < seed_flow_count; ++i) {
    auto it = flows_.find(seed_flows[i]);
    if (it == flows_.end() || it->second.state.path.empty()) {
      continue;  // cancelled within the batch, or zero-link no-op
    }
    AddRecomputeFlow(seed_flows[i], &it->second);
    for (LinkId link : it->second.state.path) {
      size_t idx = Topology::DenseLinkIndex(link);
      EnsureLinkArrays(idx);
      if (link_frozen_[idx]) {
        AddRegionLink(idx);
      }
    }
  }
  if (region_links_.empty() && recompute_flows_.empty()) {
    return;
  }
  for (int pass = 0;; ++pass) {
    if (pass == kMaxFillPasses) {
      // Churn keeps straddling group boundaries; one full component fill
      // is cheaper than more region growth (and bit-identical to the
      // oracle by construction — it *is* the oracle).
      fallback_flows_scratch_.clear();
      for (auto& [fid, live] : recompute_flows_) {
        fallback_flows_scratch_.push_back(fid);
      }
      merged_links_scratch_ = region_links_;
      RefillComponent(fallback_flows_scratch_.data(),
                      fallback_flows_scratch_.size(),
                      merged_links_scratch_.data(),
                      merged_links_scratch_.size());
      return;
    }
    if (!RunFillPass()) {
      ++fill_restarts_;  // external rebind: region grew, run again
      continue;
    }
    if (GrowFromProbe()) {
      ++fill_restarts_;  // fixpoint not reached: region grew, run again
      continue;
    }
    break;
  }
  CommitFill();
}

void FlowSim::RefillComponent(const FlowId* seed_flows, size_t seed_flow_count,
                              const size_t* seed_links,
                              size_t seed_link_count) {
  ++full_fills_;
  // Collect the affected component(s): flows transitively sharing links
  // with any seed. Stamps avoid clearing marker state between passes.
  // Everything lands in the recompute set — there are no externals, so the
  // single canonical pass below can never abort.
  ++stamp_;
  region_links_.clear();
  recompute_flows_.clear();
  auto add_link = [this](size_t idx) {
    EnsureLinkArrays(idx);
    if (link_stamp_[idx] != stamp_) {
      link_stamp_[idx] = stamp_;
      region_links_.push_back(idx);
    }
  };
  for (size_t i = 0; i < seed_flow_count; ++i) {
    auto it = flows_.find(seed_flows[i]);
    if (it != flows_.end()) {
      AddRecomputeFlow(seed_flows[i], &it->second);
    }
  }
  for (size_t i = 0; i < seed_link_count; ++i) {
    add_link(seed_links[i]);
  }
  size_t fi = 0;
  size_t li = 0;
  while (fi < recompute_flows_.size() || li < region_links_.size()) {
    for (; fi < recompute_flows_.size(); ++fi) {
      for (LinkId link : recompute_flows_[fi].second->state.path) {
        add_link(Topology::DenseLinkIndex(link));
      }
    }
    for (; li < region_links_.size(); ++li) {
      for (const LinkMember& m : link_members_[region_links_[li]]) {
        AddRecomputeFlow(m.flow, m.live);
      }
    }
  }
  if (region_links_.empty() && recompute_flows_.empty()) {
    return;
  }
  bool clean = RunFillPass();
  (void)clean;
  assert(clean);  // full component: no external can exist
  CommitFill();
}

bool FlowSim::RunFillPass() {
  ++pass_stamp_;

  // The pass's flows are the recompute set plus every member of a region
  // link (the latter replay their recorded constraints). No explicit list
  // is materialized: the slot member segments below cover the link
  // crossers, the event array is sorted regardless of build order, and the
  // drain/probe/commit steps only touch the recompute set.

  // --- Per-region-link slots: slack/weight budgets. A slot's member list
  // is exactly link_members_ for that link — kept sorted by ascending
  // FlowId at all times (see AddFlowToLinks) — so weight sums accumulate
  // in canonical order by walking it directly; there is no per-pass member
  // copy or sort. Event collection (cap levels for the recompute set,
  // recorded constraint keys for externals) is fused into the same sweep:
  // externals replay the exact key their constraint froze at in the
  // previous decomposition, so region links see the same (value, order)
  // subtraction sequence the from-scratch fill would produce, and every
  // event key is unique, so the final sort yields one canonical sequence
  // no matter what order sources are walked in.
  size_t slots = region_links_.size();
  slots_.resize(slots);
  fill_events_.clear();
  auto add_event = [this](FlowId fid, LiveFlow* flow) {
    if (flow->member_stamp == pass_stamp_) {
      return;  // already added (multiple occurrences / recompute + member)
    }
    flow->member_stamp = pass_stamp_;
    if (flow->recompute_stamp == stamp_) {
      double cap_level = flow->state.rate_cap_bps / flow->state.weight;
      if (std::isfinite(cap_level)) {
        fill_events_.push_back({cap_level, 0, fid.value(), 0, flow, fid});
      }
    } else if (flow->bind_kind == kBindCap) {
      fill_events_.push_back({flow->bind_level, 0, fid.value(), 0, flow, fid});
    } else if (flow->bind_kind == kBindLink) {
      // Sorts at the binding link's position in the total order and in
      // ascending FlowId among its siblings — the same relative order the
      // full fill freezes that group in.
      fill_events_.push_back({flow->bind_level, 1,
                              static_cast<uint64_t>(flow->bind_link),
                              fid.value(), flow, fid});
    }
    // kBindFree externals never freeze; their weight keeps levels honest.
  };
  for (auto& [fid, live] : recompute_flows_) {
    add_event(fid, live);
  }
  for (size_t s = 0; s < slots; ++s) {
    size_t idx = region_links_[s];
    link_slot_[idx] = static_cast<uint32_t>(s);
    Slot& slot = slots_[s];
    slot.slack = EffectiveCapacityBps(idx);
    slot.wsum = 0.0;
    slot.lambda = 0.0;
    slot.frozen = 0;
    for (const LinkMember& m : link_members_[idx]) {
      slot.wsum += m.live->state.weight;
      add_event(m.flow, m.live);
    }
  }
  std::sort(fill_events_.begin(), fill_events_.end(), FillEventBefore());

  // Freezes a flow's demand out of every region link it crosses. Link
  // levels only rise as demand freezes out, so the slot scan below always
  // sees the live minimum.
  auto freeze = [this](LiveFlow* flow, double rate) {
    flow->frozen_stamp = pass_stamp_;
    double weight = flow->state.weight;
    for (LinkId link : flow->state.path) {
      size_t idx = Topology::DenseLinkIndex(link);
      if (link_stamp_[idx] != stamp_) {
        continue;
      }
      Slot& slot = slots_[link_slot_[idx]];
      if (!slot.frozen) {
        slot.slack -= rate;
        slot.wsum -= weight;
      }
    }
  };

  // --- The fill: repeatedly take the lowest constraint — the next unfrozen
  // flow event vs. the minimum live link level — and freeze it.
  size_t ei = 0;
  for (;;) {
    while (ei < fill_events_.size() &&
           fill_events_[ei].flow->frozen_stamp == pass_stamp_) {
      ++ei;  // already frozen by a link it crosses
    }
    // Minimum live link level, ties to the smallest dense index (matching
    // the (level, kind=1, index, b=0) slot in the total order).
    size_t best_slot = slots;
    double best_level = std::numeric_limits<double>::infinity();
    for (size_t s = 0; s < slots; ++s) {
      const Slot& slot = slots_[s];
      if (slot.frozen || slot.wsum <= 0) {
        continue;
      }
      double level = std::max(0.0, slot.slack) / slot.wsum;
      if (!std::isfinite(level)) {
        continue;
      }
      if (level < best_level ||
          (level == best_level && region_links_[s] < region_links_[best_slot])) {
        best_level = level;
        best_slot = s;
      }
    }
    bool link_next = best_slot < slots;
    if (ei < fill_events_.size()) {
      const FillEvent& e = fill_events_[ei];
      if (link_next) {
        // Lexicographic (level, kind, a, b) against the link's
        // (best_level, 1, dense index, 0).
        uint64_t li = static_cast<uint64_t>(region_links_[best_slot]);
        link_next = best_level < e.level ||
                    (best_level == e.level &&
                     (1 < e.kind || (1 == e.kind && (li < e.a ||
                                                     (li == e.a && 0 < e.b)))));
      }
      if (!link_next) {
        LiveFlow* flow = e.flow;
        ++ei;
        if (flow->recompute_stamp == stamp_) {
          // Own rate cap binds first.
          flow->pending_rate = flow->state.rate_cap_bps;
          flow->pend_bind_kind = kBindCap;
          flow->pend_bind_link = 0;
          flow->pend_bind_level = e.level;
          freeze(flow, flow->state.rate_cap_bps);
        } else {
          // External replay: the recorded constraint fires; the rate is
          // unchanged by definition of being outside the recompute set.
          freeze(flow, flow->state.current_rate_bps);
        }
        continue;
      }
    } else if (!link_next) {
      break;  // no live constraint left
    }
    size_t s = best_slot;
    size_t idx = region_links_[s];
    // This link saturates at `best_level`. Every unfrozen member must be
    // in the recompute set — an external still unfrozen here was recorded
    // binding at a *higher* level elsewhere, so its rate is about to
    // change: pull it (and its old bottleneck) into the region and re-run.
    bool grew = false;
    for (const LinkMember& lm : link_members_[idx]) {
      LiveFlow* m = lm.live;
      if (m->frozen_stamp == pass_stamp_ || m->recompute_stamp == stamp_) {
        continue;
      }
      if (m->bind_kind == kBindLink) {
        AddRegionLink(m->bind_link);  // also pulls its group into F
      }
      AddRecomputeFlow(lm.flow, m);
      grew = true;
    }
    if (grew) {
      return false;  // abort the pass; caller restarts with the larger set
    }
    slots_[s].frozen = 1;
    slots_[s].lambda = best_level;
    for (const LinkMember& lm : link_members_[idx]) {
      LiveFlow* m = lm.live;
      if (m->frozen_stamp == pass_stamp_) {
        continue;  // earlier member, or an earlier occurrence of this one
      }
      m->pending_rate = m->state.weight * best_level;
      m->pend_bind_kind = kBindLink;
      m->pend_bind_link = static_cast<uint32_t>(idx);
      m->pend_bind_level = best_level;
      freeze(m, m->pending_rate);
    }
  }

  // Whoever survived every constraint is effectively unbounded (only
  // possible across infinite-capacity links with no finite cap).
  for (auto& [fid, flow] : recompute_flows_) {
    if (flow->frozen_stamp != pass_stamp_) {
      flow->pending_rate = 1e18;
      flow->pend_bind_kind = kBindFree;
      flow->pend_bind_link = 0;
      flow->pend_bind_level = std::numeric_limits<double>::infinity();
    }
  }
  return true;
}

bool FlowSim::GrowFromProbe() {
  // Fixpoint check: a recomputed flow whose rate or binding constraint
  // moved may change the arithmetic of a link outside the region — either
  // a frozen link (whose λ is recorded bit-exact and would be recomputed
  // with a different subtraction order by the oracle) or an unfrozen link
  // its new demand pushes to the brink of saturation. Grow the region to
  // cover both; unchanged flows provably leave outside links' fills alone.
  bool grew = false;
  ++probe_stamp_;
  probe_links_.clear();
  // Index loop over a snapshotted size: AddRegionLink below appends newly
  // pulled-in group members to recompute_flows_ (invalidating iterators),
  // and those flows carry stale pending_rates until the caller restarts
  // the pass — the restarted pass's own probe covers them.
  size_t probed = recompute_flows_.size();
  for (size_t i = 0; i < probed; ++i) {
    LiveFlow* flow = recompute_flows_[i].second;
    double delta = flow->pending_rate - flow->state.current_rate_bps;
    bool key_moved = flow->pend_bind_kind != flow->bind_kind ||
                     flow->pend_bind_level != flow->bind_level ||
                     (flow->pend_bind_kind == kBindLink &&
                      flow->pend_bind_link != flow->bind_link);
    if (delta == 0.0 && !key_moved) {
      continue;
    }
    for (LinkId link : flow->state.path) {
      size_t idx = Topology::DenseLinkIndex(link);
      if (link_stamp_[idx] == stamp_) {
        continue;  // already in the region
      }
      if (link_frozen_[idx]) {
        AddRegionLink(idx);
        grew = true;
        continue;
      }
      if (link_probe_stamp_[idx] != probe_stamp_) {
        link_probe_stamp_[idx] = probe_stamp_;
        link_probe_delta_[idx] = 0.0;
        probe_links_.push_back(idx);
      }
      link_probe_delta_[idx] += delta;
    }
  }
  for (size_t idx : probe_links_) {
    if (link_stamp_[idx] == stamp_) {
      continue;  // pulled in by the frozen branch above
    }
    if (link_allocated_bps_[idx] + link_probe_delta_[idx] >
        EffectiveCapacityBps(idx) * (1 - kSaturationMargin)) {
      AddRegionLink(idx);
      grew = true;
    }
  }
  return grew;
}

void FlowSim::CommitFill() {
  flows_touched_ += recompute_flows_.size();

  // Commit the new bottleneck decomposition for the region.
  for (size_t s = 0; s < region_links_.size(); ++s) {
    size_t idx = region_links_[s];
    link_frozen_[idx] = slots_[s].frozen;
    link_lambda_[idx] = slots_[s].frozen ? slots_[s].lambda : 0.0;
  }

  // Write-back in ascending FlowId order: settle flows whose rate moved,
  // apply the allocation delta per path occurrence (flows with unchanged
  // rate contribute an exact zero, so the incremental and from-scratch
  // paths emit the same delta sequence), rebuild group membership, and
  // reschedule completions only where the predicted finish changed.
  SimTime now = queue_.now();
  std::sort(recompute_flows_.begin(), recompute_flows_.end(),
            [](const std::pair<FlowId, LiveFlow*>& a,
               const std::pair<FlowId, LiveFlow*>& b) {
              return a.first.value() < b.first.value();
            });
  for (auto& [fid, flow] : recompute_flows_) {
    double new_rate = flow->pending_rate;
    double old_rate = flow->state.current_rate_bps;
    if (new_rate != old_rate) {
      // Integrate progress under the old rate before switching slope.
      SettleFlow(*flow);
      flow->state.current_rate_bps = new_rate;
      double delta = new_rate - old_rate;
      for (LinkId link : flow->state.path) {
        link_allocated_bps_[Topology::DenseLinkIndex(link)] += delta;
      }
    }
    if (flow->pend_bind_kind == flow->bind_kind &&
        (flow->bind_kind != kBindLink ||
         flow->pend_bind_link == flow->bind_link)) {
      // Same constraint, possibly a new level: group membership (and
      // group_pos) are already right — skip the remove/re-add churn that
      // would otherwise hit every member on every group relevel.
      flow->bind_level = flow->pend_bind_level;
    } else {
      if (flow->bind_kind == kBindLink) {
        RemoveFromGroup(*flow);
      }
      flow->bind_kind = flow->pend_bind_kind;
      flow->bind_link = flow->pend_bind_link;
      flow->bind_level = flow->pend_bind_level;
      if (flow->bind_kind == kBindLink) {
        flow->group_pos =
            static_cast<uint32_t>(link_group_[flow->bind_link].size());
        link_group_[flow->bind_link].push_back(LinkMember{fid, flow, 0});
      }
    }
    if (!std::isfinite(flow->state.bytes_total)) {
      continue;  // persistent: no completion to schedule
    }
    if (!level_fill::RateChanged(old_rate, new_rate) &&
        flow->completion_event.valid()) {
      continue;  // same slope: the scheduled finish time is still exact
    }
    SimTime finish;
    if (flow->state.bytes_left <= 0) {
      finish = now;
    } else if (new_rate > 0) {
      finish = now + SimDuration::Seconds(flow->state.bytes_left * 8.0 /
                                          new_rate);
    } else {
      // Stalled (zero cap or downed link); waits for a change.
      queue_.Cancel(flow->completion_event);
      flow->completion_event = EventHandle();
      continue;
    }
    // Move a pending completion in place; schedule the first one.
    flow->completion_event =
        queue_.Reschedule(flow->completion_event, finish);
    if (!flow->completion_event.valid()) {
      FlowId id = fid;
      flow->completion_event =
          queue_.ScheduleAt(finish, [this, id] { HandleCompletion(id); });
    }
    ++flows_rescheduled_;
  }
}

void FlowSim::HandleCompletion(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) {
    return;
  }
  LiveFlow& flow = it->second;
  // The scheduled finish is exact in the fluid model; credit the full
  // payload rather than integrating residue.
  bytes_delivered_ += flow.state.bytes_total;
  CompletionFn on_complete = std::move(flow.on_complete);
  seed_links_scratch_.clear();
  for (LinkId link : flow.state.path) {
    seed_links_scratch_.push_back(Topology::DenseLinkIndex(link));
  }
  RemoveFlowFromLinks(id, flow);
  flows_.erase(it);
  if (!seed_links_scratch_.empty()) {
    if (batch_depth_ > 0) {
      pending_shrunk_links_.insert(pending_shrunk_links_.end(),
                                   seed_links_scratch_.begin(),
                                   seed_links_scratch_.end());
    } else {
      Reallocate(nullptr, 0, nullptr, 0, seed_links_scratch_.data(),
                 seed_links_scratch_.size());
    }
  }
  if (on_complete) {
    on_complete(id, queue_.now());
  }
}

}  // namespace tenantnet
