#include "src/sim/shard_executor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "src/sim/level_fill.h"

namespace tenantnet {
namespace {

// Upper bound on how far an epoch may outrun the earliest pending event.
// Smaller = user callbacks observe completion times sooner and shared-link
// leases re-split more often; larger = fewer barriers.
constexpr SimDuration kEpochQuantum = SimDuration::Millis(1);

}  // namespace

ShardExecutor::ShardExecutor(EventQueue& control, const Topology& topology,
                             Options opts)
    : control_(control),
      topology_(topology),
      opts_(opts) {
  int shard_count = opts_.num_shards;
  if (shard_count <= 0) {
    // Partitioner target: enough parts to keep a worker pool busy even on
    // one giant component (ceil(nodes/32)), never fewer than the natural
    // component parallelism, capped at 32. Independent of num_threads.
    uint32_t components = ComputeTopologyComponents(topology).count;
    uint32_t by_size =
        static_cast<uint32_t>((topology.node_count() + 31) / 32);
    shard_count = static_cast<int>(
        std::min<uint32_t>(std::max({components, by_size, 1u}), 32));
  }
  // The link-cut partitioner's seed (it rotates region growth starts).
  constexpr uint64_t kPartitionSeed = 0;
  partition_ = ComputeLinkCutPartition(
      topology, static_cast<uint32_t>(shard_count), kPartitionSeed);
  // The partitioner may return fewer parts than asked (tiny topologies);
  // shards_ mirrors the actual part count so every shard owns some nodes.
  shard_count = static_cast<int>(std::max<uint32_t>(partition_.count, 1));
  shards_.reserve(static_cast<size_t>(shard_count));
  for (int i = 0; i < shard_count; ++i) {
    Shard shard;
    shard.queue = std::make_unique<EventQueue>();
    shard.sim = std::make_unique<FlowSim>(*shard.queue, topology_);
    shards_.push_back(std::move(shard));
  }
  size_t slots = topology_.link_count() * shards_.size();
  use_count_.assign(slots, 0);
  use_weight_.assign(slots, 0.0);
  use_cap_sum_.assign(slots, 0.0);
  use_uncapped_.assign(slots, 0);
  lease_held_.assign(slots, 0);
  link_up_.assign(topology_.link_count(), 1);
  link_dirty_.assign(topology_.link_count(), 0);
  // More threads than shards would never find work; don't spawn them.
  int threads = std::min(opts_.num_threads, static_cast<int>(shards_.size()));
  if (threads > 1) {
    workers_.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

ShardExecutor::~ShardExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

uint32_t ShardExecutor::HomeShardOfPath(const std::vector<LinkId>& path,
                                        bool* crossing) const {
  *crossing = false;
  if (path.empty()) {
    return 0;  // zero-link flows touch no shared state; park them on shard 0
  }
  uint32_t first = ShardOfLink(path[0]);
  if (shards_.size() == 1) {
    return first;
  }
  // Plurality owner of the path's links; ties break on the smallest shard
  // id. Scratch counts are touched-and-reset so the scan stays O(path).
  thread_local std::vector<uint32_t> counts;
  counts.assign(shards_.size(), 0);
  bool multi = false;
  for (LinkId link : path) {
    uint32_t s = ShardOfLink(link);
    ++counts[s];
    multi |= s != first;
  }
  if (!multi) {
    return first;
  }
  *crossing = true;
  uint32_t best = 0;
  for (uint32_t s = 1; s < shards_.size(); ++s) {
    if (counts[s] > counts[best]) {
      best = s;
    }
  }
  return best;
}

// --- Shared-link demand bookkeeping ------------------------------------------

void ShardExecutor::MarkLinkDirty(size_t dense_link) {
  if (dense_link < link_dirty_.size() && !link_dirty_[dense_link]) {
    link_dirty_[dense_link] = 1;
    dirty_links_.push_back(static_cast<uint32_t>(dense_link));
  }
}

void ShardExecutor::AddUsage(const Mapping& m) {
  for (LinkId link : m.path) {
    size_t idx = Topology::DenseLinkIndex(link);
    size_t slot = UseIndex(idx, m.shard);
    ++use_count_[slot];
    use_weight_[slot] += m.weight;
    if (std::isfinite(m.rate_cap_bps)) {
      use_cap_sum_[slot] += m.rate_cap_bps;
    } else {
      ++use_uncapped_[slot];
    }
    MarkLinkDirty(idx);
  }
  if (m.crossing) {
    ++crossing_flows_;
  }
}

void ShardExecutor::RemoveUsage(const Mapping& m) {
  for (LinkId link : m.path) {
    size_t idx = Topology::DenseLinkIndex(link);
    size_t slot = UseIndex(idx, m.shard);
    assert(use_count_[slot] > 0);
    --use_count_[slot];
    use_weight_[slot] -= m.weight;
    if (std::isfinite(m.rate_cap_bps)) {
      use_cap_sum_[slot] -= m.rate_cap_bps;
    } else {
      --use_uncapped_[slot];
    }
    if (use_count_[slot] == 0) {
      // Sweep float residue so a long-lived link's demand never drifts.
      use_weight_[slot] = 0.0;
      use_cap_sum_[slot] = 0.0;
    }
    MarkLinkDirty(idx);
  }
  if (m.crossing) {
    assert(crossing_flows_ > 0);
    --crossing_flows_;
  }
}

void ShardExecutor::AdjustCapUsage(const Mapping& m, double old_cap,
                                   double new_cap) {
  for (LinkId link : m.path) {
    size_t idx = Topology::DenseLinkIndex(link);
    size_t slot = UseIndex(idx, m.shard);
    if (std::isfinite(old_cap)) {
      use_cap_sum_[slot] -= old_cap;
    } else {
      --use_uncapped_[slot];
    }
    if (std::isfinite(new_cap)) {
      use_cap_sum_[slot] += new_cap;
    } else {
      ++use_uncapped_[slot];
    }
    MarkLinkDirty(idx);
  }
}

size_t ShardExecutor::shared_link_count() const {
  size_t shared = 0;
  for (size_t idx = 0; idx < link_up_.size(); ++idx) {
    uint32_t users = 0;
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      users += use_count_[UseIndex(idx, s)] > 0 ? 1 : 0;
    }
    shared += users >= 2 ? 1 : 0;
  }
  return shared;
}

void ShardExecutor::ReconcileLeases() {
  assert(!in_parallel_ && batch_depth_ == 0);
  if (dirty_links_.empty()) {
    return;
  }
  ++lease_reconciliations_;
  // Ascending dense-link order, ascending shard order inside each link:
  // the whole pass is a pure function of the accumulated call sequence.
  std::sort(dirty_links_.begin(), dirty_links_.end());
  BatchScope batch = Batch();
  for (uint32_t idx : dirty_links_) {
    link_dirty_[idx] = 0;
    LinkId link(static_cast<uint64_t>(idx) + 1);
    split_shards_.clear();
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      if (use_count_[UseIndex(idx, s)] > 0) {
        split_shards_.push_back(s);
      }
    }
    if (split_shards_.size() < 2) {
      // Exclusive (or idle) link: every stale lease reverts to the full
      // topology capacity.
      for (uint32_t s = 0; s < shards_.size(); ++s) {
        if (lease_held_[UseIndex(idx, s)]) {
          lease_held_[UseIndex(idx, s)] = 0;
          (void)shards_[s].sim->SetLinkCapacityLease(link, -1.0);
        }
      }
      continue;
    }
    // Weighted max-min split of the link capacity across using shards: a
    // shard's demand is the sum of its flows' finite rate caps (infinite if
    // any flow is uncapped), its weight the sum of their max-min weights.
    // Conservative by construction: shares sum to <= capacity.
    double capacity = topology_.link(link).capacity_bps;
    size_t parties = split_shards_.size();
    split_demand_.resize(parties);
    split_weight_.resize(parties);
    for (size_t i = 0; i < parties; ++i) {
      size_t slot = UseIndex(idx, split_shards_[i]);
      split_weight_[i] = use_weight_[slot];
      split_demand_[i] = use_uncapped_[slot] > 0
                             ? std::numeric_limits<double>::infinity()
                             : use_cap_sum_[slot];
    }
    // Shared level primitive (src/sim/level_fill.h): the same epsilon
    // discipline as FlowSim's water-filler, applied to shard aggregates in
    // ascending shard order — deterministic regardless of thread count.
    level_fill::WeightedMaxMinSplit(capacity, split_demand_, split_weight_,
                                    split_share_);
    for (size_t i = 0; i < parties; ++i) {
      uint32_t s = split_shards_[i];
      lease_held_[UseIndex(idx, s)] = 1;
      ++leases_applied_;
      (void)shards_[s].sim->SetLinkCapacityLease(link, split_share_[i]);
    }
    // Shards that stopped using the link keep no lease.
    size_t party_cursor = 0;
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      if (party_cursor < parties && split_shards_[party_cursor] == s) {
        ++party_cursor;
        continue;
      }
      if (lease_held_[UseIndex(idx, s)]) {
        lease_held_[UseIndex(idx, s)] = 0;
        (void)shards_[s].sim->SetLinkCapacityLease(link, -1.0);
      }
    }
  }
  dirty_links_.clear();
}

// --- FlowControlSurface: flow lifecycle --------------------------------------

FlowId ShardExecutor::StartFlow(std::vector<LinkId> path, double bytes,
                                CompletionFn on_complete, double weight,
                                double rate_cap_bps, AbortFn on_abort) {
  if (!ValidFlowStart(bytes, weight)) {
    return FlowId();
  }
  bool crossing = false;
  uint32_t shard = HomeShardOfPath(path, &crossing);
  FlowId global_id = global_ids_.Next();
  // Finite flows always get a completion wrapper (even with a null user
  // callback) so the global id mapping is reclaimed when they finish.
  CompletionFn wrapped_complete;
  if (std::isfinite(bytes)) {
    wrapped_complete = [this, shard, global_id,
                        user = std::move(on_complete)](FlowId, SimTime when) {
      FinishFlow(shard, global_id, when, user);
    };
  }
  // The abort wrapper is installed only when the caller supplied one:
  // FlowSim discriminates stall-vs-abort on the handler's presence, and an
  // unconditional wrapper would turn every blackhole into an abort.
  AbortFn wrapped_abort;
  if (on_abort) {
    wrapped_abort = [this, shard, global_id,
                     user = std::move(on_abort)](FlowId, SimTime when) {
      FinishFlow(shard, global_id, when, user);
    };
  }
  Mapping m;
  m.shard = shard;
  m.crossing = crossing;
  m.weight = weight;
  m.rate_cap_bps = rate_cap_bps;
  m.path = path;  // copy: the shard sim consumes the original
  m.local = shards_[shard].sim->StartFlow(
      std::move(path), bytes, std::move(wrapped_complete), weight,
      rate_cap_bps, std::move(wrapped_abort));
  AddUsage(m);
  flow_map_.emplace(global_id, std::move(m));
  return global_id;
}

FlowId ShardExecutor::StartPersistentFlow(std::vector<LinkId> path,
                                          double weight, double rate_cap_bps,
                                          AbortFn on_abort) {
  return StartFlow(std::move(path), std::numeric_limits<double>::infinity(),
                   CompletionFn(), weight, rate_cap_bps, std::move(on_abort));
}

void ShardExecutor::FinishFlow(uint32_t shard, FlowId global_id, SimTime when,
                               const std::function<void(FlowId, SimTime)>& fn) {
  if (in_parallel_) {
    // Worker thread: park for the barrier drain. Only this shard's worker
    // appends here, so per-shard FIFO order is the shard's firing order.
    shards_[shard].outbox.push_back(Deferred{global_id, when, fn});
    return;
  }
  auto it = flow_map_.find(global_id);
  if (it != flow_map_.end()) {
    RemoveUsage(it->second);
    flow_map_.erase(it);
  }
  if (fn) {
    fn(global_id, when);
  }
}

Status ShardExecutor::CancelFlow(FlowId id) {
  auto it = flow_map_.find(id);
  if (it == flow_map_.end()) {
    return NotFoundError("no such flow");
  }
  uint32_t shard = it->second.shard;
  FlowId local = it->second.local;
  Status status = shards_[shard].sim->CancelFlow(local);
  if (status.ok()) {
    RemoveUsage(it->second);
    flow_map_.erase(it);
  }
  // A not-found from the shard sim means the flow already finished (e.g.
  // its completion is parked in an outbox); the drain reclaims the mapping.
  return status;
}

Status ShardExecutor::SetRateCap(FlowId id, double rate_cap_bps) {
  auto it = flow_map_.find(id);
  if (it == flow_map_.end()) {
    return NotFoundError("no such flow");
  }
  Mapping& m = it->second;
  Status status =
      shards_[m.shard].sim->SetRateCap(m.local, rate_cap_bps);
  if (status.ok() && m.rate_cap_bps != rate_cap_bps) {
    AdjustCapUsage(m, m.rate_cap_bps, rate_cap_bps);
    m.rate_cap_bps = rate_cap_bps;
  }
  return status;
}

Result<double> ShardExecutor::CurrentRate(FlowId id) const {
  auto it = flow_map_.find(id);
  if (it == flow_map_.end()) {
    return NotFoundError("no such flow");
  }
  return shards_[it->second.shard].sim->CurrentRate(it->second.local);
}

const FlowState* ShardExecutor::FindFlow(FlowId id) const {
  auto it = flow_map_.find(id);
  if (it == flow_map_.end()) {
    return nullptr;
  }
  return shards_[it->second.shard].sim->FindFlow(it->second.local);
}

// --- FlowControlSurface: fault surface ---------------------------------------

Status ShardExecutor::SetLinkUp(LinkId link, bool up) {
  if (!link.valid() ||
      Topology::DenseLinkIndex(link) >= topology_.link_count()) {
    return InvalidArgumentError("unknown link id");
  }
  size_t idx = Topology::DenseLinkIndex(link);
  link_up_[idx] = up ? 1 : 0;
  // Broadcast: any shard sim may be homing flows that cross this link.
  // Sims without flows on it treat the toggle as a cheap no-op realloc
  // seed; sims with flows abort/stall/restore exactly as FlowSim does.
  Status status = Status::Ok();
  for (Shard& shard : shards_) {
    Status s = shard.sim->SetLinkUp(link, up);
    if (!s.ok()) {
      status = s;
    }
  }
  return status;
}

bool ShardExecutor::IsLinkUp(LinkId link) const {
  if (!link.valid() ||
      Topology::DenseLinkIndex(link) >= topology_.link_count()) {
    return true;
  }
  return link_up_[Topology::DenseLinkIndex(link)] != 0;
}

size_t ShardExecutor::stalled_flow_count() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.sim->stalled_flow_count();
  }
  return total;
}

uint64_t ShardExecutor::flows_aborted() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.sim->flows_aborted();
  }
  return total;
}

uint64_t ShardExecutor::flows_blackholed() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.sim->flows_blackholed();
  }
  return total;
}

double ShardExecutor::bytes_blackholed() const {
  // Summed in ascending shard order: float addition is not associative, so
  // a fixed order keeps the aggregate byte-identical across thread counts.
  double total = 0;
  for (const Shard& shard : shards_) {
    total += shard.sim->bytes_blackholed();
  }
  return total;
}

// --- FlowControlSurface: latency + accounting --------------------------------

double ShardExecutor::LinkUtilization(LinkId link) const {
  size_t idx = Topology::DenseLinkIndex(link);
  if (!link.valid() || idx >= topology_.link_count()) {
    return 0;
  }
  if (!link_up_[idx]) {
    return 1.0;  // a downed link has no headroom at all
  }
  // Allocations summed in ascending shard order (associativity again).
  double allocated = 0;
  for (const Shard& shard : shards_) {
    allocated += shard.sim->LinkAllocatedBps(link);
  }
  double cap = topology_.link(link).capacity_bps;
  return cap > 0 ? std::min(1.0, allocated / cap) : 0;
}

SimDuration ShardExecutor::QueuePenalty(const std::vector<LinkId>& path,
                                        SimDuration per_link_base,
                                        SimDuration per_link_cap) const {
  // Per-link utilization is computed executor-wide (allocations summed
  // across shard sims), so a crossing path sees congestion contributed by
  // every shard, not just the flow's home.
  SimDuration total = SimDuration::Zero();
  for (LinkId link : path) {
    total += QueuePenaltyForUtilization(LinkUtilization(link), per_link_base,
                                        per_link_cap);
  }
  return total;
}

size_t ShardExecutor::active_flow_count() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.sim->active_flow_count();
  }
  return total;
}

double ShardExecutor::total_bytes_delivered() const {
  double total = 0;  // fixed shard order (see bytes_blackholed)
  for (const Shard& shard : shards_) {
    total += shard.sim->total_bytes_delivered();
  }
  return total;
}

uint64_t ShardExecutor::reallocation_count() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.sim->reallocation_count();
  }
  return total;
}

uint64_t ShardExecutor::flows_rescheduled() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.sim->flows_rescheduled();
  }
  return total;
}

// --- Batching ----------------------------------------------------------------

void ShardExecutor::BeginBatch() {
  if (batch_depth_++ == 0) {
    for (Shard& shard : shards_) {
      shard.sim->BeginBatch();
    }
  }
}

void ShardExecutor::EndBatch() {
  if (batch_depth_ == 0) {
    ++unmatched_end_batches_;  // nothing open: refuse rather than underflow
    return;
  }
  if (--batch_depth_ != 0) {
    return;
  }
  // Per-shard reallocations are independent; fan them out to the pool when
  // more than one shard has real work (each shard's EndBatch is a cheap
  // no-op otherwise). FlowSim::EndBatch never fires user callbacks
  // (completions are scheduled, not invoked), so nothing here can touch
  // main-thread-only state.
  size_t busy_shards = 0;
  for (const Shard& shard : shards_) {
    if (shard.sim->has_pending_batch_work()) {
      ++busy_shards;
    }
  }
  if (busy_shards <= 1) {
    for (Shard& shard : shards_) {
      shard.sim->EndBatch();
    }
    return;
  }
  RunShardJobs(WorkKind::kEndBatch, SimTime());
}

// --- Epoch loop --------------------------------------------------------------

uint64_t ShardExecutor::RunUntil(SimTime deadline) {
  if (batch_depth_ != 0) {
    ++runs_in_batch_;  // reallocations are deferred: refuse, fire nothing
    return 0;
  }
  uint64_t fired = 0;
  for (;;) {
    // Re-split shared links whose membership or demand changed since the
    // last epoch (flow churn, cap changes, border faults) — before reading
    // t_next, because the re-split can reschedule completions.
    ReconcileLeases();
    SimTime shard_next = SimTime::Infinite();
    for (Shard& shard : shards_) {
      SimTime t = shard.queue->NextEventTime();
      if (t < shard_next) {
        shard_next = t;
      }
    }
    SimTime control_next = control_.NextEventTime();
    SimTime t_next = std::min(shard_next, control_next);
    // Stop past the deadline — or when every queue is drained, which the
    // first comparison alone misses for an infinite deadline (RunAll):
    // Infinite > Infinite is false and the loop would spin forever.
    if (t_next > deadline || t_next == SimTime::Infinite()) {
      break;
    }
    // The epoch never outruns the next control event, so control events
    // only ever fire when every shard clock has reached their timestamp.
    SimTime epoch_end = deadline;
    SimTime horizon = t_next + kEpochQuantum;
    if (horizon < epoch_end) {
      epoch_end = horizon;
    }
    if (control_next < epoch_end) {
      epoch_end = control_next;
    }
    ++epochs_;
    in_parallel_ = true;
    RunShardJobs(WorkKind::kAdvance, epoch_end);
    in_parallel_ = false;
    for (Shard& shard : shards_) {
      fired += shard.fired_this_epoch;
    }
    fired += RunBarrierSection(epoch_end);
  }
  if (deadline != SimTime::Infinite()) {
    for (Shard& shard : shards_) {
      shard.queue->AdvanceTo(deadline);
    }
    control_.AdvanceTo(deadline);
  }
  return fired;
}

uint64_t ShardExecutor::RunBarrierSection(SimTime epoch_end) {
  // Clocks first: drained callbacks observe now() == epoch_end everywhere.
  control_.AdvanceTo(epoch_end);
  uint64_t control_fired = 0;
  {
    // One executor-wide batch over the whole barrier section: every flow
    // start/cancel/cap change triggered by drained callbacks or control
    // events coalesces into at most one reallocation per touched shard,
    // fanned back out to the pool by the closing EndBatch.
    BatchScope batch = Batch();
    for (Shard& shard : shards_) {
      // Drain in ascending shard order; each outbox preserves its shard's
      // FIFO firing order. Callbacks run here on the main thread and may
      // start/cancel flows, but cannot append to outboxes (in_parallel_ is
      // off), so indexed iteration is safe.
      callbacks_deferred_ += shard.outbox.size();
      for (size_t i = 0; i < shard.outbox.size(); ++i) {
        Deferred deferred = std::move(shard.outbox[i]);
        auto it = flow_map_.find(deferred.global_id);
        if (it != flow_map_.end()) {
          // Retiring the flow frees its share of any shared link; the
          // usage update marks those links dirty so the next epoch's
          // ReconcileLeases re-splits them.
          RemoveUsage(it->second);
          flow_map_.erase(it);
        }
        if (deferred.fn) {
          deferred.fn(deferred.global_id, deferred.when);
        }
      }
      shard.outbox.clear();
    }
    control_fired = control_.RunUntil(epoch_end);
  }
  return control_fired;
}

// --- Worker pool -------------------------------------------------------------

void ShardExecutor::RunOneShard(uint32_t index, WorkKind kind,
                                SimTime deadline) {
  Shard& shard = shards_[index];
  if (kind == WorkKind::kAdvance) {
    shard.fired_this_epoch = shard.queue->RunUntil(deadline);
  } else {
    shard.sim->EndBatch();
  }
}

void ShardExecutor::RunShardJobs(WorkKind kind, SimTime deadline) {
  if (workers_.empty() || shards_.size() == 1) {
    for (uint32_t i = 0; i < shards_.size(); ++i) {
      RunOneShard(i, kind, deadline);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    work_kind_ = kind;
    work_deadline_ = deadline;
    next_shard_.store(0, std::memory_order_relaxed);
    workers_done_ = 0;
    ++epoch_seq_;
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return workers_done_ == workers_.size(); });
}

void ShardExecutor::WorkerLoop() {
  uint64_t seen_seq = 0;
  for (;;) {
    WorkKind kind;
    SimTime deadline;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || epoch_seq_ != seen_seq; });
      if (shutdown_) {
        return;
      }
      seen_seq = epoch_seq_;
      kind = work_kind_;
      deadline = work_deadline_;
    }
    // Claim shards off the shared counter. The RMW makes claims unique;
    // ordering/visibility of shard state rides on the mu_ handshake.
    for (;;) {
      uint32_t index = next_shard_.fetch_add(1, std::memory_order_relaxed);
      if (index >= shards_.size()) {
        break;
      }
      RunOneShard(index, kind, deadline);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++workers_done_;
      if (workers_done_ == workers_.size()) {
        done_cv_.notify_one();
      }
    }
  }
}

}  // namespace tenantnet
