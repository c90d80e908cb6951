// Data-parallel executor for the fluid flow simulator.
//
// The topology is split by a deterministic region/link-cut partition
// (ComputeLinkCutPartition): S balanced node regions, each owning the links
// that leave its nodes. Unlike the original connected-component sharding,
// flows may cross shard boundaries — a giant WAN-stitched topology (the
// paper's Fig. 1 shape) still parallelizes. Each shard owns a private
// EventQueue + FlowSim pair; a flow is *homed* on the shard owning the
// plurality of its path links (ties to the smallest shard id) and is
// simulated there over its full path.
//
// Cross-shard coupling — several shards' flows sharing one link — is
// resolved by epoch-synchronized capacity leases: before each epoch, every
// link used by flows homed on two or more shards has its capacity split
// between those shards by a per-link weighted water-fill over the shards'
// aggregate demand (flow-weight sums, finite rate-cap sums). Each shard
// sim then water-fills its own flows against its leased share, so the sum
// of independent per-shard allocations never exceeds the real capacity
// (the split is conservative: capacity a shard leaves idle is unavailable
// to others until the next reconciliation). Leases are recomputed on the
// main thread, over dirty links in ascending dense-link order and shards
// in ascending id order, so the schedule is a pure function of the call
// sequence.
//
// Virtual time advances in barrier-synchronized epochs:
//
//   0. If any link's membership/demand changed (flow started/finished/
//      cancelled, cap changed, fault toggled), recompute its lease split
//      inside one executor-wide batch (reallocations fan out to the pool).
//   1. Pick epoch_end = min(deadline, t_next + quantum, next control event),
//      where t_next is the earliest pending event across every queue. The
//      control queue (timers, workload arrivals, fault schedules) bounds the
//      epoch, so control events only ever fire *at* an epoch boundary, when
//      every shard clock agrees.
//   2. Advance all shard queues to epoch_end in parallel (a worker pool
//      claims shards off an atomic counter). Data-plane events fire on
//      worker threads; user-facing callbacks (completions, aborts) are NOT
//      invoked there — they are appended to a shard-local outbox.
//   3. Barrier. On the main thread, drain outboxes in ascending shard
//      order (each preserves its shard's FIFO firing order), then run
//      control events due at epoch_end. Both run inside one executor-wide
//      BatchScope, so a burst of flow starts/cancels triggered by callbacks
//      coalesces into a single reallocation per touched shard — and the
//      closing EndBatch fans those per-shard reallocations back out to the
//      worker pool. Finished crossing flows mark their links dirty here,
//      so freed shared capacity is re-split in the next epoch's step 0.
//
// Determinism: the partition (topology + num_shards + partition_seed, never
// thread count), per-shard event order, outbox drain order, lease
// reconciliation order, and epoch schedule depend only on the topology and
// the call sequence — never on thread count or OS scheduling. Worker
// threads only decide *which core* runs a shard's (sequential) epoch, not
// any ordering. Results are therefore byte-identical for any num_threads,
// and the differential suite (tests/shard_executor_test.cc) asserts exactly
// that on giant-component topologies with crossing flows and border faults.
// Note the sharded fluid solution is *not* byte-identical to the unsharded
// FlowSim when flows cross shards — leases quantize shared capacity per
// epoch — but it is always feasible (no link oversubscribed) and tracks the
// global water-fill as the epoch quantum shrinks.
//
// Threading contract: every public method below must be called from the
// driving (main) thread. Worker threads touch only their claimed shard's
// queue/sim/outbox; the mutex/condvar epoch handshake provides the
// happens-before edges for everything else (TSan-verified).

#ifndef TENANTNET_SRC_SIM_SHARD_EXECUTOR_H_
#define TENANTNET_SRC_SIM_SHARD_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/sim/event_queue.h"
#include "src/sim/flow_sim.h"
#include "src/sim/flow_surface.h"
#include "src/sim/topology.h"

namespace tenantnet {

class ShardExecutor final : public FlowControlSurface {
 public:
  struct Options {
    // Worker threads advancing shards. 1 = run every shard on the driving
    // thread (no pool); results are identical either way.
    int num_threads = 1;
    // Shard count (= link-cut partition parts). 0 = the partitioner
    // target: min(32, max(component count, ceil(nodes / 32))) — a giant
    // single-component topology still gets ceil(nodes/32) shards instead
    // of degenerating to one. Fixed per topology and *independent of
    // num_threads*, so the partition (and thus the result) does not change
    // when the thread count does.
    int num_shards = 0;
    // Deterministic seed for the link-cut partitioner (rotates region
    // growth starts). Same topology + shards + seed => same partition.
    uint64_t partition_seed = 0;
    // Upper bound on how far an epoch may outrun the earliest pending
    // event. Smaller = user callbacks observe completion times sooner and
    // shared-link leases re-split more often; larger = fewer barriers.
    SimDuration epoch_quantum = SimDuration::Millis(1);
  };

  // `control` is the user-facing event queue: workload timers, fault
  // schedules and quota epochs live there and fire only at epoch
  // boundaries. Both references must outlive the executor.
  ShardExecutor(EventQueue& control, const Topology& topology, Options opts);
  ~ShardExecutor() override;

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  // --- Driving ---------------------------------------------------------------
  // Runs data-plane and control events until every queue is drained or past
  // `deadline`; advances all clocks to `deadline` if finite. Replaces
  // EventQueue::RunUntil as the simulation driver. Returns events fired.
  // Inside an open batch it is refused in every build: it fires nothing,
  // returns 0 and counts the call (runs_in_batch()).
  uint64_t RunUntil(SimTime deadline);
  uint64_t RunAll() { return RunUntil(SimTime::Infinite()); }

  SimTime now() const { return control_.now(); }

  size_t shard_count() const { return shards_.size(); }
  int num_threads() const { return opts_.num_threads; }
  const LinkCutPartition& partition() const { return partition_; }
  // Shard owning `link`'s capacity bookkeeping (the partition side of its
  // source node). Flows homed elsewhere may still use the link via leases.
  uint32_t ShardOfLink(LinkId link) const {
    return partition_.link_part[Topology::DenseLinkIndex(link)];
  }

  // --- FlowControlSurface ----------------------------------------------------
  FlowId StartFlow(std::vector<LinkId> path, double bytes,
                   CompletionFn on_complete, double weight = 1.0,
                   double rate_cap_bps = std::numeric_limits<double>::infinity(),
                   AbortFn on_abort = AbortFn()) override;
  FlowId StartPersistentFlow(std::vector<LinkId> path, double weight = 1.0,
                             double rate_cap_bps =
                                 std::numeric_limits<double>::infinity(),
                             AbortFn on_abort = AbortFn()) override;
  Status CancelFlow(FlowId id) override;
  Status SetRateCap(FlowId id, double rate_cap_bps) override;
  Result<double> CurrentRate(FlowId id) const override;
  const FlowState* FindFlow(FlowId id) const override;

  // Faults are broadcast: every shard sim mirrors the link state, because
  // flows homed on any shard may cross any link.
  Status SetLinkUp(LinkId link, bool up) override;
  bool IsLinkUp(LinkId link) const override;
  size_t stalled_flow_count() const override;
  uint64_t flows_aborted() const override;
  uint64_t flows_blackholed() const override;
  double bytes_blackholed() const override;

  // True utilization of `link`: allocations summed across every shard sim
  // (fixed shard order) over the topology capacity; 1.0 while down.
  double LinkUtilization(LinkId link) const override;
  SimDuration QueuePenalty(const std::vector<LinkId>& path,
                           SimDuration per_link_base,
                           SimDuration per_link_cap) const override;

  size_t active_flow_count() const override;
  double total_bytes_delivered() const override;
  uint64_t reallocation_count() const override;
  uint64_t flows_rescheduled() const override;

  // Executor-wide batch: forwards to every shard sim, so one scope covers
  // flow starts landing anywhere. The outermost EndBatch runs the per-shard
  // reallocations on the worker pool. An EndBatch with no open batch is a
  // counted no-op.
  void BeginBatch() override;
  void EndBatch() override;
  uint64_t unmatched_end_batches() const { return unmatched_end_batches_; }
  // RunUntil/RunAll calls refused because a batch was open.
  uint64_t runs_in_batch() const { return runs_in_batch_; }

  // --- Telemetry -------------------------------------------------------------
  uint64_t epochs_run() const { return epochs_; }
  // Callbacks deferred from worker threads to epoch barriers so far.
  uint64_t callbacks_deferred() const { return callbacks_deferred_; }
  // Lease reconciliation passes (epochs that re-split at least one shared
  // link) and individual per-link splits applied.
  uint64_t lease_reconciliations() const { return lease_reconciliations_; }
  uint64_t leases_applied() const { return leases_applied_; }
  // Links currently used by flows homed on two or more shards.
  size_t shared_link_count() const;
  // Live flows whose path spans links owned by more than one shard.
  size_t crossing_flow_count() const { return crossing_flows_; }

 private:
  // A user callback that fired on a worker thread, parked until the epoch
  // barrier. `when` is the simulated firing time inside the epoch.
  struct Deferred {
    FlowId global_id;
    SimTime when;
    std::function<void(FlowId, SimTime)> fn;  // user callback; may be empty
  };

  struct Shard {
    std::unique_ptr<EventQueue> queue;
    std::unique_ptr<FlowSim> sim;
    std::vector<Deferred> outbox;     // filled by its worker, drained on main
    uint64_t fired_this_epoch = 0;
  };

  struct Mapping {
    uint32_t shard;
    FlowId local;
    bool crossing;        // path spans links owned by >1 shard
    double weight;        // demand bookkeeping for shared-link splits
    double rate_cap_bps;
    std::vector<LinkId> path;
  };

  enum class WorkKind : uint8_t { kAdvance, kEndBatch };

  uint32_t HomeShardOfPath(const std::vector<LinkId>& path,
                           bool* crossing) const;

  // --- Shared-link demand bookkeeping (all main-thread) ---------------------
  // Per (dense link, shard): how many flows homed on `shard` use the link,
  // their weight sum, finite rate-cap sum, and uncapped count. A link with
  // users on >= 2 shards is *shared* and gets capacity leases.
  size_t UseIndex(size_t dense_link, uint32_t shard) const {
    return dense_link * shards_.size() + shard;
  }
  void AddUsage(const Mapping& m);
  void RemoveUsage(const Mapping& m);
  void AdjustCapUsage(const Mapping& m, double old_cap, double new_cap);
  void MarkLinkDirty(size_t dense_link);
  // Re-splits every dirty link's capacity across its using shards inside
  // one executor-wide batch. Main thread, outside any epoch.
  void ReconcileLeases();

  // Either invokes a user callback now (main thread, clocks agree) or
  // parks it in `shard`'s outbox for the barrier drain. Always erases the
  // global id's mapping (and its shared-link usage) at invocation time.
  void FinishFlow(uint32_t shard, FlowId global_id, SimTime when,
                  const std::function<void(FlowId, SimTime)>& fn);

  // Fans `kind` out to the worker pool (or runs shards in order on the
  // main thread when there is no pool).
  void RunShardJobs(WorkKind kind, SimTime deadline);
  void WorkerLoop();
  void RunOneShard(uint32_t index, WorkKind kind, SimTime deadline);

  // Drains every outbox (ascending shard order, per-shard FIFO) and runs
  // control events due at `epoch_end`, all inside one executor batch.
  uint64_t RunBarrierSection(SimTime epoch_end);

  EventQueue& control_;
  const Topology& topology_;
  Options opts_;
  LinkCutPartition partition_;

  std::vector<Shard> shards_;

  IdGenerator<FlowId> global_ids_;
  std::unordered_map<FlowId, Mapping> flow_map_;

  // Dense per-(link, shard) usage arrays (see UseIndex) + per-link state.
  std::vector<uint32_t> use_count_;
  std::vector<double> use_weight_;
  std::vector<double> use_cap_sum_;      // finite rate caps only
  std::vector<uint32_t> use_uncapped_;   // flows with an infinite cap
  std::vector<uint8_t> lease_held_;      // per (link, shard): lease in force
  std::vector<uint8_t> link_up_;         // executor-wide fault view
  std::vector<uint8_t> link_dirty_;
  std::vector<uint32_t> dirty_links_;
  size_t crossing_flows_ = 0;

  // Lease water-fill scratch (reused per link).
  std::vector<uint32_t> split_shards_;
  std::vector<double> split_demand_;
  std::vector<double> split_weight_;
  std::vector<double> split_share_;

  uint32_t batch_depth_ = 0;
  uint64_t unmatched_end_batches_ = 0;
  uint64_t runs_in_batch_ = 0;
  bool in_parallel_ = false;  // written on main; read by workers mid-epoch
  uint64_t epochs_ = 0;
  uint64_t callbacks_deferred_ = 0;
  uint64_t lease_reconciliations_ = 0;
  uint64_t leases_applied_ = 0;

  // Worker-pool handshake. Main publishes {work_kind_, work_deadline_,
  // next_shard_=0} and bumps epoch_seq_ under mu_; workers claim shard
  // indices off next_shard_ and report done under mu_. The mutex provides
  // the happens-before for all shard state crossing threads.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t epoch_seq_ = 0;        // guarded by mu_
  uint32_t workers_done_ = 0;     // guarded by mu_
  bool shutdown_ = false;         // guarded by mu_
  WorkKind work_kind_ = WorkKind::kAdvance;  // published under mu_
  SimTime work_deadline_;                    // published under mu_
  std::atomic<uint32_t> next_shard_{0};
  std::vector<std::thread> workers_;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_SIM_SHARD_EXECUTOR_H_
