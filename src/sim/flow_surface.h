// The flow-control surface of the fluid data plane.
//
// Two executors implement it: FlowSim (the single-queue simulator) and
// ShardExecutor (a data-parallel engine that homes every flow on the shard
// owning the plurality of its path and epoch-synchronizes the links shared
// between shards). Everything that *drives* the data plane — the
// egress-quota manager's batched cap re-division, the fault injector's
// link toggles, the request workload's flow starts — is written against
// this interface, so one wiring works in both execution modes and the
// sharded runs stay byte-identical across any worker-thread count. Paths
// may span the whole topology: since the link-cut partition rework,
// drivers need not (and cannot) assume a flow's path stays inside one
// connected component or shard.

#ifndef TENANTNET_SRC_SIM_FLOW_SURFACE_H_
#define TENANTNET_SRC_SIM_FLOW_SURFACE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/sim/topology.h"

namespace tenantnet {

using FlowId = TypedId<struct FlowIdTag>;

// A flow in flight.
struct FlowState {
  std::vector<LinkId> path;
  double bytes_total = 0;      // payload size; infinity for persistent flows
  double bytes_left = 0;
  double weight = 1.0;         // max-min weight
  double rate_cap_bps = std::numeric_limits<double>::infinity();
  double current_rate_bps = 0;
  SimTime start_time;
};

// The M/M/1-shaped queueing-delay stand-in both engines use for
// QueuePenalty: per link, base * rho/(1-rho) with rho capped just below 1,
// clamped to `per_link_cap`. Shared so FlowSim (per-sim utilization) and
// ShardExecutor (utilization summed across shard sims) stay numerically
// identical formulas.
inline SimDuration QueuePenaltyForUtilization(double utilization,
                                              SimDuration per_link_base,
                                              SimDuration per_link_cap) {
  double rho = utilization < 0.999 ? utilization : 0.999;
  SimDuration penalty = per_link_base * (rho / (1.0 - rho));
  return penalty < per_link_cap ? penalty : per_link_cap;
}

// The StartFlow contract both executors enforce: `bytes` is a number >= 0
// (infinity for a persistent flow; NaN is refused) and `weight` passes
// SetWeight's rule, > 0 (which also refuses NaN). A refused start returns
// the invalid FlowId() and registers, schedules and calls back nothing.
inline bool ValidFlowStart(double bytes, double weight) {
  return bytes >= 0 && weight > 0;
}

class FlowControlSurface {
 public:
  using CompletionFn = std::function<void(FlowId, SimTime finish)>;
  // Fired when a fault kills a flow (the path lost a link). The flow is
  // already gone when this runs; callers reroute/retry (see
  // RequestWorkload's bounded backoff). Never fired by CancelFlow.
  using AbortFn = std::function<void(FlowId, SimTime when)>;

  virtual ~FlowControlSurface() = default;

  // Starts a finite transfer of `bytes` along `path`. `on_complete` fires
  // when the last byte is delivered. Empty paths complete immediately
  // (same-node transfer). If `on_abort` is set, a link fault on the path
  // aborts the flow and fires it; without one the flow stalls at rate 0
  // until the link recovers (a blackhole, counted in the fault telemetry).
  // A link already down at the start counts as one that fails right
  // after it: the flow aborts (its handler fires once, through the queue,
  // at the start time) or stalls. Arguments that break ValidFlowStart are
  // refused: FlowId() comes back.
  virtual FlowId StartFlow(
      std::vector<LinkId> path, double bytes, CompletionFn on_complete,
      double weight = 1.0,
      double rate_cap_bps = std::numeric_limits<double>::infinity(),
      AbortFn on_abort = AbortFn()) = 0;

  // Starts a persistent (infinite-backlog) flow; it runs until CancelFlow.
  virtual FlowId StartPersistentFlow(
      std::vector<LinkId> path, double weight = 1.0,
      double rate_cap_bps = std::numeric_limits<double>::infinity(),
      AbortFn on_abort = AbortFn()) = 0;

  // Stops a flow early (persistent or finite). No completion callback fires.
  virtual Status CancelFlow(FlowId id) = 0;

  // Tightens/loosens a live flow's rate cap (quota re-division does this).
  virtual Status SetRateCap(FlowId id, double rate_cap_bps) = 0;

  // Current max-min allocation for a live flow, in bits/sec.
  virtual Result<double> CurrentRate(FlowId id) const = 0;

  virtual const FlowState* FindFlow(FlowId id) const = 0;

  // --- Fault surface ---------------------------------------------------------
  virtual Status SetLinkUp(LinkId link, bool up) = 0;
  virtual bool IsLinkUp(LinkId link) const = 0;
  virtual size_t stalled_flow_count() const = 0;
  virtual uint64_t flows_aborted() const = 0;
  virtual uint64_t flows_blackholed() const = 0;
  virtual double bytes_blackholed() const = 0;

  // --- Latency surface -------------------------------------------------------
  virtual double LinkUtilization(LinkId link) const = 0;
  virtual SimDuration QueuePenalty(const std::vector<LinkId>& path,
                                   SimDuration per_link_base,
                                   SimDuration per_link_cap) const = 0;

  // --- Accounting ------------------------------------------------------------
  virtual size_t active_flow_count() const = 0;
  virtual double total_bytes_delivered() const = 0;
  virtual uint64_t reallocation_count() const = 0;
  virtual uint64_t flows_rescheduled() const = 0;

  // --- BatchUpdate -----------------------------------------------------------
  // Coalesces a burst of starts/cancels/cap changes into one reallocation
  // (per shard, in the sharded executor). Scopes nest; the outermost one
  // reallocates. Do not run the event loop while a batch is open.
  virtual void BeginBatch() = 0;
  virtual void EndBatch() = 0;

  class BatchScope {
   public:
    explicit BatchScope(FlowControlSurface& sim) : sim_(&sim) {
      sim_->BeginBatch();
    }
    BatchScope(BatchScope&& other) noexcept : sim_(other.sim_) {
      other.sim_ = nullptr;
    }
    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;
    BatchScope& operator=(BatchScope&&) = delete;
    ~BatchScope() {
      if (sim_ != nullptr) {
        sim_->EndBatch();
      }
    }

   private:
    FlowControlSurface* sim_;
  };
  BatchScope Batch() { return BatchScope(*this); }
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_SIM_FLOW_SURFACE_H_
