// Flow-level (fluid) network simulation.
//
// Active flows share link capacity max-min fairly, with optional per-flow
// rate caps (how egress quotas and VM egress limits act on the data plane)
// and per-flow weights (how weighted SIP load balancing biases sharing).
// When the active set changes, rates are recomputed by water-filling and
// affected flows' completions are (re)scheduled on the event queue. This is
// the standard fluid approximation: it captures throughput shares, transfer
// times and congestion crossovers without per-packet cost.
//
// Reallocation is *bottleneck-structured and incremental*. The water-filler
// is a single-pass level fill: per-link fair-share levels
// (budget_remaining / budget_weight) and per-flow cap levels live in one
// min-heap, and each pop freezes exactly the binding constraint —
// O((F·P + L) log L) for F flows of path length P over L links, instead of
// the old freeze-round loop's O(rounds · F · P). After every fill the sim
// records the classic bottleneck decomposition: each flow's binding
// constraint (own cap, or the first link whose level popped under it) and
// each saturated link's frozen level λ, including the per-link membership
// lists of those bottleneck *groups*. A later single-flow
// arrival / departure / cap-change / weight-change then re-levels only the
// bottleneck groups reachable from the touched path links whose λ actually
// moves — unaffected groups keep their rates bit-for-bit, so a churn event
// costs O(affected groups), not O(congestion component), even when every
// flow shares one trunk. A from-scratch component-scoped fill is kept as
// the differential oracle (SetIncrementalRelevel(false)); the incremental
// path is *bit-identical* to it by construction: both run the same
// canonical fill (members visited in ascending FlowId order, freezes
// applied in ascending (level, kind, id) order, link allocations maintained
// by per-flow deltas in that same order), and the incremental region grows
// until every constraint whose arithmetic could move is inside it.
//
// Per-link budgets and allocations live in dense vectors keyed by the
// topology's contiguous link index (no per-call hash-map churn), flow
// progress is settled lazily per flow, and completion events are
// rescheduled only for flows whose rate actually changed (epsilon compare,
// see level_fill::RateChanged). A BatchUpdate scope (see Batch()) coalesces
// a burst of starts / cancels / cap changes — e.g. a quota re-division
// across hundreds of flows — into a single reallocation pass.
//
// Latency-sensitive callers (request/response traffic) use Topology's
// sampled path delay plus QueuePenalty(), which adds an M/M/1-style
// utilization-dependent term per congested link; both are O(1) per link on
// the dense index.

#ifndef TENANTNET_SRC_SIM_FLOW_SIM_H_
#define TENANTNET_SRC_SIM_FLOW_SIM_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/sim/event_queue.h"
#include "src/sim/flow_surface.h"
#include "src/sim/topology.h"
#include "src/telemetry/metrics.h"

namespace tenantnet {

// `final` so calls through a concrete FlowSim& devirtualize; drivers that
// must run over either executor hold a FlowControlSurface& instead.
class FlowSim final : public FlowControlSurface {
 public:
  // Both references must outlive the FlowSim.
  FlowSim(EventQueue& queue, const Topology& topology);

  // Starts a finite transfer of `bytes` along `path`. `on_complete` fires
  // when the last byte is delivered. Empty paths complete immediately
  // (same-node transfer). If `on_abort` is set, a link fault on the path
  // aborts the flow and fires it; without one the flow stalls at rate 0
  // until the link recovers (a blackhole, counted in the fault telemetry).
  // A link already down at the start counts as one that fails right
  // after it: the flow aborts (its handler fires once, through the queue,
  // at the start time) or stalls. Arguments that break ValidFlowStart are
  // refused: FlowId() comes back.
  FlowId StartFlow(std::vector<LinkId> path, double bytes,
                   CompletionFn on_complete, double weight = 1.0,
                   double rate_cap_bps = std::numeric_limits<double>::infinity(),
                   AbortFn on_abort = AbortFn()) override;

  // Starts a persistent (infinite-backlog) flow; it runs until CancelFlow.
  // An empty path yields a *tracked zero-link no-op flow*: it consumes no
  // link capacity, reports rate 0 and transfers no bytes, but counts in
  // active_flow_count() and can be cancelled like any other flow.
  FlowId StartPersistentFlow(std::vector<LinkId> path, double weight = 1.0,
                             double rate_cap_bps =
                                 std::numeric_limits<double>::infinity(),
                             AbortFn on_abort = AbortFn()) override;

  // Stops a flow early (persistent or finite). No completion callback fires.
  Status CancelFlow(FlowId id) override;

  // --- Fault injection -------------------------------------------------------
  // Downs (up=false) or restores (up=true) a link's capacity. On a down
  // transition, inside one Batch(): flows crossing the link that carry an
  // abort handler are killed (handlers fire after the batch reallocates, in
  // deterministic path order); flows without one stall at rate 0 — they are
  // blackholed until recovery, when the single batched reallocation restores
  // their rates and reschedules completions. Idempotent per state. This
  // mirrors (but does not read) Topology::SetLinkUp — fault injectors set
  // both so path selection and capacity agree.
  Status SetLinkUp(LinkId link, bool up) override;
  bool IsLinkUp(LinkId link) const override;

  // Flows currently stalled at rate 0 on a downed link (excludes tracked
  // zero-link no-op flows). Zero after every fault has recovered — the
  // "no permanently blackholed flows" invariant the resilience tests check.
  size_t stalled_flow_count() const override;

  // Cumulative fault damage: flows aborted (handler fired) / first-time
  // stalls, and the payload bytes left undelivered at that moment.
  uint64_t flows_aborted() const override { return flows_aborted_; }
  uint64_t flows_blackholed() const override { return flows_blackholed_; }
  double bytes_blackholed() const override { return bytes_blackholed_; }

  // --- Capacity leases (cross-shard shared links) ----------------------------
  // The shard executor splits a link's capacity among the shard sims whose
  // flows use it; each sim then water-fills against its leased share, so
  // the sum of independent per-shard allocations never exceeds the real
  // capacity. A negative value clears the lease (full topology capacity).
  // Honors open batches like every other mutation: inside a Batch() the
  // realloc seeded on the link is deferred to EndBatch. A downed link's
  // effective capacity stays zero regardless of any lease.
  Status SetLinkCapacityLease(LinkId link, double bps);
  // Raw bits/sec this sim has allocated on `link` (the executor sums this
  // across shards to compute true utilization of a shared link).
  double LinkAllocatedBps(LinkId link) const;

  // Tightens/loosens a live flow's rate cap (quota re-division does this).
  Status SetRateCap(FlowId id, double rate_cap_bps) override;

  // Changes a live flow's max-min weight (e.g. a load balancer re-weighting
  // a backend mid-connection). Weight must be > 0. Like SetRateCap this
  // honors open batches; the flow's whole path is treated as dirty because
  // a weight change moves every fair-share denominator the flow sits in.
  Status SetWeight(FlowId id, double weight);

  // Current max-min allocation for a live flow, in bits/sec. Inside a
  // batch, flows touched since BeginBatch report their pre-batch rate
  // (new flows report 0) until EndBatch reallocates.
  Result<double> CurrentRate(FlowId id) const override;

  const FlowState* FindFlow(FlowId id) const override;

  // Visits every live flow (including tracked zero-link no-op flows) in
  // unspecified order. For oracle fingerprinting and debugging; callers
  // that need a stable order should sort the visited ids.
  void ForEachFlow(
      const std::function<void(FlowId, const FlowState&)>& fn) const;

  // Fraction of `link`'s capacity currently allocated, in [0, 1]. O(1) on
  // the dense link index.
  double LinkUtilization(LinkId link) const override;

  // Extra queueing delay a probe sees on `path` right now: per link,
  // base_rtt_fraction * util/(1-util), capped at `cap` per link. A cheap
  // stand-in for queue buildup that makes congested paths visibly slower.
  SimDuration QueuePenalty(const std::vector<LinkId>& path,
                           SimDuration per_link_base,
                           SimDuration per_link_cap) const override;

  size_t active_flow_count() const override { return flows_.size(); }

  // Total bytes delivered by completed+cancelled+running flows so far.
  double total_bytes_delivered() const override;

  // Number of water-filling recomputations performed (cost metric). Every
  // non-batched start/finish/cancel/cap change counts one; a BatchUpdate
  // scope counts one for the whole burst.
  uint64_t reallocation_count() const override { return reallocations_; }

  // --- Incremental-vs-scratch oracle -----------------------------------------
  // With incremental releveling disabled, every reallocation re-runs the
  // canonical fill over the full congestion component(s) reachable from the
  // touched flows/links — the from-scratch differential oracle (house
  // pattern: ConvergeFull / PropagateRoutesFull). The incremental path must
  // be *byte-identical* to it: same rates, same link allocations, same
  // completion (re)scheduling — the waterfill fuzz suite replays identical
  // scripts through both modes and compares fingerprints bit-for-bit.
  void SetIncrementalRelevel(bool enabled) { incremental_ = enabled; }

  // --- BatchUpdate -----------------------------------------------------------
  // Coalesces a burst of starts/cancels/cap changes into one reallocation.
  // While the scope is open, mutations update flow/link state but defer
  // water-filling; the destructor (or EndBatch) runs a single scoped pass
  // over the union of touched bottleneck groups. Scopes nest; the outermost
  // one reallocates. Do not run the event queue while a batch is open.
  // (BatchScope / Batch() are inherited from FlowControlSurface.)
  void BeginBatch() override { ++batch_depth_; }
  // An EndBatch with no open batch is a counted no-op.
  void EndBatch() override;
  uint64_t unmatched_end_batches() const { return unmatched_end_batches_; }
  // True if the open batch has accumulated work that the outermost
  // EndBatch will reallocate. Lets the shard executor skip its worker-pool
  // dispatch on epochs where no shard touched anything.
  bool has_pending_batch_work() const {
    return !pending_flows_.empty() || !pending_links_.empty() ||
           !pending_shrunk_links_.empty();
  }

  // --- Telemetry -------------------------------------------------------------
  // Completion events actually (re)scheduled; flows whose rate survived a
  // reallocation unchanged keep their event and are not counted.
  uint64_t flows_rescheduled() const override { return flows_rescheduled_; }
  // Flows whose rate was recomputed, summed over every reallocation (the
  // incremental path counts only the re-leveled groups; the scratch oracle
  // counts the whole component), and its mean per reallocation.
  uint64_t flows_touched() const { return flows_touched_; }
  double mean_flows_touched_per_realloc() const {
    return reallocations_ ? static_cast<double>(flows_touched_) /
                                static_cast<double>(reallocations_)
                          : 0;
  }
  // Wall-clock cost of each reallocation pass, in microseconds
  // (observability only; never feeds back into simulated time).
  const Histogram& realloc_micros_histogram() const {
    return realloc_micros_hist_;
  }
  // Fill passes re-run after region growth or an external-rebind abort. A
  // high count means churn keeps straddling group boundaries — the
  // fallback-to-full heuristic territory.
  uint64_t fill_restarts() const { return fill_restarts_; }
  // Reallocations that ran the full component-scoped fill: all of them in
  // oracle mode, only region-growth fallbacks in incremental mode.
  uint64_t full_fills() const { return full_fills_; }

 private:
  // How a flow's rate was last determined (the bottleneck decomposition).
  enum BindKind : uint8_t {
    kBindFree = 0,  // no finite constraint anywhere: effectively unbounded
    kBindCap = 1,   // own rate cap froze first
    kBindLink = 2,  // a saturated link's level λ froze first
  };

  struct LiveFlow {
    FlowState state;
    CompletionFn on_complete;
    AbortFn on_abort;
    EventHandle completion_event;
    SimTime last_settle;        // progress integrated up to here
    bool blackhole_counted = false;  // first stall/abort already tallied
    // Position of this flow's entry in link_members_[dense(path[i])], kept
    // in lockstep by swap-erase so removal is O(path).
    std::vector<uint32_t> member_pos;

    // --- Persistent bottleneck record (valid after every fill) --------------
    uint8_t bind_kind = kBindFree;
    uint32_t bind_link = 0;     // dense index; meaningful when kBindLink
    double bind_level = std::numeric_limits<double>::infinity();
    uint32_t group_pos = 0;     // slot in link_group_[bind_link]

    // --- Fill scratch (meaningful only during a reallocation) ---------------
    uint64_t visit_stamp = 0;      // region/BFS membership (per realloc)
    uint64_t recompute_stamp = 0;  // in the recompute set F (per realloc)
    uint64_t member_stamp = 0;     // collected into the pass (per pass)
    uint64_t frozen_stamp = 0;     // frozen by the current pass
    double pending_rate = 0;       // rate computed by the fill
    uint8_t pend_bind_kind = kBindFree;
    uint32_t pend_bind_link = 0;
    double pend_bind_level = 0;
  };
  // Reverse index entry: a flow crossing a link, with the index of that
  // link within the flow's own path (disambiguates repeated links).
  struct LinkMember {
    FlowId flow;
    LiveFlow* live;
    uint32_t path_index;
  };
  // One per-flow event of the canonical level fill. The fill's total order
  // over constraints is (level, kind, a, b): kind 0 = flow cap (a = flow
  // id), kind 1 = link level (a = dense link index, b = 0) or the replay
  // of an external flow frozen by that link in the previous decomposition
  // (b = flow id, sorts after the link's own position on ties). Flow
  // events are static within a pass, so they live in one sorted array;
  // link levels are dynamic but non-decreasing, so the fill selects the
  // next constraint by comparing the array cursor against a scan of the
  // live per-slot levels — same selection sequence a global heap would
  // produce, without per-subtraction heap churn.
  struct FillEvent {
    double level;
    uint8_t kind;
    uint64_t a;
    uint64_t b;
    LiveFlow* flow;
    FlowId fid;
  };
  struct FillEventBefore {
    bool operator()(const FillEvent& x, const FillEvent& y) const {
      if (x.level != y.level) return x.level < y.level;
      if (x.kind != y.kind) return x.kind < y.kind;
      if (x.a != y.a) return x.a < y.a;
      return x.b < y.b;
    }
  };

  void EnsureLinkArrays(size_t dense_index);
  void AddFlowToLinks(FlowId id, LiveFlow& flow);
  // Also subtracts the flow's current rate from the per-link allocations
  // (zeroing links it leaves empty) and drops it from its bottleneck group.
  void RemoveFlowFromLinks(FlowId id, LiveFlow& flow);
  void RemoveFromGroup(LiveFlow& flow);

  // Link capacity as the water-filler sees it: zero while down.
  double EffectiveCapacityBps(size_t dense_index) const;

  // Tears a flow down (fault path): settles progress, charges the blackhole
  // counters, and hands back the abort callback to fire once the enclosing
  // batch has reallocated.
  AbortFn AbortFlow(FlowId id);

  // Advances one flow's bytes_left / delivered accounting to now() using
  // its current rate. Called lazily: only when the rate is about to change
  // or the flow's progress is read.
  void SettleFlow(LiveFlow& flow);

  // --- Reallocation ----------------------------------------------------------
  // Entry points. `seed_flows` are live flows whose own constraints changed
  // (start / cap / weight); `capdirty_links` had their effective capacity
  // or membership-weight structure changed (fault toggle, lease, weight
  // change); `shrunk_links` only lost demand (cancel / completion / abort) —
  // they re-level only if they were saturated.
  void Reallocate(const FlowId* seed_flows, size_t seed_flow_count,
                  const size_t* capdirty_links, size_t capdirty_count,
                  const size_t* shrunk_links, size_t shrunk_count);
  void ReallocateOne(FlowId seed);

  // Incremental path: grows the region of links/flows from the seeds until
  // a fill pass commits with every moved constraint inside it.
  void RelevelDelta(const FlowId* seed_flows, size_t seed_flow_count,
                    const size_t* capdirty_links, size_t capdirty_count,
                    const size_t* shrunk_links, size_t shrunk_count);
  // Scratch path: BFS the full congestion component(s) from the seeds and
  // run the canonical fill over everything (oracle + fallback).
  void RefillComponent(const FlowId* seed_flows, size_t seed_flow_count,
                       const size_t* seed_links, size_t seed_link_count);

  // Region bookkeeping shared by both paths.
  void AddRegionLink(size_t dense_index);      // pulls the link's group into F
  void AddRecomputeFlow(FlowId id, LiveFlow* live);

  // One canonical fill pass over the current region / recompute set.
  // Returns false when an external flow must be pulled into the recompute
  // set (grow_* filled); the caller grows and re-runs.
  bool RunFillPass();
  // Post-pass fixpoint probe: returns true (and grows the region) when a
  // recomputed rate moved demand on a link outside the region that was
  // frozen or is now within epsilon of saturation.
  bool GrowFromProbe();
  // Commits pending rates/binds, applies allocation deltas in ascending
  // FlowId order, reschedules completions, updates group lists.
  void CommitFill();

  void HandleCompletion(FlowId id);

  EventQueue& queue_;
  const Topology& topology_;
  std::unordered_map<FlowId, LiveFlow> flows_;
  IdGenerator<FlowId> flow_ids_;
  double bytes_delivered_ = 0;
  uint64_t reallocations_ = 0;
  uint64_t flows_rescheduled_ = 0;
  bool incremental_ = true;

  // Dense per-link state, indexed by Topology::DenseLinkIndex.
  std::vector<std::vector<LinkMember>> link_members_;
  std::vector<double> link_allocated_bps_;
  std::vector<uint64_t> link_stamp_;  // region/BFS inclusion marker
  std::vector<uint32_t> link_slot_;   // dense index -> region slot
  std::vector<uint8_t> link_down_;    // fault overlay (1 = down)
  std::vector<double> link_lease_;    // capacity lease; negative = none
  // Persistent bottleneck decomposition: frozen level per saturated link
  // and the flows leveled there (the bottleneck group).
  std::vector<uint8_t> link_frozen_;
  std::vector<double> link_lambda_;
  std::vector<std::vector<LinkMember>> link_group_;

  uint64_t flows_aborted_ = 0;
  uint64_t flows_blackholed_ = 0;
  double bytes_blackholed_ = 0;

  // Region / fill scratch (reused; allocation-free in steady state).
  uint64_t stamp_ = 0;         // region + recompute-set marker (per realloc)
  uint64_t pass_stamp_ = 0;    // member/frozen marker (per pass)
  uint64_t probe_stamp_ = 0;   // probe accumulator marker
  std::vector<size_t> region_links_;
  std::vector<std::pair<FlowId, LiveFlow*>> recompute_flows_;  // the F set
  struct Slot {  // per-region-link fill state, one cache line per pair
    double slack;
    double wsum;
    double lambda;
    uint8_t frozen;
  };
  std::vector<Slot> slots_;
  std::vector<FillEvent> fill_events_;  // sorted static per-flow events
  std::vector<uint64_t> link_probe_stamp_;
  std::vector<double> link_probe_delta_;
  std::vector<size_t> probe_links_;
  std::vector<size_t> seed_links_scratch_;
  std::vector<size_t> merged_links_scratch_;
  std::vector<FlowId> fallback_flows_scratch_;

  // Batch state.
  uint32_t batch_depth_ = 0;
  uint64_t unmatched_end_batches_ = 0;
  std::vector<FlowId> pending_flows_;
  std::vector<size_t> pending_links_;         // capacity/structure dirty
  std::vector<size_t> pending_shrunk_links_;  // demand-only shrink

  uint64_t flows_touched_ = 0;
  Histogram realloc_micros_hist_;
  uint64_t fill_restarts_ = 0;
  uint64_t full_fills_ = 0;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_SIM_FLOW_SIM_H_
