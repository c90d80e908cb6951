// Request/response workload driver.
//
// Drives application-level traffic over the simulated world: open-loop
// arrivals of request/response transactions between instance groups, at a
// Poisson rate that a RateCurve sets. Which flows are *allowed* and which
// attachment nodes they run between is delegated to a ConnectorFn, so the
// same workload runs unchanged over the baseline fabric and over the
// declarative API — the comparison experiments depend on exactly that
// symmetry.
//
// A transaction is: sampled forward path delay (propagation + jitter +
// congestion-dependent queueing) + server time + response transfer through
// the fluid FlowSim (so big responses see bandwidth contention) + sampled
// reverse delay. Latencies land in a per-pattern histogram.

#ifndef TENANTNET_SRC_APP_WORKLOAD_H_
#define TENANTNET_SRC_APP_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/cloud/world.h"
#include "src/common/rng.h"
#include "src/common/slab.h"
#include "src/common/status.h"
#include "src/sim/event_queue.h"
#include "src/sim/flow_surface.h"
#include "src/telemetry/metrics.h"

namespace tenantnet {

// Interner for deny-stage labels ("edge-filter", "no-eip", ...). Connectors
// resolve the label to a dense id once per denial; the workload hot loop
// then counts by id — no per-transaction string construction or map probe
// (the PR-8 diet: at 1M endpoints the deny path runs millions of times).
inline StringInterner& DenyStages() {
  static StringInterner* interner = new StringInterner();
  return *interner;
}
inline uint32_t DenyStage(std::string_view name) {
  return DenyStages().Intern(name);
}

// The world-specific verdict for one (src, dst) transaction attempt.
struct ResolvedRoute {
  bool allowed = false;
  uint32_t deny_stage = 0;    // DenyStage(...) id; 0 = unspecified
  NodeId src_node;
  NodeId dst_node;
  EgressPolicy policy = EgressPolicy::kColdPotato;
  double rate_cap_bps = std::numeric_limits<double>::infinity();
  // Max-min weight for the response flow: >1 models provider-side
  // bandwidth reservation (the §4 egress-guarantee approximation).
  double weight = 1.0;
};

using ConnectorFn = std::function<ResolvedRoute(InstanceId src, InstanceId dst)>;

// The route for one world's verdict (a Result of BaselineDelivery or
// DeclarativeDelivery): a drop denies under its stage ("denied" when the
// stage is unnamed). Each world's walk drops whatever its state refuses
// (src-down, no-eip, no-such-endpoint, instance-down), so an error Status,
// denied as "refused", means the caller misused the API.
template <typename Delivery>
ResolvedRoute RouteFor(const Result<Delivery>& d) {
  ResolvedRoute route;
  if (!d.ok() || !d->delivered) {
    route.deny_stage = DenyStage(
        d.ok() ? (d->drop_stage.empty() ? "denied" : d->drop_stage)
               : "refused");
    return route;
  }
  route.allowed = true;
  route.src_node = d->src_node;
  route.dst_node = d->dst_node;
  route.policy = d->egress_policy;
  return route;
}

struct WorkloadParams {
  double mean_response_bytes = 256 * 1024;
  double response_pareto_alpha = 1.5;   // heavy-tailed response sizes
  uint64_t seed = 7;

  // Retries for fault-aborted transactions, each after a bounded
  // exponential backoff (10 ms * 2^attempt, capped at 1 s) with a seeded
  // jitter factor in [0.8, 1.2]. Each retry re-resolves the route, so
  // traffic reroutes around downed links. The default max_retries=0
  // disables retries entirely — aborted transactions are dropped — which
  // also leaves the RNG draw sequence identical to a fault-free run
  // (replays stay deterministic either way: all draws come from the
  // workload's seeded RNG).
  int max_retries = 0;
};

struct PatternStats {
  uint64_t attempted = 0;
  uint64_t denied = 0;
  uint64_t completed = 0;
  uint64_t aborted = 0;     // response flows killed by faults
  uint64_t retries = 0;     // retry attempts issued (reroutes)
  uint64_t gave_up = 0;     // transactions dead after max_retries
  // Denials per DenyStages() id (dense; grown on first hit of a stage).
  std::vector<uint64_t> deny_by_stage_counts;
  Histogram latency_ms;
  double bytes_transferred = 0;

  void CountDeny(uint32_t stage) {
    if (deny_by_stage_counts.size() <= stage) {
      deny_by_stage_counts.resize(stage + 1, 0);
    }
    ++deny_by_stage_counts[stage];
  }
  // Report-time view keyed by stage name (id 0 reports as "denied").
  std::map<std::string, uint64_t> DenyByStage() const;
};

// Time-varying arrival rate of a pattern. The rate is a base plus
// an optional diurnal sinusoid plus an optional flash-crowd burst (linear
// ramp to base*flash_multiplier over flash_rise, then linear decay over
// flash_fall). All components compose; the presets set one each.
class RateCurve {
 public:
  static RateCurve Constant(double rps);
  // rate(t) = base * (1 + amplitude * sin(2*pi*t/period)); amplitude in
  // [0,1] keeps the curve nonnegative.
  static RateCurve Diurnal(double base_rps, double amplitude,
                           SimDuration period);
  // Base load with a flash crowd: at `start` (relative to Start()), the
  // rate ramps linearly to base*(1+multiplier) over `rise`, then decays
  // linearly back over `fall`.
  static RateCurve FlashCrowd(double base_rps, double multiplier,
                              SimDuration start, SimDuration rise,
                              SimDuration fall);

  // Instantaneous rate at `elapsed` since the workload started.
  double RateAt(SimDuration elapsed) const;
  // Tight upper bound over all t — the thinning sampler's envelope.
  double MaxRate() const;

 private:
  double base_rps_ = 0;
  double diurnal_amplitude_ = 0;
  SimDuration diurnal_period_ = SimDuration::Seconds(86400);
  double flash_multiplier_ = 0;
  SimDuration flash_start_;
  SimDuration flash_rise_;
  SimDuration flash_fall_;
};

class RequestWorkload {
 public:
  RequestWorkload(EventQueue& queue, FlowControlSurface& flows, const CloudWorld& world,
                  WorkloadParams params = {});

  // Registers an open-loop traffic pattern: transactions from a random
  // member of `sources` to a random member of `destinations`, admitted and
  // placed by `connector`, arriving at the rate `curve` gives
  // (RateCurve::Constant for a fixed Poisson rate). Start() does not
  // materialize the arrival set: arrivals are generated one at a time by a
  // thinning sampler over the curve's MaxRate() envelope, so the generator
  // holds O(1) state per pattern regardless of horizon, rate, or endpoint
  // population (E10 runs million-endpoint workloads without pre-scheduling
  // millions of events). Returns the pattern index, or InvalidArgument and
  // registers nothing when `sources` or `destinations` is empty or the
  // curve's MaxRate() is not a finite number >= 0 (a rate of 0 is valid and
  // yields no arrival).
  Result<size_t> AddStreamingPattern(std::string name,
                                     std::vector<InstanceId> sources,
                                     std::vector<InstanceId> destinations,
                                     RateCurve curve, ConnectorFn connector);

  // Opens every pattern's arrival window [now, now + duration) and enqueues
  // its one pending candidate arrival.
  void Start(SimDuration duration);

  const PatternStats& stats(size_t pattern) const {
    return patterns_[pattern].stats;
  }
  const std::string& pattern_name(size_t pattern) const {
    return patterns_[pattern].name;
  }
  size_t pattern_count() const { return patterns_.size(); }

  // In-flight transactions (for drain checks in tests).
  uint64_t inflight() const { return inflight_; }

 private:
  struct Pattern {
    std::string name;
    std::vector<InstanceId> sources;
    std::vector<InstanceId> destinations;
    ConnectorFn connector;
    PatternStats stats;
    // The rate curve, a private arrival RNG (forked at Start() so arrival
    // draws never interleave with the transactions' own), and the window
    // [started, end) that Start() opened for its candidates.
    RateCurve curve;
    Rng arrivals{0};  // re-seeded by Fork() at Start()
    SimTime started;
    SimTime end;
  };

  // One transaction, held in a slab slot from its first attempt until it
  // completes, is denied or gives up. Every event and flow callback a
  // transaction schedules captures only (this, slot index), which fits
  // std::function's inline buffer, and recycled slots make the steady
  // state allocation-free apart from the response flow itself.
  struct Transaction {
    size_t pattern = 0;
    InstanceId src;
    InstanceId dst;
    SimTime start;  // of attempt 0: latency includes every backoff
    int attempt = 0;
    double response_bytes = 0;
    double rate_cap_bps = 0;
    double weight = 1.0;
    SimDuration tail_delay;
    // The reverse path, copied from the path memo when the attempt is
    // admitted and handed to StartFlow when the response starts.
    std::vector<LinkId> response_path;
  };

  // The arrival engine: schedules the pattern's next candidate at
  // Exp(MaxRate) ahead and accepts it with probability RateAt/MaxRate.
  void ScheduleNextArrival(size_t pattern_index);

  void RunTransaction(size_t pattern_index);
  // The methods below take the transaction's slot index.
  // One (re)try: resolve, fly the request, schedule the response. Attempt
  // 0 is the original; retries keep the original start.
  void Attempt(uint32_t index);
  // An attempt that could not start: attempt 0 is denied under `stage`, a
  // retry backs off again or gives up.
  void Refuse(uint32_t index, uint32_t stage);
  // The request reached the server: stream the response back. The start
  // runs inside one flows_.Batch(), so whatever the surface does during
  // StartFlow (a decorator that registers the flow with a quota point,
  // whose re-cap batch nests) shares the start's one reallocation. A start
  // the executor refuses (ValidFlowStart) ends the transaction as a denial
  // under "flow-refused".
  void StartResponse(uint32_t index);
  void Complete(uint32_t index, SimTime finish);
  // Retry after backoff, or give up if the attempt that just failed was
  // the last allowed. The transaction is already counted in inflight_.
  void RetryOrGiveUp(uint32_t index);

  EventQueue& queue_;
  FlowControlSurface& flows_;
  const CloudWorld& world_;
  WorkloadParams params_;
  Rng rng_;
  std::vector<Pattern> patterns_;
  Slab<Transaction> transactions_;
  uint64_t inflight_ = 0;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_APP_WORKLOAD_H_
