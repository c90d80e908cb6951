#include "src/app/workload.h"

#include <algorithm>
#include <cmath>

namespace tenantnet {
namespace {

constexpr SimDuration kServerTime = SimDuration::Micros(500);
// QueuePenalty's per-link base and cap for the request's forward delay.
constexpr SimDuration kQueuePenaltyBase = SimDuration::Millis(1);
constexpr SimDuration kQueuePenaltyCap = SimDuration::Millis(50);
// Retry backoff: kRetryBase * 2^attempt, capped at kRetryCap, times a
// seeded jitter factor in [1 - kRetryJitter, 1 + kRetryJitter].
constexpr SimDuration kRetryBase = SimDuration::Millis(10);
constexpr SimDuration kRetryCap = SimDuration::Seconds(1);
constexpr double kRetryJitter = 0.2;

}  // namespace

std::map<std::string, uint64_t> PatternStats::DenyByStage() const {
  std::map<std::string, uint64_t> out;
  for (uint32_t id = 0; id < deny_by_stage_counts.size(); ++id) {
    if (deny_by_stage_counts[id] == 0) {
      continue;
    }
    std::string name = id == 0 ? "denied" : DenyStages().Name(id);
    out[name] += deny_by_stage_counts[id];
  }
  return out;
}

RateCurve RateCurve::Constant(double rps) {
  RateCurve curve;
  curve.base_rps_ = rps;
  return curve;
}

RateCurve RateCurve::Diurnal(double base_rps, double amplitude,
                             SimDuration period) {
  RateCurve curve;
  curve.base_rps_ = base_rps;
  curve.diurnal_amplitude_ = std::clamp(amplitude, 0.0, 1.0);
  curve.diurnal_period_ = period;
  return curve;
}

RateCurve RateCurve::FlashCrowd(double base_rps, double multiplier,
                                SimDuration start, SimDuration rise,
                                SimDuration fall) {
  RateCurve curve;
  curve.base_rps_ = base_rps;
  curve.flash_multiplier_ = std::max(0.0, multiplier);
  curve.flash_start_ = start;
  curve.flash_rise_ = rise;
  curve.flash_fall_ = fall;
  return curve;
}

double RateCurve::RateAt(SimDuration elapsed) const {
  double rate = base_rps_;
  if (diurnal_amplitude_ > 0 && diurnal_period_.ToSeconds() > 0) {
    rate += base_rps_ * diurnal_amplitude_ *
            std::sin(2.0 * M_PI * elapsed.ToSeconds() /
                     diurnal_period_.ToSeconds());
  }
  if (flash_multiplier_ > 0) {
    const double t = (elapsed - flash_start_).ToSeconds();
    const double rise = flash_rise_.ToSeconds();
    const double fall = flash_fall_.ToSeconds();
    double shape = 0;
    if (t >= 0 && t < rise) {
      shape = rise > 0 ? t / rise : 1.0;
    } else if (t >= rise && t < rise + fall) {
      shape = fall > 0 ? 1.0 - (t - rise) / fall : 0.0;
    }
    rate += base_rps_ * flash_multiplier_ * shape;
  }
  return std::max(0.0, rate);
}

double RateCurve::MaxRate() const {
  return base_rps_ * (1.0 + diurnal_amplitude_ + flash_multiplier_);
}

RequestWorkload::RequestWorkload(EventQueue& queue, FlowControlSurface& flows,
                                 const CloudWorld& world,
                                 WorkloadParams params)
    : queue_(queue), flows_(flows), world_(world), params_(params),
      rng_(params.seed) {}

Result<size_t> RequestWorkload::AddStreamingPattern(
    std::string name, std::vector<InstanceId> sources,
    std::vector<InstanceId> destinations, RateCurve curve,
    ConnectorFn connector) {
  // An empty list has no member to draw; a NaN or infinite envelope would
  // fire candidates at one instant forever.
  if (sources.empty() || destinations.empty()) {
    return InvalidArgumentError("pattern '" + name +
                                "' needs sources and destinations");
  }
  const double max_rate = curve.MaxRate();
  if (!std::isfinite(max_rate) || max_rate < 0) {
    return InvalidArgumentError("pattern '" + name +
                                "' needs a finite rate >= 0");
  }
  Pattern pattern;
  pattern.name = std::move(name);
  pattern.sources = std::move(sources);
  pattern.destinations = std::move(destinations);
  pattern.connector = std::move(connector);
  pattern.curve = curve;
  patterns_.push_back(std::move(pattern));
  return patterns_.size() - 1;
}

void RequestWorkload::Start(SimDuration duration) {
  const SimTime started = queue_.now();
  for (size_t i = 0; i < patterns_.size(); ++i) {
    patterns_[i].arrivals = rng_.Fork();
    patterns_[i].started = started;
    patterns_[i].end = started + duration;
    ScheduleNextArrival(i);
  }
}

void RequestWorkload::ScheduleNextArrival(size_t pattern_index) {
  Pattern& pattern = patterns_[pattern_index];
  const double max_rate = pattern.curve.MaxRate();
  if (max_rate <= 0) {
    return;
  }
  // Thinning (Lewis-Shedler): candidates arrive Poisson at the constant
  // envelope MaxRate(); each is accepted with probability rate(t)/MaxRate.
  // Exactly one pending event exists per pattern at any time, so generator
  // memory is O(patterns), independent of horizon, rate, and population.
  // The gap meets the window's end before it becomes a SimDuration: a tiny
  // rate can draw one past its range, where the conversion is undefined.
  const double gap_ns = pattern.arrivals.NextExponential(max_rate) * 1e9;
  if (gap_ns >= static_cast<double>((pattern.end - queue_.now()).nanos())) {
    return;
  }
  const SimTime when =
      queue_.now() + SimDuration::Nanos(static_cast<int64_t>(gap_ns));
  queue_.ScheduleAt(when, [this, pattern_index] {
    Pattern& p = patterns_[pattern_index];
    const SimDuration elapsed = queue_.now() - p.started;
    const double accept = p.curve.RateAt(elapsed) / p.curve.MaxRate();
    if (p.arrivals.NextDouble() < accept) {
      RunTransaction(pattern_index);
    }
    ScheduleNextArrival(pattern_index);
  });
}

void RequestWorkload::RunTransaction(size_t pattern_index) {
  Pattern& pattern = patterns_[pattern_index];
  ++pattern.stats.attempted;
  Transaction tx;
  tx.pattern = pattern_index;
  tx.src = pattern.sources[rng_.NextU64(pattern.sources.size())];
  tx.dst = pattern.destinations[rng_.NextU64(pattern.destinations.size())];
  tx.start = queue_.now();
  Attempt(transactions_.Alloc(std::move(tx)));
}

void RequestWorkload::RetryOrGiveUp(uint32_t index) {
  Transaction& tx = transactions_.Get(index);
  PatternStats& stats = patterns_[tx.pattern].stats;
  if (tx.attempt >= params_.max_retries) {
    ++stats.gave_up;
    --inflight_;
    transactions_.Free(index);
    return;
  }
  ++stats.retries;
  SimDuration backoff = kRetryBase;
  for (int i = 0; i < tx.attempt && backoff < kRetryCap; ++i) {
    backoff = backoff * 2.0;
  }
  backoff = std::min(backoff, kRetryCap);
  backoff = backoff * (1.0 + kRetryJitter * rng_.NextDouble(-1.0, 1.0));
  ++tx.attempt;
  queue_.ScheduleAfter(backoff, [this, index] { Attempt(index); });
}

void RequestWorkload::Refuse(uint32_t index, uint32_t stage) {
  const Transaction& tx = transactions_.Get(index);
  if (tx.attempt > 0) {
    // Mid-retry denial (e.g. destination still down): keep backing off.
    RetryOrGiveUp(index);
    return;
  }
  PatternStats& stats = patterns_[tx.pattern].stats;
  ++stats.denied;
  stats.CountDeny(stage);
  transactions_.Free(index);
}

void RequestWorkload::Attempt(uint32_t index) {
  Transaction& tx = transactions_.Get(index);
  Pattern& pattern = patterns_[tx.pattern];

  // Re-resolve on every attempt: faults move routes and health state
  // between tries, and ShortestPath skips downed links, so a retry is also
  // a reroute.
  ResolvedRoute route = pattern.connector(tx.src, tx.dst);
  if (!route.allowed) {
    Refuse(index, route.deny_stage);
    return;
  }

  // Both directions must have a physical path: links fail per direction,
  // and the response streams over the reverse one.
  const Topology& topology = world_.topology();
  const auto& path =
      world_.ResolvePath(route.src_node, route.dst_node, route.policy);
  const auto& reverse_path =
      path.ok() ? world_.ResolvePath(route.dst_node, route.src_node,
                                     route.policy)
                : path;
  if (!reverse_path.ok()) {
    static const uint32_t kNoPhysicalPath = DenyStage("no-physical-path");
    Refuse(index, kNoPhysicalPath);
    return;
  }

  SimDuration forward = topology.SamplePathDelay(*path, rng_) +
                        flows_.QueuePenalty(*path, kQueuePenaltyBase,
                                            kQueuePenaltyCap);
  // Heavy-tailed response size (bounded Pareto-ish: scale for the mean).
  double x_min = params_.mean_response_bytes *
                 (params_.response_pareto_alpha - 1) /
                 params_.response_pareto_alpha;
  double response_bytes =
      rng_.NextPareto(x_min, params_.response_pareto_alpha);
  tx.response_bytes =
      std::min(response_bytes, params_.mean_response_bytes * 50);

  if (tx.attempt == 0) {
    ++inflight_;
  }
  tx.rate_cap_bps = route.rate_cap_bps;
  tx.weight = route.weight;
  // The one copy of the path: the memo entry dies with the next link
  // fault, so the transaction keeps its own until StartFlow takes it.
  tx.response_path = *reverse_path;
  // Request arrives at the server after the forward delay + server time;
  // the response then streams back through the fluid simulator.
  queue_.ScheduleAfter(forward + kServerTime,
                       [this, index] { StartResponse(index); });
}

void RequestWorkload::StartResponse(uint32_t index) {
  Transaction& tx = transactions_.Get(index);
  tx.tail_delay = world_.topology().SamplePathDelay(tx.response_path, rng_);
  FlowId flow;
  {
    // One reallocation per start (see the header): no flow is leveled at a
    // rate that a re-cap in the same StartFlow replaces at once.
    FlowControlSurface::BatchScope batch = flows_.Batch();
    flow = flows_.StartFlow(
        std::move(tx.response_path), tx.response_bytes,
        [this, index](FlowId, SimTime finish) { Complete(index, finish); },
        tx.weight, tx.rate_cap_bps, [this, index](FlowId, SimTime) {
          ++patterns_[transactions_.Get(index).pattern].stats.aborted;
          RetryOrGiveUp(index);
        });
  }
  if (!flow.valid()) {
    // The executor refused the start (ValidFlowStart: e.g. a connector's
    // weight of 0 or NaN) and will call nothing back: end it here, once.
    static const uint32_t kFlowRefused = DenyStage("flow-refused");
    PatternStats& stats = patterns_[tx.pattern].stats;
    ++stats.denied;
    stats.CountDeny(kFlowRefused);
    --inflight_;
    transactions_.Free(index);
  }
}

void RequestWorkload::Complete(uint32_t index, SimTime finish) {
  const Transaction& tx = transactions_.Get(index);
  PatternStats& stats = patterns_[tx.pattern].stats;
  SimDuration total = (finish - tx.start) + tx.tail_delay;
  stats.latency_ms.Record(total.ToMillis());
  ++stats.completed;
  stats.bytes_transferred += tx.response_bytes;
  --inflight_;
  transactions_.Free(index);
}

}  // namespace tenantnet
