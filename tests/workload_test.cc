// Tests for the request workload driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "src/app/workload.h"
#include "src/sim/flow_sim.h"
#include "src/cloud/presets.h"
#include "src/core/qos.h"
#include "src/faults/fault_injector.h"

namespace tenantnet {
namespace {

// A FlowControlSurface decorator over FlowSim that, like an edge in the
// E13 benchmark, registers every flow it starts with one quota point from
// inside StartFlow, so the point's re-cap batch runs within the start.
class QuotaEdgeSurface final : public FlowControlSurface {
 public:
  QuotaEdgeSurface(FlowSim& sim, EgressQuotaManager& qos, TenantId tenant,
                   RegionId region)
      : sim_(sim), qos_(qos), tenant_(tenant), region_(region) {}

  FlowId StartFlow(std::vector<LinkId> path, double bytes,
                   CompletionFn on_complete, double weight, double rate_cap_bps,
                   AbortFn on_abort) override {
    const FlowId id =
        sim_.StartFlow(std::move(path), bytes, std::move(on_complete), weight,
                       rate_cap_bps, std::move(on_abort));
    EXPECT_TRUE(qos_.RegisterFlow(tenant_, region_, 0, id).ok());
    ++starts_;
    return id;
  }
  FlowId StartPersistentFlow(std::vector<LinkId> path, double weight,
                             double rate_cap_bps, AbortFn on_abort) override {
    return sim_.StartPersistentFlow(std::move(path), weight, rate_cap_bps,
                                    std::move(on_abort));
  }
  Status CancelFlow(FlowId id) override { return sim_.CancelFlow(id); }
  Status SetRateCap(FlowId id, double rate_cap_bps) override {
    return sim_.SetRateCap(id, rate_cap_bps);
  }
  Result<double> CurrentRate(FlowId id) const override {
    return sim_.CurrentRate(id);
  }
  const FlowState* FindFlow(FlowId id) const override {
    return sim_.FindFlow(id);
  }
  Status SetLinkUp(LinkId link, bool up) override {
    return sim_.SetLinkUp(link, up);
  }
  bool IsLinkUp(LinkId link) const override { return sim_.IsLinkUp(link); }
  size_t stalled_flow_count() const override {
    return sim_.stalled_flow_count();
  }
  uint64_t flows_aborted() const override { return sim_.flows_aborted(); }
  uint64_t flows_blackholed() const override {
    return sim_.flows_blackholed();
  }
  double bytes_blackholed() const override { return sim_.bytes_blackholed(); }
  double LinkUtilization(LinkId link) const override {
    return sim_.LinkUtilization(link);
  }
  SimDuration QueuePenalty(const std::vector<LinkId>& path,
                           SimDuration per_link_base,
                           SimDuration per_link_cap) const override {
    return sim_.QueuePenalty(path, per_link_base, per_link_cap);
  }
  size_t active_flow_count() const override {
    return sim_.active_flow_count();
  }
  double total_bytes_delivered() const override {
    return sim_.total_bytes_delivered();
  }
  uint64_t reallocation_count() const override {
    return sim_.reallocation_count();
  }
  uint64_t flows_rescheduled() const override {
    return sim_.flows_rescheduled();
  }
  void BeginBatch() override { sim_.BeginBatch(); }
  void EndBatch() override { sim_.EndBatch(); }

  uint64_t starts() const { return starts_; }

 private:
  FlowSim& sim_;
  EgressQuotaManager& qos_;
  TenantId tenant_;
  RegionId region_;
  uint64_t starts_ = 0;
};

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest()
      : tw_(BuildTestWorld()),
        flows_(queue_, tw_.world->topology()),
        workload_(queue_, flows_, *tw_.world, MakeParams()) {
    east_a_ = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
    east_b_ = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 1);
    west_ = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.west, 0);
  }

  static WorkloadParams MakeParams() {
    WorkloadParams p;
    p.mean_response_bytes = 64 * 1024;
    p.seed = 3;
    return p;
  }

  ConnectorFn AllowAll(EgressPolicy policy = EgressPolicy::kColdPotato) {
    CloudWorld* world = tw_.world.get();
    return [world, policy](InstanceId src, InstanceId dst) {
      ResolvedRoute route;
      route.allowed = true;
      route.src_node = world->FindInstance(src)->host_node;
      route.dst_node = world->FindInstance(dst)->host_node;
      route.policy = policy;
      return route;
    };
  }

  TestWorld tw_;
  EventQueue queue_;
  FlowSim flows_;
  RequestWorkload workload_;
  InstanceId east_a_, east_b_, west_;
};

TEST_F(WorkloadTest, TransactionsCompleteWithPositiveLatency) {
  size_t p = *workload_.AddStreamingPattern(
      "east-west", {east_a_}, {west_}, RateCurve::Constant(50.0), AllowAll());
  workload_.Start(SimDuration::Seconds(10));
  queue_.RunAll();
  const PatternStats& stats = workload_.stats(p);
  EXPECT_GT(stats.attempted, 300u);
  EXPECT_EQ(stats.denied, 0u);
  EXPECT_EQ(stats.completed, stats.attempted);
  EXPECT_EQ(workload_.inflight(), 0u);
  // East-west is ~20ms one way: round trips must exceed 40ms.
  EXPECT_GT(stats.latency_ms.min(), 40.0);
  EXPECT_GT(stats.bytes_transferred, 0.0);
}

TEST_F(WorkloadTest, DeniedTransactionsAreCountedByStage) {
  ConnectorFn deny = [](InstanceId, InstanceId) {
    ResolvedRoute route;
    route.allowed = false;
    route.deny_stage = DenyStage("edge-filter");
    return route;
  };
  size_t p = *workload_.AddStreamingPattern(
      "blocked", {east_a_}, {west_}, RateCurve::Constant(20.0), deny);
  workload_.Start(SimDuration::Seconds(5));
  queue_.RunAll();
  const PatternStats& stats = workload_.stats(p);
  EXPECT_GT(stats.attempted, 50u);
  EXPECT_EQ(stats.denied, stats.attempted);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.DenyByStage().at("edge-filter"), stats.denied);
}

TEST_F(WorkloadTest, IntraRegionIsFasterThanCrossRegion) {
  size_t local = *workload_.AddStreamingPattern(
      "local", {east_a_}, {east_b_}, RateCurve::Constant(40.0), AllowAll());
  size_t remote = *workload_.AddStreamingPattern(
      "remote", {east_a_}, {west_}, RateCurve::Constant(40.0), AllowAll());
  workload_.Start(SimDuration::Seconds(10));
  queue_.RunAll();
  EXPECT_LT(workload_.stats(local).latency_ms.P50(),
            workload_.stats(remote).latency_ms.P50());
}

TEST_F(WorkloadTest, RateCapSlowsTransfers) {
  ConnectorFn capped = [this](InstanceId src, InstanceId dst) {
    ResolvedRoute route;
    route.allowed = true;
    route.src_node = tw_.world->FindInstance(src)->host_node;
    route.dst_node = tw_.world->FindInstance(dst)->host_node;
    route.policy = EgressPolicy::kColdPotato;
    route.rate_cap_bps = 1e6;  // 1 Mbps
    return route;
  };
  size_t slow = *workload_.AddStreamingPattern(
      "capped", {east_a_}, {west_}, RateCurve::Constant(10.0), capped);
  size_t fast = *workload_.AddStreamingPattern(
      "open", {east_b_}, {west_}, RateCurve::Constant(10.0), AllowAll());
  workload_.Start(SimDuration::Seconds(10));
  queue_.RunAll();
  // 64KB at 1Mbps is ~0.5s; uncapped it is sub-ms of transfer time.
  EXPECT_GT(workload_.stats(slow).latency_ms.P50(),
            workload_.stats(fast).latency_ms.P50() * 3);
}

TEST_F(WorkloadTest, StreamingPatternsHoldOnePendingArrivalEach) {
  // The three patterns make ~600k arrivals over this horizon, yet each holds
  // exactly one pending candidate, independent of rate and horizon.
  workload_.AddStreamingPattern("s0", {east_a_}, {west_},
                                RateCurve::Constant(2000.0), AllowAll());
  workload_.AddStreamingPattern("s1", {east_b_}, {west_},
                                RateCurve::Constant(2000.0), AllowAll());
  workload_.AddStreamingPattern("s2", {west_}, {east_a_},
                                RateCurve::Constant(2000.0), AllowAll());
  workload_.Start(SimDuration::Seconds(100));
  EXPECT_EQ(queue_.pending_count(), 3u);
}

// A pattern without a source or a destination has no member to draw: it
// is refused and registers nothing, and the queue still drains.
TEST_F(WorkloadTest, StreamingPatternWithAnEmptyEndpointListIsRefused) {
  const std::vector<InstanceId> none;
  const std::vector<InstanceId> one = {west_};
  for (const auto& [sources, destinations] :
       {std::pair(none, one), std::pair(one, none), std::pair(none, none)}) {
    Result<size_t> added = workload_.AddStreamingPattern(
        "empty", sources, destinations, RateCurve::Constant(50.0),
        AllowAll());
    ASSERT_FALSE(added.ok());
    EXPECT_EQ(added.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(workload_.pattern_count(), 0u);
  size_t p = *workload_.AddStreamingPattern(
      "east-west", {east_a_}, {west_}, RateCurve::Constant(50.0), AllowAll());
  workload_.Start(SimDuration::Seconds(2));
  queue_.RunAll();
  EXPECT_EQ(workload_.pattern_count(), 1u);
  EXPECT_GT(workload_.stats(p).attempted, 0u);
  EXPECT_EQ(workload_.stats(p).completed, workload_.stats(p).attempted);
  EXPECT_EQ(workload_.inflight(), 0u);
}

// A NaN or infinite envelope would fire candidates at one instant forever,
// and a negative one means nothing: all are refused. A rate of 0 is valid
// and yields no arrival, and so does one whose gaps overflow SimDuration.
TEST_F(WorkloadTest, StreamingPatternWithANonFiniteOrNegativeRateIsRefused) {
  const double inf = std::numeric_limits<double>::infinity();
  const RateCurve refused[] = {
      RateCurve::Constant(std::numeric_limits<double>::quiet_NaN()),
      RateCurve::Constant(inf),
      RateCurve::Constant(-1.0),
      RateCurve::Diurnal(-50.0, 0.5, SimDuration::Seconds(10)),
  };
  for (const RateCurve& curve : refused) {
    Result<size_t> added = workload_.AddStreamingPattern(
        "bad-rate", {east_a_}, {west_}, curve, AllowAll());
    ASSERT_FALSE(added.ok());
    EXPECT_EQ(added.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(workload_.pattern_count(), 0u);
  size_t idle = *workload_.AddStreamingPattern(
      "idle", {east_a_}, {west_}, RateCurve::Constant(0.0), AllowAll());
  size_t rare = *workload_.AddStreamingPattern(
      "rare", {east_a_}, {west_}, RateCurve::Constant(1e-12), AllowAll());
  workload_.Start(SimDuration::Seconds(10));
  queue_.RunAll();
  EXPECT_EQ(workload_.pattern_count(), 2u);
  EXPECT_EQ(workload_.stats(idle).attempted, 0u);
  EXPECT_EQ(workload_.stats(rare).attempted, 0u);
  EXPECT_EQ(workload_.inflight(), 0u);
}

TEST_F(WorkloadTest, StreamingConstantRateMatchesPoissonExpectation) {
  size_t p = *workload_.AddStreamingPattern(
      "steady", {east_a_}, {west_}, RateCurve::Constant(100.0), AllowAll());
  workload_.Start(SimDuration::Seconds(10));
  queue_.RunAll();
  const PatternStats& stats = workload_.stats(p);
  // Poisson(1000): +-6 sigma is ~190.
  EXPECT_GT(stats.attempted, 800u);
  EXPECT_LT(stats.attempted, 1200u);
  EXPECT_EQ(stats.completed, stats.attempted);
  EXPECT_EQ(workload_.inflight(), 0u);
}

TEST_F(WorkloadTest, StreamingDiurnalIntegratesToBaseOverFullPeriod) {
  // Over one full period the sinusoid integrates to zero, so expected
  // arrivals = base * horizon = 1000 even though the instantaneous rate
  // swings between 20 and 180 rps.
  size_t p = *workload_.AddStreamingPattern(
      "diurnal", {east_a_}, {west_},
      RateCurve::Diurnal(100.0, 0.8, SimDuration::Seconds(10)), AllowAll());
  workload_.Start(SimDuration::Seconds(10));
  queue_.RunAll();
  const PatternStats& stats = workload_.stats(p);
  EXPECT_GT(stats.attempted, 800u);
  EXPECT_LT(stats.attempted, 1200u);
}

TEST_F(WorkloadTest, StreamingFlashCrowdAddsBurstArea) {
  // Base 50 rps over 10s = 500, plus a triangular burst of area
  // base * multiplier * (rise + fall) / 2 = 50 * 4 * 1 = 200.
  size_t p = *workload_.AddStreamingPattern(
      "flash", {east_a_}, {west_},
      RateCurve::FlashCrowd(50.0, 4.0, SimDuration::Seconds(2),
                            SimDuration::Seconds(1), SimDuration::Seconds(1)),
      AllowAll());
  workload_.Start(SimDuration::Seconds(10));
  queue_.RunAll();
  const PatternStats& stats = workload_.stats(p);
  EXPECT_GT(stats.attempted, 550u);
  EXPECT_LT(stats.attempted, 850u);
}

TEST_F(WorkloadTest, StreamingArrivalsAreDeterministicPerSeed) {
  auto run_once = [this](uint64_t seed) {
    EventQueue queue;
    FlowSim flows(queue, tw_.world->topology());
    WorkloadParams params = MakeParams();
    params.seed = seed;
    RequestWorkload workload(queue, flows, *tw_.world, params);
    workload.AddStreamingPattern(
        "det", {east_a_}, {west_},
        RateCurve::Diurnal(80.0, 0.5, SimDuration::Seconds(5)), AllowAll());
    workload.Start(SimDuration::Seconds(8));
    queue.RunAll();
    return workload.stats(0);
  };
  PatternStats a = run_once(11);
  PatternStats b = run_once(11);
  PatternStats c = run_once(12);
  EXPECT_EQ(a.attempted, b.attempted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
  EXPECT_NE(a.attempted, c.attempted);
}

TEST_F(WorkloadTest, MultiplePatternsRunConcurrently) {
  workload_.AddStreamingPattern(
      "p0", {east_a_}, {east_b_}, RateCurve::Constant(30.0), AllowAll());
  workload_.AddStreamingPattern(
      "p1", {east_b_}, {west_}, RateCurve::Constant(30.0), AllowAll());
  workload_.AddStreamingPattern(
      "p2", {west_}, {east_a_}, RateCurve::Constant(30.0), AllowAll());
  workload_.Start(SimDuration::Seconds(5));
  queue_.RunAll();
  EXPECT_EQ(workload_.pattern_count(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GT(workload_.stats(i).completed, 50u) << workload_.pattern_name(i);
  }
}

// East and west are joined twice, link-disjointly between their edges: the
// backbone (cold potato's choice) and the public internet. A backbone fault
// that outlasts the arrivals must send every later transaction the other
// way; a stale path would start its response flow on the dead link.
TEST_F(WorkloadTest, TransactionsAfterALinkFaultTakeTheOtherPath) {
  MetricRegistry metrics;
  FaultInjector injector(queue_, tw_.world->topology(), flows_,
                         tw_.world.get(), metrics, {});
  size_t p = *workload_.AddStreamingPattern(
      "east-west", {east_a_}, {west_}, RateCurve::Constant(50.0), AllowAll());
  workload_.Start(SimDuration::Seconds(10));
  // Fault between transactions, so no resolved path predates it.
  while (workload_.stats(p).completed < 5 || workload_.inflight() > 0) {
    ASSERT_TRUE(queue_.Step());
  }
  // Responses flow west -> east: down that direction's backbone link.
  NodeId east = tw_.world->FindInstance(east_a_)->host_node;
  NodeId west = tw_.world->FindInstance(west_)->host_node;
  auto preferred =
      tw_.world->ResolvePath(west, east, EgressPolicy::kColdPotato);
  ASSERT_TRUE(preferred.ok());
  FaultSpec fault;
  fault.kind = FaultKind::kLinkDown;
  fault.duration = SimDuration::Seconds(60);
  for (LinkId link : *preferred) {
    if (tw_.world->topology().link(link).cls == LinkClass::kBackbone) {
      fault.link = link;
    }
  }
  ASSERT_TRUE(injector.InjectNow(fault).ok());
  const uint64_t attempted_before = workload_.stats(p).attempted;
  const uint64_t aborted_before = flows_.flows_aborted();
  const double blackholed_before = flows_.bytes_blackholed();

  queue_.RunUntil(SimTime::FromSeconds(30));
  ASSERT_FALSE(tw_.world->topology().IsLinkUp(fault.link));
  const PatternStats& stats = workload_.stats(p);
  EXPECT_GT(stats.attempted, attempted_before + 100);
  EXPECT_EQ(stats.denied, 0u);
  EXPECT_EQ(stats.completed, stats.attempted);
  EXPECT_EQ(workload_.inflight(), 0u);
  EXPECT_EQ(flows_.stalled_flow_count(), 0u);
  EXPECT_EQ(flows_.flows_aborted(), aborted_before);
  EXPECT_EQ(flows_.bytes_blackholed(), blackholed_before);
}

// Links fail per direction. With every link out of the west host down, a
// request still reaches the server but its response has no way back: each
// such attempt is denied as no-physical-path, not answered instantly over
// an empty path.
TEST_F(WorkloadTest, TransactionsWithoutAReturnPathAreDenied) {
  MetricRegistry metrics;
  FaultInjector injector(queue_, tw_.world->topology(), flows_,
                         tw_.world.get(), metrics, {});
  size_t p = *workload_.AddStreamingPattern(
      "east-west", {east_a_}, {west_}, RateCurve::Constant(50.0), AllowAll());
  workload_.Start(SimDuration::Seconds(10));
  while (workload_.stats(p).completed < 5 || workload_.inflight() > 0) {
    ASSERT_TRUE(queue_.Step());
  }
  const Topology& topology = tw_.world->topology();
  NodeId east = tw_.world->FindInstance(east_a_)->host_node;
  NodeId west = tw_.world->FindInstance(west_)->host_node;
  ASSERT_FALSE(topology.OutLinks(west).empty());
  for (LinkId link : topology.OutLinks(west)) {
    FaultSpec fault;
    fault.kind = FaultKind::kLinkDown;
    fault.link = link;
    fault.duration = SimDuration::Seconds(60);
    ASSERT_TRUE(injector.InjectNow(fault).ok());
  }
  ASSERT_TRUE(
      tw_.world->ResolvePath(east, west, EgressPolicy::kColdPotato).ok());
  ASSERT_FALSE(
      tw_.world->ResolvePath(west, east, EgressPolicy::kColdPotato).ok());
  const PatternStats& stats = workload_.stats(p);
  const uint64_t attempted_before = stats.attempted;
  const uint64_t completed_before = stats.completed;
  ASSERT_EQ(stats.denied, 0u);

  queue_.RunUntil(SimTime::FromSeconds(30));
  EXPECT_GT(stats.attempted, attempted_before + 100);
  EXPECT_EQ(stats.denied, stats.attempted - attempted_before);
  EXPECT_EQ(stats.DenyByStage().at("no-physical-path"), stats.denied);
  EXPECT_EQ(stats.completed, completed_before);
  EXPECT_EQ(workload_.inflight(), 0u);
  EXPECT_EQ(flows_.active_flow_count(), 0u);
}

// The reverse-path link fails while the first request is in flight, so its
// response starts on a downed link: it aborts there and is retried over the
// other path instead of stalling until the link comes back.
TEST_F(WorkloadTest, ResponseOnALinkThatFailedMidRequestIsRetried) {
  WorkloadParams params = MakeParams();
  params.max_retries = 3;
  RequestWorkload workload(queue_, flows_, *tw_.world, params);
  MetricRegistry metrics;
  FaultInjector injector(queue_, tw_.world->topology(), flows_,
                         tw_.world.get(), metrics, {});
  size_t p = *workload.AddStreamingPattern(
      "east-west", {east_a_}, {west_}, RateCurve::Constant(50.0), AllowAll());
  workload.Start(SimDuration::Seconds(10));
  while (workload.inflight() == 0) {
    ASSERT_TRUE(queue_.Step());
  }
  ASSERT_EQ(flows_.active_flow_count(), 0u);  // the response has not started
  NodeId east = tw_.world->FindInstance(east_a_)->host_node;
  NodeId west = tw_.world->FindInstance(west_)->host_node;
  auto reverse = tw_.world->ResolvePath(west, east, EgressPolicy::kColdPotato);
  ASSERT_TRUE(reverse.ok());
  FaultSpec fault;
  fault.kind = FaultKind::kLinkDown;
  fault.duration = SimDuration::Seconds(60);
  for (LinkId link : *reverse) {
    if (tw_.world->topology().link(link).cls == LinkClass::kBackbone) {
      fault.link = link;
    }
  }
  ASSERT_TRUE(injector.InjectNow(fault).ok());

  queue_.RunUntil(SimTime::FromSeconds(30));
  ASSERT_FALSE(tw_.world->topology().IsLinkUp(fault.link));
  const PatternStats& stats = workload.stats(p);
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.gave_up, 0u);
  EXPECT_GT(stats.attempted, 100u);
  EXPECT_EQ(stats.completed, stats.attempted);
  EXPECT_EQ(workload.inflight(), 0u);
  EXPECT_EQ(flows_.stalled_flow_count(), 0u);
  EXPECT_EQ(flows_.flows_blackholed(), 0u);
}

// The retry schedule: after attempt k fails, the next try waits
// min(10 ms * 2^k, 1 s) times a seeded jitter factor in [0.8, 1.2], and
// after max_retries the transaction gives up. Here the first transaction's
// response is aborted and every retry is refused; every later transaction
// is denied at its first attempt.
TEST_F(WorkloadTest, RetriesBackOffExponentiallyToTheCapThenGiveUp) {
  WorkloadParams params = MakeParams();
  params.max_retries = 12;
  RequestWorkload workload(queue_, flows_, *tw_.world, params);
  uint64_t seen_attempted = 0;
  std::vector<SimTime> retry_times;
  ConnectorFn allow = AllowAll();
  ConnectorFn first_only = [&](InstanceId src, InstanceId dst) {
    // A call with no new arrival since the last call is a retry.
    const uint64_t attempted = workload.stats(0).attempted;
    const bool retry = attempted == seen_attempted;
    seen_attempted = attempted;
    if (retry) {
      retry_times.push_back(queue_.now());
    }
    if (!retry && attempted == 1) {
      return allow(src, dst);
    }
    ResolvedRoute refused;
    refused.deny_stage = DenyStage("edge-filter");
    return refused;
  };
  size_t p = *workload.AddStreamingPattern(
      "east-west", {east_a_}, {west_}, RateCurve::Constant(5.0), first_only);
  workload.Start(SimDuration::Seconds(10));
  while (flows_.active_flow_count() == 0) {
    ASSERT_TRUE(queue_.Step());
  }
  std::vector<LinkId> response_path;
  flows_.ForEachFlow([&](FlowId, const FlowState& state) {
    response_path = state.path;
  });
  ASSERT_FALSE(response_path.empty());
  ASSERT_TRUE(flows_.SetLinkUp(response_path[0], false).ok());
  const SimTime aborted_at = queue_.now();
  queue_.RunAll();

  const PatternStats& stats = workload.stats(p);
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(stats.retries, 12u);
  EXPECT_EQ(stats.gave_up, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.denied, stats.attempted - 1);
  EXPECT_EQ(workload.inflight(), 0u);
  ASSERT_EQ(retry_times.size(), 12u);
  SimTime previous = aborted_at;
  for (size_t k = 0; k < retry_times.size(); ++k) {
    const double base_ms = std::min(10.0 * std::pow(2.0, k), 1000.0);
    const double gap_ms = (retry_times[k] - previous).ToMillis();
    EXPECT_GE(gap_ms, 0.8 * base_ms) << "retry " << k;
    EXPECT_LE(gap_ms, 1.2 * base_ms) << "retry " << k;
    previous = retry_times[k];
  }
}

// A route the executor refuses to start (weight 0 fails ValidFlowStart)
// ends its transaction once, as a denial under "flow-refused": nothing
// stays in flight and every attempt is accounted for. A pattern beside it
// with a valid route still completes every transaction.
TEST_F(WorkloadTest, RefusedResponseStartEndsTheTransaction) {
  ConnectorFn weightless = [allow = AllowAll()](InstanceId src,
                                                InstanceId dst) {
    ResolvedRoute route = allow(src, dst);
    route.weight = 0.0;
    return route;
  };
  size_t refused = *workload_.AddStreamingPattern(
      "weightless", {east_a_}, {west_}, RateCurve::Constant(20.0), weightless);
  size_t valid = *workload_.AddStreamingPattern(
      "east-west", {east_b_}, {west_}, RateCurve::Constant(20.0), AllowAll());
  workload_.Start(SimDuration::Seconds(5));
  queue_.RunAll();
  const PatternStats& stats = workload_.stats(refused);
  EXPECT_GT(stats.attempted, 50u);
  EXPECT_EQ(stats.denied, stats.attempted);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.DenyByStage().at("flow-refused"), stats.denied);
  const PatternStats& valid_stats = workload_.stats(valid);
  EXPECT_GT(valid_stats.attempted, 50u);
  EXPECT_EQ(valid_stats.completed, valid_stats.attempted);
  EXPECT_EQ(workload_.inflight(), 0u);
  EXPECT_EQ(flows_.active_flow_count(), 0u);
}

// A response start is one reallocation, whatever the surface does inside
// StartFlow. Here the surface registers each response with a 100 Mbps quota
// point that binds it, and the point's re-cap batch nests in the start's:
// the flow is leveled once, at its capped rate, so its completion is
// scheduled once. (Flows already at the point are re-capped in the same
// pass, and a start beside them reschedules them too.)
TEST_F(WorkloadTest, QuotaRecapInsideStartFlowSharesTheStartsReallocation) {
  EgressQuotaManager qos;
  qos.RegisterPoint(tw_.west, "west-0");
  ASSERT_TRUE(qos.SetQuota(tw_.tenant, tw_.west, 100e6, queue_.now()).ok());
  QuotaEdgeSurface edge(flows_, qos, tw_.tenant, tw_.west);
  qos.AttachFlowSim(&edge);
  RequestWorkload workload(queue_, edge, *tw_.world, MakeParams());
  size_t p = *workload.AddStreamingPattern(
      "east-west", {east_a_}, {west_}, RateCurve::Constant(20.0), AllowAll());
  workload.Start(SimDuration::Seconds(10));

  uint64_t idle_starts = 0;
  uint64_t busy_starts = 0;
  while (true) {
    const uint64_t starts = edge.starts();
    const size_t live = flows_.active_flow_count();
    const uint64_t reallocs = flows_.reallocation_count();
    const uint64_t rescheduled = flows_.flows_rescheduled();
    if (!queue_.Step()) {
      break;
    }
    if (edge.starts() == starts) {
      continue;
    }
    ASSERT_EQ(edge.starts(), starts + 1);
    EXPECT_EQ(flows_.reallocation_count(), reallocs + 1);
    if (live == 0) {
      ++idle_starts;
      EXPECT_EQ(flows_.flows_rescheduled(), rescheduled + 1);
    } else {
      ++busy_starts;
    }
  }
  const PatternStats& stats = workload.stats(p);
  EXPECT_EQ(idle_starts + busy_starts, stats.attempted);
  EXPECT_GT(idle_starts, 150u);
  EXPECT_GT(busy_starts, 0u);
  EXPECT_EQ(stats.completed, stats.attempted);
  EXPECT_EQ(workload.inflight(), 0u);
}

}  // namespace
}  // namespace tenantnet
