// Tests for the request workload driver.

#include <gtest/gtest.h>

#include "src/app/workload.h"
#include "src/sim/flow_sim.h"
#include "src/cloud/presets.h"
#include "src/faults/fault_injector.h"

namespace tenantnet {
namespace {

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
  size_t p = workload_.AddPattern("east-west", {east_a_}, {west_}, 50.0,
                                  AllowAll());
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
  size_t p = workload_.AddPattern("blocked", {east_a_}, {west_}, 20.0, deny);
  workload_.Start(SimDuration::Seconds(5));
  queue_.RunAll();
  const PatternStats& stats = workload_.stats(p);
  EXPECT_GT(stats.attempted, 50u);
  EXPECT_EQ(stats.denied, stats.attempted);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.DenyByStage().at("edge-filter"), stats.denied);
}

TEST_F(WorkloadTest, IntraRegionIsFasterThanCrossRegion) {
  size_t local = workload_.AddPattern("local", {east_a_}, {east_b_}, 40.0,
                                      AllowAll());
  size_t remote = workload_.AddPattern("remote", {east_a_}, {west_}, 40.0,
                                       AllowAll());
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
  size_t slow = workload_.AddPattern("capped", {east_a_}, {west_}, 10.0,
                                     capped);
  size_t fast = workload_.AddPattern("open", {east_b_}, {west_}, 10.0,
                                     AllowAll());
  workload_.Start(SimDuration::Seconds(10));
  queue_.RunAll();
  // 64KB at 1Mbps is ~0.5s; uncapped it is sub-ms of transfer time.
  EXPECT_GT(workload_.stats(slow).latency_ms.P50(),
            workload_.stats(fast).latency_ms.P50() * 3);
}

TEST_F(WorkloadTest, StreamingPatternsHoldOnePendingArrivalEach) {
  // A pre-scheduled pattern at this rate/horizon would enqueue ~rps*horizon
  // = 600k events at Start(). Streaming patterns enqueue exactly one
  // candidate each, independent of rate and horizon.
  workload_.AddStreamingPattern("s0", {east_a_}, {west_},
                                RateCurve::Constant(2000.0), AllowAll());
  workload_.AddStreamingPattern("s1", {east_b_}, {west_},
                                RateCurve::Constant(2000.0), AllowAll());
  workload_.AddStreamingPattern("s2", {west_}, {east_a_},
                                RateCurve::Constant(2000.0), AllowAll());
  workload_.Start(SimDuration::Seconds(100));
  EXPECT_EQ(queue_.pending_count(), 3u);
}

TEST_F(WorkloadTest, StreamingConstantRateMatchesPoissonExpectation) {
  size_t p = workload_.AddStreamingPattern(
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
  size_t p = workload_.AddStreamingPattern(
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
  size_t p = workload_.AddStreamingPattern(
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
  workload_.AddPattern("p0", {east_a_}, {east_b_}, 30.0, AllowAll());
  workload_.AddPattern("p1", {east_b_}, {west_}, 30.0, AllowAll());
  workload_.AddPattern("p2", {west_}, {east_a_}, 30.0, AllowAll());
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
  size_t p = workload_.AddPattern("east-west", {east_a_}, {west_}, 50.0,
                                  AllowAll());
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
  size_t p = workload_.AddPattern("east-west", {east_a_}, {west_}, 50.0,
                                  AllowAll());
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
  size_t refused = workload_.AddPattern("weightless", {east_a_}, {west_},
                                        20.0, weightless);
  size_t valid = workload_.AddPattern("east-west", {east_b_}, {west_}, 20.0,
                                      AllowAll());
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

}  // namespace
}  // namespace tenantnet
