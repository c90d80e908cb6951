// Soak: one simulated hour of the Fig. 1 declarative deployment under
// request load, instance failures/recoveries, permit churn, and QoS
// epochs, all on one event queue. Asserts global accounting at the end —
// the "does it all compose" test.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/app/workload.h"
#include "src/sim/flow_sim.h"
#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/reach/reach.h"
#include "src/vnet/builder.h"
#include "tests/test_env.h"

namespace tenantnet {
namespace {

TEST(SoakTest, OneSimulatedHourOfEverything) {
  // TN_ITERS = simulated seconds of load (default one hour; CI can run
  // short, nightly long). TN_SEED reseeds the workload generator.
  const double run_s =
      static_cast<double>(test_env::ItersOverride(3600));
  WorkloadParams wparams;
  wparams.seed = test_env::SeedOverride(wparams.seed);
  SCOPED_TRACE("reproduce with TN_SEED=" + std::to_string(wparams.seed) +
               " TN_ITERS=" + std::to_string(static_cast<int64_t>(run_s)));
  Fig1World fig = BuildFig1World();
  CloudWorld& world = *fig.world;
  EventQueue queue;
  FlowSim flows(queue, world.topology());
  ConfigLedger ledger;
  DeclarativeCloud cloud(world, ledger, &queue);

  // Deploy: EIPs for everyone, a SIP over the database tier, permit lists.
  std::map<uint64_t, IpAddress> eip;
  for (InstanceId id : fig.AllInstances()) {
    eip[id.value()] = *cloud.RequestEip(id);
  }
  IpAddress db_sip = *cloud.RequestSip(fig.tenant, fig.cloud_b);
  for (InstanceId db : fig.database) {
    ASSERT_TRUE(cloud.Bind(eip[db.value()], db_sip).ok());
  }
  auto group = *cloud.CreateEndpointGroup(fig.tenant, "spark");
  for (InstanceId sp : fig.spark) {
    ASSERT_TRUE(cloud.AddToEndpointGroup(group, eip[sp.value()]).ok());
  }
  for (InstanceId db : fig.database) {
    PermitEntry by_group;
    by_group.source_group = group;
    ASSERT_TRUE(cloud.SetPermitList(eip[db.value()], {by_group}).ok());
  }
  ASSERT_TRUE(cloud.SetQos(fig.tenant, fig.a_us_east, 20e9).ok());

  // Let the async permit installs land before traffic starts.
  queue.RunUntil(queue.now() + SimDuration::Seconds(1));

  // Workload: spark -> db SIP for the configured duration.
  RequestWorkload workload(queue, flows, world, wparams);
  ConnectorFn connector = [&](InstanceId src, InstanceId dst_hint) {
    (void)dst_hint;  // the pattern targets the SIP, not an instance
    auto result = cloud.Evaluate(src, db_sip, Fig1Baseline::kDbPort,
                                 Protocol::kTcp);
    ResolvedRoute route = RouteFor(result);
    if (route.allowed) {
      route.rate_cap_bps = result->vm_egress_cap_bps;
    }
    return route;
  };
  size_t pattern = *workload.AddStreamingPattern(
      "spark->db-sip", fig.spark, fig.database, RateCurve::Constant(25.0),
      connector);
  workload.Start(SimDuration::Seconds(run_s));

  // Failure injection: each database backend fails and recovers twice
  // (skipping rounds that would not fit a shortened run).
  for (size_t i = 0; i < fig.database.size(); ++i) {
    for (int round = 0; round < 2; ++round) {
      double down_at = 300.0 + static_cast<double>(i) * 400 +
                       static_cast<double>(round) * 1500;
      if (down_at + 120 >= run_s) {
        continue;
      }
      InstanceId victim = fig.database[i];
      queue.ScheduleAt(SimTime::FromSeconds(down_at),
                       [&cloud, victim] { cloud.NotifyInstanceDown(victim); });
      queue.ScheduleAt(SimTime::FromSeconds(down_at + 120),
                       [&cloud, victim] { cloud.NotifyInstanceUp(victim); });
    }
  }

  // Permit churn: the spark group flaps one member periodically.
  InstanceId flapper = fig.spark[0];
  for (double t = 600; t < run_s; t += 600) {
    queue.ScheduleAt(SimTime::FromSeconds(t), [&cloud, &eip, group, flapper] {
      (void)cloud.RemoveFromEndpointGroup(group, eip[flapper.value()]);
    });
    queue.ScheduleAt(SimTime::FromSeconds(t + 60),
                     [&cloud, &eip, group, flapper] {
                       (void)cloud.AddToEndpointGroup(
                           group, eip[flapper.value()]);
                     });
  }

  // QoS epochs tick throughout.
  std::function<void()> epoch = [&] {
    cloud.qos().RunEpoch(queue.now());
    if (queue.now() < SimTime::FromSeconds(run_s + 100)) {
      queue.ScheduleAfter(SimDuration::Millis(100), epoch);
    }
  };
  queue.ScheduleAfter(SimDuration::Millis(100), epoch);

  queue.RunUntil(SimTime::FromSeconds(run_s + 400));

  const PatternStats& stats = workload.stats(pattern);
  // Accounting closes exactly.
  EXPECT_EQ(stats.attempted, stats.completed + stats.denied);
  EXPECT_EQ(workload.inflight(), 0u);
  // ~25 tx/s attempted over the run (~90k for the default hour).
  EXPECT_GT(static_cast<double>(stats.attempted), 22.0 * run_s);
  // The vast majority succeed; denials happen only in the windows where
  // all backends were down or the flapper lost membership mid-flight. A
  // shortened run weighs a single outage window more heavily, so only the
  // full-length soak holds the tight bound.
  EXPECT_GT(static_cast<double>(stats.completed) /
                static_cast<double>(stats.attempted),
            run_s >= 3600 ? 0.95 : 0.50);
  if (stats.completed > 0) {
    // Latency is sane for a us-east <-> us-east pair.
    EXPECT_GT(stats.latency_ms.P50(), 1.0);
    EXPECT_LT(stats.latency_ms.P99(), 500.0);
  }
  // The flow simulator drained.
  EXPECT_EQ(flows.active_flow_count(), 0u);
  // QoS ticked the whole run (10 epochs/s).
  EXPECT_GT(static_cast<double>(cloud.qos().epochs_run()), 8.0 * run_s);

  // Post-run cross-check: for sampled spark -> database pairs (direct EIPs
  // and the SIP), the reach engine's static verdict agrees with the live
  // data plane the soak just exercised. Sampling goes through the shared
  // PairSampler so a failure replays from the same TN_SEED line.
  DeclarativeReachEngine engine(world, cloud);
  test_env::PairSampler sampler(wparams.seed);
  for (size_t draw = 0; draw < 32; ++draw) {
    auto [s, d] = sampler.Pair(fig.spark.size(), fig.database.size() + 1,
                               /*distinct=*/false);
    SCOPED_TRACE(test_env::PairSampler::ReproLine(draw, s, d));
    InstanceId src = fig.spark[s];
    IpAddress dst = d < fig.database.size()
                        ? eip[fig.database[d].value()]
                        : db_sip;
    ReachVerdict v =
        engine.CanReach(src, dst, Fig1Baseline::kDbPort, Protocol::kTcp);
    auto result = cloud.Evaluate(src, dst, Fig1Baseline::kDbPort,
                                 Protocol::kTcp);
    ASSERT_TRUE(result.ok()) << v.ToString();
    EXPECT_EQ(v.reachable, result->delivered) << v.ToString();
    // All database backends share one permit list, so the existential and
    // universal SIP bounds coincide.
    EXPECT_EQ(v.all_backends, v.reachable) << v.ToString();
  }
}

}  // namespace
}  // namespace tenantnet
