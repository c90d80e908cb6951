// Tests for the fault-injection subsystem: schedule determinism, link /
// instance / gateway / control-plane faults against both worlds, and the
// headline resilience invariant — a 100-event storm leaves zero permanently
// blackholed flows once every fault has recovered.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/app/workload.h"
#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/faults/fault_injector.h"
#include "src/sim/flow_sim.h"
#include "src/vnet/builder.h"
#include "src/vnet/fabric.h"

namespace tenantnet {
namespace {

// ---------------------------------------------------------------------------
// Storm generator.
// ---------------------------------------------------------------------------

StormParams SmallStorm() {
  StormParams p;
  p.event_count = 20;
  p.window = SimDuration::Seconds(10);
  p.links = {LinkId(1), LinkId(2), LinkId(3)};
  p.instances = {InstanceId(1), InstanceId(2)};
  p.gateways = {NodeId(1)};
  return p;
}

TEST(FaultScheduleTest, StormIsAPureFunctionOfSeed) {
  FaultSchedule a = FaultSchedule::Storm(11, SmallStorm());
  FaultSchedule b = FaultSchedule::Storm(11, SmallStorm());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].duration, b.events[i].duration);
    EXPECT_EQ(a.events[i].link, b.events[i].link);
    EXPECT_EQ(a.events[i].instance, b.events[i].instance);
    EXPECT_EQ(a.events[i].node, b.events[i].node);
  }
  FaultSchedule c = FaultSchedule::Storm(12, SmallStorm());
  bool differs = false;
  for (size_t i = 0; i < a.events.size(); ++i) {
    differs = differs || a.events[i].at != c.events[i].at ||
              a.events[i].kind != c.events[i].kind;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultScheduleTest, StormIsSortedAndBounded) {
  StormParams p = SmallStorm();
  p.event_count = 100;
  FaultSchedule s = FaultSchedule::Storm(3, p);
  ASSERT_EQ(s.events.size(), 100u);
  for (size_t i = 1; i < s.events.size(); ++i) {
    EXPECT_LE(s.events[i - 1].at, s.events[i].at);
  }
  for (const FaultSpec& e : s.events) {
    EXPECT_GE(e.at, SimDuration::Zero());
    EXPECT_LT(e.at, p.window);
    EXPECT_GE(e.duration, p.min_duration);
    EXPECT_LE(e.duration, p.max_duration);
  }
}

TEST(FaultScheduleTest, KindsWithoutTargetsAreNeverDrawn) {
  StormParams p;
  p.event_count = 50;
  p.links = {LinkId(1)};
  p.include_control_plane = false;
  FaultSchedule s = FaultSchedule::Storm(5, p);
  for (const FaultSpec& e : s.events) {
    EXPECT_EQ(e.kind, FaultKind::kLinkDown);
  }
}

// ---------------------------------------------------------------------------
// Single-fault mechanics on a small world.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, LinkFaultDownsAndRestoresBothViews) {
  TestWorld tw = BuildTestWorld();
  Topology& topo = tw.world->topology();
  EventQueue queue;
  FlowSim sim(queue, topo);
  MetricRegistry metrics;
  FaultInjector injector(queue, topo, sim, tw.world.get(), metrics, {});

  LinkId victim(1);
  FaultSpec spec;
  spec.kind = FaultKind::kLinkDown;
  spec.duration = SimDuration::Seconds(1);
  spec.link = victim;
  injector.InjectNow(spec);
  EXPECT_FALSE(topo.IsLinkUp(victim));
  EXPECT_FALSE(sim.IsLinkUp(victim));
  EXPECT_EQ(topo.down_link_count(), 1u);

  queue.RunAll();
  EXPECT_TRUE(topo.IsLinkUp(victim));
  EXPECT_TRUE(sim.IsLinkUp(victim));
  EXPECT_EQ(injector.faults_injected(), 1u);
  EXPECT_TRUE(injector.AllRecovered());
}

TEST(FaultInjectorTest, OverlappingFaultsOnOneLinkRestoreOnlyAtLastRecovery) {
  TestWorld tw = BuildTestWorld();
  Topology& topo = tw.world->topology();
  EventQueue queue;
  FlowSim sim(queue, topo);
  MetricRegistry metrics;
  FaultInjector injector(queue, topo, sim, tw.world.get(), metrics, {});

  LinkId victim(1);
  FaultSpec first;
  first.kind = FaultKind::kLinkDown;
  first.link = victim;
  first.duration = SimDuration::Seconds(1);
  FaultSpec second = first;
  second.at = SimDuration::Millis(500);
  second.duration = SimDuration::Seconds(2);  // recovers at t=2.5s

  FaultSchedule schedule;
  schedule.events = {first, second};
  injector.Schedule(schedule);
  queue.RunUntil(SimTime::FromSeconds(1.5));
  // First fault recovered at t=1s, but the second still holds the link.
  EXPECT_FALSE(topo.IsLinkUp(victim));
  EXPECT_FALSE(injector.AllRecovered());
  queue.RunAll();
  EXPECT_TRUE(topo.IsLinkUp(victim));
  EXPECT_TRUE(injector.AllRecovered());
}

TEST(FaultInjectorTest, GatewayRestartDownsEveryIncidentLink) {
  TestWorld tw = BuildTestWorld();
  Topology& topo = tw.world->topology();
  EventQueue queue;
  FlowSim sim(queue, topo);
  MetricRegistry metrics;
  FaultInjector injector(queue, topo, sim, tw.world.get(), metrics, {});

  NodeId gateway = tw.world->region(tw.east).edge_node;
  std::vector<LinkId> incident = topo.IncidentLinks(gateway);
  ASSERT_GT(incident.size(), 2u);

  FaultSpec spec;
  spec.kind = FaultKind::kGatewayRestart;
  spec.node = gateway;
  spec.duration = SimDuration::Seconds(1);
  injector.InjectNow(spec);
  EXPECT_EQ(topo.down_link_count(), incident.size());
  for (LinkId link : incident) {
    EXPECT_FALSE(topo.IsLinkUp(link));
  }
  queue.RunAll();
  EXPECT_EQ(topo.down_link_count(), 0u);
  EXPECT_TRUE(injector.AllRecovered());
}

TEST(FaultInjectorTest, RejectsUnknownLink) {
  TestWorld tw = BuildTestWorld();
  Topology& topo = tw.world->topology();
  EventQueue queue;
  FlowSim sim(queue, topo);
  MetricRegistry metrics;
  FaultInjector injector(queue, topo, sim, tw.world.get(), metrics, {});
  const uint64_t revision = topo.revision();

  FaultSpec unknown;
  unknown.kind = FaultKind::kLinkDown;
  unknown.link = LinkId(topo.link_count() + 1);
  EXPECT_EQ(injector.InjectNow(unknown).code(), StatusCode::kInvalidArgument);
  FaultSpec unset = unknown;
  unset.link = LinkId();
  EXPECT_EQ(injector.InjectNow(unset).code(), StatusCode::kInvalidArgument);

  // One bad spec refuses the whole schedule, valid specs included.
  FaultSpec valid = unknown;
  valid.link = LinkId(1);
  FaultSchedule schedule;
  schedule.events = {valid, unknown};
  EXPECT_EQ(injector.Schedule(schedule).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(queue.empty());
  queue.RunAll();

  EXPECT_EQ(injector.faults_injected(), 0u);
  EXPECT_EQ(topo.down_link_count(), 0u);
  EXPECT_EQ(topo.revision(), revision);
}

TEST(FaultInjectorTest, InstanceCrashFlipsRunningAndFiresHooks) {
  TestWorld tw = BuildTestWorld();
  Topology& topo = tw.world->topology();
  EventQueue queue;
  FlowSim sim(queue, topo);
  MetricRegistry metrics;
  InstanceId vm =
      *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, 0);

  std::vector<std::string> events;
  FaultHooks hooks;
  hooks.on_inject = [&](const FaultSpec& spec) {
    events.push_back(std::string("inject:") +
                     std::string(FaultKindName(spec.kind)));
  };
  hooks.on_recover = [&](const FaultSpec& spec) {
    events.push_back(std::string("recover:") +
                     std::string(FaultKindName(spec.kind)));
  };
  FaultInjector injector(queue, topo, sim, tw.world.get(), metrics,
                         std::move(hooks));

  FaultSpec spec;
  spec.kind = FaultKind::kInstanceCrash;
  spec.instance = vm;
  spec.duration = SimDuration::Seconds(1);
  injector.InjectNow(spec);
  EXPECT_FALSE(tw.world->FindInstance(vm)->running);
  queue.RunAll();
  EXPECT_TRUE(tw.world->FindInstance(vm)->running);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "inject:instance-crash");
  EXPECT_EQ(events[1], "recover:instance-crash");
}

// ---------------------------------------------------------------------------
// Declarative-world reactions: EIP route withdrawal + SIP re-binding.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, DeclarativeInstanceCrashRebindsSipAndDropsEndpoint) {
  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  DeclarativeCloud cloud(*tw.world, ledger);
  EventQueue queue;
  FlowSim sim(queue, tw.world->topology());
  MetricRegistry metrics;

  InstanceId client =
      *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.west, 0);
  IpAddress client_eip = *cloud.RequestEip(client);
  std::vector<InstanceId> backends;
  std::vector<IpAddress> eips;
  IpAddress sip = *cloud.RequestSip(tw.tenant, tw.provider);
  for (int i = 0; i < 2; ++i) {
    InstanceId id =
        *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, i);
    backends.push_back(id);
    IpAddress eip = *cloud.RequestEip(id);
    eips.push_back(eip);
    ASSERT_TRUE(cloud.Bind(eip, sip).ok());
    PermitEntry e;
    e.source = IpPrefix::Host(client_eip);
    ASSERT_TRUE(cloud.SetPermitList(eip, {e}).ok());
  }

  FaultHooks hooks;
  hooks.on_inject = [&](const FaultSpec& spec) {
    if (spec.kind == FaultKind::kInstanceCrash) {
      cloud.NotifyInstanceDown(spec.instance);
    }
  };
  hooks.on_recover = [&](const FaultSpec& spec) {
    if (spec.kind == FaultKind::kInstanceCrash) {
      cloud.NotifyInstanceUp(spec.instance);
    }
  };
  FaultInjector injector(queue, tw.world->topology(), sim, tw.world.get(),
                         metrics, std::move(hooks));

  FaultSpec spec;
  spec.kind = FaultKind::kInstanceCrash;
  spec.instance = backends[0];
  spec.duration = SimDuration::Seconds(2);
  injector.InjectNow(spec);

  // SIP re-binding: the dead backend never resolves while down.
  for (int i = 0; i < 20; ++i) {
    auto d = cloud.Evaluate(client, sip, 443, Protocol::kTcp);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(d->delivered) << d->drop_stage << ": " << Explain(*d);
    EXPECT_NE(d->effective_dst, eips[0]);
  }
  // Direct-to-EIP traffic sees the endpoint gone, not a silent blackhole.
  auto direct = cloud.Evaluate(client, eips[0], 443, Protocol::kTcp);
  ASSERT_TRUE(direct.ok());
  EXPECT_FALSE(direct->delivered);
  EXPECT_EQ(direct->drop_stage, "instance-down");

  queue.RunAll();
  // Recovered: the EIP answers again and the SIP pool is whole.
  auto after = cloud.Evaluate(client, eips[0], 443, Protocol::kTcp);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->delivered) << after->drop_stage << ": "
                                << Explain(*after);
}

// ---------------------------------------------------------------------------
// Control-plane faults: degraded replication + permit staleness.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, DegradedReplicationWidensPermitStalenessWindow) {
  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  EventQueue queue;
  DeclarativeParams dparams;
  dparams.filter.degraded_drop_prob = 0.9;
  DeclarativeCloud cloud(*tw.world, ledger, &queue, dparams);
  FlowSim sim(queue, tw.world->topology());
  MetricRegistry metrics;

  InstanceId client =
      *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.west, 0);
  IpAddress client_eip = *cloud.RequestEip(client);
  InstanceId server =
      *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
  IpAddress server_eip = *cloud.RequestEip(server);
  PermitEntry permit;
  permit.source = IpPrefix::Host(client_eip);
  ASSERT_TRUE(cloud.SetPermitList(server_eip, {permit}).ok());
  queue.RunAll();  // let the initial install converge

  EdgeFilterBank& bank = cloud.provider_filters(tw.provider);
  ASSERT_TRUE(bank.IsConverged(server_eip));
  FiveTuple flow;
  flow.src = client_eip;
  flow.dst = server_eip;
  flow.dst_port = 443;
  flow.proto = Protocol::kTcp;
  auto any_edge_admits = [&] {
    for (size_t e = 0; e < bank.edge_count(); ++e) {
      if (bank.Admits(e, flow)) {
        return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(any_edge_admits());

  FaultHooks hooks;
  hooks.set_control_degraded = [&](bool degraded) {
    bank.SetReplicationDegraded(degraded);
  };
  FaultInjector injector(queue, tw.world->topology(), sim, tw.world.get(),
                         metrics, std::move(hooks));
  FaultSpec fault;
  fault.kind = FaultKind::kControlPlaneDegrade;
  fault.duration = SimDuration::Seconds(30);
  injector.InjectNow(fault);
  ASSERT_TRUE(bank.replication_degraded());

  // Revoke the client mid-degrade and measure how long a revoked peer still
  // gets through somewhere (the E8b staleness window).
  SimTime revoked_at = queue.now();
  ASSERT_TRUE(cloud.SetPermitList(server_eip, {}).ok());
  std::optional<SimDuration> staleness;
  std::function<void()> probe = [&] {
    if (staleness) {
      return;
    }
    if (!any_edge_admits()) {
      staleness = queue.now() - revoked_at;
      return;
    }
    queue.ScheduleAfter(SimDuration::Millis(1), probe);
  };
  probe();
  queue.RunAll();

  ASSERT_TRUE(staleness.has_value());
  EXPECT_TRUE(bank.IsConverged(server_eip));
  EXPECT_FALSE(bank.replication_degraded());
  EXPECT_GT(bank.messages_dropped(), 0u);
  // The degraded window includes at least one retransmit round on top of
  // the 5 ms base install latency.
  EXPECT_GT(staleness->ToMillis(), 5.0);
}

// ---------------------------------------------------------------------------
// Both worlds under an identical 100-event storm.
// ---------------------------------------------------------------------------

struct StormOutcome {
  std::string fingerprint;
  uint64_t completed = 0;
  uint64_t aborted = 0;
  uint64_t retries = 0;
  uint64_t gave_up = 0;
  uint64_t denied = 0;
  size_t stalled_after = 0;
  uint64_t injected = 0;
  bool all_recovered = false;
  double bytes_blackholed = 0;
};

// Deploys a flat permit-everyone-in-the-app declarative app (the resilience
// tests exercise recovery, not the security matrix — that's
// parity_integration_test's job).
std::map<uint64_t, IpAddress> DeployDeclarativeApp(DeclarativeCloud& cloud,
                                                   const Fig1World& fig) {
  std::map<uint64_t, IpAddress> eip;
  std::vector<InstanceId> all = fig.AllInstances();
  for (InstanceId id : all) {
    eip[id.value()] = *cloud.RequestEip(id);
  }
  for (InstanceId dst : all) {
    std::vector<PermitEntry> permits;
    for (InstanceId src : all) {
      if (src != dst) {
        PermitEntry e;
        e.source = IpPrefix::Host(eip[src.value()]);
        permits.push_back(e);
      }
    }
    EXPECT_TRUE(cloud.SetPermitList(eip[dst.value()], permits).ok());
  }
  return eip;
}

StormParams Fig1Storm(const Fig1World& fig) {
  StormParams p;
  p.event_count = 100;
  p.window = SimDuration::Seconds(20);
  p.min_duration = SimDuration::Millis(100);
  p.max_duration = SimDuration::Seconds(2);
  const Topology& topo = fig.world->topology();
  for (size_t i = 0; i < topo.link_count(); ++i) {
    LinkId id(i + 1);
    LinkClass cls = topo.link(id).cls;
    if (cls == LinkClass::kBackbone || cls == LinkClass::kPublicInternet) {
      p.links.push_back(id);
    }
  }
  for (InstanceId id : fig.spark) {
    p.instances.push_back(id);
  }
  for (InstanceId id : fig.database) {
    p.instances.push_back(id);
  }
  p.gateways = {fig.world->region(fig.a_us_east).edge_node,
                fig.world->region(fig.b_us_east).edge_node};
  return p;
}

StormOutcome RunStorm(bool declarative, uint64_t storm_seed) {
  Fig1World fig = BuildFig1World();
  CloudWorld& world = *fig.world;
  EventQueue queue;
  FlowSim sim(queue, world.topology());
  MetricRegistry metrics;

  ConfigLedger ledger;
  std::unique_ptr<BaselineNetwork> baseline;
  std::unique_ptr<DeclarativeCloud> decl;
  std::map<uint64_t, IpAddress> eip;
  ConnectorFn connector;
  FaultHooks hooks;
  if (declarative) {
    decl = std::make_unique<DeclarativeCloud>(world, ledger);
    eip = DeployDeclarativeApp(*decl, fig);
    DeclarativeCloud* cloud = decl.get();
    auto* eips = &eip;
    // An instance without an EIP is dialled at an address no endpoint
    // holds, which the walk drops as no-such-endpoint.
    connector = [cloud, eips](InstanceId src, InstanceId dst) {
      auto it = eips->find(dst.value());
      return RouteFor(cloud->Evaluate(
          src, it == eips->end() ? IpAddress() : it->second, 443,
          Protocol::kTcp));
    };
    // Declarative reaction: the provider's hypervisor signal repairs SIP
    // bindings and withdraws the EIP host route immediately.
    hooks.on_inject = [cloud](const FaultSpec& spec) {
      if (spec.kind == FaultKind::kInstanceCrash) {
        cloud->NotifyInstanceDown(spec.instance);
      }
    };
    hooks.on_recover = [cloud](const FaultSpec& spec) {
      if (spec.kind == FaultKind::kInstanceCrash) {
        cloud->NotifyInstanceUp(spec.instance);
      }
    };
  } else {
    baseline = std::make_unique<BaselineNetwork>(world, ledger);
    auto built = BuildFig1Baseline(*baseline, fig);
    EXPECT_TRUE(built.ok()) << built.status();
    BaselineNetwork* net = baseline.get();
    // E8b's baseline reaction: route propagation re-runs on every transport
    // fault and its recovery.
    hooks.on_inject = [net](const FaultSpec& spec) {
      if (spec.kind == FaultKind::kLinkDown ||
          spec.kind == FaultKind::kGatewayRestart) {
        (void)net->PropagateRoutes();
      }
    };
    hooks.on_recover = [net](const FaultSpec& spec) {
      if (spec.kind == FaultKind::kLinkDown ||
          spec.kind == FaultKind::kGatewayRestart) {
        (void)net->PropagateRoutes();
      }
    };
    connector = [net](InstanceId src, InstanceId dst) {
      return RouteFor(
          net->Evaluate(src, dst, Fig1Baseline::kDbPort, Protocol::kTcp));
    };
  }

  WorkloadParams wparams;
  wparams.seed = 17;
  wparams.max_retries = 6;
  wparams.mean_response_bytes = 128 * 1024;
  RequestWorkload workload(queue, sim, world, wparams);
  size_t pattern = *workload.AddStreamingPattern(
      "spark->db", fig.spark, fig.database, RateCurve::Constant(80.0),
      connector);
  workload.Start(SimDuration::Seconds(25));

  FaultInjector injector(queue, world.topology(), sim, &world, metrics,
                         std::move(hooks));
  injector.Schedule(FaultSchedule::Storm(storm_seed, Fig1Storm(fig)));
  queue.RunAll();

  StormOutcome out;
  const PatternStats& stats = workload.stats(pattern);
  out.completed = stats.completed;
  out.aborted = stats.aborted;
  out.retries = stats.retries;
  out.gave_up = stats.gave_up;
  out.denied = stats.denied;
  out.stalled_after = sim.stalled_flow_count();
  out.injected = injector.faults_injected();
  out.all_recovered = injector.AllRecovered();
  out.bytes_blackholed = sim.bytes_blackholed();

  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "attempted=%llu completed=%llu denied=%llu aborted=%llu retries=%llu "
      "gave_up=%llu inflight=%llu lat_n=%llu lat_sum=%.17g bytes=%.17g "
      "sim_aborted=%llu sim_blackholed=%llu bytes_blackholed=%.17g "
      "reallocs=%llu injected=%llu",
      static_cast<unsigned long long>(stats.attempted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.denied),
      static_cast<unsigned long long>(stats.aborted),
      static_cast<unsigned long long>(stats.retries),
      static_cast<unsigned long long>(stats.gave_up),
      static_cast<unsigned long long>(workload.inflight()),
      static_cast<unsigned long long>(stats.latency_ms.count()),
      stats.latency_ms.sum(), stats.bytes_transferred,
      static_cast<unsigned long long>(sim.flows_aborted()),
      static_cast<unsigned long long>(sim.flows_blackholed()),
      sim.bytes_blackholed(),
      static_cast<unsigned long long>(sim.reallocation_count()),
      static_cast<unsigned long long>(injector.faults_injected()));
  out.fingerprint = buf;
  return out;
}

TEST(FaultStormTest, ReplayingTheSameScheduleIsByteIdentical) {
  StormOutcome first = RunStorm(/*declarative=*/true, /*storm_seed=*/99);
  StormOutcome second = RunStorm(/*declarative=*/true, /*storm_seed=*/99);
  EXPECT_EQ(first.fingerprint, second.fingerprint);

  StormOutcome base_first = RunStorm(/*declarative=*/false, 99);
  StormOutcome base_second = RunStorm(/*declarative=*/false, 99);
  EXPECT_EQ(base_first.fingerprint, base_second.fingerprint);
}

TEST(FaultStormTest, BothWorldsSurviveHundredEventStorm) {
  for (bool declarative : {false, true}) {
    StormOutcome out = RunStorm(declarative, /*storm_seed=*/7);
    SCOPED_TRACE(declarative ? "declarative" : "baseline");
    // The storm actually injected and fully drained.
    EXPECT_GT(out.injected, 0u);
    EXPECT_TRUE(out.all_recovered);
    // Zero permanently blackholed flows after recovery.
    EXPECT_EQ(out.stalled_after, 0u);
    // Faults really bit (flows were torn down and rerouted/retried)...
    EXPECT_GT(out.aborted + out.denied, 0u);
    // ...and the bulk of the traffic still completed.
    EXPECT_GT(out.completed, 0u);
    EXPECT_GT(out.completed, out.gave_up * 10);
  }
}

}  // namespace
}  // namespace tenantnet
