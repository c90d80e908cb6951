// Randomized equivalence for the verdict paths.
//
// The property: after ANY interleaving of verdict-affecting mutations each
// world's verdict agrees with an independent witness — in the edge world
// Admits (the compiled matcher) == AdmitsLinear (the original linear scan),
// in the baseline world Evaluate agrees with the reach engine's CanReach on
// the verdict and the deny stage. Mutations include permit-list and group
// churn with in-flight replication (partial queue drains), fault-injector
// storms over a declarative cloud, and SG/ACL/route/instance-state churn
// against the baseline fabric.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/app/workload.h"
#include "src/cloud/presets.h"
#include "src/common/rng.h"
#include "src/core/api.h"
#include "src/core/edge_filter.h"
#include "src/faults/fault_injector.h"
#include "src/reach/reach.h"
#include "src/sim/flow_sim.h"
#include "src/vnet/fabric.h"
#include "tests/test_env.h"

namespace tenantnet {
namespace {

IpAddress Endpoint(uint64_t i) {
  return IpAddress::V4(static_cast<uint32_t>(0x05000000 + i));
}
IpAddress Source(uint64_t i) {
  return IpAddress::V4(static_cast<uint32_t>(0x0A000000 + i));
}

// Random permit entry over small pools so lists collide and overlap often.
PermitEntry RandomEntry(Rng& rng, size_t n_sources, size_t n_groups) {
  PermitEntry e;
  switch (rng.NextU64(4)) {
    case 0:  // host prefix
      e.source = IpPrefix::Host(Source(rng.NextU64(n_sources)));
      break;
    case 1:  // short covering prefix (many flows match)
      e.source = *IpPrefix::Create(Source(0), 24 - static_cast<int>(
                                                  rng.NextU64(9)));
      break;
    case 2:  // group reference
      e.source_group = EndpointGroupId(1 + rng.NextU64(n_groups));
      break;
    default:  // non-matching prefix (pure noise in the trie)
      e.source = IpPrefix::Host(
          IpAddress::V4(static_cast<uint32_t>(0x0C000000 + rng.NextU64(64))));
      break;
  }
  if (rng.NextBool(0.5)) {
    e.proto = rng.NextBool(0.5) ? Protocol::kTcp : Protocol::kUdp;
  }
  if (rng.NextBool(0.5)) {
    e.dst_ports = PortRange::Single(rng.NextBool(0.5) ? 443 : 8080);
  }
  return e;
}

FiveTuple RandomFlow(Rng& rng, size_t n_endpoints, size_t n_sources) {
  FiveTuple flow;
  flow.dst = Endpoint(rng.NextU64(n_endpoints));
  flow.src = rng.NextBool(0.8)
                 ? Source(rng.NextU64(n_sources))
                 : IpAddress::V4(static_cast<uint32_t>(0x0C000000 +
                                                       rng.NextU64(64)));
  flow.src_port = 40000;
  flow.dst_port = rng.NextBool(0.5) ? 443 : (rng.NextBool(0.5) ? 8080 : 80);
  flow.proto = rng.NextBool(0.7) ? Protocol::kTcp : Protocol::kUdp;
  return flow;
}

// ---------------------------------------------------------------------------
// Edge world: raw bank, permit/group churn with in-flight replication.
// ---------------------------------------------------------------------------

class EdgeEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EdgeEquivalenceTest, CachedMatchesCompiledMatchesLinear) {
  const size_t kEndpoints = 24;
  const size_t kSources = 20;
  const size_t kGroups = 3;
  Rng rng(GetParam());

  EventQueue queue;
  EdgeFilterBank bank("p", &queue, GetParam());
  bank.AddEdge("e0");
  bank.AddEdge("e1");
  bank.AddEdge("e2");

  int admitted = 0;
  int denied = 0;
  for (int round = 0; round < 80; ++round) {
    // One mutation per round.
    switch (rng.NextU64(6)) {
      case 0:
      case 1: {  // install/replace a list (most common op)
        std::vector<PermitEntry> entries;
        for (uint64_t i = 0, n = rng.NextU64(6); i < n; ++i) {
          entries.push_back(RandomEntry(rng, kSources, kGroups));
        }
        bank.SetPermitList(Endpoint(rng.NextU64(kEndpoints)),
                           std::move(entries));
        break;
      }
      case 2:
        bank.RemovePermitList(Endpoint(rng.NextU64(kEndpoints)));
        break;
      case 3: {  // replace a group's membership
        std::vector<IpAddress> members;
        for (uint64_t i = 0, n = rng.NextU64(8); i < n; ++i) {
          members.push_back(Source(rng.NextU64(kSources)));
        }
        bank.SetGroup(EndpointGroupId(1 + rng.NextU64(kGroups)),
                      std::move(members));
        break;
      }
      case 4:
        bank.RemoveGroup(EndpointGroupId(1 + rng.NextU64(kGroups)));
        break;
      default: {  // incremental update
        std::vector<PermitEntry> add;
        if (rng.NextBool(0.7)) {
          add.push_back(RandomEntry(rng, kSources, kGroups));
        }
        bank.UpdatePermitList(Endpoint(rng.NextU64(kEndpoints)),
                              std::move(add), {});
        break;
      }
    }
    // Drain the replication queue only partially: queries below run while
    // some applies are still in flight, so verdicts must track each edge's
    // *applied* state, not the send-time intent.
    queue.RunUntil(queue.now() + SimDuration::Millis(rng.NextU64(25)));

    for (int q = 0; q < 30; ++q) {
      FiveTuple flow = RandomFlow(rng, kEndpoints, kSources);
      size_t edge = rng.NextU64(3);
      bool linear = bank.AdmitsLinear(edge, flow);
      ASSERT_EQ(bank.Admits(edge, flow), linear)
          << "compiled matcher diverged at round " << round << " flow "
          << flow.ToString();
      ++(linear ? admitted : denied);
    }
  }
  queue.RunAll();
  // Converged end state still agrees everywhere.
  for (int q = 0; q < 200; ++q) {
    FiveTuple flow = RandomFlow(rng, kEndpoints, kSources);
    size_t edge = rng.NextU64(3);
    ASSERT_EQ(bank.Admits(edge, flow), bank.AdmitsLinear(edge, flow));
  }
  // Both verdicts occurred (this is a property test, not a no-op pass).
  EXPECT_GT(admitted, 0);
  EXPECT_GT(denied, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdgeEquivalenceTest,
                         ::testing::Values(1, 7, 42, 1234));

// ---------------------------------------------------------------------------
// Edge world under a fault storm: control-plane degradation delays and
// drops replication messages while permits churn.
// ---------------------------------------------------------------------------

TEST(EdgeEquivalenceTest, HoldsThroughFaultInjectorStorm) {
  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  EventQueue queue;
  DeclarativeParams dparams;
  dparams.filter.degraded_drop_prob = 0.5;
  DeclarativeCloud cloud(*tw.world, ledger, &queue, dparams);
  FlowSim sim(queue, tw.world->topology());
  MetricRegistry metrics;

  // A few instances with EIPs and permits between them.
  std::vector<IpAddress> eips;
  std::vector<InstanceId> instances;
  for (int i = 0; i < 6; ++i) {
    InstanceId id =
        *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
    instances.push_back(id);
    eips.push_back(*cloud.RequestEip(id));
  }
  EdgeFilterBank& bank = cloud.provider_filters(tw.provider);
  queue.RunAll();

  FaultHooks hooks;
  hooks.set_control_degraded = [&](bool degraded) {
    bank.SetReplicationDegraded(degraded);
  };
  FaultInjector injector(queue, tw.world->topology(), sim, tw.world.get(),
                         metrics, std::move(hooks));

  StormParams sparams;
  sparams.event_count = 30;
  sparams.window = SimDuration::Seconds(20);
  sparams.instances = instances;
  sparams.include_control_plane = true;
  injector.Schedule(FaultSchedule::Storm(99, sparams));

  Rng rng(99);
  for (int round = 0; round < 60; ++round) {
    // Churn permits against random endpoints while the storm plays out.
    std::vector<PermitEntry> entries;
    for (uint64_t i = 0, n = rng.NextU64(4); i < n; ++i) {
      PermitEntry e;
      e.source = IpPrefix::Host(eips[rng.NextU64(eips.size())]);
      if (rng.NextBool(0.5)) {
        e.dst_ports = PortRange::Single(443);
      }
      entries.push_back(e);
    }
    ASSERT_TRUE(
        cloud.SetPermitList(eips[rng.NextU64(eips.size())], entries).ok());
    queue.RunUntil(queue.now() + SimDuration::Millis(400));

    for (int q = 0; q < 25; ++q) {
      FiveTuple flow;
      flow.src = eips[rng.NextU64(eips.size())];
      flow.dst = eips[rng.NextU64(eips.size())];
      flow.src_port = 40000;
      flow.dst_port = rng.NextBool(0.5) ? 443 : 80;
      flow.proto = Protocol::kTcp;
      size_t edge = rng.NextU64(bank.edge_count());
      ASSERT_EQ(bank.Admits(edge, flow), bank.AdmitsLinear(edge, flow))
          << "round " << round;
    }

    // Third leg of the equivalence: the reach engine's static walk must
    // agree with the live data plane mid-storm, pair by pair.
    DeclarativeReachEngine engine(*tw.world, cloud);
    for (size_t i = 0; i < instances.size(); ++i) {
      for (size_t j = 0; j < eips.size(); ++j) {
        uint16_t port = rng.NextBool(0.5) ? 443 : 80;
        ReachVerdict v = engine.CanReach(instances[i], eips[j], port,
                                         Protocol::kTcp);
        auto d = cloud.Evaluate(instances[i], eips[j], port, Protocol::kTcp);
        // A crashed src or dst is a drop on the data plane too.
        ASSERT_TRUE(d.ok()) << d.status();
        ASSERT_EQ(v.reachable, d->delivered)
            << "round " << round << " " << v.ToString();
        if (!d->delivered) {
          ASSERT_EQ(DenyStages().Name(v.deny_stage), d->drop_stage)
              << "round " << round << " " << v.ToString();
        }
      }
    }
  }
  queue.RunAll();
}

// ---------------------------------------------------------------------------
// Baseline world: SG / ACL / route / instance-state churn.
// ---------------------------------------------------------------------------

class BaselineEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BaselineEquivalenceTest, EvaluateMatchesReachEngine) {
  SCOPED_TRACE("reproduce with TN_SEED=" + std::to_string(GetParam()));
  Rng rng(GetParam());
  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  BaselineNetwork net(*tw.world, ledger);
  EventQueue queue;
  FlowSim sim(queue, tw.world->topology());
  MetricRegistry metrics;
  FaultInjector injector(queue, tw.world->topology(), sim, tw.world.get(),
                         metrics, {});

  auto vpc = *net.CreateVpc(tw.tenant, tw.provider, tw.east, "v1",
                            *IpPrefix::Parse("10.0.0.0/16"));
  auto subnet = *net.CreateSubnet(vpc, "s1", 20, 0, false);
  auto sg = *net.CreateSecurityGroup(vpc, "sg");
  // Egress is open in a group of its own, so flows reach the ingress checks
  // the churn below toggles and some verdicts deliver.
  auto egress_sg = *net.CreateSecurityGroup(vpc, "egress");
  SgRule egress;
  egress.direction = TrafficDirection::kEgress;
  egress.peer = IpPrefix::Any(IpFamily::kIpv4);
  ASSERT_TRUE(net.AddSgRule(egress_sg, egress).ok());
  auto acl = *net.CreateNetworkAcl(vpc, "acl");
  for (TrafficDirection dir :
       {TrafficDirection::kIngress, TrafficDirection::kEgress}) {
    AclEntry entry;
    entry.rule_number = 1000;  // low priority; churn inserts above it
    entry.allow = true;
    entry.direction = dir;
    entry.match = FlowMatch::Any();
    ASSERT_TRUE(net.AddAclEntry(acl, entry).ok());
  }
  ASSERT_TRUE(net.AssociateAcl(subnet, acl).ok());
  auto rt = *net.CreateRouteTable(vpc, "rt");

  std::vector<InstanceId> instances;
  for (int i = 0; i < 8; ++i) {
    InstanceId id =
        *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
    ASSERT_TRUE(net.AttachInstance(id, subnet, {sg, egress_sg}, false).ok());
    instances.push_back(id);
  }

  uint32_t next_acl_rule = 100;
  size_t sg_rules = 0;
  int delivered = 0;
  int denied = 0;
  for (int round = 0; round < 60; ++round) {
    switch (rng.NextU64(6)) {
      case 0: {  // add an SG allow rule for a random port
        SgRule rule;
        rule.direction = TrafficDirection::kIngress;
        rule.proto = Protocol::kTcp;
        rule.ports =
            PortRange::Single(static_cast<uint16_t>(80 + rng.NextU64(6)));
        rule.peer = *IpPrefix::Parse("10.0.0.0/16");
        ASSERT_TRUE(net.AddSgRule(sg, rule).ok());
        ++sg_rules;
        break;
      }
      case 1:  // drop a random SG rule
        if (sg_rules > 0 &&
            net.RemoveSgRule(sg, rng.NextU64(sg_rules)).ok()) {
          --sg_rules;
        }
        break;
      case 2: {  // shadow some port with a deny ACL entry
        AclEntry entry;
        entry.rule_number = next_acl_rule++;
        entry.allow = rng.NextBool(0.5);
        entry.direction = rng.NextBool(0.5) ? TrafficDirection::kIngress
                                            : TrafficDirection::kEgress;
        entry.match = FlowMatch::Any();
        entry.match.dst_ports =
            PortRange::Single(static_cast<uint16_t>(80 + rng.NextU64(6)));
        ASSERT_TRUE(net.AddAclEntry(acl, entry).ok());
        break;
      }
      case 3:  // route-table churn (unused table; still a config mutation)
        if (rng.NextBool(0.5)) {
          (void)net.AddRoute(rt, *IpPrefix::Parse("198.18.0.0/24"),
                             VpcRouteTarget{});
        } else {
          (void)net.RemoveRoute(rt, *IpPrefix::Parse("198.18.0.0/24"));
        }
        break;
      default: {  // instance crash + recovery via the fault injector
        FaultSpec fault;
        fault.kind = FaultKind::kInstanceCrash;
        fault.instance = instances[rng.NextU64(instances.size())];
        fault.duration = SimDuration::Millis(100 + rng.NextU64(400));
        injector.InjectNow(fault);
        // Advance partway: some crashes are mid-outage when we query.
        queue.RunUntil(queue.now() +
                       SimDuration::Millis(rng.NextU64(600)));
        break;
      }
    }

    BaselineReachEngine reach(net);
    for (int q = 0; q < 20; ++q) {
      InstanceId a = instances[rng.NextU64(instances.size())];
      InstanceId b = instances[rng.NextU64(instances.size())];
      uint16_t port = static_cast<uint16_t>(80 + rng.NextU64(6));
      auto d = net.Evaluate(a, b, port, Protocol::kTcp);
      ReachVerdict v = reach.CanReach(a, b, port, Protocol::kTcp);
      // The reach engine is the witness: verdict and deny stage must
      // match the staged evaluation exactly, a crashed end included.
      ASSERT_TRUE(d.ok()) << d.status();
      EXPECT_EQ(v.reachable, d->delivered)
          << "round " << round << " " << v.ToString();
      if (!d->delivered) {
        EXPECT_EQ(DenyStages().Name(v.deny_stage), d->drop_stage)
            << "round " << round << " " << v.ToString();
      }
      ++(d->delivered ? delivered : denied);
    }
  }
  queue.RunAll();
  // Both verdicts occurred (this is a property test, not a no-op pass).
  EXPECT_GT(delivered, 0);
  EXPECT_GT(denied, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineEquivalenceTest,
                         ::testing::ValuesIn(test_env::SeedList(
                             {2, 13, 77, 4096})));

}  // namespace
}  // namespace tenantnet
