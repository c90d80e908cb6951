// Randomized differential fuzz for the reach query engines.
//
// Property, declarative world: CanReach must equal an independent
// brute-force oracle built from the ORIGINAL linear matcher (AdmitsLinear —
// a different code path from the compiled matcher the engine walks) plus
// instance liveness, and must stay in exact agreement with Evaluate for EIP
// destinations (∃/∀ sandwich for SIPs) — through permit/group/binding
// churn, partially drained replication queues, and a FaultInjector storm
// that crashes instances and degrades the control plane mid-round.
// Property, baseline world: CanReach's verdict and deny stage must equal
// Evaluate's through SG/ACL/route/instance churn (the engine translates the
// delivery into a ReachVerdict; this checks the translation).
// In both worlds, every round's incremental Revalidate must fingerprint
// byte-identical to a from-scratch verifier.
//
// Reproduce any failure with the TN_SEED / TN_ITERS pair printed by
// SCOPED_TRACE.

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

std::string DenyName(const ReachVerdict& v) {
  return DenyStages().Name(v.deny_stage);
}

// ---------------------------------------------------------------------------
// Declarative world.
// ---------------------------------------------------------------------------

class DeclarativeReachFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeclarativeReachFuzzTest, EngineMatchesBruteForceUnderStorm) {
  const uint64_t seed = GetParam();
  const int64_t rounds = test_env::ItersOverride(30);
  SCOPED_TRACE("TN_SEED=" + std::to_string(seed) +
               " TN_ITERS=" + std::to_string(rounds));

  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  EventQueue queue;
  DeclarativeParams dparams;
  dparams.filter.degraded_drop_prob = 0.4;
  DeclarativeCloud cloud(*tw.world, ledger, &queue, dparams);
  FlowSim sim(queue, tw.world->topology());
  MetricRegistry metrics;

  constexpr size_t kCloud = 8;
  constexpr size_t kN = kCloud + 3;  // the rest sit at the on-prem site
  std::vector<InstanceId> vms;
  std::vector<IpAddress> eips;
  for (size_t i = 0; i < kN; ++i) {
    InstanceId vm =
        i < kCloud
            ? *tw.world->LaunchInstance(tw.tenant, tw.provider,
                                        i % 2 == 0 ? tw.east : tw.west, 0)
            : *tw.world->LaunchOnPremInstance(tw.tenant, tw.on_prem);
    vms.push_back(vm);
    eips.push_back(*cloud.RequestEip(vm));
  }
  IpAddress sip = *cloud.RequestSip(tw.tenant, tw.provider);
  ASSERT_TRUE(cloud.Bind(eips[0], sip).ok());
  ASSERT_TRUE(cloud.Bind(eips[1], sip).ok());
  ASSERT_TRUE(cloud.Bind(eips[2], sip).ok());
  std::vector<EndpointGroupId> groups;
  for (int g = 0; g < 2; ++g) {
    groups.push_back(
        *cloud.CreateEndpointGroup(tw.tenant, "g" + std::to_string(g)));
    ASSERT_TRUE(
        cloud.AddToEndpointGroup(groups.back(), eips[2 * g]).ok());
  }
  queue.RunAll();

  EdgeFilterBank& bank = cloud.provider_filters(tw.provider);
  EdgeFilterBank& site_bank = cloud.on_prem_filters(tw.on_prem);
  FaultHooks hooks;
  hooks.set_control_degraded = [&](bool degraded) {
    bank.SetReplicationDegraded(degraded);
    site_bank.SetReplicationDegraded(degraded);
  };
  FaultInjector injector(queue, tw.world->topology(), sim, tw.world.get(),
                         metrics, std::move(hooks));
  StormParams sparams;
  sparams.event_count = 24;
  sparams.window = SimDuration::Seconds(15);
  sparams.instances = vms;
  sparams.include_control_plane = true;
  injector.Schedule(FaultSchedule::Storm(seed, sparams));

  DeclarativeReachEngine engine(*tw.world, cloud);
  DeclarativeReachVerifier verifier(*tw.world, cloud);
  std::vector<DeclarativeReachVerifier::Pair> pairs;
  for (InstanceId src : vms) {
    for (const IpAddress& dst : eips) {
      pairs.push_back({src, dst, 443, Protocol::kTcp});
    }
    pairs.push_back({src, sip, 443, Protocol::kTcp});
  }
  verifier.SetPairs(pairs);
  verifier.VerifyAll();

  test_env::PairSampler rng(seed);
  auto random_entry = [&]() {
    PermitEntry e;
    switch (rng.Index(4)) {
      case 0:
        e.source = IpPrefix::Host(eips[rng.Index(kN)]);
        break;
      case 1:
        e.source = *IpPrefix::Create(eips[0], 24);
        break;
      case 2:
        e.source_group = groups[rng.Index(groups.size())];
        break;
      default:  // noise prefix no EIP matches
        e.source = IpPrefix::Host(
            IpAddress::V4(static_cast<uint32_t>(0x0C000000 + rng.Index(64))));
        break;
    }
    if (rng.Chance(0.5)) {
      e.dst_ports = PortRange::Single(rng.Chance(0.5) ? 443 : 80);
    }
    return e;
  };

  // The brute-force oracle for one concrete (src EIP -> dst EIP) flow:
  // destination allocated + running + linear matcher admits.
  auto concrete_reaches = [&](IpAddress src_eip, IpAddress dst,
                              uint16_t port) {
    const EipRecord* record = cloud.FindEip(dst);
    if (record == nullptr) {
      return false;
    }
    const Instance* inst = tw.world->FindInstance(record->instance);
    if (inst == nullptr || !inst->running) {
      return false;
    }
    auto edge = cloud.DestinationEdgeOf(dst);
    if (!edge.ok()) {
      return false;
    }
    FiveTuple flow;
    flow.src = src_eip;
    flow.dst = dst;
    flow.dst_port = port;
    flow.proto = Protocol::kTcp;
    return edge->bank->AdmitsLinear(edge->edge_index, flow);
  };

  for (int64_t round = 0; round < rounds; ++round) {
    // One mutation per round, then a PARTIAL queue drain: queries run while
    // replication is in flight and the storm plays out.
    switch (rng.Index(6)) {
      case 0:
      case 1: {
        std::vector<PermitEntry> entries;
        for (size_t i = 0, n = rng.Index(5); i < n; ++i) {
          entries.push_back(random_entry());
        }
        ASSERT_TRUE(
            cloud.SetPermitList(eips[rng.Index(kN)], entries).ok());
        break;
      }
      case 2: {
        std::vector<PermitEntry> add;
        if (rng.Chance(0.7)) {
          add.push_back(random_entry());
        }
        ASSERT_TRUE(
            cloud.UpdatePermitList(eips[rng.Index(kN)], add, {}).ok());
        break;
      }
      case 3: {  // group membership churn
        EndpointGroupId g = groups[rng.Index(groups.size())];
        IpAddress member = eips[rng.Index(kN)];
        if (rng.Chance(0.5)) {
          (void)cloud.AddToEndpointGroup(g, member);
        } else {
          (void)cloud.RemoveFromEndpointGroup(g, member);
        }
        break;
      }
      case 4: {  // SIP binding churn
        IpAddress backend = eips[rng.Index(3)];
        if (rng.Chance(0.5)) {
          (void)cloud.Bind(backend, sip);
        } else {
          (void)cloud.Unbind(backend, sip);
        }
        break;
      }
      default: {  // instance crash with recovery via the injector
        FaultSpec fault;
        fault.kind = FaultKind::kInstanceCrash;
        fault.instance = vms[rng.Index(kN)];
        fault.duration = SimDuration::Millis(100 + rng.Index(400));
        injector.InjectNow(fault);
        break;
      }
    }
    queue.RunUntil(queue.now() + SimDuration::Millis(rng.Index(400)));

    for (int q = 0; q < 20; ++q) {
      auto [s, d] = rng.Pair(kN, kN + 1, /*distinct=*/false);
      SCOPED_TRACE("round " + std::to_string(round) + " " +
                   test_env::PairSampler::ReproLine(q, s, d));
      InstanceId src = vms[s];
      uint16_t port = rng.Chance(0.5) ? 443 : 80;
      const bool src_up = tw.world->FindInstance(src)->running;

      if (d == kN) {
        // SIP destination: ∃/∀ against the per-backend oracle.
        ReachVerdict v = engine.CanReach(src, sip, port, Protocol::kTcp);
        if (!src_up) {
          EXPECT_FALSE(v.reachable);
          EXPECT_EQ(DenyName(v), "src-down");
          continue;
        }
        auto bindings = cloud.sip_lb().Bindings(sip);
        size_t healthy = 0, reach = 0;
        if (bindings.ok()) {
          for (const auto& b : *bindings) {
            if (!b.healthy) {
              continue;
            }
            ++healthy;
            if (concrete_reaches(eips[s], b.eip, port)) {
              ++reach;
            }
          }
        }
        EXPECT_EQ(v.reachable, reach > 0) << v.ToString();
        EXPECT_EQ(v.all_backends, healthy > 0 && reach == healthy)
            << v.ToString();
        // Sandwich against the data plane (this advances the pick counter,
        // which is fine — it is the data plane).
        auto e = cloud.Evaluate(src, sip, port, Protocol::kTcp);
        ASSERT_TRUE(e.ok());
        if (v.all_backends) {
          EXPECT_TRUE(e->delivered);
        }
        if (!v.reachable) {
          EXPECT_FALSE(e->delivered);
        }
      } else {
        // EIP destination: exact agreement with both the oracle and the
        // data plane.
        ReachVerdict v =
            engine.CanReach(src, eips[d], port, Protocol::kTcp);
        auto e = cloud.Evaluate(src, eips[d], port, Protocol::kTcp);
        if (!src_up) {
          EXPECT_FALSE(v.reachable);
          EXPECT_EQ(DenyName(v), "src-down");
          EXPECT_FALSE(e.ok());
          continue;
        }
        EXPECT_EQ(v.reachable, concrete_reaches(eips[s], eips[d], port))
            << v.ToString();
        ASSERT_TRUE(e.ok());
        EXPECT_EQ(v.reachable, e->delivered) << v.ToString();
        if (!v.reachable) {
          EXPECT_EQ(DenyName(v), e->drop_stage) << v.ToString();
        }
      }
    }

    // Mid-storm incremental snapshot: Revalidate must land byte-identical
    // to a from-scratch verify of the same pair set.
    verifier.Revalidate();
    DeclarativeReachVerifier fresh(*tw.world, cloud);
    fresh.SetPairs(pairs);
    fresh.VerifyAll();
    ASSERT_EQ(verifier.Fingerprint(), fresh.Fingerprint())
        << "incremental revalidation diverged at round " << round;
  }
  queue.RunAll();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeclarativeReachFuzzTest,
                         ::testing::ValuesIn(test_env::SeedList({11, 47,
                                                                 1009})));

// ---------------------------------------------------------------------------
// Baseline world.
// ---------------------------------------------------------------------------

class BaselineReachFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BaselineReachFuzzTest, EngineMatchesCachedEvaluateUnderChurn) {
  const uint64_t seed = GetParam();
  const int64_t rounds = test_env::ItersOverride(40);
  SCOPED_TRACE("TN_SEED=" + std::to_string(seed) +
               " TN_ITERS=" + std::to_string(rounds));

  Rng rng(seed);
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
  auto acl = *net.CreateNetworkAcl(vpc, "acl");
  for (TrafficDirection dir :
       {TrafficDirection::kIngress, TrafficDirection::kEgress}) {
    AclEntry entry;
    entry.rule_number = 1000;
    entry.allow = true;
    entry.direction = dir;
    entry.match = FlowMatch::Any();
    ASSERT_TRUE(net.AddAclEntry(acl, entry).ok());
  }
  ASSERT_TRUE(net.AssociateAcl(subnet, acl).ok());

  std::vector<InstanceId> instances;
  for (int i = 0; i < 8; ++i) {
    InstanceId id =
        *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
    ASSERT_TRUE(net.AttachInstance(id, subnet, {sg}, false).ok());
    instances.push_back(id);
  }

  BaselineReachEngine engine(net);
  BaselineReachVerifier verifier(net);
  std::vector<BaselineReachVerifier::Pair> pairs;
  for (InstanceId a : instances) {
    for (InstanceId b : instances) {
      if (a != b) {
        pairs.push_back({a, b, 443, Protocol::kTcp});
      }
    }
  }
  verifier.SetPairs(pairs);
  verifier.VerifyAll();

  uint32_t next_acl_rule = 100;
  size_t sg_rules = 0;
  for (int64_t round = 0; round < rounds; ++round) {
    switch (rng.NextU64(5)) {
      case 0: {
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
      case 1:
        if (sg_rules > 0 && net.RemoveSgRule(sg, rng.NextU64(sg_rules)).ok()) {
          --sg_rules;
        }
        break;
      case 2: {
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
      default: {
        FaultSpec fault;
        fault.kind = FaultKind::kInstanceCrash;
        fault.instance = instances[rng.NextU64(instances.size())];
        fault.duration = SimDuration::Millis(100 + rng.NextU64(400));
        injector.InjectNow(fault);
        queue.RunUntil(queue.now() + SimDuration::Millis(rng.NextU64(600)));
        break;
      }
    }

    for (int q = 0; q < 15; ++q) {
      InstanceId a = instances[rng.NextU64(instances.size())];
      InstanceId b = instances[rng.NextU64(instances.size())];
      uint16_t port = static_cast<uint16_t>(80 + rng.NextU64(6));
      SCOPED_TRACE("round " + std::to_string(round) + " src=" +
                   std::to_string(a.value()) + " dst=" +
                   std::to_string(b.value()) + " port=" +
                   std::to_string(port));
      ReachVerdict v = engine.CanReach(a, b, port, Protocol::kTcp);
      auto e = net.Evaluate(a, b, port, Protocol::kTcp);
      if (!e.ok()) {
        EXPECT_FALSE(v.reachable);
        continue;
      }
      EXPECT_EQ(v.reachable, e->delivered) << v.ToString();
      if (!v.reachable && !e->drop_stage.empty()) {
        EXPECT_EQ(DenyName(v), e->drop_stage) << v.ToString();
      }
    }

    verifier.Revalidate();
    BaselineReachVerifier fresh(net);
    fresh.SetPairs(pairs);
    fresh.VerifyAll();
    ASSERT_EQ(verifier.Fingerprint(), fresh.Fingerprint())
        << "baseline revalidation diverged at round " << round;
  }
  queue.RunAll();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineReachFuzzTest,
                         ::testing::ValuesIn(test_env::SeedList({2, 13, 77})));

}  // namespace
}  // namespace tenantnet
