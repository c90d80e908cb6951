// tn_reach unit + differential tests.
//
// The query engines must agree with the data plane they summarize: for EIP
// destinations the declarative CanReach is EXACTLY Evaluate (same verdict,
// same deny-stage name), and the baseline CanReach is EXACTLY the staged
// evaluator. SIP destinations get the ∃/∀ sandwich (all_backends ⇒
// Evaluate delivers ⇒ reachable). Queries must be side-effect-free — no
// pick counter advance, no verdict-cache traffic. And the incremental
// verifiers must land byte-identical to a from-scratch verify while
// recomputing only what the revision hooks dirtied.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/app/workload.h"
#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/reach/reach.h"
#include "src/routing/route_table.h"
#include "src/vnet/fabric.h"

namespace tenantnet {
namespace {

std::string DenyName(const ReachVerdict& v) {
  return DenyStages().Name(v.deny_stage);
}

std::string StageNames(const ReachVerdict& v) {
  std::string out;
  for (uint32_t id : v.stages) {
    if (!out.empty()) {
      out += " -> ";
    }
    out += RouteLabels().Name(id);
  }
  return out;
}

// A small declarative deployment: 4 EIP'd instances in two regions, with a
// permit matrix installed, plus one stopped instance and one without an EIP.
struct DeclFixture {
  TestWorld tw;
  ConfigLedger ledger;
  std::unique_ptr<DeclarativeCloud> cloud;
  std::vector<InstanceId> vms;
  std::vector<IpAddress> eips;
  InstanceId stopped;     // running=false, has an EIP
  IpAddress stopped_eip;
  InstanceId bare;        // running, no EIP

  DeclFixture() : tw(BuildTestWorld()) {
    cloud = std::make_unique<DeclarativeCloud>(*tw.world, ledger);
    for (int i = 0; i < 4; ++i) {
      InstanceId vm = *tw.world->LaunchInstance(
          tw.tenant, tw.provider, i % 2 == 0 ? tw.east : tw.west, 0);
      vms.push_back(vm);
      eips.push_back(*cloud->RequestEip(vm));
    }
    stopped = *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
    stopped_eip = *cloud->RequestEip(stopped);
    EXPECT_TRUE(tw.world->SetInstanceRunning(stopped, false).ok());
    bare = *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.west, 0);

    // Permit matrix: vm0 -> everyone on 443; vm1 -> vm2 only; vm3 -> nobody.
    for (int dst = 0; dst < 4; ++dst) {
      std::vector<PermitEntry> permits;
      PermitEntry from0;
      from0.source = IpPrefix::Host(eips[0]);
      from0.dst_ports = PortRange::Single(443);
      permits.push_back(from0);
      if (dst == 2) {
        PermitEntry from1;
        from1.source = IpPrefix::Host(eips[1]);
        permits.push_back(from1);
      }
      EXPECT_TRUE(cloud->SetPermitList(eips[dst], permits).ok());
    }
  }
};

// ---------------------------------------------------------------------------
// Declarative engine: exact agreement with Evaluate for EIP destinations.
// ---------------------------------------------------------------------------

TEST(DeclarativeReachTest, EipVerdictsMatchEvaluateExactly) {
  DeclFixture fx;
  DeclarativeReachEngine engine(*fx.tw.world, *fx.cloud);

  for (size_t s = 0; s < fx.vms.size(); ++s) {
    for (size_t d = 0; d < fx.eips.size(); ++d) {
      if (s == d) {
        continue;
      }
      for (uint16_t port : {uint16_t{443}, uint16_t{80}}) {
        SCOPED_TRACE("src=" + std::to_string(s) + " dst=" + std::to_string(d) +
                     " port=" + std::to_string(port));
        ReachVerdict v =
            engine.CanReach(fx.vms[s], fx.eips[d], port, Protocol::kTcp);
        auto e = fx.cloud->Evaluate(fx.vms[s], fx.eips[d], port,
                                    Protocol::kTcp);
        ASSERT_TRUE(e.ok());
        EXPECT_EQ(v.reachable, e->delivered) << v.ToString();
        // EIP destinations are exact: the ∀-bound collapses.
        EXPECT_EQ(v.all_backends, v.reachable);
        if (!v.reachable) {
          EXPECT_EQ(DenyName(v), e->drop_stage) << v.ToString();
          EXPECT_FALSE(v.remediation.empty());
        } else {
          EXPECT_TRUE(v.remediation.empty());
        }
      }
    }
  }
}

TEST(DeclarativeReachTest, ErrorStatusesBecomeEngineDenials) {
  DeclFixture fx;
  DeclarativeReachEngine engine(*fx.tw.world, *fx.cloud);

  // Stopped source: Evaluate errors; the engine denies at "src-down".
  ReachVerdict v =
      engine.CanReach(fx.stopped, fx.eips[0], 443, Protocol::kTcp);
  EXPECT_FALSE(v.reachable);
  EXPECT_EQ(DenyName(v), "src-down");
  EXPECT_FALSE(fx.cloud->Evaluate(fx.stopped, fx.eips[0], 443,
                                  Protocol::kTcp).ok());

  // Source without an EIP.
  v = engine.CanReach(fx.bare, fx.eips[0], 443, Protocol::kTcp);
  EXPECT_FALSE(v.reachable);
  EXPECT_EQ(DenyName(v), "no-eip");

  // Unallocated destination address.
  IpAddress nowhere = IpAddress::V4(0xC0A80001);
  v = engine.CanReach(fx.vms[0], nowhere, 443, Protocol::kTcp);
  EXPECT_FALSE(v.reachable);
  EXPECT_EQ(DenyName(v), "no-such-endpoint");
  auto e = fx.cloud->Evaluate(fx.vms[0], nowhere, 443, Protocol::kTcp);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->drop_stage, "no-such-endpoint");

  // Stopped destination.
  v = engine.CanReach(fx.vms[0], fx.stopped_eip, 443, Protocol::kTcp);
  EXPECT_FALSE(v.reachable);
  EXPECT_EQ(DenyName(v), "instance-down");
  e = fx.cloud->Evaluate(fx.vms[0], fx.stopped_eip, 443, Protocol::kTcp);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->drop_stage, "instance-down");
}

TEST(DeclarativeReachTest, StageTraceNamesTheWalk) {
  DeclFixture fx;
  DeclarativeReachEngine engine(*fx.tw.world, *fx.cloud);

  ReachVerdict ok =
      engine.CanReach(fx.vms[0], fx.eips[1], 443, Protocol::kTcp);
  ASSERT_TRUE(ok.reachable);
  std::string trace = StageNames(ok);
  EXPECT_TRUE(trace.find("src-eip") != std::string::npos) << trace;
  EXPECT_TRUE(trace.find("edge-filter@") != std::string::npos) << trace;
  EXPECT_TRUE(trace.find("deliver") != std::string::npos) << trace;

  ReachVerdict denied =
      engine.CanReach(fx.vms[3], fx.eips[1], 443, Protocol::kTcp);
  ASSERT_FALSE(denied.reachable);
  // The trace ends at the denying stage.
  EXPECT_EQ(RouteLabels().Name(denied.stages.back()), "edge-filter");
}

TEST(DeclarativeReachTest, QueriesLeaveNoDataPlaneTrace) {
  DeclFixture fx;
  IpAddress sip = *fx.cloud->RequestSip(fx.tw.tenant, fx.tw.provider);
  ASSERT_TRUE(fx.cloud->Bind(fx.eips[1], sip).ok());
  ASSERT_TRUE(fx.cloud->Bind(fx.eips[2], sip).ok());
  DeclarativeReachEngine engine(*fx.tw.world, *fx.cloud);

  // Warm up lazily created domains, then pin the counters.
  (void)engine.CanReach(fx.vms[0], sip, 443, Protocol::kTcp);
  EdgeFilterBank& bank = fx.cloud->provider_filters(fx.tw.provider);
  const uint64_t epoch_before = bank.verdict_epoch();
  const uint64_t resolutions_before = fx.cloud->sip_lb().resolutions();

  for (size_t s = 0; s < fx.vms.size(); ++s) {
    for (const IpAddress& dst : fx.eips) {
      (void)engine.CanReach(fx.vms[s], dst, 443, Protocol::kTcp);
    }
    (void)engine.CanReach(fx.vms[s], sip, 443, Protocol::kTcp);
  }

  // Nothing moved: the queries changed no filter state and never advanced
  // the SIP pick counter.
  EXPECT_EQ(bank.verdict_epoch(), epoch_before);
  EXPECT_EQ(fx.cloud->sip_lb().resolutions(), resolutions_before);
}

// ---------------------------------------------------------------------------
// SIP semantics: ∃ over healthy backends, ∀-bound in all_backends.
// ---------------------------------------------------------------------------

TEST(DeclarativeReachTest, SipExistentialWithUniversalBound) {
  DeclFixture fx;
  IpAddress sip = *fx.cloud->RequestSip(fx.tw.tenant, fx.tw.provider);
  ASSERT_TRUE(fx.cloud->Bind(fx.eips[1], sip).ok());
  ASSERT_TRUE(fx.cloud->Bind(fx.eips[2], sip).ok());
  DeclarativeReachEngine engine(*fx.tw.world, *fx.cloud);

  // vm1 is permitted at eip2 (any port) but not at eip1 on port 80: some
  // backends admit, not all.
  ReachVerdict v = engine.CanReach(fx.vms[1], sip, 80, Protocol::kTcp);
  EXPECT_TRUE(v.reachable);
  EXPECT_FALSE(v.all_backends);

  // vm0 is permitted on 443 everywhere: all backends admit.
  v = engine.CanReach(fx.vms[0], sip, 443, Protocol::kTcp);
  EXPECT_TRUE(v.reachable);
  EXPECT_TRUE(v.all_backends);
  // The sandwich: all_backends ⇒ the data plane delivers whichever backend
  // the balancer picks.
  auto e = fx.cloud->Evaluate(fx.vms[0], sip, 443, Protocol::kTcp);
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e->delivered);

  // vm3 is permitted nowhere: no backend admits.
  v = engine.CanReach(fx.vms[3], sip, 443, Protocol::kTcp);
  EXPECT_FALSE(v.reachable);
  EXPECT_EQ(DenyName(v), "edge-filter");

  // All backends down: deny at the balancer.
  fx.cloud->NotifyInstanceDown(fx.vms[1]);
  fx.cloud->NotifyInstanceDown(fx.vms[2]);
  v = engine.CanReach(fx.vms[0], sip, 443, Protocol::kTcp);
  EXPECT_FALSE(v.reachable);
  EXPECT_EQ(DenyName(v), "sip");
  EXPECT_TRUE(v.remediation.find("bind a healthy backend") !=
              std::string::npos)
      << v.remediation;
}

// ---------------------------------------------------------------------------
// Triage tree: each denial class maps to its remediation.
// ---------------------------------------------------------------------------

TEST(ReachTriageTest, TreeShapeIsSane) {
  auto tree = BuildReachTriageTree();
  EXPECT_GE(tree->MaxDepth(), 4u);
  EXPECT_GE(tree->LeafCount(), 7u);
}

TEST(ReachTriageTest, RemediationsNameTheFix) {
  DeclFixture fx;
  DeclarativeReachEngine engine(*fx.tw.world, *fx.cloud);

  auto remediation_of = [&](InstanceId src, IpAddress dst) {
    return engine.CanReach(src, dst, 443, Protocol::kTcp).remediation;
  };

  EXPECT_TRUE(remediation_of(fx.stopped, fx.eips[0])
                  .find("start the source instance") != std::string::npos);
  EXPECT_TRUE(remediation_of(fx.bare, fx.eips[0]).find("request_eip") !=
              std::string::npos);
  EXPECT_TRUE(remediation_of(fx.vms[0], IpAddress::V4(0xC0A80001))
                  .find("unallocated") != std::string::npos);
  EXPECT_TRUE(remediation_of(fx.vms[0], fx.stopped_eip)
                  .find("start the destination instance") !=
              std::string::npos);
  EXPECT_TRUE(remediation_of(fx.vms[3], fx.eips[1])
                  .find("permit list") != std::string::npos);
}

// ---------------------------------------------------------------------------
// Baseline engine: exact agreement with the staged evaluator.
// ---------------------------------------------------------------------------

struct BaselineFixture {
  TestWorld tw;
  ConfigLedger ledger;
  std::unique_ptr<BaselineNetwork> net;
  std::vector<InstanceId> instances;
  SecurityGroupId sg;

  BaselineFixture() : tw(BuildTestWorld()) {
    net = std::make_unique<BaselineNetwork>(*tw.world, ledger);
    auto vpc = *net->CreateVpc(tw.tenant, tw.provider, tw.east, "v1",
                               *IpPrefix::Parse("10.0.0.0/16"));
    auto subnet = *net->CreateSubnet(vpc, "s1", 20, 0, false);
    sg = *net->CreateSecurityGroup(vpc, "sg");
    SgRule rule;
    rule.direction = TrafficDirection::kIngress;
    rule.proto = Protocol::kTcp;
    rule.ports = PortRange::Single(443);
    rule.peer = *IpPrefix::Parse("10.0.0.0/16");
    EXPECT_TRUE(net->AddSgRule(sg, rule).ok());
    for (int i = 0; i < 4; ++i) {
      InstanceId id =
          *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
      EXPECT_TRUE(net->AttachInstance(id, subnet, {sg}, false).ok());
      instances.push_back(id);
    }
  }
};

TEST(BaselineReachTest, VerdictsMatchEvaluateExactly) {
  BaselineFixture fx;
  BaselineReachEngine engine(*fx.net);

  for (InstanceId a : fx.instances) {
    for (InstanceId b : fx.instances) {
      if (a == b) {
        continue;
      }
      for (uint16_t port : {uint16_t{443}, uint16_t{80}}) {
        SCOPED_TRACE("src=" + std::to_string(a.value()) +
                     " dst=" + std::to_string(b.value()) +
                     " port=" + std::to_string(port));
        ReachVerdict v = engine.CanReach(a, b, port, Protocol::kTcp);
        auto e = fx.net->Evaluate(a, b, port, Protocol::kTcp);
        ASSERT_TRUE(e.ok());
        EXPECT_EQ(v.reachable, e->delivered) << v.ToString();
        if (!v.reachable) {
          EXPECT_EQ(DenyName(v), e->drop_stage) << v.ToString();
          EXPECT_FALSE(v.remediation.empty());
        } else {
          // The stage trace is the evaluator's hop walk plus "deliver".
          ASSERT_EQ(v.stages.size(), e->logical_hops.size() + 1);
          for (size_t i = 0; i < e->logical_hops.size(); ++i) {
            EXPECT_EQ(RouteLabels().Name(v.stages[i]),
                      RouteLabels().Name(e->logical_hops[i]));
          }
          EXPECT_EQ(RouteLabels().Name(v.stages.back()), "deliver");
        }
      }
    }
  }
}

TEST(BaselineReachTest, RefusalsBecomeDenials) {
  BaselineFixture fx;
  BaselineReachEngine engine(*fx.net);

  // Unknown instance.
  ReachVerdict v = engine.CanReach(InstanceId(999999), fx.instances[0], 443,
                                   Protocol::kTcp);
  EXPECT_FALSE(v.reachable);
  EXPECT_EQ(DenyName(v), "no-such-endpoint");

  // Crashed destination.
  ASSERT_TRUE(fx.tw.world->SetInstanceRunning(fx.instances[1], false).ok());
  v = engine.CanReach(fx.instances[0], fx.instances[1], 443, Protocol::kTcp);
  EXPECT_FALSE(v.reachable);
  EXPECT_EQ(DenyName(v), "instance-down");
  EXPECT_TRUE(v.remediation.find("start the destination instance") !=
              std::string::npos)
      << v.remediation;
}

// ---------------------------------------------------------------------------
// Declarative incremental verifier.
// ---------------------------------------------------------------------------

std::vector<DeclarativeReachVerifier::Pair> AllPairs(
    const DeclFixture& fx, const std::vector<IpAddress>& extra_dsts = {}) {
  std::vector<DeclarativeReachVerifier::Pair> pairs;
  for (InstanceId src : fx.tw.world->AllInstances()) {
    for (const IpAddress& dst : fx.eips) {
      pairs.push_back({src, dst, 443, Protocol::kTcp});
    }
    for (const IpAddress& dst : extra_dsts) {
      pairs.push_back({src, dst, 443, Protocol::kTcp});
    }
  }
  return pairs;
}

TEST(DeclarativeVerifierTest, RevalidateRecomputesOnlyDirtyDestinations) {
  DeclFixture fx;
  DeclarativeReachVerifier verifier(*fx.tw.world, *fx.cloud);
  verifier.SetPairs(AllPairs(fx));

  ReachSweepStats stats = verifier.VerifyAll();
  EXPECT_EQ(stats.recomputed, verifier.pairs().size());
  const std::string baseline_fp = verifier.Fingerprint();

  // No mutation: everything reuses.
  stats = verifier.Revalidate();
  EXPECT_EQ(stats.reused, verifier.pairs().size());
  EXPECT_EQ(stats.recomputed, 0u);
  EXPECT_EQ(verifier.Fingerprint(), baseline_fp);

  // Permit churn on one destination dirties exactly that destination's
  // column of the pair matrix.
  PermitEntry extra;
  extra.source = IpPrefix::Host(fx.eips[3]);
  ASSERT_TRUE(fx.cloud->UpdatePermitList(fx.eips[1], {extra}, {}).ok());
  size_t col = 0;
  for (const auto& p : verifier.pairs()) {
    if (p.dst == fx.eips[1]) {
      ++col;
    }
  }
  stats = verifier.Revalidate();
  EXPECT_EQ(stats.recomputed, col);
  EXPECT_EQ(stats.reused, verifier.pairs().size() - col);

  // Byte-identity against a from-scratch verifier.
  DeclarativeReachVerifier fresh(*fx.tw.world, *fx.cloud);
  fresh.SetPairs(AllPairs(fx));
  fresh.VerifyAll();
  EXPECT_EQ(verifier.Fingerprint(), fresh.Fingerprint());

  // vm3 is now permitted at eip1: the verdict actually changed.
  EXPECT_NE(verifier.Fingerprint(), baseline_fp);
}

TEST(DeclarativeVerifierTest, InstanceFlipDirtiesEverything) {
  DeclFixture fx;
  DeclarativeReachVerifier verifier(*fx.tw.world, *fx.cloud);
  verifier.SetPairs(AllPairs(fx));
  verifier.VerifyAll();

  ASSERT_TRUE(fx.tw.world->SetInstanceRunning(fx.vms[2], false).ok());
  ReachSweepStats stats = verifier.Revalidate();
  EXPECT_EQ(stats.recomputed, verifier.pairs().size());

  DeclarativeReachVerifier fresh(*fx.tw.world, *fx.cloud);
  fresh.SetPairs(AllPairs(fx));
  fresh.VerifyAll();
  EXPECT_EQ(verifier.Fingerprint(), fresh.Fingerprint());
}

TEST(DeclarativeVerifierTest, SipPairsTrackBindingAndHealthChurn) {
  DeclFixture fx;
  IpAddress sip = *fx.cloud->RequestSip(fx.tw.tenant, fx.tw.provider);
  ASSERT_TRUE(fx.cloud->Bind(fx.eips[1], sip).ok());
  DeclarativeReachVerifier verifier(*fx.tw.world, *fx.cloud);
  verifier.SetPairs(AllPairs(fx, {sip}));
  verifier.VerifyAll();

  // Binding churn moves the balancer's config revision: SIP-destination
  // pairs recompute, EIP-destination pairs reuse.
  ASSERT_TRUE(fx.cloud->Bind(fx.eips[2], sip).ok());
  size_t sip_pairs = 0;
  for (const auto& p : verifier.pairs()) {
    if (p.dst == sip) {
      ++sip_pairs;
    }
  }
  ReachSweepStats stats = verifier.Revalidate();
  EXPECT_EQ(stats.recomputed, sip_pairs);

  DeclarativeReachVerifier fresh(*fx.tw.world, *fx.cloud);
  fresh.SetPairs(AllPairs(fx, {sip}));
  fresh.VerifyAll();
  EXPECT_EQ(verifier.Fingerprint(), fresh.Fingerprint());
}

// ---------------------------------------------------------------------------
// Baseline incremental verifier: deliberately all-or-nothing.
// ---------------------------------------------------------------------------

TEST(BaselineVerifierTest, AnyChangeRecomputesEverything) {
  BaselineFixture fx;
  BaselineReachVerifier verifier(*fx.net);
  std::vector<BaselineReachVerifier::Pair> pairs;
  for (InstanceId a : fx.instances) {
    for (InstanceId b : fx.instances) {
      if (a != b) {
        pairs.push_back({a, b, 443, Protocol::kTcp});
      }
    }
  }
  verifier.SetPairs(pairs);
  verifier.VerifyAll();

  // Quiet: full reuse.
  ReachSweepStats stats = verifier.Revalidate();
  EXPECT_EQ(stats.reused, pairs.size());

  // One SG rule anywhere: the coarse generation moves and every pair
  // recomputes — the baseline verdict has no per-pair scoping to key on.
  SgRule rule;
  rule.direction = TrafficDirection::kIngress;
  rule.proto = Protocol::kTcp;
  rule.ports = PortRange::Single(80);
  rule.peer = *IpPrefix::Parse("10.0.0.0/16");
  ASSERT_TRUE(fx.net->AddSgRule(fx.sg, rule).ok());
  stats = verifier.Revalidate();
  EXPECT_EQ(stats.recomputed, pairs.size());
  EXPECT_EQ(stats.reused, 0u);

  BaselineReachVerifier fresh(*fx.net);
  fresh.SetPairs(pairs);
  fresh.VerifyAll();
  EXPECT_EQ(verifier.Fingerprint(), fresh.Fingerprint());
}

}  // namespace
}  // namespace tenantnet
