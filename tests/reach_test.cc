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

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/app/workload.h"
#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/reach/reach.h"
#include "src/routing/route_table.h"
#include "src/sim/event_queue.h"
#include "src/sim/flow_sim.h"
#include "src/vnet/builder.h"
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
// Triage: each deny stage maps to its remediation.
// ---------------------------------------------------------------------------

// The Fig-1 pair matrix E12 sweeps (every ordered pair on the database
// port) in the baseline world: calls `visit` with each denial.
template <typename Visit>
void SweepFig1(const Fig1World& fig, const BaselineReachEngine& engine,
               Visit visit) {
  const std::vector<InstanceId> all = fig.AllInstances();
  for (InstanceId src : all) {
    for (InstanceId dst : all) {
      if (src == dst) {
        continue;
      }
      const ReachVerdict v =
          engine.CanReach(src, dst, Fig1Baseline::kDbPort, Protocol::kTcp);
      if (!v.reachable) {
        visit(v);
      }
    }
  }
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

  // Baseline: each stage the Fig-1 matrix denies at, as built and with each
  // tenant route removed in turn (E9's mutations), names its mechanism.
  const std::map<std::string, std::string> fix_of = {
      {"sg-ingress", "permit list"},
      {"firewall", "permit list"},
      {"route", "install a route"},
      {"igw", "install a route"},
      {"tgw-route", "install a route"},
      {"return-route", "install the return route"},
      {"dx", "transit-gateway attachment"},
  };
  Fig1World fig = BuildFig1World();
  ConfigLedger ledger;
  BaselineNetwork net(*fig.world, ledger);
  ASSERT_TRUE(BuildFig1Baseline(net, fig).ok());
  BaselineReachEngine baseline(net);
  std::set<std::string> seen;
  auto check = [&](const ReachVerdict& v) {
    const std::string stage = DenyName(v);
    seen.insert(stage);
    auto it = fix_of.find(stage);
    ASSERT_NE(it, fix_of.end()) << v.ToString();
    EXPECT_NE(v.remediation.find(it->second), std::string_view::npos)
        << v.ToString();
  };
  SweepFig1(fig, baseline, check);
  for (VpcRouteTableId id : net.AllRouteTables()) {
    VpcRouteTable* table = net.FindRouteTable(id);
    std::vector<std::pair<IpPrefix, VpcRouteTarget>> routes;
    table->ForEach([&](const IpPrefix& prefix, const VpcRouteTarget& target) {
      routes.push_back({prefix, target});
    });
    for (const auto& [prefix, target] : routes) {
      if (target.kind == VpcRouteTargetKind::kLocal) {
        continue;
      }
      ASSERT_TRUE(net.RemoveRoute(id, prefix).ok());
      SweepFig1(fig, baseline, check);
      table->Install(prefix, target);
    }
  }
  EXPECT_EQ(seen.size(), fix_of.size());
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

// ---------------------------------------------------------------------------
// World-state drops: one stage for every consumer, in both worlds.
// ---------------------------------------------------------------------------

// The stage id a one-pattern RequestWorkload records when every attempt
// goes through RouteFor(evaluate()); 0 unless all attempts are denied
// under that one stage.
template <typename EvaluateFn>
uint32_t WorkloadDenyStage(const CloudWorld& world, InstanceId src,
                           EvaluateFn evaluate) {
  EventQueue queue;
  FlowSim sim(queue, world.topology());
  RequestWorkload workload(queue, sim, world);
  // The connector dials the case's destination itself.
  const size_t pattern = *workload.AddStreamingPattern(
      "refused", {src}, {src}, RateCurve::Constant(100),
      [&](InstanceId, InstanceId) { return RouteFor(evaluate()); });
  workload.Start(SimDuration::Seconds(1));
  queue.RunAll();
  const PatternStats& stats = workload.stats(pattern);
  EXPECT_GT(stats.attempted, 0u);
  for (uint32_t id = 0; id < stats.deny_by_stage_counts.size(); ++id) {
    if (stats.deny_by_stage_counts[id] == stats.attempted) {
      return id;
    }
  }
  return 0;
}

// Evaluate's drop stage, the stage the workload records through RouteFor
// and CanReach's deny stage are one DenyStages() id, and the remediation
// names the end that failed.
template <typename EvaluateFn>
void ExpectOneStage(const CloudWorld& world, InstanceId src,
                    EvaluateFn evaluate, const ReachVerdict& verdict,
                    const std::string& stage, const std::string& fix) {
  const uint32_t id = DenyStage(stage);
  const auto d = evaluate();
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_FALSE(d->delivered);
  EXPECT_EQ(DenyStage(d->drop_stage), id) << d->drop_stage;
  EXPECT_EQ(WorkloadDenyStage(world, src, evaluate), id);
  EXPECT_FALSE(verdict.reachable);
  EXPECT_EQ(verdict.deny_stage, id) << verdict.ToString();
  EXPECT_NE(verdict.remediation.find(fix), std::string::npos)
      << verdict.remediation;
}

// One row of the world-state drop table: the two worlds share the row shape,
// the fix strings and ExpectOneStage; only the destination type differs.
template <typename Dst>
struct DropCase {
  const char* what;
  InstanceId src;
  Dst dst;
  const char* stage;
  const char* fix;
};

const InstanceId kUnknownInstance(999999);
constexpr char kSrcFix[] = "start the source instance";
constexpr char kUnallocated[] = "destination address is unallocated";
constexpr char kDstFix[] = "start the destination instance";

// An unknown, stopped or address-less source, and an unallocated, released
// or stopped destination, in the declarative world.
TEST(DeclarativeReachTest, ErrorStatusesBecomeEngineDenials) {
  DeclFixture fx;
  DeclarativeReachEngine engine(*fx.tw.world, *fx.cloud);
  const IpAddress released = *fx.cloud->RequestEip(
      *fx.tw.world->LaunchInstance(fx.tw.tenant, fx.tw.provider, fx.tw.east,
                                   0));
  ASSERT_TRUE(fx.cloud->ReleaseEip(released).ok());
  const DropCase<IpAddress> cases[] = {
      {"unknown source", kUnknownInstance, fx.eips[0], "src-down", kSrcFix},
      {"stopped source", fx.stopped, fx.eips[0], "src-down", kSrcFix},
      {"source without an EIP", fx.bare, fx.eips[0], "no-eip", kSrcFix},
      {"unallocated destination", fx.vms[0], IpAddress::V4(0xC0A80001),
       "no-such-endpoint", kUnallocated},
      {"released destination EIP", fx.vms[0], released, "no-such-endpoint",
       kUnallocated},
      {"stopped destination", fx.vms[0], fx.stopped_eip, "instance-down",
       kDstFix},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string("declarative, ") + c.what);
    ExpectOneStage(
        *fx.tw.world, c.src,
        [&] { return fx.cloud->Evaluate(c.src, c.dst, 443, Protocol::kTcp); },
        engine.CanReach(c.src, c.dst, 443, Protocol::kTcp), c.stage, c.fix);
  }
}

// The same rows in the baseline world: an unknown, stopped or ENI-less
// source, and an unknown, ENI-less or stopped destination.
TEST(BaselineReachTest, RefusalsBecomeDenials) {
  BaselineFixture fx;
  BaselineReachEngine engine(*fx.net);
  const InstanceId up = fx.instances[0];
  const InstanceId down = fx.instances[1];
  ASSERT_TRUE(fx.tw.world->SetInstanceRunning(down, false).ok());
  const InstanceId unattached =
      *fx.tw.world->LaunchInstance(fx.tw.tenant, fx.tw.provider, fx.tw.east,
                                   0);
  const DropCase<InstanceId> cases[] = {
      {"unknown source", kUnknownInstance, up, "src-down", kSrcFix},
      {"stopped source", down, up, "src-down", kSrcFix},
      {"source without an ENI", unattached, up, "no-eip", kSrcFix},
      {"unknown destination", up, kUnknownInstance, "no-such-endpoint",
       kUnallocated},
      {"destination without an ENI", up, unattached, "no-such-endpoint",
       kUnallocated},
      {"stopped destination", up, down, "instance-down", kDstFix},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string("baseline, ") + c.what);
    ExpectOneStage(
        *fx.tw.world, c.src,
        [&] { return fx.net->Evaluate(c.src, c.dst, 443, Protocol::kTcp); },
        engine.CanReach(c.src, c.dst, 443, Protocol::kTcp), c.stage, c.fix);
  }
}

// No denial in the Fig-1 matrix E12 sweeps falls back to the text that
// names no fix; its 32 Direct Connect denials once did.
TEST(BaselineReachTest, Fig1DenialsNameTheirFix) {
  Fig1World fig = BuildFig1World();
  ConfigLedger ledger;
  BaselineNetwork net(*fig.world, ledger);
  ASSERT_TRUE(BuildFig1Baseline(net, fig).ok());
  BaselineReachEngine engine(net);
  size_t denials = 0;
  SweepFig1(fig, engine, [&](const ReachVerdict& v) {
    ++denials;
    EXPECT_EQ(v.remediation.find("no denying mechanism"),
              std::string_view::npos)
        << v.ToString();
  });
  EXPECT_GT(denials, 0u);
}

// A reach query is static: a Fig-1 query judged by the EU web tier's DPI
// firewall gets the verdict traffic gets and moves none of the firewall's
// counters, which E6's saturation model reads. Traffic over the same walk
// is charged once per evaluation.
TEST(BaselineReachTest, QueriesMoveNoDataPlaneCounter) {
  Fig1World fig = BuildFig1World();
  ConfigLedger ledger;
  BaselineNetwork net(*fig.world, ledger);
  Result<Fig1Baseline> handles = BuildFig1Baseline(net, fig);
  ASSERT_TRUE(handles.ok());
  DpiFirewall* fw = net.FindFirewall(handles->firewall);
  ASSERT_NE(fw, nullptr);
  BaselineReachEngine engine(net);
  auto query = [&] {
    return engine.CanReach(fig.spark[0], fig.web_eu[0],
                           Fig1Baseline::kWebPort, Protocol::kTcp);
  };
  for (int i = 0; i < 5; ++i) {
    ReachVerdict v = query();
    EXPECT_TRUE(v.reachable) << v.ToString();
  }
  FirewallRule deny_all;
  deny_all.priority = 1;
  deny_all.match = FlowMatch::Any();
  deny_all.verdict = FirewallVerdict::kDeny;
  ASSERT_TRUE(net.AddFirewallRule(handles->firewall, deny_all).ok());
  for (int i = 0; i < 5; ++i) {
    ReachVerdict v = query();
    EXPECT_FALSE(v.reachable);
    EXPECT_EQ(DenyName(v), "firewall") << v.ToString();
  }
  EXPECT_EQ(fw->inspected_count(), 0u);
  EXPECT_EQ(fw->denied_count(), 0u);

  auto d = net.Evaluate(fig.spark[0], fig.web_eu[0], Fig1Baseline::kWebPort,
                        Protocol::kTcp);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->drop_stage, "firewall");
  EXPECT_EQ(fw->inspected_count(), 1u);
  EXPECT_EQ(fw->denied_count(), 1u);
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
