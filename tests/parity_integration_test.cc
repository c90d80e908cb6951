// The headline integration test: the same Figure 1 application deployed in
// both worlds. The declarative world must (a) deliver every flow the
// application needs, (b) deny everything else, and (c) do it with a
// fraction of the tenant-side configuration.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/vnet/builder.h"

namespace tenantnet {
namespace {

struct AppFlow {
  InstanceId src;
  InstanceId dst;
  uint16_t port;
  const char* what;
};

// The application's legitimate communication matrix, derived from Fig. 1:
// spark <-> db, web -> spark, analytics -> db, on-prem alerting <-> spark,
// spark -> on-prem alerting.
std::vector<AppFlow> LegitFlows(const Fig1World& fig) {
  return {
      {fig.spark[0], fig.database[0], Fig1Baseline::kDbPort, "spark->db"},
      {fig.spark[3], fig.database[2], Fig1Baseline::kDbPort, "spark->db2"},
      {fig.web_eu[0], fig.spark[1], Fig1Baseline::kSparkPort, "web-eu->spark"},
      {fig.web_us[0], fig.spark[2], Fig1Baseline::kSparkPort, "web-us->spark"},
      {fig.analytics[0], fig.database[1], Fig1Baseline::kDbPort,
       "analytics->db"},
      {fig.alerting[0], fig.spark[0], Fig1Baseline::kSparkPort,
       "alerting->spark"},
      {fig.spark[0], fig.alerting[0], Fig1Baseline::kAlertPort,
       "spark->alerting"},
  };
}

// Deploys the Fig. 1 app on the declarative API: one EIP per instance, one
// SIP for the web tier and one for the db tier, permit lists mirroring the
// communication matrix.
struct DeclarativeFig1 {
  std::map<uint64_t, IpAddress> eip;  // instance id -> EIP
  IpAddress web_sip;
  IpAddress db_sip;

  IpAddress Eip(InstanceId id) const { return eip.at(id.value()); }
};

DeclarativeFig1 DeployDeclarative(DeclarativeCloud& cloud,
                                  const Fig1World& fig) {
  DeclarativeFig1 out;
  for (InstanceId id : fig.AllInstances()) {
    out.eip[id.value()] = *cloud.RequestEip(id);
  }
  out.web_sip = *cloud.RequestSip(fig.tenant, fig.cloud_a);
  for (InstanceId id : fig.web_eu) {
    EXPECT_TRUE(cloud.Bind(out.Eip(id), out.web_sip).ok());
  }
  out.db_sip = *cloud.RequestSip(fig.tenant, fig.cloud_b);
  for (InstanceId id : fig.database) {
    EXPECT_TRUE(cloud.Bind(out.Eip(id), out.db_sip, 1.0).ok());
  }

  auto permit_host = [&](InstanceId who) {
    PermitEntry e;
    e.source = IpPrefix::Host(out.Eip(who));
    return e;
  };

  // db accepts spark, analytics, and on-prem alerting sources.
  for (InstanceId db : fig.database) {
    std::vector<PermitEntry> permits;
    for (InstanceId src : fig.spark) {
      permits.push_back(permit_host(src));
    }
    for (InstanceId src : fig.analytics) {
      permits.push_back(permit_host(src));
    }
    for (InstanceId src : fig.alerting) {
      permits.push_back(permit_host(src));
    }
    EXPECT_TRUE(cloud.SetPermitList(out.Eip(db), permits).ok());
  }
  // spark accepts spark peers, web tiers, and on-prem.
  for (InstanceId sp : fig.spark) {
    std::vector<PermitEntry> permits;
    for (const auto* group : {&fig.spark, &fig.web_eu, &fig.web_us,
                              &fig.alerting}) {
      for (InstanceId src : *group) {
        if (src != sp) {
          permits.push_back(permit_host(src));
        }
      }
    }
    EXPECT_TRUE(cloud.SetPermitList(out.Eip(sp), permits).ok());
  }
  // web accepts the world (public service).
  for (const auto* group : {&fig.web_eu, &fig.web_us}) {
    for (InstanceId web : *group) {
      PermitEntry anyone;
      anyone.source = IpPrefix::Any(IpFamily::kIpv4);
      anyone.dst_ports = PortRange::Single(Fig1Baseline::kWebPort);
      anyone.proto = Protocol::kTcp;
      EXPECT_TRUE(cloud.SetPermitList(out.Eip(web), {anyone}).ok());
    }
  }
  // analytics accepts db responses... (stateful return is implicit; what it
  // accepts inbound is db-initiated traffic only — nothing here).
  for (InstanceId a : fig.analytics) {
    std::vector<PermitEntry> permits;
    for (InstanceId src : fig.database) {
      permits.push_back(permit_host(src));
    }
    EXPECT_TRUE(cloud.SetPermitList(out.Eip(a), permits).ok());
  }
  // alerting accepts spark.
  for (InstanceId al : fig.alerting) {
    std::vector<PermitEntry> permits;
    for (InstanceId src : fig.spark) {
      permits.push_back(permit_host(src));
    }
    EXPECT_TRUE(cloud.SetPermitList(out.Eip(al), permits).ok());
  }
  return out;
}

class ParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fig_ = new Fig1World(BuildFig1World());
    baseline_ledger_ = new ConfigLedger();
    baseline_ = new BaselineNetwork(*fig_->world, *baseline_ledger_);
    auto built = BuildFig1Baseline(*baseline_, *fig_);
    ASSERT_TRUE(built.ok()) << built.status();
    handles_ = new Fig1Baseline(*built);

    declarative_ledger_ = new ConfigLedger();
    declarative_ = new DeclarativeCloud(*fig_->world, *declarative_ledger_);
    deployment_ = new DeclarativeFig1(DeployDeclarative(*declarative_, *fig_));
  }
  static void TearDownTestSuite() {
    delete deployment_;
    delete declarative_;
    delete declarative_ledger_;
    delete handles_;
    delete baseline_;
    delete baseline_ledger_;
    delete fig_;
  }

  static Fig1World* fig_;
  static ConfigLedger* baseline_ledger_;
  static BaselineNetwork* baseline_;
  static Fig1Baseline* handles_;
  static ConfigLedger* declarative_ledger_;
  static DeclarativeCloud* declarative_;
  static DeclarativeFig1* deployment_;
};

Fig1World* ParityTest::fig_ = nullptr;
ConfigLedger* ParityTest::baseline_ledger_ = nullptr;
BaselineNetwork* ParityTest::baseline_ = nullptr;
Fig1Baseline* ParityTest::handles_ = nullptr;
ConfigLedger* ParityTest::declarative_ledger_ = nullptr;
DeclarativeCloud* ParityTest::declarative_ = nullptr;
DeclarativeFig1* ParityTest::deployment_ = nullptr;

TEST_F(ParityTest, EveryLegitimateFlowDeliversInBothWorlds) {
  for (const AppFlow& flow : LegitFlows(*fig_)) {
    auto base = baseline_->Evaluate(flow.src, flow.dst, flow.port,
                                    Protocol::kTcp);
    ASSERT_TRUE(base.ok()) << flow.what;
    EXPECT_TRUE(base->delivered)
        << flow.what << " (baseline): " << base->drop_stage << ": "
        << Explain(*base);

    auto decl = declarative_->Evaluate(flow.src, deployment_->Eip(flow.dst),
                                       flow.port, Protocol::kTcp);
    ASSERT_TRUE(decl.ok()) << flow.what;
    EXPECT_TRUE(decl->delivered)
        << flow.what << " (declarative): " << decl->drop_stage << ": "
        << Explain(*decl);
  }
}

TEST_F(ParityTest, DeclarativeWorldHasNoTenantBoxes) {
  EXPECT_EQ(declarative_ledger_->components(), 0u);
  EXPECT_EQ(declarative_ledger_->cross_references(), 0u);
  EXPECT_GT(baseline_ledger_->components(), 40u);
}

TEST_F(ParityTest, DeclarativeTotalsAreFractionOfBaseline) {
  // The declarative total is dominated by permit-list entries (one per
  // permitted host — honest accounting, since flat EIPs cannot be
  // aggregated by the tenant). Even so it stays below the baseline's
  // surface, and the *structural* complexity axes the paper argues about —
  // components to assemble, decisions to make, references to keep
  // consistent — drop to zero. The exact ratios are E1's output.
  uint64_t decl_total = declarative_ledger_->total();
  uint64_t base_total = baseline_ledger_->total();
  EXPECT_LT(decl_total, base_total)
      << "declarative=" << decl_total << " baseline=" << base_total;
  EXPECT_EQ(declarative_ledger_->decisions(), 0u);
  EXPECT_EQ(declarative_ledger_->components(), 0u);
  EXPECT_EQ(declarative_ledger_->cross_references(), 0u);
  // Excluding the data-dependent permit entries, the control surface is an
  // order of magnitude smaller.
  uint64_t decl_structural = declarative_ledger_->api_calls();
  EXPECT_LT(decl_structural * 5, base_total);
}

TEST_F(ParityTest, SipsLoadBalanceLikeTheBaselineLb) {
  std::set<std::string> backends;
  for (int i = 0; i < 30; ++i) {
    auto result = declarative_->Evaluate(
        fig_->spark[0], deployment_->db_sip, Fig1Baseline::kDbPort,
        Protocol::kTcp);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->delivered)
        << result->drop_stage << ": " << Explain(*result);
    backends.insert(result->effective_dst.ToString());
  }
  EXPECT_EQ(backends.size(), fig_->database.size());
}

TEST_F(ParityTest, CrossTenantFlowBlockedInBothWorlds) {
  // An unrelated flow the app never needs: analytics -> spark.
  auto base = baseline_->Evaluate(fig_->analytics[0], fig_->spark[0],
                                  Fig1Baseline::kSparkPort, Protocol::kTcp);
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(base->delivered);

  auto decl = declarative_->Evaluate(fig_->analytics[0],
                                     deployment_->Eip(fig_->spark[0]),
                                     Fig1Baseline::kSparkPort, Protocol::kTcp);
  ASSERT_TRUE(decl.ok());
  EXPECT_FALSE(decl->delivered);
  EXPECT_EQ(decl->drop_stage, "edge-filter");
}

TEST_F(ParityTest, ExternalAttackOnDbBlockedInBothWorlds) {
  IpAddress attacker = IpAddress::V4(203, 0, 113, 50);
  const Eni* db_eni = baseline_->FindEniByInstance(fig_->database[0]);
  auto base = baseline_->EvaluateExternal(attacker, db_eni->private_ip,
                                          Fig1Baseline::kDbPort,
                                          Protocol::kTcp);
  EXPECT_FALSE(base.delivered);

  auto decl = declarative_->EvaluateExternal(
      attacker, deployment_->Eip(fig_->database[0]), Fig1Baseline::kDbPort,
      Protocol::kTcp);
  EXPECT_FALSE(decl.delivered);
  // Crucially: the declarative drop happens at the provider edge, before
  // the flow consumed any tenant resource.
  EXPECT_EQ(decl.drop_stage, "edge-filter");
}

TEST_F(ParityTest, PublicWebReachableInBothWorlds) {
  IpAddress client = IpAddress::V4(198, 18, 0, 20);
  const Eni* web_eni = baseline_->FindEniByInstance(fig_->web_eu[0]);
  auto base = baseline_->EvaluateExternal(client, *web_eni->public_ip,
                                          Fig1Baseline::kWebPort,
                                          Protocol::kTcp);
  EXPECT_TRUE(base.delivered) << base.drop_stage << ": " << Explain(base);

  auto decl = declarative_->EvaluateExternal(
      client, deployment_->Eip(fig_->web_eu[0]), Fig1Baseline::kWebPort,
      Protocol::kTcp);
  EXPECT_TRUE(decl.delivered) << decl.drop_stage << ": " << Explain(decl);
}

TEST_F(ParityTest, DeclarativeFlowsCrossZeroTenantHops) {
  auto decl = declarative_->Evaluate(fig_->spark[0],
                                     deployment_->Eip(fig_->database[0]),
                                     Fig1Baseline::kDbPort, Protocol::kTcp);
  ASSERT_TRUE(decl.ok());
  ASSERT_TRUE(decl->delivered);
  // Provider hops only (edge filter); no tenant boxes anywhere.
  for (const std::string& hop : decl->provider_hops.Names()) {
    EXPECT_TRUE(hop.rfind("edge-filter", 0) == 0 || hop == "sip-lb") << hop;
  }
  // The baseline's same flow crosses several tenant gateways.
  auto base = baseline_->Evaluate(fig_->spark[0], fig_->database[0],
                                  Fig1Baseline::kDbPort, Protocol::kTcp);
  EXPECT_GE(base->gateway_hops, 3);
}

}  // namespace
}  // namespace tenantnet
