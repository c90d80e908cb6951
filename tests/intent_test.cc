// Tests for the intent layer: service graph -> API calls, with the closure
// property (exactly the call-graph edges deliver) and one-call scaling.

#include <gtest/gtest.h>

#include <set>

#include "src/cloud/presets.h"
#include "src/core/intent.h"

namespace tenantnet {
namespace {

class IntentTest : public ::testing::Test {
 protected:
  IntentTest() : tw_(BuildTestWorld()), cloud_(*tw_.world, ledger_),
                 deployer_(cloud_) {}

  InstanceId Launch(RegionId region, int zone = 0) {
    return *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, region, zone);
  }

  // web(public, 2x) -> app(2x, SIP) -> db(1x); web also calls db? no.
  AppSpec ThreeTier() {
    AppSpec app;
    app.tenant = tw_.tenant;
    ServiceSpec web;
    web.name = "web";
    web.instances = {Launch(tw_.east, 0), Launch(tw_.east, 1)};
    web.port = 443;
    web.public_facing = true;
    web.sip_provider = tw_.provider;
    ServiceSpec mid;
    mid.name = "app";
    mid.instances = {Launch(tw_.east, 0), Launch(tw_.west, 0)};
    mid.port = 8080;
    mid.sip_provider = tw_.provider;
    ServiceSpec db;
    db.name = "db";
    db.instances = {Launch(tw_.east, 1)};
    db.port = 5432;
    app.services = {web, mid, db};
    app.calls = {{"web", "app"}, {"app", "db"}};
    return app;
  }

  TestWorld tw_;
  ConfigLedger ledger_;
  DeclarativeCloud cloud_;
  IntentDeployer deployer_;
};

TEST_F(IntentTest, DeploysAllServices) {
  AppSpec spec = ThreeTier();
  auto app = deployer_.Deploy(spec);
  ASSERT_TRUE(app.ok()) << app.status();
  EXPECT_EQ(app->services.size(), 3u);
  // Multi-instance services got SIPs; the single-instance db did not.
  EXPECT_TRUE(app->services.at("web").sip.has_value());
  EXPECT_TRUE(app->services.at("app").sip.has_value());
  EXPECT_FALSE(app->services.at("db").sip.has_value());
  // AddressOf resolves either way.
  EXPECT_TRUE(app->AddressOf("web").ok());
  EXPECT_TRUE(app->AddressOf("db").ok());
  EXPECT_EQ(ledger_.components(), 0u);  // still no boxes
}

TEST_F(IntentTest, CallGraphClosure) {
  AppSpec spec = ThreeTier();
  auto app = deployer_.Deploy(spec);
  ASSERT_TRUE(app.ok());

  auto instance_of = [&](const std::string& service, size_t idx) {
    for (const ServiceSpec& s : spec.services) {
      if (s.name == service) {
        return s.instances[idx];
      }
    }
    return InstanceId();
  };
  auto can_call = [&](const std::string& from, const std::string& to,
                      uint16_t port) {
    InstanceId src = instance_of(from, 0);
    IpAddress dst = *app->AddressOf(to);
    auto result = cloud_.Evaluate(src, dst, port, Protocol::kTcp);
    return result->delivered;
  };

  // Declared edges deliver on the service port.
  EXPECT_TRUE(can_call("web", "app", 8080));
  EXPECT_TRUE(can_call("app", "db", 5432));
  // Undeclared edges do not (web must not reach the db directly).
  EXPECT_FALSE(can_call("web", "db", 5432));
  // db -> web is also undeclared, but web is public on 443, so it IS
  // reachable — public-facing means public to everyone, insiders included.
  EXPECT_TRUE(can_call("db", "web", 443));
  // Wrong ports do not, even on declared edges.
  EXPECT_FALSE(can_call("web", "app", 8081));

  // Public service: any external source on the service port, nothing else.
  IpAddress web_addr = *app->AddressOf("web");
  auto external_ok = cloud_.EvaluateExternal(IpAddress::V4(198, 18, 5, 5),
                                             web_addr, 443, Protocol::kTcp);
  EXPECT_TRUE(external_ok.delivered);
  auto external_bad = cloud_.EvaluateExternal(IpAddress::V4(198, 18, 5, 5),
                                              web_addr, 22, Protocol::kTcp);
  EXPECT_FALSE(external_bad.delivered);
  // The internal tiers are not publicly reachable at all.
  auto external_app = cloud_.EvaluateExternal(IpAddress::V4(198, 18, 5, 5),
                                              *app->AddressOf("db"), 5432,
                                              Protocol::kTcp);
  EXPECT_FALSE(external_app.delivered);
}

TEST_F(IntentTest, SipSpreadsAcrossServiceInstances) {
  AppSpec spec = ThreeTier();
  auto app = deployer_.Deploy(spec);
  ASSERT_TRUE(app.ok());
  InstanceId web0 = spec.services[0].instances[0];
  std::set<std::string> backends;
  for (int i = 0; i < 30; ++i) {
    auto result = cloud_.Evaluate(web0, *app->AddressOf("app"), 8080,
                                  Protocol::kTcp);
    ASSERT_TRUE(result->delivered)
        << result->drop_stage << ": " << Explain(*result);
    backends.insert(result->effective_dst.ToString());
  }
  EXPECT_EQ(backends.size(), 2u);
}

TEST_F(IntentTest, ScaleOutIsOneMembershipChange) {
  AppSpec spec = ThreeTier();
  auto app = deployer_.Deploy(spec);
  ASSERT_TRUE(app.ok());

  // A new app-tier instance immediately serves and is immediately
  // permitted at the db (group reference: no db permit-list rewrite).
  uint64_t calls_before = ledger_.api_calls();
  InstanceId newcomer = Launch(tw_.west, 1);
  ASSERT_TRUE(deployer_.AddInstance(*app, spec, "app", newcomer).ok());
  // request_eip + group_add + bind + set_permit_list = 4 calls.
  EXPECT_EQ(ledger_.api_calls() - calls_before, 4u);

  auto to_db = cloud_.Evaluate(newcomer, *app->AddressOf("db"), 5432,
                               Protocol::kTcp);
  EXPECT_TRUE(to_db->delivered)
      << to_db->drop_stage << ": " << Explain(*to_db);
  // And web can now land on it via the SIP.
  std::set<std::string> backends;
  for (int i = 0; i < 40; ++i) {
    backends.insert(cloud_
                        .Evaluate(spec.services[0].instances[0],
                                  *app->AddressOf("app"), 8080,
                                  Protocol::kTcp)
                        ->effective_dst.ToString());
  }
  EXPECT_EQ(backends.size(), 3u);
}

TEST_F(IntentTest, ScaleInRevokesEverything) {
  AppSpec spec = ThreeTier();
  auto app = deployer_.Deploy(spec);
  ASSERT_TRUE(app.ok());
  InstanceId victim = spec.services[1].instances[0];  // an app instance
  IpAddress victim_eip = *app->EipOf("app", victim);
  ASSERT_TRUE(deployer_.RemoveInstance(*app, "app", victim).ok());
  // Its address no longer resolves, is unbound, and lost its grants.
  EXPECT_EQ(cloud_.FindEip(victim_eip), nullptr);
  auto members = cloud_.GroupMembers(app->services.at("app").group);
  EXPECT_EQ(members->size(), 1u);
  // The SIP still serves from the survivor.
  auto result = cloud_.Evaluate(spec.services[0].instances[0],
                                *app->AddressOf("app"), 8080, Protocol::kTcp);
  EXPECT_TRUE(result->delivered);
}

TEST_F(IntentTest, RejectsDanglingCallEdges) {
  AppSpec app;
  app.tenant = tw_.tenant;
  ServiceSpec lonely;
  lonely.name = "svc";
  lonely.instances = {Launch(tw_.east)};
  app.services = {lonely};
  app.calls = {{"svc", "ghost"}};
  EXPECT_EQ(deployer_.Deploy(app).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tenantnet
