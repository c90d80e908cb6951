// Intent-level deployment: from a service graph to a running, locked-down
// application in one call.
//
// The paper's end state is that tenants express goals, not mechanisms. For
// a service-centric app the goals are its call graph — so this example
// writes one down (web -> api -> {db, cache}) and lets IntentDeployer emit
// every Table 2 call: EIPs, per-service groups, SIPs for the multi-
// instance tiers, and permit lists derived from the edges. Then it scales
// the api tier out and in again, each a single membership change.

#include <cstdio>

#include "src/cloud/presets.h"
#include "src/core/intent.h"

using namespace tenantnet;  // NOLINT: example brevity

int main() {
  TestWorld tw = BuildTestWorld();
  CloudWorld& world = *tw.world;
  ConfigLedger ledger;
  DeclarativeCloud cloud(world, ledger);
  IntentDeployer deployer(cloud);

  auto launch = [&](RegionId region, int zone) {
    return *world.LaunchInstance(tw.tenant, tw.provider, region, zone);
  };

  // ---- The application, as the developer sees it. --------------------------
  AppSpec app;
  app.tenant = tw.tenant;
  {
    ServiceSpec web;
    web.name = "web";
    web.instances = {launch(tw.east, 0), launch(tw.east, 1)};
    web.port = 443;
    web.public_facing = true;
    web.sip_provider = tw.provider;
    ServiceSpec api;
    api.name = "api";
    api.instances = {launch(tw.east, 0), launch(tw.west, 0)};
    api.port = 8080;
    api.sip_provider = tw.provider;
    ServiceSpec db;
    db.name = "db";
    db.instances = {launch(tw.east, 1)};
    db.port = 5432;
    ServiceSpec cache;
    cache.name = "cache";
    cache.instances = {launch(tw.east, 0)};
    cache.port = 6379;
    app.services = {web, api, db, cache};
  }
  app.calls = {{"web", "api"}, {"api", "db"}, {"api", "cache"}};

  auto deployed = deployer.Deploy(app);
  if (!deployed.ok()) {
    std::printf("deploy failed: %s\n", deployed.status().ToString().c_str());
    return 1;
  }
  std::printf("deployed 4 services / 6 instances with %llu API calls "
              "(0 boxes)\n\n",
              static_cast<unsigned long long>(ledger.api_calls()));

  // ---- The call graph is now the network policy. ---------------------------
  auto check = [&](const char* from, InstanceId src, const char* to,
                   uint16_t port) {
    auto result = cloud.Evaluate(src, *deployed->AddressOf(to), port,
                                 Protocol::kTcp);
    std::printf("  %-5s -> %-6s:%-5u  %s\n", from, to, port,
                result->delivered ? "ok" : "DENIED");
  };
  InstanceId web0 = app.services[0].instances[0];
  InstanceId api0 = app.services[1].instances[0];
  InstanceId db0 = app.services[2].instances[0];
  std::printf("declared edges:\n");
  check("web", web0, "api", 8080);
  check("api", api0, "db", 5432);
  check("api", api0, "cache", 6379);
  std::printf("undeclared edges (closure property):\n");
  check("web", web0, "db", 5432);
  check("web", web0, "cache", 6379);
  check("db", db0, "cache", 6379);

  // ---- Scale the api tier. --------------------------------------------------
  std::printf("\nscaling api 2 -> 3 instances...\n");
  uint64_t before = ledger.api_calls();
  InstanceId newcomer = launch(tw.west, 1);
  if (!deployer.AddInstance(*deployed, app, "api", newcomer).ok()) {
    std::printf("scale-out failed\n");
    return 1;
  }
  std::printf("  %llu API calls; the db's permit list never changed "
              "(group reference)\n",
              static_cast<unsigned long long>(ledger.api_calls() - before));
  auto from_new = cloud.Evaluate(newcomer, *deployed->AddressOf("db"), 5432,
                                 Protocol::kTcp);
  std::printf("  newcomer -> db: %s\n",
              from_new->delivered ? "ok" : "DENIED");

  std::printf("scaling api back 3 -> 2...\n");
  (void)deployer.RemoveInstance(*deployed, "api", newcomer);
  auto after = cloud.Evaluate(newcomer, *deployed->AddressOf("db"), 5432,
                              Protocol::kTcp);
  std::printf("  removed instance -> db: %s (grants revoked with the "
              "endpoint)\n",
              !after->delivered ? "DENIED" : "ok?!");
  return 0;
}
