// Defense-in-depth, rearranged (§4 Security / §6 iii).
//
// A database service is attacked three ways while serving a legitimate
// client. The declarative stack is two layers — provider-edge permit lists
// (L3/L4) and an authenticating API gateway (L7) — and the example shows
// which layer catches what:
//
//   volumetric flood    -> dies at the provider edge (default-off)
//   stolen credential   -> dies at the provider edge (source not permitted)
//   insider, bad token  -> passes the network, dies at the API gateway
//   legitimate client   -> passes both
//
// The point the paper argues: authentication belongs at the layer that
// understands application semantics; the network's job reduces to
// resource-exhaustion protection — and that job moves to the provider.

#include <cstdio>

#include "src/app/gateway.h"
#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/secsim/attack.h"

using namespace tenantnet;  // NOLINT: example brevity

int main() {
  TestWorld tw = BuildTestWorld();
  CloudWorld& world = *tw.world;
  ConfigLedger ledger;
  DeclarativeCloud cloud(world, ledger);

  // The service and its one legitimate client.
  InstanceId db = *world.LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
  InstanceId app = *world.LaunchInstance(tw.tenant, tw.provider, tw.west, 0);
  IpAddress db_eip = *cloud.RequestEip(db);
  IpAddress app_eip = *cloud.RequestEip(app);
  PermitEntry from_app;
  from_app.source = IpPrefix::Host(app_eip);
  from_app.dst_ports = PortRange::Single(5432);
  from_app.proto = Protocol::kTcp;
  (void)cloud.SetPermitList(db_eip, {from_app});

  // API-level auth (the tenant's half of the security story).
  CredentialRegistry credentials;
  Principal& app_principal = credentials.CreatePrincipal("app-server");
  ApiGateway gateway("db", &credentials);
  gateway.Authorize(app_principal.id, "*", "/query");

  auto network = [&cloud](const FiveTuple& flow,
                          const std::string&) -> NetworkVerdict {
    auto d = cloud.EvaluateExternal(flow.src, flow.dst, flow.dst_port,
                                    flow.proto);
    return {d.delivered,
            std::string(d.delivered ? "delivered" : d.drop_stage)};
  };
  auto app_check = [&gateway](const ApiRequest& request) {
    return gateway.Check(request);
  };

  std::printf("defense stack: provider edge permit-list  ->  API gateway\n\n");

  // 1. Volumetric flood from a spoofed botnet.
  AttackConfig flood;
  flood.kind = AttackKind::kVolumetricFlood;
  flood.target = db_eip;
  flood.target_port = 5432;
  flood.attempts = 50000;
  AttackOutcome flood_outcome = RunAttack(flood, network, app_check);
  std::printf("volumetric flood (50k pkts): reached=%llu  -> all dropped at "
              "the provider edge,\n  zero tenant cycles spent\n",
              static_cast<unsigned long long>(flood_outcome.reached_endpoint));

  // 2. Stolen credential used from an unpermitted network location.
  AttackConfig stolen;
  stolen.kind = AttackKind::kStolenCredential;
  stolen.target = db_eip;
  stolen.target_port = 5432;
  stolen.attempts = 1000;
  stolen.token = app_principal.token;  // a real, valid token!
  AttackOutcome stolen_outcome = RunAttack(stolen, network, app_check);
  std::printf("stolen credential, wrong network: reached=%llu served=%llu "
              "-> L3/L4 catches what\n  API auth alone cannot\n",
              static_cast<unsigned long long>(stolen_outcome.reached_endpoint),
              static_cast<unsigned long long>(stolen_outcome.served));

  // 3. Insider position (permitted source), but no valid credential.
  AttackConfig insider;
  insider.kind = AttackKind::kUnauthorizedAccess;
  insider.target = db_eip;
  insider.target_port = 5432;
  insider.attempts = 1000;
  insider.insider_source = app_eip;  // network-permitted!
  insider.token = "forged";
  AttackOutcome insider_outcome = RunAttack(insider, network, app_check);
  std::printf("compromised-host, bad token: reached=%llu served=%llu "
              "-> the API gateway catches\n  what L3/L4 cannot\n",
              static_cast<unsigned long long>(
                  insider_outcome.reached_endpoint),
              static_cast<unsigned long long>(insider_outcome.served));

  // 4. The legitimate client sails through both layers.
  ApiRequest legit;
  legit.method = "POST";
  legit.path = "/query";
  legit.token = app_principal.token;
  auto net_ok = cloud.Evaluate(app, db_eip, 5432, Protocol::kTcp);
  bool both = net_ok->delivered &&
              gateway.Check(legit) == GatewayVerdict::kAccepted;
  std::printf("legitimate client: %s\n\n", both ? "SERVED" : "broken!");

  std::printf("gateway saw %llu requests total; the flood never reached "
              "it.\n",
              static_cast<unsigned long long>(gateway.total_checked()));
  return 0;
}
