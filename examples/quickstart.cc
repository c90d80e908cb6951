// Quickstart: the whole Table 2 API in one sitting.
//
// Builds a tiny two-region cloud plus an on-prem site, launches a web
// service with two backends and one client, and wires everything with the
// five declarative verbs — no VPCs, no gateways, no route tables. Then
// shows default-off in action and a provider-side failover.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "src/cloud/presets.h"
#include "src/core/api.h"

using namespace tenantnet;  // NOLINT: example brevity

int main() {
  // A small physical world: one provider, two regions, an on-prem site.
  // (CloudWorld is the simulator's substrate; real deployments would be
  // the provider's actual fabric.)
  TestWorld tw = BuildTestWorld();
  CloudWorld& world = *tw.world;

  // The provider's declarative control plane. The ledger records every
  // tenant-visible action, which is how the complexity experiments count.
  ConfigLedger ledger;
  DeclarativeCloud cloud(world, ledger);

  // --- Compute: two backends in the east region, a client in the west. ---
  InstanceId backend_a = *world.LaunchInstance(tw.tenant, tw.provider,
                                               tw.east, /*zone=*/0);
  InstanceId backend_b = *world.LaunchInstance(tw.tenant, tw.provider,
                                               tw.east, /*zone=*/1);
  InstanceId client = *world.LaunchInstance(tw.tenant, tw.provider,
                                            tw.west, 0);

  // --- Table 2, verb by verb. --------------------------------------------

  // request_eip(vm_id): every endpoint gets a globally routable,
  // default-off address.
  IpAddress eip_a = *cloud.RequestEip(backend_a);
  IpAddress eip_b = *cloud.RequestEip(backend_b);
  IpAddress eip_client = *cloud.RequestEip(client);
  std::printf("EIPs: backend-a=%s backend-b=%s client=%s\n",
              eip_a.ToString().c_str(), eip_b.ToString().c_str(),
              eip_client.ToString().c_str());

  // request_sip(): one stable service address for the pair.
  IpAddress sip = *cloud.RequestSip(tw.tenant, tw.provider);
  std::printf("SIP: %s\n", sip.ToString().c_str());

  // bind(eip, sip): the provider load-balances the SIP across bindings;
  // weights are optional.
  (void)cloud.Bind(eip_a, sip, /*weight=*/2.0);
  (void)cloud.Bind(eip_b, sip, /*weight=*/1.0);

  // set_permit_list(eip, ...): only the client may reach the backends.
  PermitEntry from_client;
  from_client.source = IpPrefix::Host(eip_client);
  from_client.dst_ports = PortRange::Single(443);
  from_client.proto = Protocol::kTcp;
  (void)cloud.SetPermitList(eip_a, {from_client});
  (void)cloud.SetPermitList(eip_b, {from_client});

  // set_qos(region, bandwidth): a regional egress allowance.
  (void)cloud.SetQos(tw.tenant, tw.east, 5e9);

  // --- Use it. --------------------------------------------------------------

  std::printf("\nclient -> SIP, six requests (provider spreads by weight):\n");
  for (int i = 0; i < 6; ++i) {
    auto result = cloud.Evaluate(client, sip, 443, Protocol::kTcp);
    std::printf("  %s -> backend %s\n",
                result->delivered ? "delivered" : "DROPPED",
                result->effective_dst.ToString().c_str());
  }

  // Default-off: a stranger (even the tenant's own instance not on the
  // list) cannot reach the backends...
  InstanceId stranger = *world.LaunchInstance(tw.tenant, tw.provider,
                                              tw.west, 1);
  IpAddress eip_stranger = *cloud.RequestEip(stranger);
  (void)eip_stranger;
  auto blocked = cloud.Evaluate(stranger, eip_a, 443, Protocol::kTcp);
  std::printf("\nstranger -> backend-a: %s (%s)\n",
              blocked->delivered ? "delivered" : "DROPPED",
              Explain(*blocked).c_str());

  // ...and an arbitrary internet source certainly cannot.
  auto external = cloud.EvaluateExternal(IpAddress::V4(203, 0, 113, 5),
                                         eip_a, 443, Protocol::kTcp);
  std::printf("internet scanner -> backend-a: %s (at %s)\n",
              external.delivered ? "delivered" : "DROPPED",
              std::string(external.drop_stage).c_str());

  // Failover is the provider's job: kill backend-a and the SIP heals.
  std::printf("\nbackend-a dies; provider notices (no tenant health "
              "checks):\n");
  cloud.NotifyInstanceDown(backend_a);
  for (int i = 0; i < 3; ++i) {
    auto result = cloud.Evaluate(client, sip, 443, Protocol::kTcp);
    std::printf("  delivered to %s\n",
                result->effective_dst.ToString().c_str());
  }

  std::printf("\nTenant actions total (the whole deployment): %llu\n",
              static_cast<unsigned long long>(ledger.total()));
  std::printf("Boxes built, routes written, gateways configured: 0\n");
  return 0;
}
