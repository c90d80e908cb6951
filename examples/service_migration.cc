// Moving a live service across clouds with the declarative API (§5).
//
// A three-backend service lives on provider A. We migrate it to provider B
// one backend at a time, with the SIP... wait — a SIP is provider-scoped
// (it comes from a provider's pool), so a cross-cloud move means standing
// up a SIP on the destination and flipping clients over. That, plus
// per-endpoint permit-list updates, is the *entire* move. The example
// narrates each step and verifies the client never loses service.

#include <cstdio>
#include <vector>

#include "src/cloud/presets.h"
#include "src/core/api.h"

using namespace tenantnet;  // NOLINT: example brevity

namespace {

bool Serve(DeclarativeCloud& cloud, InstanceId client, IpAddress sip) {
  auto result = cloud.Evaluate(client, sip, 443, Protocol::kTcp);
  return result->delivered;
}

}  // namespace

int main() {
  // Two providers, one region each (plus extras we ignore).
  Fig1World fig = BuildFig1World();
  CloudWorld& world = *fig.world;
  ConfigLedger ledger;
  DeclarativeCloud cloud(world, ledger);

  // The service starts on cloud A (us-east): three backends + one SIP.
  std::vector<InstanceId> old_backends;
  std::vector<IpAddress> old_eips;
  for (int i = 0; i < 3; ++i) {
    InstanceId id = *world.LaunchInstance(fig.tenant, fig.cloud_a,
                                          fig.a_us_east, i % 3);
    old_backends.push_back(id);
    old_eips.push_back(*cloud.RequestEip(id));
  }
  IpAddress sip_a = *cloud.RequestSip(fig.tenant, fig.cloud_a);
  for (IpAddress eip : old_eips) {
    (void)cloud.Bind(eip, sip_a);
  }

  // A client on cloud B consumes the service.
  InstanceId client = *world.LaunchInstance(fig.tenant, fig.cloud_b,
                                            fig.b_us_east, 0);
  IpAddress client_eip = *cloud.RequestEip(client);
  PermitEntry from_client;
  from_client.source = IpPrefix::Host(client_eip);
  for (IpAddress eip : old_eips) {
    (void)cloud.SetPermitList(eip, {from_client});
  }
  std::printf("service on cloud A, client on cloud B: %s\n",
              Serve(cloud, client, sip_a) ? "SERVING" : "BROKEN");

  uint64_t actions_before = ledger.total();

  // ---- The migration, step by step. ---------------------------------------
  std::printf("\nmigrating to cloud B...\n");

  // 1. New backends + endpoints on cloud B; same verbs, different cloud.
  std::vector<InstanceId> new_backends;
  std::vector<IpAddress> new_eips;
  for (int i = 0; i < 3; ++i) {
    InstanceId id = *world.LaunchInstance(fig.tenant, fig.cloud_b,
                                          fig.b_us_east, i % 2);
    new_backends.push_back(id);
    new_eips.push_back(*cloud.RequestEip(id));
    (void)cloud.SetPermitList(new_eips.back(), {from_client});
  }

  // 2. A SIP on the destination provider, serving from the new backends.
  IpAddress sip_b = *cloud.RequestSip(fig.tenant, fig.cloud_b);
  for (IpAddress eip : new_eips) {
    (void)cloud.Bind(eip, sip_b);
  }
  std::printf("  new SIP %s live on cloud B: %s\n",
              sip_b.ToString().c_str(),
              Serve(cloud, client, sip_b) ? "SERVING" : "BROKEN");

  // 3. Clients flip to the new SIP (DNS/app config — outside the network
  //    API); the old side keeps serving until they have.
  std::printf("  old SIP still serving during cutover: %s\n",
              Serve(cloud, client, sip_a) ? "SERVING" : "BROKEN");

  // 4. Drain: unbind and release the old side.
  for (size_t i = 0; i < old_eips.size(); ++i) {
    (void)cloud.Unbind(old_eips[i], sip_a);
    (void)cloud.ReleaseEip(old_eips[i]);
    (void)world.TerminateInstance(old_backends[i]);
  }
  (void)cloud.ReleaseSip(sip_a);

  std::printf("  after teardown, new SIP: %s\n",
              Serve(cloud, client, sip_b) ? "SERVING" : "BROKEN");

  std::printf("\nmigration cost: %llu tenant actions, all of them the same "
              "five verbs\n",
              static_cast<unsigned long long>(ledger.total() -
                                              actions_before));
  std::printf("(compare bench_migration for the baseline-world equivalent: "
              "a new VPC,\n transit gateway, peering, routes, duplicated "
              "security config, and BGP)\n");
  return 0;
}
