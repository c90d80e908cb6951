// Tests for the Table 2 API (DeclarativeCloud).

#include <gtest/gtest.h>

#include <set>

#include "src/app/workload.h"
#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/reach/reach.h"

namespace tenantnet {
namespace {

PermitEntry Permit(const IpAddress& source) {
  PermitEntry e;
  e.source = IpPrefix::Host(source);
  return e;
}
PermitEntry Permit(const char* prefix) {
  PermitEntry e;
  e.source = *IpPrefix::Parse(prefix);
  return e;
}

class DeclarativeTest : public ::testing::Test {
 protected:
  DeclarativeTest() : tw_(BuildTestWorld()), cloud_(*tw_.world, ledger_) {}

  InstanceId Launch(RegionId region, int zone = 0) {
    return *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, region, zone);
  }

  TestWorld tw_;
  ConfigLedger ledger_;
  DeclarativeCloud cloud_;
};

TEST_F(DeclarativeTest, RequestEipAllocatesFromProviderPool) {
  InstanceId vm = Launch(tw_.east);
  auto eip = cloud_.RequestEip(vm);
  ASSERT_TRUE(eip.ok());
  EXPECT_TRUE(
      tw_.world->provider(tw_.provider).address_space.Contains(*eip));
  EXPECT_EQ(cloud_.EipOf(vm), *eip);
  const EipRecord* record = cloud_.FindEip(*eip);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->instance, vm);
  EXPECT_EQ(record->region, tw_.east);
  // One EIP per instance.
  EXPECT_EQ(cloud_.RequestEip(vm).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(ledger_.api_calls(), 1u);
}

TEST_F(DeclarativeTest, ReleaseEipCleansEverything) {
  InstanceId vm = Launch(tw_.east);
  IpAddress eip = *cloud_.RequestEip(vm);
  IpAddress sip = *cloud_.RequestSip(tw_.tenant, tw_.provider);
  ASSERT_TRUE(cloud_.Bind(eip, sip).ok());
  ASSERT_TRUE(cloud_.SetPermitList(eip, {Permit("10.0.0.0/8")}).ok());
  ASSERT_TRUE(cloud_.ReleaseEip(eip).ok());
  EXPECT_EQ(cloud_.FindEip(eip), nullptr);
  EXPECT_FALSE(cloud_.EipOf(vm).has_value());
  EXPECT_TRUE(cloud_.sip_lb().Bindings(sip)->empty());
  EXPECT_EQ(cloud_.ReleaseEip(eip).code(), StatusCode::kNotFound);
  // The address can be re-issued.
  InstanceId vm2 = Launch(tw_.east);
  EXPECT_EQ(*cloud_.RequestEip(vm2), eip);
}

// A released address that is issued again must come back default-off, even
// when the old owner's permit list was still being installed at release.
TEST(DeclarativeReleaseTest, ReissuedEipDoesNotInheritInstallInFlight) {
  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  EventQueue queue;
  DeclarativeCloud cloud(*tw.world, ledger, &queue);
  auto launch = [&] {
    return *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
  };
  InstanceId client = launch();
  ASSERT_TRUE(cloud.RequestEip(client).ok());
  IpAddress eip1 = *cloud.RequestEip(launch());
  ASSERT_TRUE(cloud.SetPermitList(eip1, {Permit(*cloud.EipOf(client))}).ok());
  ASSERT_TRUE(cloud.ReleaseEip(eip1).ok());  // before the install lands
  IpAddress eip2 = *cloud.RequestEip(launch());
  ASSERT_EQ(eip2, eip1);  // lowest-first reuse hands the address back
  queue.RunAll();

  auto result = cloud.Evaluate(client, eip2, 443, Protocol::kTcp);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->delivered);
  EXPECT_EQ(result->drop_stage, "edge-filter");
}

// A crashed provider endpoint has no host route left (NotifyInstanceDown
// withdrew it); releasing it must still free the address and the record.
TEST(DeclarativeReleaseTest, ReleaseOfDownedEndpointFreesEverything) {
  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  DeclarativeCloud cloud(*tw.world, ledger);
  auto launch = [&] {
    return *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
  };
  InstanceId client = launch();
  IpAddress client_eip = *cloud.RequestEip(client);
  InstanceId server = launch();
  IpAddress server_eip = *cloud.RequestEip(server);
  ASSERT_TRUE(cloud.SetPermitList(server_eip, {Permit(client_eip)}).ok());
  ASSERT_TRUE(tw.world->SetInstanceRunning(server, false).ok());
  cloud.NotifyInstanceDown(server);

  ASSERT_TRUE(cloud.ReleaseEip(server_eip).ok());
  EXPECT_EQ(cloud.FindEip(server_eip), nullptr);
  EXPECT_FALSE(cloud.EipOf(server).has_value());
  EXPECT_EQ(cloud.ProviderRibEntries(tw.provider), 1u);

  IpAddress reissued = *cloud.RequestEip(launch());
  ASSERT_EQ(reissued, server_eip);
  auto result = cloud.Evaluate(client, reissued, 443, Protocol::kTcp);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->delivered);
  EXPECT_EQ(result->drop_stage, "edge-filter");
}

TEST_F(DeclarativeTest, EipsAreFlatNonAggregatableForTheTenant) {
  // Two instances in the same zone get adjacent pool addresses; two in
  // different regions still come from the same provider pool — the tenant
  // can assume nothing about structure.
  InstanceId a = Launch(tw_.east);
  InstanceId b = Launch(tw_.west);
  IpAddress ea = *cloud_.RequestEip(a);
  IpAddress eb = *cloud_.RequestEip(b);
  EXPECT_NE(ea, eb);
  auto half = tw_.world->provider(tw_.provider).address_space.Split();
  EXPECT_TRUE(half->first.Contains(ea));
  EXPECT_TRUE(half->first.Contains(eb));
}

TEST_F(DeclarativeTest, DefaultOffBlocksEvenIntraTenant) {
  InstanceId a = Launch(tw_.east);
  InstanceId b = Launch(tw_.east, 1);
  IpAddress ea = *cloud_.RequestEip(a);
  IpAddress eb = *cloud_.RequestEip(b);
  (void)ea;
  auto result = cloud_.Evaluate(a, eb, 443, Protocol::kTcp);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->delivered);
  EXPECT_EQ(result->drop_stage, "edge-filter");
}

TEST_F(DeclarativeTest, PermitListOpensExactlyTheListedSources) {
  InstanceId a = Launch(tw_.east);
  InstanceId b = Launch(tw_.east, 1);
  InstanceId c = Launch(tw_.west);
  IpAddress ea = *cloud_.RequestEip(a);
  IpAddress eb = *cloud_.RequestEip(b);
  IpAddress ec = *cloud_.RequestEip(c);
  ASSERT_TRUE(cloud_.SetPermitList(eb, {Permit(ea)}).ok());

  auto from_a = cloud_.Evaluate(a, eb, 443, Protocol::kTcp);
  EXPECT_TRUE(from_a->delivered)
      << from_a->drop_stage << ": " << Explain(*from_a);
  auto from_c = cloud_.Evaluate(c, eb, 443, Protocol::kTcp);
  EXPECT_FALSE(from_c->delivered);
  (void)ec;
}

TEST_F(DeclarativeTest, IntraProviderTrafficRidesBackbone) {
  InstanceId a = Launch(tw_.east);
  InstanceId b = Launch(tw_.west);
  IpAddress ea = *cloud_.RequestEip(a);
  IpAddress eb = *cloud_.RequestEip(b);
  ASSERT_TRUE(cloud_.SetPermitList(eb, {Permit(ea)}).ok());
  auto result = cloud_.Evaluate(a, eb, 443, Protocol::kTcp);
  ASSERT_TRUE(result->delivered);
  EXPECT_EQ(result->egress_policy, EgressPolicy::kColdPotato);
}

TEST_F(DeclarativeTest, SipBindAndResolve) {
  InstanceId a = Launch(tw_.east);
  InstanceId b = Launch(tw_.east, 1);
  InstanceId client = Launch(tw_.west);
  IpAddress ea = *cloud_.RequestEip(a);
  IpAddress eb = *cloud_.RequestEip(b);
  IpAddress ecl = *cloud_.RequestEip(client);
  IpAddress sip = *cloud_.RequestSip(tw_.tenant, tw_.provider);
  ASSERT_TRUE(cloud_.Bind(ea, sip, 1.0).ok());
  ASSERT_TRUE(cloud_.Bind(eb, sip, 1.0).ok());
  ASSERT_TRUE(cloud_.SetPermitList(ea, {Permit(ecl)}).ok());
  ASSERT_TRUE(cloud_.SetPermitList(eb, {Permit(ecl)}).ok());

  std::set<std::string> backends;
  for (int i = 0; i < 20; ++i) {
    auto result = cloud_.Evaluate(client, sip, 443, Protocol::kTcp);
    ASSERT_TRUE(result->delivered)
        << result->drop_stage << ": " << Explain(*result);
    backends.insert(result->effective_dst.ToString());
  }
  EXPECT_EQ(backends.size(), 2u);
}

TEST_F(DeclarativeTest, SipFailoverOnInstanceDown) {
  InstanceId a = Launch(tw_.east);
  InstanceId b = Launch(tw_.east, 1);
  InstanceId client = Launch(tw_.west);
  IpAddress ea = *cloud_.RequestEip(a);
  IpAddress eb = *cloud_.RequestEip(b);
  IpAddress ecl = *cloud_.RequestEip(client);
  IpAddress sip = *cloud_.RequestSip(tw_.tenant, tw_.provider);
  ASSERT_TRUE(cloud_.Bind(ea, sip).ok());
  ASSERT_TRUE(cloud_.Bind(eb, sip).ok());
  ASSERT_TRUE(cloud_.SetPermitList(ea, {Permit(ecl)}).ok());
  ASSERT_TRUE(cloud_.SetPermitList(eb, {Permit(ecl)}).ok());

  cloud_.NotifyInstanceDown(a);
  for (int i = 0; i < 20; ++i) {
    auto result = cloud_.Evaluate(client, sip, 443, Protocol::kTcp);
    ASSERT_TRUE(result->delivered);
    EXPECT_EQ(result->effective_dst, eb);
  }
  cloud_.NotifyInstanceUp(a);
  std::set<std::string> backends;
  for (int i = 0; i < 20; ++i) {
    backends.insert(
        cloud_.Evaluate(client, sip, 443, Protocol::kTcp)->effective_dst
            .ToString());
  }
  EXPECT_EQ(backends.size(), 2u);
}

TEST_F(DeclarativeTest, BindAcrossTenantsDenied) {
  InstanceId a = Launch(tw_.east);
  IpAddress ea = *cloud_.RequestEip(a);
  TenantId other = tw_.world->AddTenant("other");
  IpAddress sip = *cloud_.RequestSip(other, tw_.provider);
  EXPECT_EQ(cloud_.Bind(ea, sip).code(), StatusCode::kPermissionDenied);
}

TEST_F(DeclarativeTest, ExternalTrafficDefaultOff) {
  InstanceId a = Launch(tw_.east);
  IpAddress ea = *cloud_.RequestEip(a);
  IpAddress attacker = IpAddress::V4(203, 0, 113, 7);
  auto blocked = cloud_.EvaluateExternal(attacker, ea, 443, Protocol::kTcp);
  EXPECT_FALSE(blocked.delivered);
  EXPECT_EQ(blocked.drop_stage, "edge-filter");
  // Permitting the external prefix opens it.
  ASSERT_TRUE(cloud_.SetPermitList(ea, {Permit("203.0.113.0/24")}).ok());
  auto open = cloud_.EvaluateExternal(attacker, ea, 443, Protocol::kTcp);
  EXPECT_TRUE(open.delivered);
}

TEST_F(DeclarativeTest, OnPremEndpointsParticipateUniformly) {
  InstanceId cloud_vm = Launch(tw_.east);
  InstanceId onprem_vm =
      *tw_.world->LaunchOnPremInstance(tw_.tenant, tw_.on_prem);
  IpAddress cloud_eip = *cloud_.RequestEip(cloud_vm);
  auto onprem_eip = cloud_.RequestEip(onprem_vm);
  ASSERT_TRUE(onprem_eip.ok());
  // Cloud -> on-prem requires the on-prem endpoint to permit the source.
  auto blocked = cloud_.Evaluate(cloud_vm, *onprem_eip, 9093, Protocol::kTcp);
  EXPECT_FALSE(blocked->delivered);
  ASSERT_TRUE(cloud_.SetPermitList(*onprem_eip, {Permit(cloud_eip)}).ok());
  auto open = cloud_.Evaluate(cloud_vm, *onprem_eip, 9093, Protocol::kTcp);
  EXPECT_TRUE(open->delivered)
      << open->drop_stage << ": " << Explain(*open);
  // And the reverse direction, symmetrically.
  ASSERT_TRUE(cloud_.SetPermitList(cloud_eip, {Permit(*onprem_eip)}).ok());
  auto reverse = cloud_.Evaluate(onprem_vm, cloud_eip, 7077, Protocol::kTcp);
  EXPECT_TRUE(reverse->delivered);
}

TEST_F(DeclarativeTest, ExternalTrafficToSipResolvesThenFilters) {
  InstanceId backend = Launch(tw_.east);
  IpAddress eip = *cloud_.RequestEip(backend);
  IpAddress sip = *cloud_.RequestSip(tw_.tenant, tw_.provider);
  ASSERT_TRUE(cloud_.Bind(eip, sip).ok());
  IpAddress client = IpAddress::V4(198, 18, 4, 4);

  // Default-off: the SIP resolves to a backend whose permit list still
  // gates the flow.
  auto blocked = cloud_.EvaluateExternal(client, sip, 443, Protocol::kTcp);
  EXPECT_FALSE(blocked.delivered);
  EXPECT_EQ(blocked.drop_stage, "edge-filter");

  ASSERT_TRUE(cloud_.SetPermitList(eip, {Permit("198.18.0.0/16")}).ok());
  auto open = cloud_.EvaluateExternal(client, sip, 443, Protocol::kTcp);
  EXPECT_TRUE(open.delivered);
  EXPECT_EQ(open.effective_dst, eip);  // resolved through the SIP
}

TEST_F(DeclarativeTest, ReleaseSipStopsResolution) {
  InstanceId backend = Launch(tw_.east);
  IpAddress eip = *cloud_.RequestEip(backend);
  IpAddress sip = *cloud_.RequestSip(tw_.tenant, tw_.provider);
  ASSERT_TRUE(cloud_.Bind(eip, sip).ok());
  ASSERT_TRUE(cloud_.ReleaseSip(sip).ok());
  EXPECT_FALSE(cloud_.IsSip(sip));
  EXPECT_EQ(cloud_.ReleaseSip(sip).code(), StatusCode::kNotFound);
  // The address returns to the pool and is reissued.
  EXPECT_EQ(*cloud_.RequestSip(tw_.tenant, tw_.provider), sip);
}

TEST_F(DeclarativeTest, SetQosConfiguresQuota) {
  ASSERT_TRUE(cloud_.SetQos(tw_.tenant, tw_.east, 10e9).ok());
  EXPECT_DOUBLE_EQ(*cloud_.qos().Quota(tw_.tenant, tw_.east), 10e9);
  // Two zones in the region -> two enforcement points.
  EXPECT_EQ(cloud_.qos().PointCount(tw_.east), 2u);
}

TEST_F(DeclarativeTest, SetQosRefusesAnUnknownRegion) {
  const uint64_t calls = ledger_.api_calls();
  for (RegionId region :
       {RegionId(), RegionId(tw_.world->region_count() + 40)}) {
    EXPECT_EQ(cloud_.SetQos(tw_.tenant, region, 1e9).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(ledger_.api_calls(), calls);
}

TEST_F(DeclarativeTest, RequestSipRefusesAnUnknownProvider) {
  const uint64_t calls = ledger_.api_calls();
  for (ProviderId provider :
       {ProviderId(), ProviderId(tw_.world->provider_count() + 40)}) {
    EXPECT_EQ(cloud_.RequestSip(tw_.tenant, provider).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(ledger_.api_calls(), calls);
}

TEST_F(DeclarativeTest, EgressProfile) {
  EXPECT_EQ(cloud_.EgressProfileOf(tw_.tenant), EgressPolicy::kHotPotato);
  ASSERT_TRUE(
      cloud_.SetEgressProfile(tw_.tenant, EgressPolicy::kColdPotato).ok());
  EXPECT_EQ(cloud_.EgressProfileOf(tw_.tenant), EgressPolicy::kColdPotato);
  EXPECT_EQ(
      cloud_.SetEgressProfile(tw_.tenant, EgressPolicy::kDedicated).code(),
      StatusCode::kInvalidArgument);
}

TEST_F(DeclarativeTest, ProviderCanAggregateFlatEips) {
  // 64 sequential EIPs in one region: the provider's table holds 64 host
  // routes but can aggregate to a handful of prefixes.
  for (int i = 0; i < 64; ++i) {
    InstanceId vm = Launch(tw_.east, i % 2);
    ASSERT_TRUE(cloud_.RequestEip(vm).ok());
  }
  EXPECT_EQ(cloud_.ProviderRibEntries(tw_.provider), 64u);
  EXPECT_LE(cloud_.ProviderAggregatedRibEntries(tw_.provider), 2u);
}

// A provider's domain has one edge per region it had when the domain was
// created. An instance in a region added later has no edge to enforce at,
// so RequestEip refuses it rather than issue an address no edge guards.
TEST_F(DeclarativeTest, RegionAddedAfterItsDomainIsRefused) {
  ASSERT_TRUE(cloud_.RequestEip(Launch(tw_.east)).ok());
  RegionId late = tw_.world->AddRegion(tw_.provider, "late", {10, 0}, 1);
  EXPECT_EQ(cloud_.RequestEip(Launch(late)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DeclarativeTest, EvaluateRequiresSourceEip) {
  InstanceId a = Launch(tw_.east);
  InstanceId b = Launch(tw_.east, 1);
  IpAddress eb = *cloud_.RequestEip(b);
  auto result = cloud_.Evaluate(a, eb, 443, Protocol::kTcp);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->delivered);
  EXPECT_EQ(result->drop_stage, "no-eip");
}

TEST_F(DeclarativeTest, LedgerCountsApiCallsNotComponents) {
  InstanceId a = Launch(tw_.east);
  InstanceId b = Launch(tw_.east, 1);
  IpAddress ea = *cloud_.RequestEip(a);
  IpAddress eb = *cloud_.RequestEip(b);
  IpAddress sip = *cloud_.RequestSip(tw_.tenant, tw_.provider);
  ASSERT_TRUE(cloud_.Bind(ea, sip).ok());
  ASSERT_TRUE(cloud_.Bind(eb, sip).ok());
  ASSERT_TRUE(cloud_.SetPermitList(eb, {Permit(ea)}).ok());
  ASSERT_TRUE(cloud_.SetQos(tw_.tenant, tw_.east, 1e9).ok());
  EXPECT_EQ(ledger_.api_calls(), 7u);
  EXPECT_EQ(ledger_.components(), 0u);       // no boxes, ever
  EXPECT_EQ(ledger_.cross_references(), 0u);  // nothing to keep consistent
}

// One Table-2 script, run with the destination in a provider region and at
// the on-prem site: both kinds of domain enforce at the endpoint's one
// ingress edge, so every verdict in the sequence is the same.
class EnforcementPointTest : public ::testing::TestWithParam<bool> {};

std::string Verdict(const DeclarativeDelivery& d) {
  return std::string(d.delivered ? "delivered" : d.drop_stage);
}

TEST_P(EnforcementPointTest, SameVerdictsForProviderAndOnPremDestinations) {
  const bool on_prem = GetParam();
  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  DeclarativeCloud cloud(*tw.world, ledger);
  DeclarativeReachEngine engine(*tw.world, cloud);
  auto launch_server = [&] {
    return on_prem
               ? *tw.world->LaunchOnPremInstance(tw.tenant, tw.on_prem)
               : *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east);
  };
  EdgeFilterBank* const bank = on_prem ? &cloud.on_prem_filters(tw.on_prem)
                                       : &cloud.provider_filters(tw.provider);
  const std::string where = on_prem ? "dc:router" : "cloud:east";
  InstanceId client =
      *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.west);
  IpAddress client_eip = *cloud.RequestEip(client);
  IpAddress server_eip = *cloud.RequestEip(launch_server());
  const IpAddress internet = IpAddress::V4(203, 0, 113, 9);

  auto expect_edge = [&] {
    Result<DeclarativeCloud::DestinationEdge> edge =
        cloud.DestinationEdgeOf(server_eip);
    ASSERT_TRUE(edge.ok());
    EXPECT_EQ(edge->bank, bank);
    EXPECT_EQ(edge->edge_index, 0u);  // east is the provider's first region
    EXPECT_EQ(edge->bank->edge_name(edge->edge_index), where);
  };
  std::vector<std::string> verdicts;
  auto probe = [&](const std::string& step) {
    SCOPED_TRACE(step);
    Result<DeclarativeDelivery> tenant =
        cloud.Evaluate(client, server_eip, 443, Protocol::kTcp);
    ASSERT_TRUE(tenant.ok());
    DeclarativeDelivery external =
        cloud.EvaluateExternal(internet, server_eip, 443, Protocol::kTcp);
    ReachVerdict reach =
        engine.CanReach(client, server_eip, 443, Protocol::kTcp);
    EXPECT_EQ(reach.reachable, tenant->delivered) << reach.ToString();
    if (!reach.reachable) {
      EXPECT_EQ(DenyStages().Name(reach.deny_stage), tenant->drop_stage);
    }
    if (cloud.FindEip(server_eip) != nullptr) {
      EXPECT_EQ(RouteLabels().Name(tenant->provider_hops.back()),
                "edge-filter@" + where);
      EXPECT_EQ(RouteLabels().Name(external.provider_hops.back()),
                "edge-filter@" + where);
    }
    verdicts.push_back(step + ": " + Verdict(*tenant) + " / " +
                       Verdict(external));
  };

  expect_edge();
  probe("default-off");
  ASSERT_TRUE(
      cloud.SetPermitList(server_eip, {Permit(client_eip)}).ok());
  probe("set");
  ASSERT_TRUE(cloud.UpdatePermitList(server_eip, {Permit("203.0.113.0/24")},
                                     {})
                  .ok());
  probe("update add");
  ASSERT_TRUE(
      cloud.UpdatePermitList(server_eip, {}, {Permit(client_eip)}).ok());
  probe("update remove");

  EndpointGroupId group = *cloud.CreateEndpointGroup(tw.tenant, "clients");
  PermitEntry by_group;
  by_group.source_group = group;
  ASSERT_TRUE(cloud.SetPermitList(server_eip, {by_group}).ok());
  probe("group empty");
  ASSERT_TRUE(cloud.AddToEndpointGroup(group, client_eip).ok());
  probe("group add");
  ASSERT_TRUE(cloud.RemoveFromEndpointGroup(group, client_eip).ok());
  probe("group remove");
  ASSERT_TRUE(cloud.AddToEndpointGroup(group, client_eip).ok());

  ASSERT_TRUE(cloud.ReleaseEip(server_eip).ok());
  EXPECT_FALSE(cloud.DestinationEdgeOf(server_eip).ok());
  probe("released");
  IpAddress reissued = *cloud.RequestEip(launch_server());
  ASSERT_EQ(reissued, server_eip);
  expect_edge();
  probe("reissued");
  ASSERT_TRUE(cloud.SetPermitList(server_eip, {by_group}).ok());
  probe("reissued group");

  EXPECT_EQ(verdicts,
            (std::vector<std::string>{
                "default-off: edge-filter / edge-filter",
                "set: delivered / edge-filter",
                "update add: delivered / delivered",
                "update remove: edge-filter / delivered",
                "group empty: edge-filter / edge-filter",
                "group add: delivered / edge-filter",
                "group remove: edge-filter / edge-filter",
                "released: no-such-endpoint / no-such-endpoint",
                "reissued: edge-filter / edge-filter",
                "reissued group: delivered / edge-filter",
            }));
}

INSTANTIATE_TEST_SUITE_P(DomainKinds, EnforcementPointTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "OnPrem" : "Provider";
                         });

}  // namespace
}  // namespace tenantnet
