// Tests for the Table 2 API (DeclarativeCloud).

#include <gtest/gtest.h>

#include <set>

#include "src/cloud/presets.h"
#include "src/core/api.h"

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
      << from_a->drop_stage << ": " << from_a->drop_reason;
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
        << result->drop_stage << ": " << result->drop_reason;
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
      << open->drop_stage << ": " << open->drop_reason;
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

TEST_F(DeclarativeTest, EvaluateRequiresSourceEip) {
  InstanceId a = Launch(tw_.east);
  InstanceId b = Launch(tw_.east, 1);
  IpAddress eb = *cloud_.RequestEip(b);
  auto result = cloud_.Evaluate(a, eb, 443, Protocol::kTcp);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
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

}  // namespace
}  // namespace tenantnet
