// Tests for the §4-anticipated API extensions: endpoint groups, incremental
// permit-list updates, and traffic-scoped QoS reservations.

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "src/cloud/presets.h"
#include "src/common/rng.h"
#include "src/core/api.h"

namespace tenantnet {

// Names the restart mode in parameterized test names (found by ADL, so it
// lives in the mode's namespace).
void PrintTo(RestartMode mode, std::ostream* os) {
  *os << (mode == RestartMode::kWarm ? "warm" : "cold");
}

namespace {

FiveTuple Flow(IpAddress src, IpAddress dst, uint16_t dport,
               Protocol proto = Protocol::kTcp) {
  FiveTuple t;
  t.src = src;
  t.dst = dst;
  t.src_port = 40000;
  t.dst_port = dport;
  t.proto = proto;
  return t;
}

class ExtensionsTest : public ::testing::Test {
 protected:
  ExtensionsTest() : tw_(BuildTestWorld()), cloud_(*tw_.world, ledger_) {}

  InstanceId Launch(RegionId region, int zone = 0) {
    return *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, region, zone);
  }

  TestWorld tw_;
  ConfigLedger ledger_;
  DeclarativeCloud cloud_;
};

// --- Endpoint groups --------------------------------------------------------

TEST_F(ExtensionsTest, GroupLifecycle) {
  auto group = cloud_.CreateEndpointGroup(tw_.tenant, "spark-workers");
  ASSERT_TRUE(group.ok());
  InstanceId vm = Launch(tw_.east);
  IpAddress eip = *cloud_.RequestEip(vm);
  ASSERT_TRUE(cloud_.AddToEndpointGroup(*group, eip).ok());
  auto members = cloud_.GroupMembers(*group);
  ASSERT_TRUE(members.ok());
  EXPECT_EQ(members->size(), 1u);
  ASSERT_TRUE(cloud_.RemoveFromEndpointGroup(*group, eip).ok());
  EXPECT_TRUE(cloud_.GroupMembers(*group)->empty());
  EXPECT_EQ(cloud_.RemoveFromEndpointGroup(*group, eip).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(cloud_.DeleteEndpointGroup(*group).ok());
  EXPECT_FALSE(cloud_.GroupMembers(*group).ok());
}

TEST_F(ExtensionsTest, GroupMembershipIsTenantScoped) {
  auto group = *cloud_.CreateEndpointGroup(tw_.tenant, "mine");
  TenantId other = tw_.world->AddTenant("other");
  InstanceId foreign_vm =
      *tw_.world->LaunchInstance(other, tw_.provider, tw_.east, 0);
  IpAddress foreign_eip = *cloud_.RequestEip(foreign_vm);
  EXPECT_EQ(cloud_.AddToEndpointGroup(group, foreign_eip).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(ExtensionsTest, GroupPermitEntryAdmitsMembers) {
  auto group = *cloud_.CreateEndpointGroup(tw_.tenant, "clients");
  InstanceId server = Launch(tw_.east);
  InstanceId member = Launch(tw_.west);
  InstanceId outsider = Launch(tw_.west, 1);
  IpAddress server_eip = *cloud_.RequestEip(server);
  IpAddress member_eip = *cloud_.RequestEip(member);
  IpAddress outsider_eip = *cloud_.RequestEip(outsider);
  (void)outsider_eip;
  ASSERT_TRUE(cloud_.AddToEndpointGroup(group, member_eip).ok());

  PermitEntry by_group;
  by_group.source_group = group;
  by_group.dst_ports = PortRange::Single(443);
  ASSERT_TRUE(cloud_.SetPermitList(server_eip, {by_group}).ok());

  auto from_member = cloud_.Evaluate(member, server_eip, 443, Protocol::kTcp);
  EXPECT_TRUE(from_member->delivered)
      << from_member->drop_stage << ": " << Explain(*from_member);
  auto from_outsider =
      cloud_.Evaluate(outsider, server_eip, 443, Protocol::kTcp);
  EXPECT_FALSE(from_outsider->delivered);
  // Wrong port fails even for members (entry scope).
  auto wrong_port = cloud_.Evaluate(member, server_eip, 80, Protocol::kTcp);
  EXPECT_FALSE(wrong_port->delivered);
}

TEST_F(ExtensionsTest, MembershipChangeUpdatesEveryReferencingList) {
  // One group referenced by N permit lists: adding a member takes one call
  // and immediately opens all N — the churn-cost win the ablation measures.
  auto group = *cloud_.CreateEndpointGroup(tw_.tenant, "web");
  std::vector<InstanceId> servers;
  std::vector<IpAddress> server_eips;
  for (int i = 0; i < 5; ++i) {
    servers.push_back(Launch(tw_.east, i % 2));
    server_eips.push_back(*cloud_.RequestEip(servers.back()));
    PermitEntry by_group;
    by_group.source_group = group;
    ASSERT_TRUE(cloud_.SetPermitList(server_eips.back(), {by_group}).ok());
  }
  InstanceId newcomer = Launch(tw_.west);
  IpAddress newcomer_eip = *cloud_.RequestEip(newcomer);
  for (const IpAddress& eip : server_eips) {
    EXPECT_FALSE(cloud_.Evaluate(newcomer, eip, 443, Protocol::kTcp)
                     ->delivered);
  }
  ASSERT_TRUE(cloud_.AddToEndpointGroup(group, newcomer_eip).ok());
  for (const IpAddress& eip : server_eips) {
    EXPECT_TRUE(cloud_.Evaluate(newcomer, eip, 443, Protocol::kTcp)
                    ->delivered);
  }
}

TEST_F(ExtensionsTest, ReleasedEipLeavesItsGroups) {
  auto group = *cloud_.CreateEndpointGroup(tw_.tenant, "g");
  InstanceId vm = Launch(tw_.east);
  IpAddress eip = *cloud_.RequestEip(vm);
  ASSERT_TRUE(cloud_.AddToEndpointGroup(group, eip).ok());
  ASSERT_TRUE(cloud_.ReleaseEip(eip).ok());
  EXPECT_TRUE(cloud_.GroupMembers(group)->empty());
  // A recycled address must not inherit the old grant.
  InstanceId vm2 = Launch(tw_.east, 1);
  IpAddress recycled = *cloud_.RequestEip(vm2);
  EXPECT_EQ(recycled, eip);
  EXPECT_TRUE(cloud_.GroupMembers(group)->empty());
}

TEST_F(ExtensionsTest, DuplicateGroupAddFansNothingOut) {
  auto group = *cloud_.CreateEndpointGroup(tw_.tenant, "g");
  IpAddress eip = *cloud_.RequestEip(Launch(tw_.east));
  ASSERT_TRUE(cloud_.AddToEndpointGroup(group, eip).ok());
  std::vector<EdgeFilterBank*> banks = {&cloud_.provider_filters(tw_.provider),
                                        &cloud_.on_prem_filters(tw_.on_prem)};
  std::vector<uint64_t> messages;
  std::vector<uint64_t> epochs;
  for (const EdgeFilterBank* bank : banks) {
    messages.push_back(bank->update_messages_sent());
    epochs.push_back(bank->verdict_epoch());
  }
  const uint64_t api_calls = ledger_.api_calls();

  ASSERT_TRUE(cloud_.AddToEndpointGroup(group, eip).ok());
  for (size_t i = 0; i < banks.size(); ++i) {
    EXPECT_EQ(banks[i]->update_messages_sent(), messages[i]);
    EXPECT_EQ(banks[i]->verdict_epoch(), epochs[i]);
  }
  EXPECT_EQ(ledger_.api_calls(), api_calls + 1);  // still a tenant call
  EXPECT_EQ(cloud_.GroupMembers(group)->size(), 1u);
}

TEST_F(ExtensionsTest, PermitListRejectsUnknownGroup) {
  InstanceId vm = Launch(tw_.east);
  IpAddress eip = *cloud_.RequestEip(vm);
  PermitEntry bad;
  bad.source_group = EndpointGroupId(999);
  EXPECT_EQ(cloud_.SetPermitList(eip, {bad}).status().code(),
            StatusCode::kNotFound);
}

// --- Incremental permit-list updates ----------------------------------------

TEST_F(ExtensionsTest, UpdatePermitListAddsAndRemoves) {
  InstanceId server = Launch(tw_.east);
  InstanceId a = Launch(tw_.west);
  InstanceId b = Launch(tw_.west, 1);
  IpAddress server_eip = *cloud_.RequestEip(server);
  IpAddress a_eip = *cloud_.RequestEip(a);
  IpAddress b_eip = *cloud_.RequestEip(b);

  PermitEntry permit_a;
  permit_a.source = IpPrefix::Host(a_eip);
  ASSERT_TRUE(cloud_.SetPermitList(server_eip, {permit_a}).ok());
  EXPECT_TRUE(cloud_.Evaluate(a, server_eip, 1, Protocol::kTcp)->delivered);
  EXPECT_FALSE(cloud_.Evaluate(b, server_eip, 1, Protocol::kTcp)->delivered);

  PermitEntry permit_b;
  permit_b.source = IpPrefix::Host(b_eip);
  ASSERT_TRUE(
      cloud_.UpdatePermitList(server_eip, {permit_b}, {permit_a}).ok());
  EXPECT_FALSE(cloud_.Evaluate(a, server_eip, 1, Protocol::kTcp)->delivered);
  EXPECT_TRUE(cloud_.Evaluate(b, server_eip, 1, Protocol::kTcp)->delivered);
}

TEST_F(ExtensionsTest, UpdatePermitListIsIdempotentOnDuplicates) {
  InstanceId server = Launch(tw_.east);
  InstanceId a = Launch(tw_.west);
  IpAddress server_eip = *cloud_.RequestEip(server);
  IpAddress a_eip = *cloud_.RequestEip(a);
  PermitEntry permit_a;
  permit_a.source = IpPrefix::Host(a_eip);
  ASSERT_TRUE(cloud_.SetPermitList(server_eip, {permit_a}).ok());
  // Re-adding the same entry does not duplicate it.
  ASSERT_TRUE(cloud_.UpdatePermitList(server_eip, {permit_a}, {}).ok());
  auto& bank = cloud_.provider_filters(tw_.provider);
  EXPECT_EQ(bank.total_installed_entries(),
            bank.edge_count() * 1u);
}

// --- Scoped QoS reservations -------------------------------------------------

TEST_F(ExtensionsTest, ScopedQuotaOnlyBindsSelectedTraffic) {
  QosSelector backups;
  backups.dst_prefix = *IpPrefix::Parse("20.0.0.0/8");  // the other cloud
  backups.dst_ports = PortRange::Single(873);
  ASSERT_TRUE(cloud_.SetQos(tw_.tenant, tw_.east, 1e6, backups).ok());

  EgressQuotaManager& qos = cloud_.qos();
  SimTime now = SimTime::Epoch() + SimDuration::Millis(1);
  FiveTuple reserved = Flow(IpAddress::V4(5, 0, 0, 1),
                            IpAddress::V4(20, 1, 2, 3), 873);
  FiveTuple other = Flow(IpAddress::V4(5, 0, 0, 1),
                         IpAddress::V4(20, 1, 2, 3), 443);
  EXPECT_TRUE(qos.IsReserved(tw_.tenant, tw_.east, reserved));
  EXPECT_FALSE(qos.IsReserved(tw_.tenant, tw_.east, other));

  // Reserved traffic consumes the bucket and eventually throttles...
  uint64_t admitted = 0;
  for (int i = 0; i < 1000; ++i) {
    if (qos.TryConsumeFlow(tw_.tenant, tw_.east, 0, reserved, 1e4, now)) {
      ++admitted;
    }
  }
  EXPECT_LT(admitted, 1000u);
  // ...while unselected traffic is never limited by the reservation.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(qos.TryConsumeFlow(tw_.tenant, tw_.east, 0, other, 1e4, now));
  }
}

TEST_F(ExtensionsTest, UnscopedQuotaBindsEverything) {
  ASSERT_TRUE(cloud_.SetQos(tw_.tenant, tw_.east, 1e6).ok());
  FiveTuple any = Flow(IpAddress::V4(5, 0, 0, 1),
                       IpAddress::V4(99, 1, 2, 3), 443);
  EXPECT_TRUE(cloud_.qos().IsReserved(tw_.tenant, tw_.east, any));
}

TEST_F(ExtensionsTest, ExtensionCallsAreLedgered) {
  auto group = *cloud_.CreateEndpointGroup(tw_.tenant, "g");
  InstanceId vm = Launch(tw_.east);
  IpAddress eip = *cloud_.RequestEip(vm);
  (void)cloud_.AddToEndpointGroup(group, eip);
  (void)cloud_.UpdatePermitList(eip, {}, {});
  QosSelector selector;
  (void)cloud_.SetQos(tw_.tenant, tw_.east, 1e9, selector);
  // create_group + request_eip + group_add + update_permit_list + set_qos.
  EXPECT_EQ(ledger_.api_calls(), 5u);
  EXPECT_EQ(ledger_.components(), 0u);  // still no boxes
}

// --- Group replication semantics ---------------------------------------------

// Every group install carries the whole member set. When a later add's
// message overtakes an earlier one at an edge, the edge holds both members
// from that moment, and the earlier message, arriving stale, changes
// nothing. Per-member delta messages would admit the first member only once
// its own message landed.
TEST(GroupReplicationTest, OvertakingInstallCarriesTheEarlierMember) {
  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  EventQueue queue;
  DeclarativeParams params;
  params.filter.degraded_drop_prob = 1.0;
  DeclarativeCloud cloud(*tw.world, ledger, &queue, params);
  auto launch = [&](RegionId region, int zone) {
    return *tw.world->LaunchInstance(tw.tenant, tw.provider, region, zone);
  };
  InstanceId server = launch(tw.east, 0);
  InstanceId first = launch(tw.west, 0);
  InstanceId second = launch(tw.west, 1);
  IpAddress server_eip = *cloud.RequestEip(server);
  IpAddress first_eip = *cloud.RequestEip(first);
  IpAddress second_eip = *cloud.RequestEip(second);
  EndpointGroupId group = *cloud.CreateEndpointGroup(tw.tenant, "clients");
  PermitEntry by_group;
  by_group.source_group = group;
  ASSERT_TRUE(cloud.SetPermitList(server_eip, {by_group}).ok());
  queue.RunAll();
  EdgeFilterBank& bank = cloud.provider_filters(tw.provider);
  auto delivered = [&](InstanceId src) {
    return cloud.Evaluate(src, server_eip, 443, Protocol::kTcp)->delivered;
  };

  // Op 1 goes out while every replication message is lost: each edge gets
  // it only at the end of the retransmit chain, seconds later.
  const SimTime start = queue.now();
  bank.SetReplicationDegraded(true);
  ASSERT_TRUE(cloud.AddToEndpointGroup(group, first_eip).ok());
  bank.SetReplicationDegraded(false);
  ASSERT_TRUE(cloud.AddToEndpointGroup(group, second_eip).ok());

  // Step until op 2 applies at the server's edge: op 1's member is in.
  while (!delivered(second)) {
    ASSERT_TRUE(queue.Step());
  }
  EXPECT_LT(queue.now(), start + SimDuration::Seconds(1));
  EXPECT_TRUE(delivered(first));

  // Op 1 lands late, after op 2 reached every edge, and is discarded as
  // stale: no verdict epoch moves.
  queue.RunUntil(start + SimDuration::Seconds(1));
  ASSERT_FALSE(queue.empty());  // op 1 is still in flight
  const uint64_t epoch = bank.verdict_epoch();
  queue.RunAll();
  EXPECT_GT(queue.now(), start + SimDuration::Seconds(3));
  EXPECT_EQ(bank.verdict_epoch(), epoch);
  EXPECT_TRUE(delivered(first));
  EXPECT_TRUE(delivered(second));
}

// Single adds and removes through DeclarativeCloud, some buffered during a
// control-plane outage, drain to the same bank state as one bulk SetGroup
// of the final member set, under both restart completion modes.
class GroupDifferentialTest : public ::testing::TestWithParam<RestartMode> {};

TEST_P(GroupDifferentialTest, SingleOpsDrainToTheBulkSetState) {
  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  EventQueue queue;
  DeclarativeCloud cloud(*tw.world, ledger, &queue);
  std::vector<IpAddress> eips;
  for (int i = 0; i < 12; ++i) {
    InstanceId vm = *tw.world->LaunchInstance(
        tw.tenant, tw.provider, i % 2 == 0 ? tw.east : tw.west, (i / 2) % 2);
    eips.push_back(*cloud.RequestEip(vm));
  }
  EndpointGroupId group = *cloud.CreateEndpointGroup(tw.tenant, "g");
  std::set<IpAddress> model;
  Rng rng(17);
  auto single_ops = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const IpAddress eip = eips[rng.NextU64(eips.size())];
      if (rng.NextBool(0.6)) {
        ASSERT_TRUE(cloud.AddToEndpointGroup(group, eip).ok());
        model.insert(eip);
      } else {
        const bool was_member = model.erase(eip) == 1;
        EXPECT_EQ(cloud.RemoveFromEndpointGroup(group, eip).ok(), was_member);
      }
      // Installs take 5 ms or more, so some are always in flight.
      queue.RunUntil(queue.now() + SimDuration::Millis(3));
    }
  };
  single_ops(40);
  EdgeFilterBank& bank = cloud.provider_filters(tw.provider);
  const FilterBankSnapshot snap = bank.Checkpoint();
  bank.BeginRestart();
  single_ops(20);
  (void)bank.CompleteRestart(GetParam(), snap);
  queue.RunAll();

  const std::vector<IpAddress> final_set(model.begin(), model.end());
  EXPECT_EQ(*cloud.GroupMembers(group), final_set);
  EdgeFilterBank bulk("bulk", nullptr, 1);
  for (size_t e = 0; e < bank.edge_count(); ++e) {
    bulk.AddEdge("e" + std::to_string(e));
  }
  bulk.SetGroup(group, final_set);
  EXPECT_EQ(bank.StateFingerprint(), bulk.StateFingerprint());
}

INSTANTIATE_TEST_SUITE_P(Modes, GroupDifferentialTest,
                         ::testing::Values(RestartMode::kWarm,
                                           RestartMode::kCold));

}  // namespace
}  // namespace tenantnet
