// Control-plane tests for BaselineNetwork: creation rules, addressing,
// ledger accounting, and small data-plane scenarios.

#include <gtest/gtest.h>

#include "src/cloud/presets.h"
#include "src/vnet/fabric.h"

namespace tenantnet {
namespace {

IpPrefix P(const char* s) { return *IpPrefix::Parse(s); }

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : tw_(BuildTestWorld()), net_(*tw_.world, ledger_) {}

  TestWorld tw_;
  ConfigLedger ledger_;
  BaselineNetwork net_;
};

TEST_F(FabricTest, VpcCreationRecordsComplexity) {
  auto vpc = net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                            P("10.0.0.0/16"));
  ASSERT_TRUE(vpc.ok());
  EXPECT_GE(ledger_.components(), 3u);  // vpc + main RT + default ACL
  EXPECT_GE(ledger_.decisions(), 2u);   // family + cidr plan
  EXPECT_GT(ledger_.parameters(), 0u);
}

TEST_F(FabricTest, OverlappingVpcCidrsRejected) {
  ASSERT_TRUE(net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                             P("10.0.0.0/16")).ok());
  auto overlap = net_.CreateVpc(tw_.tenant, tw_.provider, tw_.west, "v2",
                                P("10.0.128.0/17"));
  EXPECT_EQ(overlap.status().code(), StatusCode::kAlreadyExists);
  // A different tenant may reuse the space.
  TenantId other = tw_.world->AddTenant("other");
  EXPECT_TRUE(net_.CreateVpc(other, tw_.provider, tw_.east, "v3",
                             P("10.0.0.0/16")).ok());
}

TEST_F(FabricTest, SubnetsCarveDisjointBlocks) {
  auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                             P("10.0.0.0/16"));
  auto s1 = net_.CreateSubnet(vpc, "s1", 20, 0, false);
  auto s2 = net_.CreateSubnet(vpc, "s2", 20, 1, false);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  const Subnet* a = net_.FindSubnet(*s1);
  const Subnet* b = net_.FindSubnet(*s2);
  EXPECT_FALSE(a->cidr.Overlaps(b->cidr));
  EXPECT_TRUE(net_.FindVpc(vpc)->cidr.Contains(a->cidr));
  // Bad zone index fails.
  EXPECT_FALSE(net_.CreateSubnet(vpc, "s3", 20, 9, false).ok());
}

TEST_F(FabricTest, AttachInstanceAllocatesAddresses) {
  auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                             P("10.0.0.0/16"));
  auto subnet = *net_.CreateSubnet(vpc, "s1", 20, 0, false);
  auto sg = *net_.CreateSecurityGroup(vpc, "sg");
  auto inst = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);

  auto eni = net_.AttachInstance(inst, subnet, {sg}, /*public=*/true);
  ASSERT_TRUE(eni.ok());
  const Eni* record = net_.FindEniByInstance(inst);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(net_.FindSubnet(subnet)->cidr.Contains(record->private_ip));
  ASSERT_TRUE(record->public_ip.has_value());
  EXPECT_TRUE(tw_.world->provider(tw_.provider)
                  .address_space.Contains(*record->public_ip));
  EXPECT_EQ(net_.FindEniByIp(record->private_ip), record);
  EXPECT_EQ(net_.FindEniByIp(*record->public_ip), record);

  // Double attach fails; detach releases addresses.
  EXPECT_EQ(net_.AttachInstance(inst, subnet, {sg}, false).status().code(),
            StatusCode::kAlreadyExists);
  IpAddress old_private = record->private_ip;
  ASSERT_TRUE(net_.DetachInstance(inst).ok());
  EXPECT_EQ(net_.FindEniByInstance(inst), nullptr);
  EXPECT_EQ(net_.FindEniByIp(old_private), nullptr);
}

TEST_F(FabricTest, AttachRejectsCrossRegionSubnet) {
  auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                             P("10.0.0.0/16"));
  auto subnet = *net_.CreateSubnet(vpc, "s1", 20, 0, false);
  auto west_inst =
      *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.west, 0);
  EXPECT_EQ(
      net_.AttachInstance(west_inst, subnet, {}, false).status().code(),
      StatusCode::kInvalidArgument);
}

TEST_F(FabricTest, NatGatewayRequiresPublicSubnet) {
  auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                             P("10.0.0.0/16"));
  auto private_subnet = *net_.CreateSubnet(vpc, "priv", 20, 0, false);
  EXPECT_EQ(net_.CreateNatGateway(private_subnet, "nat").status().code(),
            StatusCode::kFailedPrecondition);
  auto public_subnet = *net_.CreateSubnet(vpc, "pub", 24, 0, true);
  EXPECT_TRUE(net_.CreateNatGateway(public_subnet, "nat").ok());
}

TEST_F(FabricTest, OneIgwPerVpc) {
  auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                             P("10.0.0.0/16"));
  ASSERT_TRUE(net_.CreateInternetGateway(vpc, "igw").ok());
  EXPECT_EQ(net_.CreateInternetGateway(vpc, "igw2").status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(FabricTest, PeeringRules) {
  auto v1 = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                            P("10.0.0.0/16"));
  auto v2 = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.west, "v2",
                            P("10.1.0.0/16"));
  auto peering = net_.CreatePeering(v1, v2, "p");
  ASSERT_TRUE(peering.ok());
  // Unaccepted peering drops traffic (verified in the delivery test); the
  // accept step is a distinct tenant action.
  ASSERT_TRUE(net_.AcceptPeering(*peering).ok());
  EXPECT_EQ(net_.AcceptPeering(PeeringId(99)).code(), StatusCode::kNotFound);
}

TEST_F(FabricTest, TgwRegionalityEnforced) {
  auto tgw = *net_.CreateTransitGateway(tw_.provider, tw_.east, 64600, "tgw");
  auto west_vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.west, "v",
                                  P("10.9.0.0/16"));
  EXPECT_EQ(net_.AttachVpcToTgw(tgw, west_vpc).status().code(),
            StatusCode::kFailedPrecondition);
  auto east_vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v2",
                                  P("10.8.0.0/16"));
  EXPECT_TRUE(net_.AttachVpcToTgw(tgw, east_vpc).ok());
  EXPECT_EQ(net_.FindTgw(tgw)->route_count(), 1u);
}

TEST_F(FabricTest, IntraVpcDeliveryWithSgAndAcl) {
  auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                             P("10.0.0.0/16"));
  auto subnet = *net_.CreateSubnet(vpc, "s1", 20, 0, false);
  auto sg = *net_.CreateSecurityGroup(vpc, "sg");
  SgRule egress;
  egress.direction = TrafficDirection::kEgress;
  egress.peer = IpPrefix::Any(IpFamily::kIpv4);
  ASSERT_TRUE(net_.AddSgRule(sg, egress).ok());
  SgRule ingress;
  ingress.direction = TrafficDirection::kIngress;
  ingress.proto = Protocol::kTcp;
  ingress.ports = PortRange::Single(9000);
  ingress.peer = P("10.0.0.0/16");
  ASSERT_TRUE(net_.AddSgRule(sg, ingress).ok());

  // ACL: allow everything both ways.
  auto acl = *net_.CreateNetworkAcl(vpc, "acl");
  for (TrafficDirection dir :
       {TrafficDirection::kIngress, TrafficDirection::kEgress}) {
    AclEntry entry;
    entry.rule_number = 100;
    entry.allow = true;
    entry.direction = dir;
    entry.match = FlowMatch::Any();
    ASSERT_TRUE(net_.AddAclEntry(acl, entry).ok());
  }
  ASSERT_TRUE(net_.AssociateAcl(subnet, acl).ok());

  auto a = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  auto b = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  ASSERT_TRUE(net_.AttachInstance(a, subnet, {sg}, false).ok());
  ASSERT_TRUE(net_.AttachInstance(b, subnet, {sg}, false).ok());

  auto good = net_.Evaluate(a, b, 9000, Protocol::kTcp);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->delivered) << good->drop_stage << ": "
                               << Explain(*good);
  EXPECT_EQ(good->gateway_hops, 0);  // local traffic crosses no boxes

  // A port the SG does not admit dies at sg-ingress.
  auto bad_port = net_.Evaluate(a, b, 9001, Protocol::kTcp);
  ASSERT_TRUE(bad_port.ok());
  EXPECT_FALSE(bad_port->delivered);
  EXPECT_EQ(bad_port->drop_stage, "sg-ingress");
}

TEST_F(FabricTest, SgToSgReferencesResolveThroughTheFabric) {
  // A rule permitting "members of group X" rather than a prefix: the
  // fabric must resolve membership through NIC attachments.
  auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                             P("10.0.0.0/16"));
  auto subnet = *net_.CreateSubnet(vpc, "s1", 20, 0, false);
  auto acl = *net_.CreateNetworkAcl(vpc, "acl");
  for (TrafficDirection dir :
       {TrafficDirection::kIngress, TrafficDirection::kEgress}) {
    AclEntry e;
    e.rule_number = 100;
    e.allow = true;
    e.direction = dir;
    e.match = FlowMatch::Any();
    ASSERT_TRUE(net_.AddAclEntry(acl, e).ok());
  }
  ASSERT_TRUE(net_.AssociateAcl(subnet, acl).ok());

  auto sg_clients = *net_.CreateSecurityGroup(vpc, "sg-clients");
  auto sg_servers = *net_.CreateSecurityGroup(vpc, "sg-servers");
  SgRule egress_all;
  egress_all.direction = TrafficDirection::kEgress;
  egress_all.peer = IpPrefix::Any(IpFamily::kIpv4);
  ASSERT_TRUE(net_.AddSgRule(sg_clients, egress_all).ok());
  ASSERT_TRUE(net_.AddSgRule(sg_servers, egress_all).ok());
  // Servers admit only holders of sg-clients.
  SgRule from_clients;
  from_clients.direction = TrafficDirection::kIngress;
  from_clients.proto = Protocol::kTcp;
  from_clients.ports = PortRange::Single(9000);
  from_clients.peer = sg_clients;
  ASSERT_TRUE(net_.AddSgRule(sg_servers, from_clients).ok());

  auto client = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider,
                                           tw_.east, 0);
  auto server = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider,
                                           tw_.east, 0);
  auto stranger = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider,
                                             tw_.east, 0);
  ASSERT_TRUE(net_.AttachInstance(client, subnet, {sg_clients}, false).ok());
  ASSERT_TRUE(net_.AttachInstance(server, subnet, {sg_servers}, false).ok());
  ASSERT_TRUE(
      net_.AttachInstance(stranger, subnet, {sg_servers}, false).ok());

  auto from_member = net_.Evaluate(client, server, 9000, Protocol::kTcp);
  ASSERT_TRUE(from_member.ok());
  EXPECT_TRUE(from_member->delivered)
      << from_member->drop_stage << ": " << Explain(*from_member);
  // The stranger holds sg-servers, not sg-clients: denied.
  auto from_stranger = net_.Evaluate(stranger, server, 9000, Protocol::kTcp);
  ASSERT_TRUE(from_stranger.ok());
  EXPECT_FALSE(from_stranger->delivered);
  EXPECT_EQ(from_stranger->drop_stage, "sg-ingress");
}

TEST_F(FabricTest, StatelessAclReturnTrap) {
  // Ingress-only ACL: forward direction passes, but the response is
  // blocked in the egress direction — delivery must fail at acl-return.
  auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                             P("10.0.0.0/16"));
  auto subnet = *net_.CreateSubnet(vpc, "s1", 20, 0, false);
  auto sg = *net_.CreateSecurityGroup(vpc, "sg");
  SgRule all_egress;
  all_egress.direction = TrafficDirection::kEgress;
  all_egress.peer = IpPrefix::Any(IpFamily::kIpv4);
  ASSERT_TRUE(net_.AddSgRule(sg, all_egress).ok());
  SgRule all_ingress;
  all_ingress.direction = TrafficDirection::kIngress;
  all_ingress.peer = IpPrefix::Any(IpFamily::kIpv4);
  ASSERT_TRUE(net_.AddSgRule(sg, all_ingress).ok());

  auto acl = *net_.CreateNetworkAcl(vpc, "in-only");
  AclEntry in_ok;
  in_ok.rule_number = 100;
  in_ok.allow = true;
  in_ok.direction = TrafficDirection::kIngress;
  in_ok.match = FlowMatch::Any();
  ASSERT_TRUE(net_.AddAclEntry(acl, in_ok).ok());
  AclEntry out_ok_but_narrow;
  out_ok_but_narrow.rule_number = 100;
  out_ok_but_narrow.allow = true;
  out_ok_but_narrow.direction = TrafficDirection::kEgress;
  out_ok_but_narrow.match = FlowMatch::Any();
  out_ok_but_narrow.match.dst_ports = PortRange::Single(443);  // not ephemeral
  ASSERT_TRUE(net_.AddAclEntry(acl, out_ok_but_narrow).ok());
  ASSERT_TRUE(net_.AssociateAcl(subnet, acl).ok());

  auto a = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  auto b = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  ASSERT_TRUE(net_.AttachInstance(a, subnet, {sg}, false).ok());
  ASSERT_TRUE(net_.AttachInstance(b, subnet, {sg}, false).ok());

  auto result = net_.Evaluate(a, b, 443, Protocol::kTcp);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->delivered);
  EXPECT_EQ(result->drop_stage, "acl-return");
}

TEST_F(FabricTest, MissingRouteDropsAtRouteStage) {
  auto v1 = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                            P("10.0.0.0/16"));
  auto v2 = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.west, "v2",
                            P("10.1.0.0/16"));
  auto s1 = *net_.CreateSubnet(v1, "s1", 20, 0, false);
  auto s2 = *net_.CreateSubnet(v2, "s2", 20, 0, false);
  auto sg1 = *net_.CreateSecurityGroup(v1, "sg1");
  auto sg2 = *net_.CreateSecurityGroup(v2, "sg2");
  SgRule all;
  all.direction = TrafficDirection::kEgress;
  all.peer = IpPrefix::Any(IpFamily::kIpv4);
  ASSERT_TRUE(net_.AddSgRule(sg1, all).ok());
  // Permissive ACLs.
  for (auto [vpc, subnet] : {std::pair{v1, s1}, std::pair{v2, s2}}) {
    auto acl = *net_.CreateNetworkAcl(vpc, "acl");
    for (TrafficDirection dir :
         {TrafficDirection::kIngress, TrafficDirection::kEgress}) {
      AclEntry e;
      e.rule_number = 100;
      e.allow = true;
      e.direction = dir;
      e.match = FlowMatch::Any();
      ASSERT_TRUE(net_.AddAclEntry(acl, e).ok());
    }
    ASSERT_TRUE(net_.AssociateAcl(subnet, acl).ok());
  }
  auto a = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  auto b = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.west, 0);
  ASSERT_TRUE(net_.AttachInstance(a, s1, {sg1}, false).ok());
  ASSERT_TRUE(net_.AttachInstance(b, s2, {sg2}, false).ok());

  // No peering, no TGW, no public IPs: the flow has nowhere to go.
  auto result = net_.Evaluate(a, b, 80, Protocol::kTcp);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->delivered);
  EXPECT_EQ(result->drop_stage, "route");
}

TEST_F(FabricTest, GatewayAndApplianceCounts) {
  auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                             P("10.0.0.0/16"));
  auto pub = *net_.CreateSubnet(vpc, "pub", 24, 0, true);
  ASSERT_TRUE(net_.CreateInternetGateway(vpc, "igw").ok());
  ASSERT_TRUE(net_.CreateNatGateway(pub, "nat").ok());
  ASSERT_TRUE(net_.CreateVpnGateway(vpc, tw_.on_prem, 64700, "vpg").ok());
  ASSERT_TRUE(
      net_.CreateTransitGateway(tw_.provider, tw_.east, 64701, "tgw").ok());
  EXPECT_EQ(net_.gateway_count(), 4u);
  ASSERT_TRUE(net_.CreateFirewall("fw", 1e6).ok());
  auto tg = *net_.CreateTargetGroup("tg", Protocol::kTcp, 80);
  (void)tg;
  ASSERT_TRUE(
      net_.CreateLoadBalancer(LbType::kClassic, "clb", vpc, {pub}).ok());
  EXPECT_EQ(net_.appliance_count(), 2u);
}

// --- Verdict generation ------------------------------------------------------
// Every verdict is a fresh walk; what these pin is that a change that can
// flip a verdict moves verdict_generation() (the baseline reach verifier
// keys its verified pairs on it) and a no-op leaves it alone.

class FabricCacheTest : public FabricTest {
 protected:
  void SetUp() override {
    vpc_ = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                           P("10.0.0.0/16"));
    subnet_ = *net_.CreateSubnet(vpc_, "s1", 20, 0, false);
    sg_ = *net_.CreateSecurityGroup(vpc_, "sg");
    SgRule egress;
    egress.direction = TrafficDirection::kEgress;
    egress.peer = IpPrefix::Any(IpFamily::kIpv4);
    ASSERT_TRUE(net_.AddSgRule(sg_, egress).ok());
    SgRule ingress;
    ingress.direction = TrafficDirection::kIngress;
    ingress.proto = Protocol::kTcp;
    ingress.ports = PortRange::Single(9000);
    ingress.peer = P("10.0.0.0/16");
    ASSERT_TRUE(net_.AddSgRule(sg_, ingress).ok());
    auto acl = *net_.CreateNetworkAcl(vpc_, "acl");
    for (TrafficDirection dir :
         {TrafficDirection::kIngress, TrafficDirection::kEgress}) {
      AclEntry entry;
      entry.rule_number = 100;
      entry.allow = true;
      entry.direction = dir;
      entry.match = FlowMatch::Any();
      ASSERT_TRUE(net_.AddAclEntry(acl, entry).ok());
    }
    ASSERT_TRUE(net_.AssociateAcl(subnet_, acl).ok());
    a_ = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
    b_ = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
    ASSERT_TRUE(net_.AttachInstance(a_, subnet_, {sg_}, false).ok());
    ASSERT_TRUE(net_.AttachInstance(b_, subnet_, {sg_}, false).ok());
  }

  VpcId vpc_;
  SubnetId subnet_;
  SecurityGroupId sg_;
  InstanceId a_, b_;
};

TEST_F(FabricCacheTest, SgMutationInvalidatesCachedVerdict) {
  auto denied = net_.Evaluate(a_, b_, 9001, Protocol::kTcp);
  ASSERT_TRUE(denied.ok());
  ASSERT_FALSE(denied->delivered);
  const uint64_t gen = net_.verdict_generation();
  SgRule open;
  open.direction = TrafficDirection::kIngress;
  open.proto = Protocol::kTcp;
  open.ports = PortRange::Single(9001);
  open.peer = P("10.0.0.0/16");
  ASSERT_TRUE(net_.AddSgRule(sg_, open).ok());
  EXPECT_GT(net_.verdict_generation(), gen);
  auto now_allowed = net_.Evaluate(a_, b_, 9001, Protocol::kTcp);
  ASSERT_TRUE(now_allowed.ok());
  EXPECT_TRUE(now_allowed->delivered);
}

TEST_F(FabricCacheTest, InstanceStateChangeInvalidatesCachedVerdict) {
  auto ok = net_.Evaluate(a_, b_, 9000, Protocol::kTcp);
  ASSERT_TRUE(ok.ok());
  ASSERT_TRUE(ok->delivered);
  const uint64_t gen = net_.verdict_generation();
  ASSERT_TRUE(tw_.world->SetInstanceRunning(b_, false).ok());
  EXPECT_GT(net_.verdict_generation(), gen);
  auto down = net_.Evaluate(a_, b_, 9000, Protocol::kTcp);
  EXPECT_FALSE(down.ok());
  ASSERT_TRUE(tw_.world->SetInstanceRunning(b_, true).ok());
  auto back = net_.Evaluate(a_, b_, 9000, Protocol::kTcp);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->delivered);
}

TEST_F(FabricCacheTest, NoOpPropagateRoutesKeepsCachedVerdicts) {
  auto first = net_.Evaluate(a_, b_, 9000, Protocol::kTcp);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->delivered);
  // Converging an already-converged mesh must not bump the BGP mutation
  // count, so the generation holds and pairs the reach verifier verified
  // before the call stay verified after it.
  const uint64_t gen = net_.verdict_generation();
  net_.PropagateRoutes();
  EXPECT_EQ(net_.verdict_generation(), gen);
  auto second = net_.Evaluate(a_, b_, 9000, Protocol::kTcp);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->delivered);
  EXPECT_EQ(*second, *first);
}

// --- The gateway budget ------------------------------------------------------
// Routing loops end when the walk spends its gateway budget; the verdict's
// trace then holds one hop per step taken (see kGatewayBudget).

TEST_F(FabricTest, NatLoopSpendsTheGatewayBudget) {
  auto v1 = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                            P("10.1.0.0/16"));
  auto v2 = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v2",
                            P("10.2.0.0/16"));
  auto src_subnet = *net_.CreateSubnet(v1, "priv", 20, 0, false);
  auto pub = *net_.CreateSubnet(v1, "pub", 24, 0, true);
  auto dst_subnet = *net_.CreateSubnet(v2, "s", 20, 0, false);
  auto nat = *net_.CreateNatGateway(pub, "nat");
  // Both v1 subnets use the main table, whose default route points at the
  // NAT; the NAT continues from its own subnet, so it loops to itself.
  ASSERT_TRUE(net_.AddRoute(net_.FindVpc(v1)->main_route_table,
                            P("0.0.0.0/0"),
                            {VpcRouteTargetKind::kNatGateway, nat.value()})
                  .ok());
  auto sg = *net_.CreateSecurityGroup(v1, "sg");
  SgRule out;
  out.direction = TrafficDirection::kEgress;
  out.peer = IpPrefix::Any(IpFamily::kIpv4);
  ASSERT_TRUE(net_.AddSgRule(sg, out).ok());
  auto acl = *net_.CreateNetworkAcl(v1, "acl");
  AclEntry egress;
  egress.rule_number = 100;
  egress.allow = true;
  egress.direction = TrafficDirection::kEgress;
  egress.match = FlowMatch::Any();
  ASSERT_TRUE(net_.AddAclEntry(acl, egress).ok());
  ASSERT_TRUE(net_.AssociateAcl(src_subnet, acl).ok());
  auto a = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  auto b = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  ASSERT_TRUE(net_.AttachInstance(a, src_subnet, {sg}, false).ok());
  ASSERT_TRUE(net_.AttachInstance(b, dst_subnet, {}, /*public=*/true).ok());

  auto d = net_.Evaluate(a, b, 443, Protocol::kTcp);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(d->drop_stage, "loop");
  EXPECT_EQ(Explain(*d), "gateway traversal budget exhausted");
  EXPECT_EQ(d->logical_hops.Names(),
            std::vector<std::string>(kGatewayBudget, "nat:nat"));
}

TEST_F(FabricTest, TgwPeeringLoopSpendsTheGatewayBudget) {
  auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                             P("10.1.0.0/16"));
  auto subnet = *net_.CreateSubnet(vpc, "s", 20, 0, false);
  auto far = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v2",
                             P("10.2.0.0/16"));
  auto far_subnet = *net_.CreateSubnet(far, "s", 20, 0, false);
  auto east = *net_.CreateTransitGateway(tw_.provider, tw_.east, 64601, "a");
  auto west = *net_.CreateTransitGateway(tw_.provider, tw_.west, 64602, "b");
  ASSERT_TRUE(net_.PeerTransitGateways(east, west).ok());
  // Each TGW's only attachment is the other: 10.2/16 bounces between them.
  ASSERT_TRUE(net_.AddTgwRoute(east, P("10.2.0.0/16"), 0).ok());
  ASSERT_TRUE(net_.AddTgwRoute(west, P("10.2.0.0/16"), 0).ok());
  ASSERT_TRUE(net_.AddRoute(net_.FindVpc(vpc)->main_route_table,
                            P("10.2.0.0/16"),
                            {VpcRouteTargetKind::kTransitGateway,
                             east.value()})
                  .ok());
  auto sg = *net_.CreateSecurityGroup(vpc, "sg");
  SgRule out;
  out.direction = TrafficDirection::kEgress;
  out.peer = IpPrefix::Any(IpFamily::kIpv4);
  ASSERT_TRUE(net_.AddSgRule(sg, out).ok());
  auto acl = *net_.CreateNetworkAcl(vpc, "acl");
  AclEntry egress;
  egress.rule_number = 100;
  egress.allow = true;
  egress.direction = TrafficDirection::kEgress;
  egress.match = FlowMatch::Any();
  ASSERT_TRUE(net_.AddAclEntry(acl, egress).ok());
  ASSERT_TRUE(net_.AssociateAcl(subnet, acl).ok());
  auto a = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  auto b = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  ASSERT_TRUE(net_.AttachInstance(a, subnet, {sg}, false).ok());
  ASSERT_TRUE(net_.AttachInstance(b, far_subnet, {}, false).ok());

  auto d = net_.Evaluate(a, b, 443, Protocol::kTcp);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(d->drop_stage, "loop");
  EXPECT_EQ(Explain(*d), "TGW hop budget exhausted");
  // The route-table step spends one unit; every TGW hop after it one more.
  std::vector<std::string> hops = d->logical_hops.Names();
  ASSERT_EQ(hops.size(), static_cast<size_t>(kGatewayBudget - 1));
  for (size_t i = 0; i < hops.size(); ++i) {
    EXPECT_EQ(hops[i], i % 2 == 0 ? "tgw:a" : "tgw:b");
  }
}

// --- VPN verdicts and late prefixes ---------------------------------------
// A VPN or circuit verdict asks the mesh for the covering prefix of the
// destination among every prefix a tenant object originates. Objects added
// after a verdict was evaluated must still be found.

class LatePrefixTest : public FabricTest {
 protected:
  // A VPC in `cidr` with one open instance, attached over a VPN to `site`
  // and routing `site_space` there.
  InstanceId AddVpnSpoke(const char* name, const char* cidr, OnPremId site,
                         const char* site_space, uint32_t asn) {
    auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, name,
                               P(cidr));
    auto subnet = *net_.CreateSubnet(vpc, "s", 20, 0, false);
    auto sg = *net_.CreateSecurityGroup(vpc, "sg");
    auto acl = *net_.CreateNetworkAcl(vpc, "acl");
    for (TrafficDirection dir :
         {TrafficDirection::kIngress, TrafficDirection::kEgress}) {
      SgRule rule;
      rule.direction = dir;
      rule.peer = IpPrefix::Any(IpFamily::kIpv4);
      EXPECT_TRUE(net_.AddSgRule(sg, rule).ok());
      AclEntry entry;
      entry.rule_number = 100;
      entry.allow = true;
      entry.direction = dir;
      entry.match = FlowMatch::Any();
      EXPECT_TRUE(net_.AddAclEntry(acl, entry).ok());
    }
    EXPECT_TRUE(net_.AssociateAcl(subnet, acl).ok());
    auto vpg = *net_.CreateVpnGateway(vpc, site, asn,
                                      std::string(name) + "-vpg");
    EXPECT_TRUE(net_.AddRoute(net_.FindVpc(vpc)->main_route_table,
                              P(site_space),
                              {VpcRouteTargetKind::kVpnGateway, vpg.value()})
                    .ok());
    InstanceId id =
        *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
    EXPECT_TRUE(net_.AttachInstance(id, subnet, {sg}, false).ok());
    return id;
  }
  InstanceId AddSiteHost(OnPremId site) {
    InstanceId id = *tw_.world->LaunchOnPremInstance(tw_.tenant, site);
    EXPECT_TRUE(net_.AttachOnPremInstance(id).ok());
    return id;
  }
  void ExpectDeliveredVia(InstanceId src, InstanceId dst, const char* vpn) {
    auto d = net_.Evaluate(src, dst, 443, Protocol::kTcp);
    ASSERT_TRUE(d.ok()) << d.status();
    EXPECT_TRUE(d->delivered) << d->drop_stage << ": " << Explain(*d);
    EXPECT_EQ(d->logical_hops.Names(), std::vector<std::string>{vpn});
  }
};

TEST_F(LatePrefixTest, VpcAddedAfterAVpnVerdictIsReachable) {
  // The test world's site "dc" owns 10.0.0.0/16.
  InstanceId first = AddVpnSpoke("v1", "10.1.0.0/16", tw_.on_prem,
                                 "10.0.0.0/16", 64701);
  InstanceId host = AddSiteHost(tw_.on_prem);
  net_.PropagateRoutes();
  ExpectDeliveredVia(host, first, "vpn:v1-vpg");

  InstanceId late = AddVpnSpoke("v2", "10.2.0.0/16", tw_.on_prem,
                                "10.0.0.0/16", 64702);
  net_.PropagateRoutes();
  ExpectDeliveredVia(host, late, "vpn:v2-vpg");
  ExpectDeliveredVia(late, host, "vpn:v2-vpg");
}

TEST_F(LatePrefixTest, SiteAddedAfterAVpnVerdictIsReachable) {
  InstanceId cloud = AddVpnSpoke("v1", "10.1.0.0/16", tw_.on_prem,
                                 "10.0.0.0/16", 64701);
  InstanceId host = AddSiteHost(tw_.on_prem);
  net_.PropagateRoutes();
  ExpectDeliveredVia(cloud, host, "vpn:v1-vpg");

  OnPremId branch = tw_.world->AddOnPrem("branch", {5, 5}, P("10.9.0.0/16"));
  InstanceId far = AddVpnSpoke("v3", "10.3.0.0/16", branch, "10.9.0.0/16",
                               64703);
  InstanceId branch_host = AddSiteHost(branch);
  net_.PropagateRoutes();
  ExpectDeliveredVia(far, branch_host, "vpn:v3-vpg");
  ExpectDeliveredVia(branch_host, far, "vpn:v3-vpg");
}

}  // namespace
}  // namespace tenantnet
