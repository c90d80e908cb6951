// Baseline edge cases around external traffic, NAT, peering acceptance,
// firewall capacity, and LB families not covered by the Fig. 1 suite.

#include <gtest/gtest.h>

#include "src/cloud/presets.h"
#include "src/vnet/fabric.h"

namespace tenantnet {
namespace {

IpPrefix P(const char* s) { return *IpPrefix::Parse(s); }

class FabricExternalTest : public ::testing::Test {
 protected:
  FabricExternalTest() : tw_(BuildTestWorld()), net_(*tw_.world, ledger_) {}

  TestWorld tw_;
  ConfigLedger ledger_;
  BaselineNetwork net_;
};

TEST_F(FabricExternalTest, InboundToNatPublicIpIsDropped) {
  auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v",
                             P("10.0.0.0/16"));
  auto pub = *net_.CreateSubnet(vpc, "pub", 24, 0, true);
  auto nat = *net_.CreateNatGateway(pub, "nat");
  // Find the NAT's public address by probing the fabric's state: it is not
  // an ENI, so internet delivery toward it must fail.
  // (The NAT allocated the first address of the provider pool.)
  IpAddress nat_ip = tw_.world->provider(tw_.provider).address_space.base();
  (void)nat;
  auto result = net_.EvaluateExternal(IpAddress::V4(198, 18, 0, 1), nat_ip,
                                      443, Protocol::kTcp);
  EXPECT_FALSE(result.delivered);
  EXPECT_EQ(result.drop_stage, "internet");
}

TEST_F(FabricExternalTest, UnknownDestinationDropsCleanly) {
  auto result = net_.EvaluateExternal(IpAddress::V4(198, 18, 0, 1),
                                      IpAddress::V4(5, 0, 0, 77), 443,
                                      Protocol::kTcp);
  EXPECT_FALSE(result.delivered);
  EXPECT_EQ(result.drop_stage, "internet");
}

TEST_F(FabricExternalTest, OnPremAddressesUnreachableFromInternet) {
  auto inst = *tw_.world->LaunchOnPremInstance(tw_.tenant, tw_.on_prem);
  auto addr = *net_.AttachOnPremInstance(inst);
  auto result = net_.EvaluateExternal(IpAddress::V4(198, 18, 0, 1), addr,
                                      443, Protocol::kTcp);
  EXPECT_FALSE(result.delivered);
}

TEST_F(FabricExternalTest, UnacceptedPeeringDropsTraffic) {
  auto v1 = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                            P("10.0.0.0/16"));
  auto v2 = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v2",
                            P("10.1.0.0/16"));
  auto s1 = *net_.CreateSubnet(v1, "s1", 20, 0, false);
  auto s2 = *net_.CreateSubnet(v2, "s2", 20, 0, false);
  auto peering = *net_.CreatePeering(v1, v2, "pending");

  // Full route/SG/ACL setup... except AcceptPeering.
  for (auto [vpc, subnet, peer_cidr] :
       {std::tuple{v1, s1, "10.1.0.0/16"}, std::tuple{v2, s2, "10.0.0.0/16"}}) {
    auto rt = *net_.CreateRouteTable(vpc, "rt");
    ASSERT_TRUE(net_.AssociateRouteTable(subnet, rt).ok());
    ASSERT_TRUE(net_.AddRoute(rt, P(peer_cidr),
                              VpcRouteTarget{VpcRouteTargetKind::kPeering,
                                             peering.value()})
                    .ok());
    auto sg = *net_.CreateSecurityGroup(vpc, "sg");
    SgRule all_in;
    all_in.direction = TrafficDirection::kIngress;
    all_in.peer = IpPrefix::Any(IpFamily::kIpv4);
    ASSERT_TRUE(net_.AddSgRule(sg, all_in).ok());
    SgRule all_out = all_in;
    all_out.direction = TrafficDirection::kEgress;
    ASSERT_TRUE(net_.AddSgRule(sg, all_out).ok());
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
    auto inst = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider,
                                           tw_.east, 0);
    ASSERT_TRUE(net_.AttachInstance(inst, subnet, {sg}, false).ok());
  }

  auto instances = tw_.world->TenantInstances(tw_.tenant);
  auto result = net_.Evaluate(instances[0], instances[1], 80, Protocol::kTcp);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->delivered);
  EXPECT_EQ(result->drop_stage, "peering");
  // One accept call later, the same flow works — the forgotten-handshake
  // failure mode, reproduced.
  ASSERT_TRUE(net_.AcceptPeering(peering).ok());
  result = net_.Evaluate(instances[0], instances[1], 80, Protocol::kTcp);
  EXPECT_TRUE(result->delivered)
      << result->drop_stage << ": " << Explain(*result);
}

TEST_F(FabricExternalTest, TgwWithoutRouteDropsAtTgwStage) {
  auto v1 = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v1",
                            P("10.0.0.0/16"));
  auto s1 = *net_.CreateSubnet(v1, "s1", 20, 0, false);
  auto tgw = *net_.CreateTransitGateway(tw_.provider, tw_.east, 64601, "tgw");
  ASSERT_TRUE(net_.AttachVpcToTgw(tgw, v1).ok());
  auto rt = *net_.CreateRouteTable(v1, "rt");
  ASSERT_TRUE(net_.AssociateRouteTable(s1, rt).ok());
  ASSERT_TRUE(net_.AddRoute(rt, P("10.0.0.0/8"),
                            VpcRouteTarget{
                                VpcRouteTargetKind::kTransitGateway,
                                tgw.value()})
                  .ok());
  auto sg = *net_.CreateSecurityGroup(v1, "sg");
  SgRule all_out;
  all_out.direction = TrafficDirection::kEgress;
  all_out.peer = IpPrefix::Any(IpFamily::kIpv4);
  ASSERT_TRUE(net_.AddSgRule(sg, all_out).ok());
  auto acl = *net_.CreateNetworkAcl(v1, "acl");
  AclEntry out_ok;
  out_ok.rule_number = 100;
  out_ok.allow = true;
  out_ok.direction = TrafficDirection::kEgress;
  out_ok.match = FlowMatch::Any();
  ASSERT_TRUE(net_.AddAclEntry(acl, out_ok).ok());
  ASSERT_TRUE(net_.AssociateAcl(s1, acl).ok());
  auto a = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  ASSERT_TRUE(net_.AttachInstance(a, s1, {sg}, false).ok());

  // Destination is a second VPC that exists but is NOT attached to the TGW
  // — traffic enters the TGW and dies there.
  auto v2 = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v2",
                            P("10.7.0.0/16"));
  auto s2 = *net_.CreateSubnet(v2, "s2", 20, 0, false);
  auto b = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  ASSERT_TRUE(net_.AttachInstance(b, s2, {sg}, false).ok());

  auto result = net_.Evaluate(a, b, 80, Protocol::kTcp);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->delivered);
  EXPECT_EQ(result->drop_stage, "tgw-route");
}

TEST_F(FabricExternalTest, OnPremFallsBackToPublicPathWithoutVpn) {
  // No VPN, no circuits: an on-prem host can still reach a *public* cloud
  // endpoint over the internet (and only that way). The VPC block must not
  // collide with the on-prem space (10.0.0.0/16 in the test world) or the
  // return-route lookup classifies the source as VPC-local.
  auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v",
                             P("10.50.0.0/16"));
  auto subnet = *net_.CreateSubnet(vpc, "s", 20, 0, true);
  auto rt = *net_.CreateRouteTable(vpc, "rt");
  ASSERT_TRUE(net_.AssociateRouteTable(subnet, rt).ok());
  auto igw = *net_.CreateInternetGateway(vpc, "igw");
  ASSERT_TRUE(net_.AddRoute(rt, IpPrefix::Any(IpFamily::kIpv4),
                            VpcRouteTarget{
                                VpcRouteTargetKind::kInternetGateway,
                                igw.value()})
                  .ok());
  auto sg = *net_.CreateSecurityGroup(vpc, "sg");
  SgRule ingress;
  ingress.direction = TrafficDirection::kIngress;
  ingress.proto = Protocol::kTcp;
  ingress.ports = PortRange::Single(443);
  ingress.peer = IpPrefix::Any(IpFamily::kIpv4);
  ASSERT_TRUE(net_.AddSgRule(sg, ingress).ok());
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
  auto cloud_inst =
      *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  ASSERT_TRUE(
      net_.AttachInstance(cloud_inst, subnet, {sg}, /*public=*/true).ok());

  auto onprem_inst = *tw_.world->LaunchOnPremInstance(tw_.tenant, tw_.on_prem);
  ASSERT_TRUE(net_.AttachOnPremInstance(onprem_inst).ok());

  auto result = net_.Evaluate(onprem_inst, cloud_inst, 443, Protocol::kTcp);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->delivered)
      << result->drop_stage << ": " << Explain(*result);
  EXPECT_TRUE(result->used_public_path);
  EXPECT_EQ(result->egress_policy, EgressPolicy::kHotPotato);
  // The dialed address was the instance's public one.
  const Eni* eni = net_.FindEniByInstance(cloud_inst);
  EXPECT_EQ(result->effective_dst, *eni->public_ip);
}

TEST_F(FabricExternalTest, LbFamiliesResolveThroughFabric) {
  auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v",
                             P("10.0.0.0/16"));
  auto subnet = *net_.CreateSubnet(vpc, "s", 20, 0, false);
  auto inst = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  auto tg = *net_.CreateTargetGroup("tg", Protocol::kTcp, 80);
  ASSERT_TRUE(net_.RegisterTarget(tg, inst).ok());
  FiveTuple flow;
  flow.src = IpAddress::V4(1, 1, 1, 1);
  flow.dst = IpAddress::V4(2, 2, 2, 2);
  flow.dst_port = 80;
  flow.proto = Protocol::kTcp;
  for (LbType type : {LbType::kClassic, LbType::kGateway, LbType::kNetwork}) {
    auto lb = *net_.CreateLoadBalancer(type, "lb", vpc, {subnet});
    LbListener listener;
    listener.proto = Protocol::kTcp;
    listener.port = 80;
    listener.default_target = tg;
    ASSERT_TRUE(net_.AddLbListener(lb, listener).ok());
    auto target = net_.ResolveThroughLoadBalancer(lb, flow, nullptr);
    ASSERT_TRUE(target.ok()) << LbTypeName(type);
    EXPECT_EQ(*target, inst);
  }
  // Resolution through a dangling target group is an error, not a crash.
  auto lb = *net_.CreateLoadBalancer(LbType::kNetwork, "lb-dangling", vpc,
                                     {subnet});
  LbListener bad;
  bad.proto = Protocol::kTcp;
  bad.port = 80;
  bad.default_target = TargetGroupId(9999);
  ASSERT_TRUE(net_.AddLbListener(lb, bad).ok());
  EXPECT_EQ(net_.ResolveThroughLoadBalancer(lb, flow, nullptr)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(FabricExternalTest, FirewallSurvivalFractionModel) {
  auto fw_id = *net_.CreateFirewall("fw", /*capacity_pps=*/1000);
  DpiFirewall* fw = net_.FindFirewall(fw_id);
  EXPECT_DOUBLE_EQ(fw->SurvivalFraction(500), 1.0);
  EXPECT_DOUBLE_EQ(fw->SurvivalFraction(1000), 1.0);
  EXPECT_DOUBLE_EQ(fw->SurvivalFraction(4000), 0.25);
  EXPECT_DOUBLE_EQ(fw->SurvivalFraction(0), 1.0);
}

TEST_F(FabricExternalTest, FirewallDefaultVerdictConfigurable) {
  auto fw_id = *net_.CreateFirewall("fw", 1e6);
  DpiFirewall* fw = net_.FindFirewall(fw_id);
  FiveTuple flow;
  flow.src = IpAddress::V4(1, 1, 1, 1);
  flow.dst = IpAddress::V4(2, 2, 2, 2);
  flow.dst_port = 443;
  flow.proto = Protocol::kTcp;
  EXPECT_EQ(fw->Judge(flow, ""), FirewallVerdict::kDeny);  // default-deny
  fw->set_default_verdict(FirewallVerdict::kAllow);
  EXPECT_EQ(fw->Judge(flow, ""), FirewallVerdict::kAllow);
  EXPECT_EQ(fw->inspected_count(), 0u);  // judging alone counts nothing
  fw->Count(FirewallVerdict::kDeny);
  fw->Count(FirewallVerdict::kAllow);
  EXPECT_EQ(fw->inspected_count(), 2u);
  EXPECT_EQ(fw->denied_count(), 1u);
}

}  // namespace
}  // namespace tenantnet
