// Explain(): a denial's reason, rendered on request from the verdict's
// template, address and interned name. One case per template shape, in
// both worlds; the expected strings are the texts the data planes reported
// when they still built reasons eagerly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/vnet/fabric.h"

namespace tenantnet {
namespace {

IpPrefix P(const char* s) { return *IpPrefix::Parse(s); }

class BaselineExplainTest : public ::testing::Test {
 protected:
  BaselineExplainTest() : tw_(BuildTestWorld()), net_(*tw_.world, ledger_) {}

  // A VPC with one subnet whose ACL admits `ingress`/`egress` traffic (all
  // of it when true) and whose SG allows all egress and TCP `port` in.
  struct Spoke {
    VpcId vpc;
    SubnetId subnet;
    SecurityGroupId sg;
  };
  Spoke AddSpoke(const char* name, const char* cidr, bool ingress = true,
                 bool egress = true, uint16_t port = 9000) {
    Spoke s;
    s.vpc = *net_.CreateVpc(tw_.tenant, tw_.provider, tw_.east, name, P(cidr));
    s.subnet = *net_.CreateSubnet(s.vpc, "s", 20, 0, false);
    s.sg = *net_.CreateSecurityGroup(s.vpc, "sg");
    SgRule out;
    out.direction = TrafficDirection::kEgress;
    out.peer = IpPrefix::Any(IpFamily::kIpv4);
    EXPECT_TRUE(net_.AddSgRule(s.sg, out).ok());
    SgRule in;
    in.direction = TrafficDirection::kIngress;
    in.proto = Protocol::kTcp;
    in.ports = PortRange::Single(port);
    in.peer = IpPrefix::Any(IpFamily::kIpv4);
    EXPECT_TRUE(net_.AddSgRule(s.sg, in).ok());
    auto acl = *net_.CreateNetworkAcl(s.vpc, std::string(name) + "-acl");
    for (auto [dir, allowed] : {std::pair{TrafficDirection::kIngress, ingress},
                                std::pair{TrafficDirection::kEgress, egress}}) {
      if (allowed) {
        AclEntry e;
        e.rule_number = 100;
        e.allow = true;
        e.direction = dir;
        e.match = FlowMatch::Any();
        EXPECT_TRUE(net_.AddAclEntry(acl, e).ok());
      }
    }
    EXPECT_TRUE(net_.AssociateAcl(s.subnet, acl).ok());
    return s;
  }
  InstanceId Attach(const Spoke& s, bool public_ip = false) {
    InstanceId id =
        *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
    EXPECT_TRUE(net_.AttachInstance(id, s.subnet, {s.sg}, public_ip).ok());
    return id;
  }
  BaselineDelivery Eval(InstanceId a, InstanceId b, uint16_t port = 9000) {
    auto d = net_.Evaluate(a, b, port, Protocol::kTcp);
    EXPECT_TRUE(d.ok()) << d.status();
    return d.ok() ? *d : BaselineDelivery{};
  }

  TestWorld tw_;
  ConfigLedger ledger_;
  BaselineNetwork net_;
};

TEST_F(BaselineExplainTest, DeliveredFlowHasNoReason) {
  Spoke s = AddSpoke("v1", "10.1.0.0/16");
  BaselineDelivery d = Eval(Attach(s), Attach(s));
  ASSERT_TRUE(d.delivered);
  EXPECT_EQ(Explain(d), "");
}

TEST_F(BaselineExplainTest, ConstantTemplate) {
  Spoke s = AddSpoke("v1", "10.1.0.0/16");
  BaselineDelivery d = Eval(Attach(s), Attach(s), 9001);
  EXPECT_EQ(d.drop_stage, "sg-ingress");
  EXPECT_EQ(Explain(d), "no security group admits the flow");
}

TEST_F(BaselineExplainTest, NameTemplate) {
  Spoke s = AddSpoke("v1", "10.1.0.0/16", /*ingress=*/false);
  BaselineDelivery d = Eval(Attach(s), Attach(s));
  EXPECT_EQ(d.drop_stage, "acl-ingress");
  EXPECT_EQ(Explain(d), "denied by v1-acl");
}

TEST_F(BaselineExplainTest, NameWithSuffixTemplate) {
  Spoke src = AddSpoke("v1", "10.1.0.0/16");
  Spoke dst = AddSpoke("v2", "10.2.0.0/16", true, /*egress=*/false);
  auto tgw = *net_.CreateTransitGateway(tw_.provider, tw_.east, 64600, "hub");
  ASSERT_TRUE(net_.AttachVpcToTgw(tgw, src.vpc).ok());
  ASSERT_TRUE(net_.AttachVpcToTgw(tgw, dst.vpc).ok());
  for (auto [spoke, far] : {std::pair{src, "10.2.0.0/16"},
                            std::pair{dst, "10.1.0.0/16"}}) {
    const Vpc* vpc = net_.FindVpc(spoke.vpc);
    ASSERT_TRUE(net_.AddRoute(vpc->main_route_table, P(far),
                              {VpcRouteTargetKind::kTransitGateway,
                               tgw.value()})
                    .ok());
  }
  BaselineDelivery d = Eval(Attach(src), Attach(dst));
  EXPECT_EQ(d.drop_stage, "acl-return");
  EXPECT_EQ(Explain(d),
            "response blocked by stateless v2-acl (egress direction)");
  EXPECT_EQ(d.logical_hops.Names(), std::vector<std::string>{"tgw:hub"});
}

TEST_F(BaselineExplainTest, AddressTemplate) {
  BaselineDelivery d = net_.EvaluateExternal(
      IpAddress::V4(198, 18, 0, 7), IpAddress::V4(203, 0, 113, 9), 443,
      Protocol::kTcp);
  EXPECT_EQ(d.drop_stage, "internet");
  EXPECT_EQ(Explain(d), "no tenant endpoint holds 203.0.113.9");
}

TEST_F(BaselineExplainTest, AddressThenNameTemplate) {
  Spoke src = AddSpoke("v1", "10.1.0.0/16");
  Spoke dst = AddSpoke("v2", "10.2.0.0/16");
  InstanceId b = Attach(dst, /*public_ip=*/true);
  BaselineDelivery d = Eval(Attach(src), b);
  EXPECT_EQ(d.drop_stage, "route");
  EXPECT_EQ(Explain(d), "no route to 5.0.0.0 in v1:main-rt");
}

TEST_F(BaselineExplainTest, NameThenAddressTemplate) {
  Spoke src = AddSpoke("v1", "10.1.0.0/16");
  Spoke dst = AddSpoke("v2", "10.2.0.0/16");
  auto tgw = *net_.CreateTransitGateway(tw_.provider, tw_.east, 64600, "hub");
  ASSERT_TRUE(net_.AttachVpcToTgw(tgw, src.vpc).ok());  // v2 never attached
  ASSERT_TRUE(net_.AddRoute(net_.FindVpc(src.vpc)->main_route_table,
                            P("10.2.0.0/16"),
                            {VpcRouteTargetKind::kTransitGateway, tgw.value()})
                  .ok());
  BaselineDelivery d = Eval(Attach(src), Attach(dst));
  EXPECT_EQ(d.drop_stage, "tgw-route");
  EXPECT_EQ(Explain(d), "hub has no route to 10.2.0.0");
}

class DeclarativeExplainTest : public ::testing::Test {
 protected:
  DeclarativeExplainTest()
      : tw_(BuildTestWorld()), cloud_(*tw_.world, ledger_) {}

  InstanceId Launch() {
    return *tw_.world->LaunchInstance(tw_.tenant, tw_.provider, tw_.east, 0);
  }

  TestWorld tw_;
  ConfigLedger ledger_;
  DeclarativeCloud cloud_;
};

TEST_F(DeclarativeExplainTest, EdgeFilterNamesBothAddresses) {
  InstanceId a = Launch();
  IpAddress eip_a = *cloud_.RequestEip(a);
  IpAddress eip_b = *cloud_.RequestEip(Launch());
  auto d = cloud_.Evaluate(a, eip_b, 443, Protocol::kTcp);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->drop_stage, "edge-filter");
  ASSERT_EQ(eip_a, IpAddress::V4(5, 0, 0, 0));
  ASSERT_EQ(eip_b, IpAddress::V4(5, 0, 0, 1));
  EXPECT_EQ(Explain(*d),
            "default-off: 5.0.0.0 is not on the permit list of 5.0.0.1");
}

TEST_F(DeclarativeExplainTest, ExternalEdgeFilterNamesTheEdge) {
  IpAddress eip = *cloud_.RequestEip(Launch());
  DeclarativeDelivery d = cloud_.EvaluateExternal(
      IpAddress::V4(198, 18, 0, 7), eip, 443, Protocol::kTcp);
  EXPECT_EQ(d.drop_stage, "edge-filter");
  EXPECT_EQ(Explain(d), "default-off at cloud:east");
}

TEST_F(DeclarativeExplainTest, UnknownEndpointAndDownEndpoint) {
  InstanceId a = Launch();
  (void)*cloud_.RequestEip(a);
  auto unknown = cloud_.Evaluate(a, IpAddress::V4(203, 0, 113, 9), 443,
                                 Protocol::kTcp);
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->drop_stage, "no-such-endpoint");
  EXPECT_EQ(Explain(*unknown), "no endpoint holds 203.0.113.9");

  InstanceId b = Launch();
  IpAddress eip_b = *cloud_.RequestEip(b);
  ASSERT_TRUE(tw_.world->SetInstanceRunning(b, false).ok());
  auto down = cloud_.Evaluate(a, eip_b, 443, Protocol::kTcp);
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(down->drop_stage, "instance-down");
  EXPECT_EQ(Explain(*down), "endpoint 5.0.0.1 is not running");
}

TEST_F(DeclarativeExplainTest, SipTexts) {
  InstanceId a = Launch();
  (void)*cloud_.RequestEip(a);
  IpAddress unbound = *cloud_.RequestSip(tw_.tenant, tw_.provider);
  auto empty = cloud_.Evaluate(a, unbound, 443, Protocol::kTcp);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->drop_stage, "sip");
  EXPECT_EQ(Explain(*empty), "SIP 5.128.0.0 has no healthy backends");

  // A SIP requested while the balancer restarts reaches the balancer only
  // at replay; until then it resolves to nothing.
  cloud_.sip_lb().BeginRestart();
  IpAddress late = *cloud_.RequestSip(tw_.tenant, tw_.provider);
  auto missing = cloud_.Evaluate(a, late, 443, Protocol::kTcp);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->drop_stage, "sip");
  EXPECT_EQ(Explain(*missing), "no such SIP: 5.128.0.1");
  EXPECT_EQ(cloud_.sip_lb().Resolve(late).status().message(),
            "no such SIP: 5.128.0.1");
}

}  // namespace
}  // namespace tenantnet
