// Allocation guard: a verdict in either world costs no heap allocation,
// delivered or denied, from the very first one on (no lazily built
// per-bank or per-fabric verdict table). This binary replaces the global
// operator new/delete with counting versions; only allocations inside a
// counting window are tallied.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/core/edge_filter.h"
#include "src/vnet/builder.h"
#include "src/vnet/fabric.h"

namespace {
bool g_counting = false;
uint64_t g_allocations = 0;
}  // namespace

// GCC takes free() of operator new's memory for a mismatch; here the two
// are one pair by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpragmas"
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_counting) {
    ++g_allocations;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
#pragma GCC diagnostic pop

namespace tenantnet {
namespace {

// Heap allocations made while `fn` runs.
template <typename Fn>
uint64_t AllocationsIn(Fn&& fn) {
  g_allocations = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations;
}

bool HasHop(const std::vector<std::string>& hops, const std::string& prefix) {
  for (const std::string& hop : hops) {
    if (hop.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

TEST(VerdictAllocationTest, CountingOperatorNewIsInstalled) {
  std::string kept;
  EXPECT_EQ(AllocationsIn([&] { kept.assign(100, 'x'); }), 1u);
}

// Fig. 1's baseline fabric: TGW, circuit and firewall paths, an SG denial
// and an internet source.
TEST(VerdictAllocationTest, BaselineVerdictsAllocateNothing) {
  Fig1World fig = BuildFig1World();
  ConfigLedger ledger;
  BaselineNetwork net(*fig.world, ledger);
  ASSERT_TRUE(BuildFig1Baseline(net, fig).ok());
  struct Flow {
    InstanceId src;
    InstanceId dst;
    uint16_t port;
  };
  const std::vector<Flow> flows = {
      {fig.web_eu[0], fig.spark[0], Fig1Baseline::kSparkPort},   // TGWs
      {fig.spark[0], fig.database[0], Fig1Baseline::kDbPort},    // circuits
      {fig.spark[0], fig.alerting[0], Fig1Baseline::kAlertPort}, // on-prem
      {fig.web_us[0], fig.spark[0], Fig1Baseline::kSparkPort},   // peering
      {fig.web_eu[0], fig.database[0], Fig1Baseline::kDbPort},   // sg-ingress
  };
  const IpAddress web_public =
      *net.FindEniByInstance(fig.web_eu[0])->public_ip;
  const IpAddress internet = IpAddress::V4(198, 18, 0, 7);

  // Checks what each flow covers.
  std::vector<std::vector<std::string>> hops;
  for (const Flow& f : flows) {
    auto d = net.Evaluate(f.src, f.dst, f.port, Protocol::kTcp);
    ASSERT_TRUE(d.ok()) << d.status();
    hops.push_back(d->logical_hops.Names());
  }
  EXPECT_TRUE(HasHop(hops[0], "tgw:"));
  EXPECT_TRUE(HasHop(hops[1], "direct-connect:"));
  EXPECT_TRUE(HasHop(hops[2], "exchange:"));
  EXPECT_TRUE(HasHop(hops[3], "peering:"));
  EXPECT_EQ(net.Evaluate(flows[4].src, flows[4].dst, flows[4].port,
                         Protocol::kTcp)
                ->drop_stage,
            "sg-ingress");
  BaselineDelivery external =
      net.EvaluateExternal(internet, web_public, Fig1Baseline::kWebPort,
                           Protocol::kTcp);
  ASSERT_TRUE(external.delivered) << Explain(external);
  EXPECT_TRUE(HasHop(external.logical_hops.Names(), "firewall:"));

  for (const Flow& f : flows) {
    EXPECT_EQ(AllocationsIn([&] {
                for (int i = 0; i < 3; ++i) {
                  (void)net.Evaluate(f.src, f.dst, f.port, Protocol::kTcp);
                }
              }),
              0u)
        << "flow to port " << f.port;
  }
  EXPECT_EQ(AllocationsIn([&] {
              (void)net.EvaluateExternal(internet, web_public,
                                         Fig1Baseline::kWebPort,
                                         Protocol::kTcp);
              (void)net.EvaluateExternal(internet, IpAddress::V4(203, 0, 113, 9),
                                         443, Protocol::kTcp);
            }),
            0u);
}

// A VPN-attached VPC and its on-prem site, both directions.
TEST(VerdictAllocationTest, VpnVerdictsAllocateNothing) {
  TestWorld tw = BuildTestWorld();  // the site "dc" owns 10.0.0.0/16
  ConfigLedger ledger;
  BaselineNetwork net(*tw.world, ledger);
  auto vpc = *net.CreateVpc(tw.tenant, tw.provider, tw.east, "v1",
                            *IpPrefix::Parse("10.1.0.0/16"));
  auto subnet = *net.CreateSubnet(vpc, "s", 20, 0, false);
  auto sg = *net.CreateSecurityGroup(vpc, "sg");
  for (TrafficDirection dir :
       {TrafficDirection::kIngress, TrafficDirection::kEgress}) {
    SgRule rule;
    rule.direction = dir;
    rule.peer = IpPrefix::Any(IpFamily::kIpv4);
    ASSERT_TRUE(net.AddSgRule(sg, rule).ok());
  }
  auto acl = *net.CreateNetworkAcl(vpc, "acl");
  for (TrafficDirection dir :
       {TrafficDirection::kIngress, TrafficDirection::kEgress}) {
    AclEntry entry;
    entry.rule_number = 100;
    entry.allow = true;
    entry.direction = dir;
    entry.match = FlowMatch::Any();
    ASSERT_TRUE(net.AddAclEntry(acl, entry).ok());
  }
  ASSERT_TRUE(net.AssociateAcl(subnet, acl).ok());
  auto vpg = *net.CreateVpnGateway(vpc, tw.on_prem, 64700, "vpg");
  ASSERT_TRUE(net.AddRoute(net.FindVpc(vpc)->main_route_table,
                           *IpPrefix::Parse("10.0.0.0/16"),
                           {VpcRouteTargetKind::kVpnGateway, vpg.value()})
                  .ok());
  net.PropagateRoutes();
  InstanceId cloud =
      *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
  ASSERT_TRUE(net.AttachInstance(cloud, subnet, {sg}, false).ok());
  InstanceId site = *tw.world->LaunchOnPremInstance(tw.tenant, tw.on_prem);
  ASSERT_TRUE(net.AttachOnPremInstance(site).ok());

  for (auto [src, dst] : {std::pair{cloud, site}, std::pair{site, cloud}}) {
    auto d = net.Evaluate(src, dst, 443, Protocol::kTcp);
    ASSERT_TRUE(d.ok()) << d.status();
    ASSERT_TRUE(d->delivered) << d->drop_stage << ": " << Explain(*d);
    EXPECT_EQ(d->logical_hops.Names(), std::vector<std::string>{"vpn:vpg"});
    EXPECT_EQ(AllocationsIn([&] {
                for (int i = 0; i < 3; ++i) {
                  (void)net.Evaluate(src, dst, 443, Protocol::kTcp);
                }
              }),
              0u);
  }
}

// Fig. 1's instances on the Table-2 API: delivered and edge-filtered
// flows, a SIP with backends and one without, and an internet source.
TEST(VerdictAllocationTest, DeclarativeVerdictsAllocateNothing) {
  Fig1World fig = BuildFig1World();
  ConfigLedger ledger;
  DeclarativeCloud cloud(*fig.world, ledger);
  const IpAddress spark = *cloud.RequestEip(fig.spark[0]);
  const IpAddress db = *cloud.RequestEip(fig.database[0]);
  const IpAddress alerting = *cloud.RequestEip(fig.alerting[0]);
  PermitEntry from_spark;
  from_spark.source = IpPrefix::Host(spark);
  ASSERT_TRUE(cloud.SetPermitList(db, {from_spark}).ok());
  ASSERT_TRUE(cloud.SetPermitList(alerting, {from_spark}).ok());
  const IpAddress sip = *cloud.RequestSip(fig.tenant, fig.cloud_b);
  ASSERT_TRUE(cloud.Bind(db, sip).ok());
  const IpAddress empty_sip = *cloud.RequestSip(fig.tenant, fig.cloud_b);

  struct Flow {
    IpAddress dst;
    const char* stage;  // "" when delivered
  };
  const std::vector<Flow> flows = {
      {db, ""}, {alerting, ""}, {sip, ""}, {spark, "edge-filter"},
      {empty_sip, "sip"}};
  for (const Flow& f : flows) {
    auto d = cloud.Evaluate(fig.spark[0], f.dst, 443, Protocol::kTcp);
    ASSERT_TRUE(d.ok()) << d.status();
    EXPECT_EQ(d->drop_stage, f.stage) << Explain(*d);
    EXPECT_EQ(AllocationsIn([&] {
                for (int i = 0; i < 3; ++i) {
                  (void)cloud.Evaluate(fig.spark[0], f.dst, 443,
                                       Protocol::kTcp);
                }
              }),
              0u)
        << "flow to " << f.dst;
  }
  const IpAddress internet = IpAddress::V4(198, 18, 0, 7);
  EXPECT_EQ(cloud.EvaluateExternal(internet, db, 443, Protocol::kTcp)
                .drop_stage,
            "edge-filter");
  EXPECT_EQ(AllocationsIn([&] {
              (void)cloud.EvaluateExternal(internet, db, 443, Protocol::kTcp);
              (void)cloud.EvaluateExternal(internet, sip, 443,
                                           Protocol::kTcp);
            }),
            0u);
}

// A reach query runs the same walk, and from a fresh cloud's very first
// one on allocates nothing either: delivered, edge-filtered, and toward a
// stopped endpoint.
TEST(VerdictAllocationTest, DeclarativeQueriesAllocateNothing) {
  Fig1World fig = BuildFig1World();
  ConfigLedger ledger;
  DeclarativeCloud cloud(*fig.world, ledger);
  const IpAddress spark = *cloud.RequestEip(fig.spark[0]);
  const IpAddress db = *cloud.RequestEip(fig.database[0]);
  const IpAddress alerting = *cloud.RequestEip(fig.alerting[0]);
  PermitEntry from_spark;
  from_spark.source = IpPrefix::Host(spark);
  ASSERT_TRUE(cloud.SetPermitList(db, {from_spark}).ok());
  ASSERT_TRUE(fig.world->SetInstanceRunning(fig.alerting[0], false).ok());
  std::vector<Result<DeclarativeDelivery>> d(3, NotFoundError("no query"));
  EXPECT_EQ(AllocationsIn([&] {
              d[0] = cloud.Query(fig.spark[0], db, 443, Protocol::kTcp);
              d[1] = cloud.Query(fig.spark[0], spark, 443, Protocol::kTcp);
              d[2] = cloud.Query(fig.spark[0], alerting, 443, Protocol::kTcp);
            }),
            0u);
  for (const Result<DeclarativeDelivery>& r : d) {
    ASSERT_TRUE(r.ok()) << r.status();
  }
  EXPECT_TRUE(d[0]->delivered) << Explain(*d[0]);
  EXPECT_EQ(d[1]->drop_stage, "edge-filter");
  EXPECT_EQ(d[2]->drop_stage, "instance-down");
}

// Verdicts from and toward a stopped instance are drops like any other, in
// both worlds: no Status text is built, for traffic or for a reach query.
TEST(VerdictAllocationTest, StoppedEndsAllocateNothing) {
  Fig1World fig = BuildFig1World();
  ConfigLedger base_ledger;
  BaselineNetwork net(*fig.world, base_ledger);
  ASSERT_TRUE(BuildFig1Baseline(net, fig).ok());
  ConfigLedger decl_ledger;
  DeclarativeCloud cloud(*fig.world, decl_ledger);
  const IpAddress spark = *cloud.RequestEip(fig.spark[0]);
  const IpAddress db = *cloud.RequestEip(fig.database[0]);
  ASSERT_TRUE(fig.world->SetInstanceRunning(fig.database[0], false).ok());
  const InstanceId up = fig.spark[0];
  const InstanceId down = fig.database[0];
  const uint16_t port = Fig1Baseline::kDbPort;

  struct Case {
    InstanceId src;
    InstanceId dst;
    IpAddress dst_eip;
    const char* stage;
  };
  const Case cases[] = {{up, down, db, "instance-down"},
                        {down, up, spark, "src-down"}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.stage);
    auto base = net.Evaluate(c.src, c.dst, port, Protocol::kTcp);
    ASSERT_TRUE(base.ok()) << base.status();
    EXPECT_EQ(base->drop_stage, c.stage);
    auto decl = cloud.Evaluate(c.src, c.dst_eip, port, Protocol::kTcp);
    ASSERT_TRUE(decl.ok()) << decl.status();
    EXPECT_EQ(decl->drop_stage, c.stage);
    EXPECT_EQ(AllocationsIn([&] {
                for (int i = 0; i < 3; ++i) {
                  (void)net.Evaluate(c.src, c.dst, port, Protocol::kTcp);
                  (void)net.Query(c.src, c.dst, port, Protocol::kTcp);
                  (void)cloud.Evaluate(c.src, c.dst_eip, port, Protocol::kTcp);
                  (void)cloud.Query(c.src, c.dst_eip, port, Protocol::kTcp);
                }
              }),
              0u);
  }
}

// The first verdict of a freshly built Fig-1 fabric allocates nothing: no
// verdict table is built on first use.
TEST(VerdictAllocationTest, FirstBaselineVerdictAllocatesNothing) {
  Fig1World fig = BuildFig1World();
  ConfigLedger ledger;
  BaselineNetwork net(*fig.world, ledger);
  ASSERT_TRUE(BuildFig1Baseline(net, fig).ok());
  Result<BaselineDelivery> d = NotFoundError("not evaluated");
  EXPECT_EQ(AllocationsIn([&] {
              d = net.Evaluate(fig.web_eu[0], fig.spark[0],
                               Fig1Baseline::kSparkPort, Protocol::kTcp);
            }),
            0u);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_TRUE(d->delivered) << Explain(*d);
}

// The same for a fresh filter bank with lists and a group installed: its
// first admitted, group-admitted and denied verdicts allocate nothing.
TEST(VerdictAllocationTest, FirstEdgeVerdictAllocatesNothing) {
  EdgeFilterBank bank("p", nullptr, 1);
  bank.AddEdge("e0");
  bank.AddEdge("e1");
  const EndpointGroupId group(1);
  bank.SetGroup(group,
                {IpAddress::V4(10, 2, 0, 1), IpAddress::V4(10, 2, 0, 2)});
  PermitEntry prefix;
  prefix.source = *IpPrefix::Parse("10.1.0.0/16");
  PermitEntry members;
  members.source_group = group;
  bank.SetPermitList(IpAddress::V4(5, 0, 0, 1), {prefix, members});
  auto flow = [](IpAddress src) {
    FiveTuple t;
    t.src = src;
    t.dst = IpAddress::V4(5, 0, 0, 1);
    t.dst_port = 443;
    t.proto = Protocol::kTcp;
    return t;
  };
  bool verdicts[3] = {};
  EXPECT_EQ(AllocationsIn([&] {
              verdicts[0] = bank.Admits(1, flow(IpAddress::V4(10, 1, 2, 3)));
              verdicts[1] = bank.Admits(1, flow(IpAddress::V4(10, 2, 0, 2)));
              verdicts[2] = bank.Admits(1, flow(IpAddress::V4(10, 3, 0, 1)));
            }),
            0u);
  EXPECT_TRUE(verdicts[0]);
  EXPECT_TRUE(verdicts[1]);
  EXPECT_FALSE(verdicts[2]);
}

}  // namespace
}  // namespace tenantnet
