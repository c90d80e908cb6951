// Multi-tenant QoS isolation over the fluid data plane: per-tenant egress
// quotas plus flow-level rate caps must give each tenant its guarantee on
// a shared link regardless of the other's offered load — the EyeQ-style
// property behind §4's QoS design.

#include <gtest/gtest.h>

#include "src/core/qos.h"
#include "src/sim/flow_sim.h"

namespace tenantnet {
namespace {

struct SharedLink {
  EventQueue queue;
  Topology topo;
  NodeId a, b;
  LinkId ab;

  SharedLink() {
    a = topo.AddNode({"a", NodeKind::kHostAggregate, "x"});
    b = topo.AddNode({"b", NodeKind::kEdgeRouter, "x"});
    ab = topo.AddLink({a, b, 1e9, SimDuration::Millis(1),
                       SimDuration::Zero(), 0, LinkClass::kDatacenter});
  }
};

TEST(QosIsolationTest, QuotaCapsDivideASharedLink) {
  // Tenant A holds a 600 Mbps quota, tenant B 400 Mbps; both flood the
  // shared 1G link. With flows capped at the quota, each receives exactly
  // its guarantee: B's greed cannot dilute A.
  SharedLink w;
  FlowSim sim(w.queue, w.topo);
  FlowId a1 = sim.StartPersistentFlow({w.ab}, 1.0, /*cap=*/300e6);
  FlowId a2 = sim.StartPersistentFlow({w.ab}, 1.0, /*cap=*/300e6);
  FlowId b1 = sim.StartPersistentFlow({w.ab}, 1.0, /*cap=*/200e6);
  FlowId b2 = sim.StartPersistentFlow({w.ab}, 1.0, /*cap=*/200e6);
  double tenant_a = *sim.CurrentRate(a1) + *sim.CurrentRate(a2);
  double tenant_b = *sim.CurrentRate(b1) + *sim.CurrentRate(b2);
  EXPECT_NEAR(tenant_a, 600e6, 1e3);
  EXPECT_NEAR(tenant_b, 400e6, 1e3);

  // B scales out to four flows; the quota manager re-divides B's 400M
  // across them (that is exactly what EgressQuotaManager's epoch does).
  // A's aggregate guarantee is untouched.
  FlowId b3 = sim.StartPersistentFlow({w.ab}, 1.0, /*cap=*/100e6);
  FlowId b4 = sim.StartPersistentFlow({w.ab}, 1.0, /*cap=*/100e6);
  ASSERT_TRUE(sim.SetRateCap(b1, 100e6).ok());
  ASSERT_TRUE(sim.SetRateCap(b2, 100e6).ok());
  double tenant_b_scaled = *sim.CurrentRate(b1) + *sim.CurrentRate(b2) +
                           *sim.CurrentRate(b3) + *sim.CurrentRate(b4);
  EXPECT_NEAR(tenant_b_scaled, 400e6, 1e3);
  tenant_a = *sim.CurrentRate(a1) + *sim.CurrentRate(a2);
  EXPECT_NEAR(tenant_a, 600e6, 1e3);
}

TEST(QosIsolationTest, UnmanagedTrafficDilutesGuaranteesWithoutPriority) {
  // The honest counterfactual: caps are ceilings, not floors. If a tenant
  // outside quota enforcement floods the link with uncapped flows, the
  // max-min shares of the "guaranteed" tenant collapse below its quota —
  // which is why the guarantee model in E5 adds weight/priority at the
  // enforcement point, and why the provider must enforce quotas on
  // *every* tenant sharing the guaranteed resource.
  SharedLink w;
  FlowSim sim(w.queue, w.topo);
  FlowId a1 = sim.StartPersistentFlow({w.ab}, 1.0, /*cap=*/300e6);
  FlowId a2 = sim.StartPersistentFlow({w.ab}, 1.0, /*cap=*/300e6);
  for (int i = 0; i < 4; ++i) {
    sim.StartPersistentFlow({w.ab});  // rogue, uncapped
  }
  double tenant_a = *sim.CurrentRate(a1) + *sim.CurrentRate(a2);
  EXPECT_LT(tenant_a, 600e6 * 0.9);  // guarantee violated

  // Weighted sharing restores it: the provider prioritizes reserved
  // traffic proportionally to the guarantee.
  ASSERT_TRUE(sim.CancelFlow(a1).ok());
  ASSERT_TRUE(sim.CancelFlow(a2).ok());
  FlowId g1 = sim.StartPersistentFlow({w.ab}, /*weight=*/6.0, 300e6);
  FlowId g2 = sim.StartPersistentFlow({w.ab}, /*weight=*/6.0, 300e6);
  double guaranteed = *sim.CurrentRate(g1) + *sim.CurrentRate(g2);
  EXPECT_GE(guaranteed, 600e6 * 0.99);
}

TEST(QosIsolationTest, QuotaOnlyIsNotWorkConserving) {
  // The honest limitation: pure quota caps leave bandwidth idle when the
  // guaranteed tenant underuses it. (Weighted sharing — E5's guarantee
  // model — trades exactness for work conservation.)
  SharedLink w;
  FlowSim sim(w.queue, w.topo);
  FlowId a = sim.StartPersistentFlow({w.ab}, 1.0, /*cap=*/600e6);
  EXPECT_NEAR(*sim.CurrentRate(a), 600e6, 1e3);
  EXPECT_NEAR(sim.LinkUtilization(w.ab), 0.6, 1e-6);  // 400M idle
}

TEST(QosIsolationTest, SharesTrackDemandAcrossPointsPerTenant) {
  // Two tenants, two enforcement points, demand skewed oppositely: the
  // per-tenant re-division must converge independently (A hot at point 0,
  // B hot at point 1).
  QuotaParams params;
  params.ewma_alpha = 0.5;
  EgressQuotaManager qos(params);
  RegionId region(1);
  qos.RegisterPoint(region, "p0");
  qos.RegisterPoint(region, "p1");
  TenantId a(1), b(2);
  ASSERT_TRUE(qos.SetQuota(a, region, 1e9, SimTime::Epoch()).ok());
  ASSERT_TRUE(qos.SetQuota(b, region, 1e9, SimTime::Epoch()).ok());

  SimTime now = SimTime::Epoch();
  for (int epoch = 0; epoch < 20; ++epoch) {
    for (int tick = 0; tick < 10; ++tick) {
      now += SimDuration::Millis(10);
      qos.TryConsume(a, region, 0, 1e7, now);  // A hot at p0
      qos.TryConsume(b, region, 1, 1e7, now);  // B hot at p1
    }
    qos.RunEpoch(now);
  }
  EXPECT_GT(*qos.ShareOf(a, region, 0), 0.8e9);
  EXPECT_GT(*qos.ShareOf(b, region, 1), 0.8e9);
  EXPECT_LT(*qos.ShareOf(a, region, 1), 0.2e9);
  EXPECT_LT(*qos.ShareOf(b, region, 0), 0.2e9);
}

TEST(QosIsolationTest, EpochRedivisionBatchesFlowCapsIntoOneReallocation) {
  // With a FlowSim attached, the quota manager applies each point's share
  // to its registered flows as equal-split rate caps — and a whole epoch's
  // worth of cap updates collapses into a single water-filling pass.
  SharedLink w;
  FlowSim sim(w.queue, w.topo);
  EgressQuotaManager qos;
  qos.AttachFlowSim(&sim);
  RegionId region(1);
  qos.RegisterPoint(region, "p0");
  TenantId tenant(1);
  SimTime now = SimTime::Epoch();
  ASSERT_TRUE(qos.SetQuota(tenant, region, 400e6, now).ok());

  FlowId f1 = sim.StartPersistentFlow({w.ab});
  FlowId f2 = sim.StartPersistentFlow({w.ab});
  ASSERT_TRUE(qos.RegisterFlow(tenant, region, 0, f1).ok());
  ASSERT_TRUE(qos.RegisterFlow(tenant, region, 0, f2).ok());
  // Registration applies the split immediately: 400M over two flows.
  EXPECT_NEAR(*sim.CurrentRate(f1), 200e6, 1e3);
  EXPECT_NEAR(*sim.CurrentRate(f2), 200e6, 1e3);

  uint64_t before = sim.reallocation_count();
  now += SimDuration::Millis(100);  // one quota epoch
  qos.RunEpoch(now);
  EXPECT_EQ(sim.reallocation_count(), before + 1);
  EXPECT_NEAR(*sim.CurrentRate(f1) + *sim.CurrentRate(f2), 400e6, 1e4);

  // Dead flows are pruned at the next re-division; the survivor inherits
  // the whole point share.
  ASSERT_TRUE(sim.CancelFlow(f2).ok());
  now += SimDuration::Millis(100);  // one quota epoch
  qos.RunEpoch(now);
  EXPECT_NEAR(*sim.CurrentRate(f1), 400e6, 1e4);

  // Unregistering lifts the quota cap: the flow returns to unmanaged
  // max-min sharing (alone on the 1G link, it takes all of it).
  ASSERT_TRUE(qos.UnregisterFlow(tenant, region, 0, f1).ok());
  EXPECT_NEAR(*sim.CurrentRate(f1), 1e9, 1e3);
  EXPECT_EQ(qos.UnregisterFlow(tenant, region, 0, f2).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace tenantnet
