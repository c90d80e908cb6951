// Edge-case coverage for CloudWorld and BgpMesh accessors.

#include <gtest/gtest.h>

#include "src/cloud/presets.h"
#include "src/routing/bgp.h"

namespace tenantnet {
namespace {

TEST(WorldEdgesTest, DedicatedCircuitValidatesIds) {
  TestWorld tw = BuildTestWorld();
  CloudWorld& w = *tw.world;
  EXPECT_EQ(w.AddDedicatedCircuit(RegionId(99), tw.exchange, 1e9)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(w.AddDedicatedCircuit(tw.east, ExchangeId(99), 1e9)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(w.AddDedicatedCircuitFromOnPrem(OnPremId(99), tw.exchange, 1e9)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(w.AddDedicatedCircuitFromOnPrem(tw.on_prem, ExchangeId(99), 1e9)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(WorldEdgesTest, ResolvePathValidatesNodes) {
  TestWorld tw = BuildTestWorld();
  auto bad = tw.world->ResolvePath(NodeId(), NodeId(1),
                                   EgressPolicy::kHotPotato);
  EXPECT_FALSE(bad.ok());
}

TEST(WorldEdgesTest, OnPremLaunchValidates) {
  TestWorld tw = BuildTestWorld();
  EXPECT_FALSE(tw.world->LaunchOnPremInstance(tw.tenant, OnPremId(9)).ok());
  EXPECT_FALSE(tw.world->LaunchOnPremInstance(TenantId(9), tw.on_prem).ok());
}

TEST(BgpEdgesTest, AccessorsOnInvalidSpeakers) {
  BgpMesh mesh;
  EXPECT_EQ(mesh.BestRoute(SpeakerId(5), *IpPrefix::Parse("10.0.0.0/8")),
            nullptr);
  EXPECT_EQ(mesh.TableSize(SpeakerId(5)), 0u);
  EXPECT_EQ(mesh.TotalRibEntries(), 0u);
  // Converging an empty mesh is a no-op that reports convergence.
  auto stats = mesh.Converge();
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.update_messages, 0u);
}

TEST(WorldEdgesTest, LaunchedInstanceCarriesTheDefaultEgressCap) {
  TestWorld tw = BuildTestWorld();
  auto inst = *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
  auto on_prem = *tw.world->LaunchOnPremInstance(tw.tenant, tw.on_prem);
  EXPECT_DOUBLE_EQ(tw.world->FindInstance(inst)->vm_egress_cap_bps, 10e9);
  EXPECT_DOUBLE_EQ(tw.world->FindInstance(on_prem)->vm_egress_cap_bps, 10e9);
}

}  // namespace
}  // namespace tenantnet
