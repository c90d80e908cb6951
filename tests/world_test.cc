// Tests for CloudWorld: construction, instances, egress-policy geometry.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cloud/presets.h"
#include "src/cloud/world.h"
#include "src/faults/fault_injector.h"
#include "src/sim/flow_sim.h"
#include "tests/test_env.h"

namespace tenantnet {
namespace {

TEST(WorldTest, RegionWiring) {
  TestWorld tw = BuildTestWorld();
  CloudWorld& w = *tw.world;
  const RegionSite& east = w.region(tw.east);
  EXPECT_EQ(east.zones.size(), 2u);
  EXPECT_TRUE(east.edge_node.valid());
  // Each zone: duplex to edge; edge: duplex uplink; plus backbone to west.
  EXPECT_GT(w.topology().link_count(), 8u);
  EXPECT_EQ(w.provider(tw.provider).regions.size(), 2u);
}

TEST(WorldTest, InstanceLifecycle) {
  TestWorld tw = BuildTestWorld();
  CloudWorld& w = *tw.world;
  auto inst = w.LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
  ASSERT_TRUE(inst.ok());
  const Instance* record = w.FindInstance(*inst);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->running);
  EXPECT_EQ(record->region, tw.east);
  EXPECT_EQ(w.instance_count(), 1u);
  ASSERT_TRUE(w.TerminateInstance(*inst).ok());
  EXPECT_EQ(w.instance_count(), 0u);
  EXPECT_EQ(w.TerminateInstance(*inst).code(), StatusCode::kNotFound);
}

TEST(WorldTest, LaunchValidatesInputs) {
  TestWorld tw = BuildTestWorld();
  CloudWorld& w = *tw.world;
  EXPECT_FALSE(w.LaunchInstance(TenantId(99), tw.provider, tw.east).ok());
  EXPECT_FALSE(w.LaunchInstance(tw.tenant, tw.provider, RegionId(99)).ok());
  EXPECT_FALSE(w.LaunchInstance(tw.tenant, tw.provider, tw.east, 7).ok());
}

TEST(WorldTest, OnPremInstances) {
  TestWorld tw = BuildTestWorld();
  CloudWorld& w = *tw.world;
  auto inst = w.LaunchOnPremInstance(tw.tenant, tw.on_prem);
  ASSERT_TRUE(inst.ok());
  const Instance* record = w.FindInstance(*inst);
  EXPECT_TRUE(record->on_prem.valid());
  EXPECT_FALSE(record->provider.valid());
  EXPECT_EQ(record->host_node, w.on_prem(tw.on_prem).host_node);
}

TEST(WorldTest, TenantInstancesEnumerated) {
  TestWorld tw = BuildTestWorld();
  CloudWorld& w = *tw.world;
  auto a = *w.LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
  auto b = *w.LaunchInstance(tw.tenant, tw.provider, tw.west, 1);
  TenantId other = w.AddTenant("other");
  auto c = *w.LaunchInstance(other, tw.provider, tw.east, 0);
  auto mine = w.TenantInstances(tw.tenant);
  EXPECT_EQ(mine.size(), 2u);
  EXPECT_NE(std::find(mine.begin(), mine.end(), a), mine.end());
  EXPECT_NE(std::find(mine.begin(), mine.end(), b), mine.end());
  EXPECT_EQ(std::find(mine.begin(), mine.end(), c), mine.end());
}

TEST(WorldTest, IntraRegionPathStaysInDatacenter) {
  TestWorld tw = BuildTestWorld();
  CloudWorld& w = *tw.world;
  auto a = *w.LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
  auto b = *w.LaunchInstance(tw.tenant, tw.provider, tw.east, 1);
  auto path = w.ResolveInstancePath(a, b, EgressPolicy::kColdPotato);
  ASSERT_TRUE(path.ok());
  for (LinkId link : *path) {
    EXPECT_EQ(w.topology().link(link).cls, LinkClass::kDatacenter);
  }
}

TEST(WorldTest, ColdPotatoUsesBackboneHotUsesInternet) {
  TestWorld tw = BuildTestWorld();
  CloudWorld& w = *tw.world;
  auto east_inst = *w.LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
  auto west_inst = *w.LaunchInstance(tw.tenant, tw.provider, tw.west, 0);

  auto cold = w.ResolveInstancePath(east_inst, west_inst,
                                    EgressPolicy::kColdPotato);
  ASSERT_TRUE(cold.ok());
  bool cold_uses_backbone = false;
  bool cold_uses_internet = false;
  for (LinkId link : *cold) {
    LinkClass cls = w.topology().link(link).cls;
    cold_uses_backbone |= (cls == LinkClass::kBackbone);
    cold_uses_internet |= (cls == LinkClass::kPublicInternet);
  }
  EXPECT_TRUE(cold_uses_backbone);
  EXPECT_FALSE(cold_uses_internet);

  auto hot = w.ResolveInstancePath(east_inst, west_inst,
                                   EgressPolicy::kHotPotato);
  ASSERT_TRUE(hot.ok());
  bool hot_uses_internet = false;
  for (LinkId link : *hot) {
    hot_uses_internet |=
        (w.topology().link(link).cls == LinkClass::kPublicInternet);
  }
  EXPECT_TRUE(hot_uses_internet);
}

TEST(WorldTest, DedicatedCircuitAttractsDedicatedPolicy) {
  TestWorld tw = BuildTestWorld();
  CloudWorld& w = *tw.world;
  auto cloud_inst = *w.LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
  auto onprem_inst = *w.LaunchOnPremInstance(tw.tenant, tw.on_prem);

  // Without a circuit, the dedicated policy falls back to tolerated
  // internet links.
  auto before = w.ResolveInstancePath(cloud_inst, onprem_inst,
                                      EgressPolicy::kDedicated);
  ASSERT_TRUE(before.ok());
  bool before_dedicated = false;
  for (LinkId link : *before) {
    before_dedicated |=
        (w.topology().link(link).cls == LinkClass::kDedicated);
  }
  EXPECT_FALSE(before_dedicated);

  ASSERT_TRUE(w.AddDedicatedCircuit(tw.east, tw.exchange, 10e9).ok());
  ASSERT_TRUE(
      w.AddDedicatedCircuitFromOnPrem(tw.on_prem, tw.exchange, 5e9).ok());
  auto after = w.ResolveInstancePath(cloud_inst, onprem_inst,
                                     EgressPolicy::kDedicated);
  ASSERT_TRUE(after.ok());
  bool after_dedicated = false;
  for (LinkId link : *after) {
    after_dedicated |=
        (w.topology().link(link).cls == LinkClass::kDedicated);
  }
  EXPECT_TRUE(after_dedicated);
}

TEST(WorldTest, Fig1PresetShape) {
  Fig1World fig = BuildFig1World();
  CloudWorld& w = *fig.world;
  EXPECT_EQ(w.provider_count(), 2u);
  EXPECT_EQ(w.region_count(), 5u);
  EXPECT_EQ(fig.AllInstances().size(), 23u);
  EXPECT_EQ(w.instance_count(), 23u);
  // All instances resolve paths pairwise under cold potato within clouds.
  auto path = w.ResolveInstancePath(fig.spark[0], fig.database[0],
                                    EgressPolicy::kHotPotato);
  EXPECT_TRUE(path.ok());
  auto onprem_path = w.ResolveInstancePath(fig.spark[0], fig.alerting[0],
                                           EgressPolicy::kHotPotato);
  EXPECT_TRUE(onprem_path.ok());
}

TEST(WorldTest, GeoDistanceAndDelayScale) {
  EXPECT_DOUBLE_EQ(GeoDistance({0, 0}, {3, 4}), 5.0);
  TestWorld tw = BuildTestWorld();
  CloudWorld& w = *tw.world;
  auto east_inst = *w.LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
  auto west_inst = *w.LaunchInstance(tw.tenant, tw.provider, tw.west, 0);
  auto path = *w.ResolveInstancePath(east_inst, west_inst,
                                     EgressPolicy::kColdPotato);
  // East-west distance is 20 units ~ 20ms one-way (plus DC hops).
  double delay_ms = w.topology().PathDelay(path).ToMillis();
  EXPECT_GT(delay_ms, 19.0);
  EXPECT_LT(delay_ms, 25.0);
}

// --- ResolvePath memo ----------------------------------------------------------

constexpr EgressPolicy kPolicies[] = {EgressPolicy::kHotPotato,
                                      EgressPolicy::kColdPotato,
                                      EgressPolicy::kDedicated};

std::vector<NodeId> HostNodes(const Topology& topology) {
  std::vector<NodeId> hosts;
  for (size_t i = 1; i <= topology.node_count(); ++i) {
    if (topology.node(NodeId(i)).kind == NodeKind::kHostAggregate) {
      hosts.push_back(NodeId(i));
    }
  }
  return hosts;
}

// Every host-node pair under every policy: the memoized answer equals a
// fresh Dijkstra under the same cost (ok-ness, status, link sequence).
::testing::AssertionResult MemoMatchesDijkstra(const CloudWorld& world) {
  const Topology& topology = world.topology();
  const std::vector<NodeId> hosts = HostNodes(topology);
  for (NodeId a : hosts) {
    for (NodeId b : hosts) {
      for (EgressPolicy policy : kPolicies) {
        auto memo = world.ResolvePath(a, b, policy);
        auto fresh =
            topology.ShortestPath(a, b, CloudWorld::PathCost(policy));
        // fresh.status() is OK when fresh succeeded, so a mismatched
        // ok-ness fails the code comparison.
        bool same = memo.ok() ? fresh.ok() && *memo == *fresh
                              : memo.status().code() ==
                                        fresh.status().code() &&
                                    memo.status().message() ==
                                        fresh.status().message();
        if (!same) {
          return ::testing::AssertionFailure()
                 << topology.node(a).name << " -> " << topology.node(b).name
                 << " under " << EgressPolicyName(policy)
                 << ": memo and Dijkstra disagree";
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Random link churn on the Fig-1 world: each step downs a link through the
// fault injector for 1-4 steps (earlier faults recover as time advances)
// or, now and then, adds a duplex link between existing nodes. After every
// step the memo must agree with a fresh Dijkstra.
class PathMemoTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PathMemoTest, MemoMatchesDijkstraThroughLinkChurn) {
  const int64_t steps = test_env::ItersOverride(30);
  SCOPED_TRACE("reproduce with TN_SEED=" + std::to_string(GetParam()) +
               " TN_ITERS=" + std::to_string(steps));
  test_env::PairSampler rng(GetParam());
  Fig1World fig = BuildFig1World();
  CloudWorld& world = *fig.world;
  Topology& topology = world.topology();
  EventQueue queue;
  FlowSim sim(queue, topology);
  MetricRegistry metrics;
  FaultInjector injector(queue, topology, sim, &world, metrics, {});
  const SimDuration kStep = SimDuration::Millis(1);

  ASSERT_TRUE(MemoMatchesDijkstra(world));
  for (int64_t step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (rng.Chance(0.1)) {
      auto [a, b] = rng.Pair(topology.node_count(), topology.node_count());
      LinkInfo link;
      link.src = NodeId(a + 1);
      link.dst = NodeId(b + 1);
      link.capacity_bps = 10e9;
      link.delay = SimDuration::Micros(100 + rng.Index(30000));
      link.cls = static_cast<LinkClass>(rng.Index(4));
      topology.AddDuplexLink(link);
    } else {
      FaultSpec fault;
      fault.kind = FaultKind::kLinkDown;
      fault.link = LinkId(rng.Index(topology.link_count()) + 1);
      fault.duration = kStep * static_cast<double>(1 + rng.Index(4));
      ASSERT_TRUE(injector.InjectNow(fault).ok());
    }
    queue.RunUntil(queue.now() + kStep);
    ASSERT_TRUE(MemoMatchesDijkstra(world));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathMemoTest,
                         ::testing::ValuesIn(test_env::SeedList(
                             {1, 2, 3, 5, 8, 13, 21, 34})));

TEST(PathMemoCountTest, OneDijkstraPerDistinctTriple) {
  Fig1World fig = BuildFig1World();
  const CloudWorld& world = *fig.world;
  const std::vector<NodeId> hosts = HostNodes(world.topology());
  const uint64_t before = world.path_computations();
  for (int round = 0; round < 2; ++round) {
    for (NodeId a : hosts) {
      for (NodeId b : hosts) {
        for (EgressPolicy policy : kPolicies) {
          (void)world.ResolvePath(a, b, policy);
        }
      }
    }
  }
  EXPECT_EQ(world.path_computations() - before,
            hosts.size() * hosts.size() * std::size(kPolicies));
}

TEST(PathMemoCountTest, OnlyALinkFlipRecomputes) {
  TestWorld tw = BuildTestWorld();
  CloudWorld& world = *tw.world;
  Topology& topology = world.topology();
  NodeId east = world.region(tw.east).zones[0].host_node;
  NodeId west = world.region(tw.west).zones[0].host_node;
  auto path = world.ResolvePath(east, west, EgressPolicy::kColdPotato);
  ASSERT_TRUE(path.ok());
  LinkId backbone;
  for (LinkId link : *path) {
    if (topology.link(link).cls == LinkClass::kBackbone) {
      backbone = link;
    }
  }
  ASSERT_TRUE(backbone.valid());
  const uint64_t computed = world.path_computations();

  ASSERT_TRUE(topology.SetLinkUp(backbone, true).ok());  // already up
  EXPECT_EQ(*world.ResolvePath(east, west, EgressPolicy::kColdPotato), *path);
  EXPECT_EQ(world.path_computations(), computed);

  ASSERT_TRUE(topology.SetLinkUp(backbone, false).ok());
  auto rerouted = world.ResolvePath(east, west, EgressPolicy::kColdPotato);
  EXPECT_EQ(world.path_computations(), computed + 1);
  ASSERT_TRUE(rerouted.ok());
  EXPECT_NE(*rerouted, *path);
}

}  // namespace
}  // namespace tenantnet
