// Tests for Topology: construction, Dijkstra, cost policies, delay models.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/sim/topology.h"

namespace tenantnet {
namespace {

// A diamond: a -> b -> d (fast) and a -> c -> d (slow but one hop shorter
// in an alternate configuration).
struct Diamond {
  Topology topo;
  NodeId a, b, c, d;
  LinkId ab, bd, ac, cd;

  Diamond() {
    a = topo.AddNode({"a", NodeKind::kEdgeRouter, "x"});
    b = topo.AddNode({"b", NodeKind::kBackboneRouter, "x"});
    c = topo.AddNode({"c", NodeKind::kInternetRouter, "internet"});
    d = topo.AddNode({"d", NodeKind::kEdgeRouter, "y"});
    ab = topo.AddLink({a, b, 1e9, SimDuration::Millis(5),
                       SimDuration::Zero(), 0, LinkClass::kBackbone});
    bd = topo.AddLink({b, d, 1e9, SimDuration::Millis(5),
                       SimDuration::Zero(), 0, LinkClass::kBackbone});
    ac = topo.AddLink({a, c, 1e9, SimDuration::Millis(8),
                       SimDuration::Zero(), 0.01, LinkClass::kPublicInternet});
    cd = topo.AddLink({c, d, 1e9, SimDuration::Millis(8),
                       SimDuration::Zero(), 0.01, LinkClass::kPublicInternet});
  }
};

TEST(TopologyTest, NodesAndLinksAreRecorded) {
  Diamond w;
  EXPECT_EQ(w.topo.node_count(), 4u);
  EXPECT_EQ(w.topo.link_count(), 4u);
  EXPECT_EQ(w.topo.node(w.a).name, "a");
  EXPECT_EQ(w.topo.link(w.ab).dst, w.b);
  EXPECT_EQ(w.topo.OutLinks(w.a).size(), 2u);
}

TEST(TopologyTest, DuplexAddsBothDirections) {
  Topology topo;
  NodeId a = topo.AddNode({"a", NodeKind::kEdgeRouter, "x"});
  NodeId b = topo.AddNode({"b", NodeKind::kEdgeRouter, "x"});
  auto [fwd, rev] = topo.AddDuplexLink({a, b, 1e9, SimDuration::Millis(1),
                                        SimDuration::Zero(), 0,
                                        LinkClass::kBackbone});
  EXPECT_EQ(topo.link(fwd).src, a);
  EXPECT_EQ(topo.link(rev).src, b);
  EXPECT_EQ(topo.link(rev).dst, a);
}

TEST(TopologyTest, ShortestPathByDelayPrefersBackbone) {
  Diamond w;
  auto path = w.topo.ShortestPath(w.a, w.d, Topology::DelayCost());
  ASSERT_TRUE(path.ok());
  ASSERT_EQ(path->size(), 2u);
  EXPECT_EQ((*path)[0], w.ab);
  EXPECT_EQ((*path)[1], w.bd);
  EXPECT_DOUBLE_EQ(w.topo.PathDelay(*path).ToMillis(), 10.0);
}

TEST(TopologyTest, ClassWeightsFlipTheChoice) {
  Diamond w;
  // Make backbone 10x expensive: the internet path wins despite its delay.
  auto cost = Topology::ClassWeightedDelayCost(1, 10, 1, 1);
  auto path = w.topo.ShortestPath(w.a, w.d, cost);
  ASSERT_TRUE(path.ok());
  ASSERT_EQ(path->size(), 2u);
  EXPECT_EQ((*path)[0], w.ac);
}

TEST(TopologyTest, NegativeMultiplierForbidsClass) {
  Diamond w;
  auto cost = Topology::ClassWeightedDelayCost(1, -1, 1, 1);  // no backbone
  auto path = w.topo.ShortestPath(w.a, w.d, cost);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ((*path)[0], w.ac);
  // Forbidding everything leaves no path.
  auto none = Topology::ClassWeightedDelayCost(-1, -1, -1, -1);
  EXPECT_FALSE(w.topo.ShortestPath(w.a, w.d, none).ok());
}

TEST(TopologyTest, SamePathForSameNode) {
  Diamond w;
  auto path = w.topo.ShortestPath(w.a, w.a, Topology::DelayCost());
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(path->empty());
}

TEST(TopologyTest, DisconnectedNodesHaveNoPath) {
  Topology topo;
  NodeId a = topo.AddNode({"a", NodeKind::kEdgeRouter, "x"});
  NodeId b = topo.AddNode({"b", NodeKind::kEdgeRouter, "y"});
  (void)b;
  NodeId c = topo.AddNode({"c", NodeKind::kEdgeRouter, "z"});
  auto path = topo.ShortestPath(a, c, Topology::DelayCost());
  EXPECT_EQ(path.status().code(), StatusCode::kNotFound);
}

TEST(TopologyTest, HopCostMinimizesHops) {
  Topology topo;
  // a->b->c (two 1ms hops) vs a->c (one 10ms hop).
  NodeId a = topo.AddNode({"a", NodeKind::kEdgeRouter, "x"});
  NodeId b = topo.AddNode({"b", NodeKind::kEdgeRouter, "x"});
  NodeId c = topo.AddNode({"c", NodeKind::kEdgeRouter, "x"});
  topo.AddLink({a, b, 1e9, SimDuration::Millis(1), SimDuration::Zero(), 0,
                LinkClass::kBackbone});
  topo.AddLink({b, c, 1e9, SimDuration::Millis(1), SimDuration::Zero(), 0,
                LinkClass::kBackbone});
  LinkId direct = topo.AddLink({a, c, 1e9, SimDuration::Millis(10),
                                SimDuration::Zero(), 0,
                                LinkClass::kBackbone});
  auto by_hops = topo.ShortestPath(a, c, Topology::HopCost());
  ASSERT_TRUE(by_hops.ok());
  EXPECT_EQ(by_hops->size(), 1u);
  EXPECT_EQ((*by_hops)[0], direct);
  auto by_delay = topo.ShortestPath(a, c, Topology::DelayCost());
  ASSERT_TRUE(by_delay.ok());
  EXPECT_EQ(by_delay->size(), 2u);
}

TEST(TopologyTest, SampledDelayIncludesJitterAndExceedsBase) {
  Topology topo;
  NodeId a = topo.AddNode({"a", NodeKind::kEdgeRouter, "x"});
  NodeId b = topo.AddNode({"b", NodeKind::kEdgeRouter, "x"});
  LinkId l = topo.AddLink({a, b, 1e9, SimDuration::Millis(10),
                           SimDuration::Millis(2), 0,
                           LinkClass::kPublicInternet});
  Rng rng(1);
  std::vector<LinkId> path{l};
  double base = topo.PathDelay(path).ToMillis();
  double total = 0;
  for (int i = 0; i < 1000; ++i) {
    double sample = topo.SamplePathDelay(path, rng).ToMillis();
    EXPECT_GE(sample, base);  // jitter is additive (|normal|)
    total += sample;
  }
  EXPECT_GT(total / 1000, base + 0.5);  // jitter visibly contributes
}

TEST(TopologyTest, DotExportContainsNodesAndEdges) {
  Diamond w;
  std::string dot = w.topo.ToDot();
  EXPECT_NE(dot.find("graph tenantnet"), std::string::npos);
  // Every node appears with its label; domains become clusters.
  for (const char* name : {"\"a\"", "\"b\"", "\"c\"", "\"d\""}) {
    EXPECT_NE(dot.find(name), std::string::npos) << name;
  }
  EXPECT_NE(dot.find("subgraph cluster_"), std::string::npos);
  EXPECT_NE(dot.find("\"internet\""), std::string::npos);
  // Forward-direction links render as undirected edges.
  EXPECT_NE(dot.find("n1 -- n2"), std::string::npos);
  // Link classes color the edges.
  EXPECT_NE(dot.find("color=blue"), std::string::npos);   // backbone
  EXPECT_NE(dot.find("color=black"), std::string::npos);  // internet
}

TEST(TopologyTest, DeliveryProbabilityIsProductOfSurvival) {
  Diamond w;
  std::vector<LinkId> internet{w.ac, w.cd};
  EXPECT_NEAR(w.topo.PathDeliveryProbability(internet), 0.99 * 0.99, 1e-12);
  std::vector<LinkId> backbone{w.ab, w.bd};
  EXPECT_DOUBLE_EQ(w.topo.PathDeliveryProbability(backbone), 1.0);
}

TEST(TopologyTest, SetLinkUpRejectsUnknownLink) {
  Diamond w;
  const uint64_t revision = w.topo.revision();
  EXPECT_EQ(w.topo.SetLinkUp(LinkId(), false).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(w.topo.SetLinkUp(LinkId(5), false).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(w.topo.down_link_count(), 0u);
  EXPECT_EQ(w.topo.revision(), revision);
  // Only a flip moves the revision.
  ASSERT_TRUE(w.topo.SetLinkUp(w.ab, true).ok());
  EXPECT_EQ(w.topo.revision(), revision);
  ASSERT_TRUE(w.topo.SetLinkUp(w.ab, false).ok());
  EXPECT_FALSE(w.topo.IsLinkUp(w.ab));
  EXPECT_GT(w.topo.revision(), revision);
}

// --- Link-cut partitioner ----------------------------------------------------

// One giant component: R regions of `hosts` nodes hanging off a hub, hubs
// chained into a WAN ring — the paper's Fig. 1 shape at small scale.
Topology BuildWanRing(int regions, int hosts) {
  Topology topo;
  std::vector<NodeId> hubs;
  for (int r = 0; r < regions; ++r) {
    NodeId hub = topo.AddNode({"hub" + std::to_string(r),
                               NodeKind::kBackboneRouter,
                               "region" + std::to_string(r)});
    hubs.push_back(hub);
    for (int h = 0; h < hosts; ++h) {
      NodeId host = topo.AddNode(
          {"r" + std::to_string(r) + "h" + std::to_string(h), NodeKind::kHostAggregate,
           "region" + std::to_string(r)});
      topo.AddDuplexLink({hub, host, 10e9, SimDuration::Micros(50),
                          SimDuration::Zero(), 0, LinkClass::kDatacenter});
    }
  }
  for (int r = 0; r < regions; ++r) {
    topo.AddDuplexLink({hubs[r], hubs[(r + 1) % regions], 100e9,
                        SimDuration::Millis(20), SimDuration::Zero(), 0,
                        LinkClass::kBackbone});
  }
  return topo;
}

void CheckPartitionInvariants(const Topology& topo,
                              const LinkCutPartition& part) {
  ASSERT_EQ(part.node_part.size(), topo.node_count());
  ASSERT_EQ(part.link_part.size(), topo.link_count());
  ASSERT_EQ(part.link_is_border.size(), topo.link_count());
  // Every node lands in a valid part; every part is nonempty.
  std::vector<uint32_t> sizes(part.count, 0);
  for (uint32_t p : part.node_part) {
    ASSERT_LT(p, part.count);
    ++sizes[p];
  }
  for (uint32_t p = 0; p < part.count; ++p) {
    EXPECT_GT(sizes[p], 0u) << "part " << p << " is empty";
  }
  // Link ownership and border flags are consistent with the node parts.
  uint32_t borders = 0;
  for (size_t i = 0; i < topo.link_count(); ++i) {
    LinkId id(i + 1);
    const LinkInfo& info = topo.link(id);
    uint32_t src = part.node_part[info.src.value() - 1];
    uint32_t dst = part.node_part[info.dst.value() - 1];
    EXPECT_EQ(part.link_part[i], src);
    EXPECT_EQ(part.link_is_border[i] != 0, src != dst);
    borders += part.link_is_border[i];
  }
  EXPECT_EQ(part.border_link_count, borders);
}

TEST(LinkCutPartitionTest, SameSeedSamePartitionDifferentSeedsStillValid) {
  Topology topo = BuildWanRing(4, 8);
  LinkCutPartition a = ComputeLinkCutPartition(topo, 4, 42);
  LinkCutPartition b = ComputeLinkCutPartition(topo, 4, 42);
  EXPECT_EQ(a.node_part, b.node_part);
  EXPECT_EQ(a.link_part, b.link_part);
  EXPECT_EQ(a.border_link_count, b.border_link_count);
  for (uint64_t seed : {0ull, 1ull, 7ull, 1337ull}) {
    CheckPartitionInvariants(topo, ComputeLinkCutPartition(topo, 4, seed));
  }
}

TEST(LinkCutPartitionTest, GiantComponentIsCutIntoBalancedParts) {
  Topology topo = BuildWanRing(4, 8);  // 36 nodes, one component
  ASSERT_EQ(ComputeTopologyComponents(topo).count, 1u);
  LinkCutPartition part = ComputeLinkCutPartition(topo, 4, 0);
  EXPECT_EQ(part.count, 4u);
  CheckPartitionInvariants(topo, part);
  std::vector<uint32_t> sizes(part.count, 0);
  for (uint32_t p : part.node_part) {
    ++sizes[p];
  }
  // 36 nodes over 4 parts: balanced BFS growth keeps parts within a small
  // factor of the ideal 9.
  for (uint32_t p = 0; p < part.count; ++p) {
    EXPECT_GE(sizes[p], 4u);
    EXPECT_LE(sizes[p], 16u);
  }
  // A good cut severs the WAN/hub edges, not host fan-out: far fewer
  // border links than total links.
  EXPECT_GT(part.border_link_count, 0u);
  EXPECT_LT(part.CutFraction(), 0.5);
}

TEST(LinkCutPartitionTest, ComponentsAtLeastTargetMeansNoCuts) {
  // 5 disjoint two-node islands, target 4: parts follow components
  // (component c -> part c mod 4), and no link is a border link.
  Topology topo;
  for (int i = 0; i < 5; ++i) {
    NodeId a = topo.AddNode({"a" + std::to_string(i), NodeKind::kHostAggregate, "x"});
    NodeId b = topo.AddNode({"b" + std::to_string(i), NodeKind::kHostAggregate, "x"});
    topo.AddDuplexLink({a, b, 1e9, SimDuration::Millis(1),
                        SimDuration::Zero(), 0, LinkClass::kDatacenter});
  }
  LinkCutPartition part = ComputeLinkCutPartition(topo, 4, 9);
  EXPECT_EQ(part.count, 4u);
  CheckPartitionInvariants(topo, part);
  EXPECT_EQ(part.border_link_count, 0u);
  TopologyComponents comps = ComputeTopologyComponents(topo);
  for (size_t n = 0; n < topo.node_count(); ++n) {
    EXPECT_EQ(part.node_part[n], comps.node_component[n] % 4);
  }
}

TEST(LinkCutPartitionTest, TrivialTargetsAndEmptyTopology) {
  Topology topo = BuildWanRing(2, 3);
  for (uint32_t target : {0u, 1u}) {
    LinkCutPartition part = ComputeLinkCutPartition(topo, target, 0);
    EXPECT_EQ(part.count, 1u);
    CheckPartitionInvariants(topo, part);
    EXPECT_EQ(part.border_link_count, 0u);
  }
  Topology empty;
  LinkCutPartition part = ComputeLinkCutPartition(empty, 4, 0);
  EXPECT_EQ(part.node_part.size(), 0u);
  EXPECT_EQ(part.border_link_count, 0u);
}

TEST(LinkCutPartitionTest, TargetBeyondNodeCountStillCoversEveryNode) {
  // 3-node path, target 8: at most 3 nonempty parts can exist; whatever
  // count comes back, the invariants must hold.
  Topology topo;
  NodeId a = topo.AddNode({"a", NodeKind::kHostAggregate, "x"});
  NodeId b = topo.AddNode({"b", NodeKind::kHostAggregate, "x"});
  NodeId c = topo.AddNode({"c", NodeKind::kHostAggregate, "x"});
  topo.AddDuplexLink({a, b, 1e9, SimDuration::Millis(1), SimDuration::Zero(),
                      0, LinkClass::kDatacenter});
  topo.AddDuplexLink({b, c, 1e9, SimDuration::Millis(1), SimDuration::Zero(),
                      0, LinkClass::kDatacenter});
  LinkCutPartition part = ComputeLinkCutPartition(topo, 8, 3);
  EXPECT_GE(part.count, 1u);
  EXPECT_LE(part.count, 8u);
  CheckPartitionInvariants(topo, part);
}

}  // namespace
}  // namespace tenantnet
