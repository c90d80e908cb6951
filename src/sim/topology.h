// Physical-level topology: nodes and directed links.
//
// The cloud module instantiates one Topology for the whole world: provider
// backbones, public-internet transit meshes, internet exchange points,
// on-prem routers, and dedicated circuits all become nodes and links here.
// Links carry capacity, propagation delay, a jitter model, and a class tag;
// path selection is Dijkstra over a caller-chosen cost function, which is
// how hot-potato / cold-potato / dedicated-link policies are expressed.

#ifndef TENANTNET_SRC_SIM_TOPOLOGY_H_
#define TENANTNET_SRC_SIM_TOPOLOGY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/time.h"

namespace tenantnet {

using NodeId = TypedId<struct NodeIdTag>;
using LinkId = TypedId<struct LinkIdTag>;

// What a link physically is; QoS policy discriminates on this.
enum class LinkClass : uint8_t {
  kDatacenter,     // intra-region fabric
  kBackbone,       // a provider's private WAN
  kPublicInternet, // best-effort transit between domains
  kDedicated,      // Direct Connect / ExpressRoute / MPLS circuit
};

// What a node represents (for reporting only; the graph treats all alike).
enum class NodeKind : uint8_t {
  kHostAggregate,  // a region/zone's compute side
  kEdgeRouter,     // provider edge (peering/egress point)
  kBackboneRouter,
  kInternetRouter,
  kExchangePoint,  // IXP / colocation (e.g. Equinix)
  kOnPremRouter,
};

struct NodeInfo {
  std::string name;
  NodeKind kind = NodeKind::kHostAggregate;
  // Owning administrative domain (provider name, "internet", tenant DC).
  std::string domain;
};

struct LinkInfo {
  NodeId src;
  NodeId dst;
  double capacity_bps = 0;
  SimDuration delay = SimDuration::Zero();
  // Jitter: per-traversal extra delay ~ |Normal(0, jitter_stddev)|.
  SimDuration jitter_stddev = SimDuration::Zero();
  // Random loss probability per traversal (public internet > backbone).
  double loss_rate = 0;
  LinkClass cls = LinkClass::kBackbone;
  // Administrative/fault state. A down link is invisible to path selection
  // (ShortestPath skips it before consulting the cost function) and carries
  // no capacity in the flow simulator.
  bool up = true;
};

class Topology {
 public:
  NodeId AddNode(NodeInfo info);

  // Adds a unidirectional link.
  LinkId AddLink(LinkInfo info);

  // Adds a pair of links (one each direction) with identical parameters;
  // returns {forward, reverse}.
  std::pair<LinkId, LinkId> AddDuplexLink(LinkInfo info);

  const NodeInfo& node(NodeId id) const { return nodes_[Index(id)]; }
  const LinkInfo& link(LinkId id) const { return links_[Index(id)]; }

  size_t node_count() const { return nodes_.size(); }
  size_t link_count() const { return links_.size(); }

  // Fault state. Downing a link removes it from path selection; recovery
  // restores it. FlowSim mirrors this state for capacity (see
  // FlowSim::SetLinkUp); fault injectors set both. Idempotent per state;
  // InvalidArgument for an unknown link, with state and revision untouched.
  Status SetLinkUp(LinkId id, bool up);
  bool IsLinkUp(LinkId id) const { return links_[Index(id)].up; }
  size_t down_link_count() const;

  // Bumped by every change path selection can see: AddNode, AddLink, and a
  // SetLinkUp that flips a link. Path memos key on it
  // (CloudWorld::ResolvePath).
  uint64_t revision() const { return revision_; }

  // All links touching `node`, in either direction (for node-level faults:
  // an edge-router restart downs everything incident). O(links).
  std::vector<LinkId> IncidentLinks(NodeId node) const;

  // All links leaving `node`.
  const std::vector<LinkId>& OutLinks(NodeId node) const {
    return out_links_[Index(node)];
  }

  // Cost function for path selection. Return a nonnegative cost, or
  // std::nullopt to forbid the link entirely.
  using CostFn = std::function<std::optional<double>(const LinkInfo&)>;

  // Standard costs.
  static CostFn DelayCost();                     // minimize propagation delay
  static CostFn HopCost();                       // minimize hop count
  // Delay cost with per-class multipliers; used for potato policies (e.g.
  // cold potato = cheap backbone, expensive public internet).
  static CostFn ClassWeightedDelayCost(double datacenter, double backbone,
                                       double public_internet,
                                       double dedicated);

  // Dijkstra. Returns the link sequence from src to dst, empty if src==dst.
  Result<std::vector<LinkId>> ShortestPath(NodeId src, NodeId dst,
                                           const CostFn& cost) const;

  // Sum of propagation delays along a path.
  SimDuration PathDelay(const std::vector<LinkId>& path) const;

  // Path delay including sampled jitter per link (one traversal).
  SimDuration SamplePathDelay(const std::vector<LinkId>& path, Rng& rng) const;

  // Probability a traversal survives loss on every link of the path.
  double PathDeliveryProbability(const std::vector<LinkId>& path) const;

  // Graphviz dot rendering of the topology (nodes grouped by domain,
  // links colored by class). Duplex pairs collapse to one undirected edge.
  std::string ToDot() const;

  // Dense 0-based index of a link (ids are allocated contiguously from 1).
  // Lets hot-path consumers (FlowSim) keep per-link state in flat arrays
  // instead of hash maps.
  static constexpr size_t DenseLinkIndex(LinkId id) { return id.value() - 1; }

 private:
  static size_t Index(NodeId id) { return id.value() - 1; }
  static size_t Index(LinkId id) { return id.value() - 1; }

  std::vector<NodeInfo> nodes_;
  std::vector<LinkInfo> links_;
  std::vector<std::vector<LinkId>> out_links_;
  uint64_t revision_ = 0;
};

// Connected components of the topology's *undirected* link graph (a duplex
// pair or any directed link joins its endpoints). Components are numbered
// deterministically: component k contains the k-th smallest node index
// among component minima, so the numbering depends only on insertion order,
// never on traversal order. The shard executor reads only the count, as a
// floor on its shard target; its shards are link-cut parts (below), which
// may cut through a component.
struct TopologyComponents {
  // Dense node index (NodeId.value()-1) -> component number.
  std::vector<uint32_t> node_component;
  // Dense link index -> component number (component of both endpoints).
  std::vector<uint32_t> link_component;
  uint32_t count = 0;
};

TopologyComponents ComputeTopologyComponents(const Topology& topology);

// Region/link-cut partition of the topology into `count` parts. Unlike
// TopologyComponents, parts may cut through a connected component: a
// realistic production topology is one giant WAN-stitched component, and
// cutting it at the (few, low-degree) inter-region links is what lets the
// shard executor parallelize it. Links whose endpoints land in different
// parts are *border links*; the executor treats them (and any link used by
// flows homed in several shards) as epoch-synchronized shared resources.
//
// The partition is a pure function of (topology, target_parts, seed) —
// never of thread count or traversal order — so sharded simulation results
// stay byte-identical across any number of worker threads.
struct LinkCutPartition {
  // Dense node index (NodeId.value()-1) -> part number in [0, count).
  std::vector<uint32_t> node_part;
  // Dense link index -> owning part (the part of the link's source node).
  std::vector<uint32_t> link_part;
  // Dense link index -> 1 if the link's endpoints are in different parts.
  std::vector<uint8_t> link_is_border;
  uint32_t count = 0;
  uint32_t border_link_count = 0;

  // Edge-cut quality: fraction of links crossing a part boundary.
  double CutFraction() const {
    return link_part.empty()
               ? 0.0
               : static_cast<double>(border_link_count) / link_part.size();
  }
};

// Greedy balanced edge-cut, deterministic and seeded:
//   1. Connected components are computed first; parts are distributed to
//      components proportionally to node count (every component gets at
//      least one part; if components >= target, component c maps to part
//      c mod target and no component is cut).
//   2. Inside a component awarded p > 1 parts, p start nodes are picked
//      greedily k-center style (the seed rotates the first pick; ties break
//      on smallest node index) and regions grow by balanced multi-source
//      BFS: the smallest region claims next, so regions stay within ~1 node
//      of each other in size.
//   3. One boundary-refinement sweep moves nodes (ascending index order) to
//      the neighboring part holding most of their edges when that strictly
//      reduces the cut and keeps part sizes balanced.
// target_parts == 0 or 1 yields the trivial single-part partition.
LinkCutPartition ComputeLinkCutPartition(const Topology& topology,
                                         uint32_t target_parts,
                                         uint64_t seed = 0);

}  // namespace tenantnet

#endif  // TENANTNET_SRC_SIM_TOPOLOGY_H_
