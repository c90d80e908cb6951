#include "src/sim/topology.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <queue>

namespace tenantnet {

NodeId Topology::AddNode(NodeInfo info) {
  nodes_.push_back(std::move(info));
  out_links_.emplace_back();
  ++revision_;
  return NodeId(nodes_.size());
}

LinkId Topology::AddLink(LinkInfo info) {
  assert(info.src.valid() && info.dst.valid());
  assert(info.capacity_bps > 0);
  links_.push_back(info);
  LinkId id(links_.size());
  out_links_[Index(info.src)].push_back(id);
  ++revision_;
  return id;
}

std::pair<LinkId, LinkId> Topology::AddDuplexLink(LinkInfo info) {
  LinkId forward = AddLink(info);
  std::swap(info.src, info.dst);
  LinkId reverse = AddLink(info);
  return {forward, reverse};
}

Topology::CostFn Topology::DelayCost() {
  return [](const LinkInfo& link) -> std::optional<double> {
    return link.delay.ToSeconds();
  };
}

Topology::CostFn Topology::HopCost() {
  return [](const LinkInfo&) -> std::optional<double> { return 1.0; };
}

Topology::CostFn Topology::ClassWeightedDelayCost(double datacenter,
                                                  double backbone,
                                                  double public_internet,
                                                  double dedicated) {
  return [=](const LinkInfo& link) -> std::optional<double> {
    double mult = 1.0;
    switch (link.cls) {
      case LinkClass::kDatacenter:
        mult = datacenter;
        break;
      case LinkClass::kBackbone:
        mult = backbone;
        break;
      case LinkClass::kPublicInternet:
        mult = public_internet;
        break;
      case LinkClass::kDedicated:
        mult = dedicated;
        break;
    }
    if (mult < 0) {
      return std::nullopt;  // negative multiplier forbids the class
    }
    // Small epsilon keeps zero-delay links from making all paths tie.
    return mult * (link.delay.ToSeconds() + 1e-6);
  };
}

Result<std::vector<LinkId>> Topology::ShortestPath(NodeId src, NodeId dst,
                                                   const CostFn& cost) const {
  if (!src.valid() || Index(src) >= nodes_.size() || !dst.valid() ||
      Index(dst) >= nodes_.size()) {
    return InvalidArgumentError("unknown node id");
  }
  if (src == dst) {
    return std::vector<LinkId>{};
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(nodes_.size(), kInf);
  std::vector<LinkId> via(nodes_.size());  // link used to reach node
  using QEntry = std::pair<double, NodeId>;
  auto cmp = [](const QEntry& a, const QEntry& b) { return a.first > b.first; };
  std::priority_queue<QEntry, std::vector<QEntry>, decltype(cmp)> queue(cmp);

  dist[Index(src)] = 0;
  queue.push({0, src});
  while (!queue.empty()) {
    auto [d, node] = queue.top();
    queue.pop();
    if (d > dist[Index(node)]) {
      continue;  // stale entry
    }
    if (node == dst) {
      break;
    }
    for (LinkId link_id : out_links_[Index(node)]) {
      const LinkInfo& link = links_[Index(link_id)];
      if (!link.up) {
        continue;  // faulted links are unusable regardless of cost policy
      }
      std::optional<double> c = cost(link);
      if (!c.has_value()) {
        continue;
      }
      double nd = d + *c;
      if (nd < dist[Index(link.dst)]) {
        dist[Index(link.dst)] = nd;
        via[Index(link.dst)] = link_id;
        queue.push({nd, link.dst});
      }
    }
  }

  if (dist[Index(dst)] == kInf) {
    return NotFoundError("no path from " + nodes_[Index(src)].name + " to " +
                         nodes_[Index(dst)].name);
  }
  std::vector<LinkId> path;
  for (NodeId at = dst; at != src;) {
    LinkId link_id = via[Index(at)];
    path.push_back(link_id);
    at = links_[Index(link_id)].src;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

Status Topology::SetLinkUp(LinkId id, bool up) {
  if (!id.valid() || Index(id) >= links_.size()) {
    return InvalidArgumentError("unknown link id");
  }
  LinkInfo& link = links_[Index(id)];
  if (link.up != up) {
    link.up = up;
    ++revision_;
  }
  return Status::Ok();
}

size_t Topology::down_link_count() const {
  size_t n = 0;
  for (const LinkInfo& link : links_) {
    n += link.up ? 0 : 1;
  }
  return n;
}

std::vector<LinkId> Topology::IncidentLinks(NodeId node) const {
  std::vector<LinkId> incident;
  for (size_t i = 0; i < links_.size(); ++i) {
    if (links_[i].src == node || links_[i].dst == node) {
      incident.push_back(LinkId(i + 1));
    }
  }
  return incident;
}

SimDuration Topology::PathDelay(const std::vector<LinkId>& path) const {
  SimDuration total = SimDuration::Zero();
  for (LinkId id : path) {
    total += links_[Index(id)].delay;
  }
  return total;
}

SimDuration Topology::SamplePathDelay(const std::vector<LinkId>& path,
                                      Rng& rng) const {
  SimDuration total = SimDuration::Zero();
  for (LinkId id : path) {
    const LinkInfo& link = links_[Index(id)];
    total += link.delay;
    if (link.jitter_stddev > SimDuration::Zero()) {
      double jitter_s =
          std::abs(rng.NextNormal(0.0, link.jitter_stddev.ToSeconds()));
      total += SimDuration::Seconds(jitter_s);
    }
  }
  return total;
}

double Topology::PathDeliveryProbability(const std::vector<LinkId>& path) const {
  double p = 1.0;
  for (LinkId id : path) {
    p *= 1.0 - links_[Index(id)].loss_rate;
  }
  return p;
}

std::string Topology::ToDot() const {
  std::ostringstream os;
  os << "graph tenantnet {\n  overlap=false;\n  node [shape=box];\n";
  // Cluster nodes by administrative domain.
  std::map<std::string, std::vector<size_t>> by_domain;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    by_domain[nodes_[i].domain].push_back(i);
  }
  int cluster = 0;
  for (const auto& [domain, members] : by_domain) {
    os << "  subgraph cluster_" << cluster++ << " {\n    label=\"" << domain
       << "\";\n";
    for (size_t i : members) {
      os << "    n" << i + 1 << " [label=\"" << nodes_[i].name << "\"];\n";
    }
    os << "  }\n";
  }
  // One undirected edge per duplex pair (emit when src < dst; true duplex
  // links are added in adjacent pairs, so this halves them exactly).
  for (const LinkInfo& link : links_) {
    if (link.src.value() >= link.dst.value()) {
      continue;
    }
    const char* color = "black";
    switch (link.cls) {
      case LinkClass::kDatacenter:
        color = "gray";
        break;
      case LinkClass::kBackbone:
        color = "blue";
        break;
      case LinkClass::kPublicInternet:
        color = "black";
        break;
      case LinkClass::kDedicated:
        color = "red";
        break;
    }
    os << "  n" << link.src.value() << " -- n" << link.dst.value()
       << " [color=" << color << ", label=\""
       << link.capacity_bps / 1e9 << "G/"
       << link.delay.ToMillis() << "ms\"];\n";
  }
  os << "}\n";
  return os.str();
}

TopologyComponents ComputeTopologyComponents(const Topology& topology) {
  const size_t n = topology.node_count();
  // Union-find over dense node indices with path halving + union by size.
  std::vector<uint32_t> parent(n);
  std::vector<uint32_t> size(n, 1);
  for (size_t i = 0; i < n; ++i) {
    parent[i] = static_cast<uint32_t>(i);
  }
  auto find = [&parent](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](uint32_t a, uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) {
      return;
    }
    if (size[a] < size[b]) {
      std::swap(a, b);
    }
    parent[b] = a;
    size[a] += size[b];
  };

  const size_t m = topology.link_count();
  for (size_t i = 0; i < m; ++i) {
    LinkId id(static_cast<uint64_t>(i) + 1);
    const LinkInfo& link = topology.link(id);
    unite(static_cast<uint32_t>(link.src.value() - 1),
          static_cast<uint32_t>(link.dst.value() - 1));
  }

  // Number components by ascending smallest node index: the first time a
  // root is seen while scanning nodes in order, it gets the next number.
  TopologyComponents out;
  out.node_component.assign(n, 0);
  constexpr uint32_t kUnassigned = ~0u;
  std::vector<uint32_t> root_component(n, kUnassigned);
  for (size_t i = 0; i < n; ++i) {
    uint32_t root = find(static_cast<uint32_t>(i));
    if (root_component[root] == kUnassigned) {
      root_component[root] = out.count++;
    }
    out.node_component[i] = root_component[root];
  }
  out.link_component.assign(m, 0);
  for (size_t i = 0; i < m; ++i) {
    LinkId id(static_cast<uint64_t>(i) + 1);
    out.link_component[i] =
        out.node_component[topology.link(id).src.value() - 1];
  }
  return out;
}

namespace {

// Undirected adjacency over dense node indices, deduped per node and kept
// in ascending neighbor order so every traversal below is deterministic.
std::vector<std::vector<uint32_t>> BuildUndirectedAdjacency(
    const Topology& topology) {
  const size_t n = topology.node_count();
  std::vector<std::vector<uint32_t>> adj(n);
  const size_t m = topology.link_count();
  for (size_t i = 0; i < m; ++i) {
    const LinkInfo& link = topology.link(LinkId(static_cast<uint64_t>(i) + 1));
    uint32_t a = static_cast<uint32_t>(link.src.value() - 1);
    uint32_t b = static_cast<uint32_t>(link.dst.value() - 1);
    if (a == b) {
      continue;
    }
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  for (std::vector<uint32_t>& neighbors : adj) {
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
  }
  return adj;
}

// Picks `parts` spread-out start nodes inside one component, greedy
// k-center: the seed rotates the first pick among the candidates; each
// later pick maximizes BFS hop distance to the chosen set (ties break on
// smallest node index). Leaf nodes (degree <= 1) are excluded from
// candidacy when enough non-leaf members exist: in hub-and-spoke shapes
// the farthest nodes are always leaf hosts, and a region grown from a leaf
// collides with its only neighbor's region immediately and strands the
// start as a singleton part.
std::vector<uint32_t> PickStarts(
    const std::vector<uint32_t>& members,
    const std::vector<std::vector<uint32_t>>& adj, uint32_t parts,
    uint64_t seed, std::vector<uint32_t>& dist_scratch) {
  std::vector<uint32_t> candidates;
  for (uint32_t node : members) {
    if (adj[node].size() >= 2) {
      candidates.push_back(node);
    }
  }
  if (candidates.size() < parts) {
    candidates = members;
  }
  std::vector<uint32_t> starts;
  starts.push_back(candidates[seed % candidates.size()]);
  constexpr uint32_t kInf = ~0u;
  // dist_scratch[node] = hop distance to the nearest chosen start.
  for (uint32_t node : members) {
    dist_scratch[node] = kInf;
  }
  std::vector<uint32_t> frontier;
  auto relax_from = [&](uint32_t start) {
    frontier.clear();
    dist_scratch[start] = 0;
    frontier.push_back(start);
    for (size_t head = 0; head < frontier.size(); ++head) {
      uint32_t node = frontier[head];
      for (uint32_t next : adj[node]) {
        if (dist_scratch[next] > dist_scratch[node] + 1) {
          dist_scratch[next] = dist_scratch[node] + 1;
          frontier.push_back(next);
        }
      }
    }
  };
  relax_from(starts[0]);
  while (starts.size() < parts) {
    uint32_t best = candidates[0];
    uint32_t best_dist = 0;
    for (uint32_t node : candidates) {
      uint32_t d = dist_scratch[node] == kInf ? 0 : dist_scratch[node];
      if (d > best_dist) {
        best_dist = d;
        best = node;
      }
    }
    if (best_dist == 0) {
      // Fewer distinct positions than parts (tiny component); reuse the
      // first unpicked member in index order.
      for (uint32_t node : members) {
        if (dist_scratch[node] != 0) {
          best = node;
          break;
        }
      }
    }
    starts.push_back(best);
    relax_from(best);
  }
  return starts;
}

}  // namespace

LinkCutPartition ComputeLinkCutPartition(const Topology& topology,
                                         uint32_t target_parts,
                                         uint64_t seed) {
  const size_t n = topology.node_count();
  const size_t m = topology.link_count();
  LinkCutPartition out;
  out.node_part.assign(n, 0);
  out.link_part.assign(m, 0);
  out.link_is_border.assign(m, 0);

  TopologyComponents comps = ComputeTopologyComponents(topology);
  uint32_t target = target_parts == 0 ? 1 : target_parts;
  if (n > 0) {
    target = std::min<uint32_t>(target, static_cast<uint32_t>(n));
  }

  if (target <= 1 || n == 0) {
    out.count = n == 0 ? 0 : 1;
  } else if (comps.count >= target) {
    // Enough natural parallelism: never cut a component, fold components
    // onto parts round-robin (the pre-link-cut sharding rule).
    out.count = target;
    for (size_t i = 0; i < n; ++i) {
      out.node_part[i] = comps.node_component[i] % target;
    }
  } else {
    // Distribute parts to components proportionally to node count, one
    // minimum each, remainders by largest fraction (ties: smaller index).
    std::vector<std::vector<uint32_t>> members(comps.count);
    for (size_t i = 0; i < n; ++i) {
      members[comps.node_component[i]].push_back(static_cast<uint32_t>(i));
    }
    std::vector<uint32_t> parts_of(comps.count, 1);
    uint32_t assigned = comps.count;
    std::vector<double> fraction(comps.count, 0.0);
    for (uint32_t c = 0; c < comps.count; ++c) {
      double ideal = static_cast<double>(members[c].size()) * target /
                     static_cast<double>(n);
      uint32_t extra = ideal > 1.0 ? static_cast<uint32_t>(ideal) - 1 : 0;
      extra = std::min<uint32_t>(
          extra, static_cast<uint32_t>(members[c].size()) - 1);
      parts_of[c] += extra;
      assigned += extra;
      fraction[c] = ideal - std::floor(ideal);
    }
    while (assigned < target) {
      constexpr uint32_t kNone = ~0u;
      uint32_t best = kNone;
      double best_fraction = -std::numeric_limits<double>::infinity();
      for (uint32_t c = 0; c < comps.count; ++c) {
        if (parts_of[c] >= members[c].size()) {
          continue;  // cannot hold more parts than nodes
        }
        if (fraction[c] > best_fraction) {
          best_fraction = fraction[c];
          best = c;
        }
      }
      if (best == kNone) {
        break;  // every component saturated; fewer parts than asked
      }
      ++parts_of[best];
      fraction[best] -= 1.0;  // de-prioritize: one bonus part per round
      ++assigned;
    }

    std::vector<std::vector<uint32_t>> adj = BuildUndirectedAdjacency(topology);
    std::vector<uint32_t> dist_scratch(n, 0);
    std::vector<uint8_t> claimed(n, 0);
    uint32_t next_part = 0;
    for (uint32_t c = 0; c < comps.count; ++c) {
      uint32_t parts = parts_of[c];
      uint32_t base = next_part;
      next_part += parts;
      if (parts == 1) {
        for (uint32_t node : members[c]) {
          out.node_part[node] = base;
        }
        continue;
      }
      std::vector<uint32_t> starts =
          PickStarts(members[c], adj, parts, seed, dist_scratch);
      // Balanced multi-source BFS growth: the smallest region (ties: lowest
      // part id) claims the next unclaimed node off its FIFO frontier.
      std::vector<std::vector<uint32_t>> frontier(parts);
      std::vector<size_t> head(parts, 0);
      std::vector<uint32_t> size_of(parts, 0);
      for (uint32_t p = 0; p < parts; ++p) {
        frontier[p].push_back(starts[p]);
      }
      uint32_t total_claimed = 0;
      const uint32_t component_size = static_cast<uint32_t>(members[c].size());
      while (total_claimed < component_size) {
        uint32_t pick = parts;  // part to grow next
        for (uint32_t p = 0; p < parts; ++p) {
          if (head[p] >= frontier[p].size()) {
            continue;
          }
          if (pick == parts || size_of[p] < size_of[pick]) {
            pick = p;
          }
        }
        if (pick == parts) {
          // All frontiers exhausted with unclaimed members left (only
          // possible via adversarial self-loops); sweep them into the
          // smallest part in index order.
          uint32_t smallest = 0;
          for (uint32_t p = 1; p < parts; ++p) {
            if (size_of[p] < size_of[smallest]) {
              smallest = p;
            }
          }
          for (uint32_t node : members[c]) {
            if (!claimed[node]) {
              claimed[node] = 1;
              out.node_part[node] = base + smallest;
              ++size_of[smallest];
              ++total_claimed;
            }
          }
          break;
        }
        uint32_t node = frontier[pick][head[pick]++];
        if (claimed[node]) {
          continue;
        }
        claimed[node] = 1;
        out.node_part[node] = base + pick;
        ++size_of[pick];
        ++total_claimed;
        for (uint32_t next : adj[node]) {
          if (!claimed[next]) {
            frontier[pick].push_back(next);
          }
        }
      }
    }
    out.count = next_part;

    // One deterministic boundary-refinement sweep: move a node to the
    // neighboring part holding strictly more of its edges, provided the
    // donor part stays nonempty and sizes stay within +/-1 of the pre-move
    // spread (greedy Kernighan–Lin-style cut reduction without unbalancing).
    std::vector<uint32_t> part_size(out.count, 0);
    for (size_t i = 0; i < n; ++i) {
      ++part_size[out.node_part[i]];
    }
    std::vector<uint32_t> gain(out.count, 0);
    std::vector<uint32_t> touched;
    for (size_t i = 0; i < n; ++i) {
      uint32_t from = out.node_part[i];
      if (part_size[from] <= 1) {
        continue;
      }
      touched.clear();
      for (uint32_t next : adj[i]) {
        uint32_t p = out.node_part[next];
        if (gain[p]++ == 0) {
          touched.push_back(p);
        }
      }
      uint32_t best_part = from;
      uint32_t best_gain = gain[from];
      for (uint32_t p : touched) {
        // Strictly-more edges, receiving part not already larger: keeps the
        // sweep cut-reducing and balance-preserving. Ties keep `from`
        // (smaller part id wins only through the strict compare), so the
        // sweep is deterministic.
        if (p != from && gain[p] > best_gain &&
            part_size[p] <= part_size[from]) {
          best_gain = gain[p];
          best_part = p;
        }
      }
      for (uint32_t p : touched) {
        gain[p] = 0;
      }
      if (best_part != from) {
        out.node_part[i] = best_part;
        --part_size[from];
        ++part_size[best_part];
      }
    }
  }

  for (size_t i = 0; i < m; ++i) {
    const LinkInfo& link = topology.link(LinkId(static_cast<uint64_t>(i) + 1));
    uint32_t src_part = out.node_part[link.src.value() - 1];
    uint32_t dst_part = out.node_part[link.dst.value() - 1];
    out.link_part[i] = src_part;
    if (src_part != dst_part) {
      out.link_is_border[i] = 1;
      ++out.border_link_count;
    }
  }
  return out;
}

}  // namespace tenantnet
