#include "src/cloud/world.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace tenantnet {
namespace {

// The link and instance model of every world.
constexpr double kDcLinkBps = 400e9;          // zone <-> edge
constexpr SimDuration kDcLinkDelay = SimDuration::Micros(250);
constexpr double kBackboneBps = 100e9;        // region <-> region, same provider
constexpr SimDuration kBackboneJitter = SimDuration::Micros(50);
constexpr double kInternetBps = 40e9;         // transit links
constexpr SimDuration kInternetJitter = SimDuration::Millis(2);
constexpr double kInternetLoss = 0.0005;
constexpr double kEdgeUplinkBps = 80e9;       // provider edge <-> transit router
constexpr double kExchangeUplinkBps = 50e9;   // IXP <-> transit router
constexpr double kDefaultVmEgressBps = 10e9;
// One-way delay per unit of geo distance.
constexpr SimDuration kDelayPerDistance = SimDuration::Millis(1);

}  // namespace

double GeoDistance(GeoPoint a, GeoPoint b) {
  double dx = a.x - b.x;
  double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

std::string_view EgressPolicyName(EgressPolicy policy) {
  switch (policy) {
    case EgressPolicy::kHotPotato:
      return "hot-potato";
    case EgressPolicy::kColdPotato:
      return "cold-potato";
    case EgressPolicy::kDedicated:
      return "dedicated";
  }
  return "?";
}

SimDuration CloudWorld::DelayFor(GeoPoint a, GeoPoint b) const {
  double d = GeoDistance(a, b);
  // Minimum floor keeps co-located sites from having zero-delay links.
  return std::max(SimDuration::Micros(100),
                  kDelayPerDistance * d);
}

NodeId CloudWorld::NearestTransit(GeoPoint position) const {
  assert(!transit_routers_.empty() &&
         "add transit routers before attaching sites");
  NodeId best;
  double best_dist = std::numeric_limits<double>::infinity();
  for (const auto& [node, pos] : transit_routers_) {
    double d = GeoDistance(position, pos);
    if (d < best_dist) {
      best_dist = d;
      best = node;
    }
  }
  return best;
}

NodeId CloudWorld::AddTransitRouter(const std::string& name,
                                    GeoPoint position) {
  NodeId node = topology_.AddNode(
      NodeInfo{name, NodeKind::kInternetRouter, "internet"});
  for (const auto& [peer, pos] : transit_routers_) {
    topology_.AddDuplexLink(LinkInfo{
        .src = node,
        .dst = peer,
        .capacity_bps = kInternetBps,
        .delay = DelayFor(position, pos),
        .jitter_stddev = kInternetJitter,
        .loss_rate = kInternetLoss,
        .cls = LinkClass::kPublicInternet,
    });
  }
  transit_routers_.push_back({node, position});
  return node;
}

ProviderId CloudWorld::AddProvider(const std::string& name, uint32_t asn,
                                   IpPrefix address_space) {
  providers_.push_back(ProviderSite{name, asn, address_space, {}});
  return ProviderId(providers_.size());
}

RegionId CloudWorld::AddRegion(ProviderId provider, const std::string& name,
                               GeoPoint position, int zone_count) {
  assert(provider.valid() && provider.value() <= providers_.size());
  ProviderSite& site = providers_[provider.value() - 1];

  RegionSite region;
  region.provider = provider;
  region.name = name;
  region.position = position;
  region.edge_node = topology_.AddNode(
      NodeInfo{site.name + ":" + name + ":edge", NodeKind::kEdgeRouter,
               site.name});
  for (int z = 0; z < zone_count; ++z) {
    std::string zone_name = name + char('a' + z);
    NodeId host = topology_.AddNode(
        NodeInfo{site.name + ":" + zone_name + ":hosts",
                 NodeKind::kHostAggregate, site.name});
    topology_.AddDuplexLink(LinkInfo{
        .src = host,
        .dst = region.edge_node,
        .capacity_bps = kDcLinkBps,
        .delay = kDcLinkDelay,
        .jitter_stddev = SimDuration::Micros(10),
        .loss_rate = 0,
        .cls = LinkClass::kDatacenter,
    });
    region.zones.push_back(ZoneSite{zone_name, host});
  }

  // Backbone mesh to the provider's other regions.
  for (RegionId other_id : site.regions) {
    const RegionSite& other = regions_[other_id.value() - 1];
    topology_.AddDuplexLink(LinkInfo{
        .src = region.edge_node,
        .dst = other.edge_node,
        .capacity_bps = kBackboneBps,
        .delay = DelayFor(position, other.position),
        .jitter_stddev = kBackboneJitter,
        .loss_rate = 0,
        .cls = LinkClass::kBackbone,
    });
  }

  // Uplink to the public internet.
  NodeId transit = NearestTransit(position);
  GeoPoint transit_pos;
  for (const auto& [node, pos] : transit_routers_) {
    if (node == transit) {
      transit_pos = pos;
    }
  }
  topology_.AddDuplexLink(LinkInfo{
      .src = region.edge_node,
      .dst = transit,
      .capacity_bps = kEdgeUplinkBps,
      .delay = DelayFor(position, transit_pos),
      .jitter_stddev = kInternetJitter,
      .loss_rate = kInternetLoss,
      .cls = LinkClass::kPublicInternet,
  });

  regions_.push_back(std::move(region));
  RegionId id(regions_.size());
  site.regions.push_back(id);
  return id;
}

ExchangeId CloudWorld::AddExchange(const std::string& name,
                                   GeoPoint position) {
  NodeId node =
      topology_.AddNode(NodeInfo{name, NodeKind::kExchangePoint, "ixp"});
  NodeId transit = NearestTransit(position);
  GeoPoint transit_pos;
  for (const auto& [tn, pos] : transit_routers_) {
    if (tn == transit) {
      transit_pos = pos;
    }
  }
  topology_.AddDuplexLink(LinkInfo{
      .src = node,
      .dst = transit,
      .capacity_bps = kExchangeUplinkBps,
      .delay = DelayFor(position, transit_pos),
      .jitter_stddev = kInternetJitter,
      .loss_rate = kInternetLoss,
      .cls = LinkClass::kPublicInternet,
  });
  exchanges_.push_back(ExchangeSite{name, position, node});
  return ExchangeId(exchanges_.size());
}

OnPremId CloudWorld::AddOnPrem(const std::string& name, GeoPoint position,
                               IpPrefix address_space) {
  NodeId router = topology_.AddNode(
      NodeInfo{name + ":router", NodeKind::kOnPremRouter, name});
  NodeId host = topology_.AddNode(
      NodeInfo{name + ":hosts", NodeKind::kHostAggregate, name});
  topology_.AddDuplexLink(LinkInfo{
      .src = host,
      .dst = router,
      .capacity_bps = kDcLinkBps,
      .delay = kDcLinkDelay,
      .jitter_stddev = SimDuration::Micros(10),
      .loss_rate = 0,
      .cls = LinkClass::kDatacenter,
  });
  NodeId transit = NearestTransit(position);
  GeoPoint transit_pos;
  for (const auto& [tn, pos] : transit_routers_) {
    if (tn == transit) {
      transit_pos = pos;
    }
  }
  topology_.AddDuplexLink(LinkInfo{
      .src = router,
      .dst = transit,
      .capacity_bps = kInternetBps / 4,
      .delay = DelayFor(position, transit_pos),
      .jitter_stddev = kInternetJitter,
      .loss_rate = kInternetLoss,
      .cls = LinkClass::kPublicInternet,
  });
  on_prems_.push_back(OnPremSite{name, position, router, host, address_space});
  return OnPremId(on_prems_.size());
}

Result<LinkId> CloudWorld::AddDedicatedCircuit(RegionId region,
                                               ExchangeId exchange,
                                               double capacity_bps) {
  if (!region.valid() || region.value() > regions_.size()) {
    return InvalidArgumentError("unknown region");
  }
  if (!exchange.valid() || exchange.value() > exchanges_.size()) {
    return InvalidArgumentError("unknown exchange");
  }
  const RegionSite& r = regions_[region.value() - 1];
  const ExchangeSite& x = exchanges_[exchange.value() - 1];
  auto [forward, reverse] = topology_.AddDuplexLink(LinkInfo{
      .src = r.edge_node,
      .dst = x.node,
      .capacity_bps = capacity_bps,
      .delay = DelayFor(r.position, x.position),
      .jitter_stddev = SimDuration::Micros(20),  // circuits are steady
      .loss_rate = 0,
      .cls = LinkClass::kDedicated,
  });
  (void)reverse;
  return forward;
}

Result<LinkId> CloudWorld::AddDedicatedCircuitFromOnPrem(OnPremId on_prem,
                                                         ExchangeId exchange,
                                                         double capacity_bps) {
  if (!on_prem.valid() || on_prem.value() > on_prems_.size()) {
    return InvalidArgumentError("unknown on-prem site");
  }
  if (!exchange.valid() || exchange.value() > exchanges_.size()) {
    return InvalidArgumentError("unknown exchange");
  }
  const OnPremSite& o = on_prems_[on_prem.value() - 1];
  const ExchangeSite& x = exchanges_[exchange.value() - 1];
  auto [forward, reverse] = topology_.AddDuplexLink(LinkInfo{
      .src = o.router_node,
      .dst = x.node,
      .capacity_bps = capacity_bps,
      .delay = DelayFor(o.position, x.position),
      .jitter_stddev = SimDuration::Micros(20),
      .loss_rate = 0,
      .cls = LinkClass::kDedicated,
  });
  (void)reverse;
  return forward;
}

TenantId CloudWorld::AddTenant(const std::string& name) {
  tenants_.push_back(name);
  return TenantId(tenants_.size());
}

Result<InstanceId> CloudWorld::LaunchInstance(TenantId tenant,
                                              ProviderId provider,
                                              RegionId region,
                                              int zone_index) {
  if (!tenant.valid() || tenant.value() > tenants_.size()) {
    return InvalidArgumentError("unknown tenant");
  }
  if (!region.valid() || region.value() > regions_.size()) {
    return InvalidArgumentError("unknown region");
  }
  const RegionSite& r = regions_[region.value() - 1];
  if (r.provider != provider) {
    return InvalidArgumentError("region does not belong to provider");
  }
  if (zone_index < 0 || static_cast<size_t>(zone_index) >= r.zones.size()) {
    return InvalidArgumentError("bad zone index");
  }
  Instance inst;
  inst.id = instance_ids_.Next();
  inst.tenant = tenant;
  inst.provider = provider;
  inst.region = region;
  inst.zone_index = zone_index;
  inst.host_node = r.zones[zone_index].host_node;
  inst.vm_egress_cap_bps = kDefaultVmEgressBps;
  InstanceId id = inst.id;
  instances_.emplace(id, inst);
  ++live_instance_count_;
  ++instance_state_epoch_;
  return id;
}

Result<InstanceId> CloudWorld::LaunchOnPremInstance(TenantId tenant,
                                                    OnPremId on_prem) {
  if (!tenant.valid() || tenant.value() > tenants_.size()) {
    return InvalidArgumentError("unknown tenant");
  }
  if (!on_prem.valid() || on_prem.value() > on_prems_.size()) {
    return InvalidArgumentError("unknown on-prem site");
  }
  Instance inst;
  inst.id = instance_ids_.Next();
  inst.tenant = tenant;
  inst.on_prem = on_prem;
  inst.host_node = on_prems_[on_prem.value() - 1].host_node;
  inst.vm_egress_cap_bps = kDefaultVmEgressBps;
  InstanceId id = inst.id;
  instances_.emplace(id, inst);
  ++live_instance_count_;
  ++instance_state_epoch_;
  return id;
}

Status CloudWorld::TerminateInstance(InstanceId id) {
  auto it = instances_.find(id);
  if (it == instances_.end() || !it->second.running) {
    return NotFoundError("no such running instance");
  }
  it->second.running = false;
  --live_instance_count_;
  ++instance_state_epoch_;
  return Status::Ok();
}

Status CloudWorld::SetInstanceRunning(InstanceId id, bool running) {
  auto it = instances_.find(id);
  if (it == instances_.end()) {
    return NotFoundError("no such instance");
  }
  if (it->second.running == running) {
    return Status::Ok();
  }
  it->second.running = running;
  live_instance_count_ += running ? 1 : -1;
  ++instance_state_epoch_;
  return Status::Ok();
}

const ProviderSite& CloudWorld::provider(ProviderId id) const {
  assert(id.valid() && id.value() <= providers_.size());
  return providers_[id.value() - 1];
}
const RegionSite& CloudWorld::region(RegionId id) const {
  assert(id.valid() && id.value() <= regions_.size());
  return regions_[id.value() - 1];
}
const ExchangeSite& CloudWorld::exchange(ExchangeId id) const {
  assert(id.valid() && id.value() <= exchanges_.size());
  return exchanges_[id.value() - 1];
}
const OnPremSite& CloudWorld::on_prem(OnPremId id) const {
  assert(id.valid() && id.value() <= on_prems_.size());
  return on_prems_[id.value() - 1];
}

const Instance* CloudWorld::FindInstance(InstanceId id) const {
  auto it = instances_.find(id);
  return it == instances_.end() ? nullptr : &it->second;
}

std::vector<InstanceId> CloudWorld::TenantInstances(TenantId tenant) const {
  std::vector<InstanceId> out;
  for (const auto& [id, inst] : instances_) {
    if (inst.tenant == tenant && inst.running) {
      out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<InstanceId> CloudWorld::AllInstances() const {
  std::vector<InstanceId> out;
  out.reserve(instances_.size());
  for (const auto& [id, inst] : instances_) {
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Topology::CostFn CloudWorld::PathCost(EgressPolicy policy) {
  switch (policy) {
    case EgressPolicy::kHotPotato:
      // Backbone is expensive: traffic exits to transit at the first edge.
      return Topology::ClassWeightedDelayCost(/*datacenter=*/1.0,
                                              /*backbone=*/25.0,
                                              /*public_internet=*/1.0,
                                              /*dedicated=*/25.0);
    case EgressPolicy::kColdPotato:
      // Public internet is expensive: traffic rides the backbone to the
      // edge nearest the destination before exiting.
      return Topology::ClassWeightedDelayCost(1.0, 1.0, 25.0, 25.0);
    case EgressPolicy::kDedicated:
      // Circuits are nearly free; backbone cheap; internet tolerated only
      // where no circuit exists.
      return Topology::ClassWeightedDelayCost(1.0, 1.0, 50.0, 0.05);
  }
  return Topology::CostFn();
}

size_t CloudWorld::PathKeyHash::operator()(const PathKey& key) const {
  uint64_t h = key.src.value() * 0x9e3779b97f4a7c15ull;
  h = (h ^ key.dst.value()) * 0xbf58476d1ce4e5b9ull;
  return static_cast<size_t>(h ^ static_cast<uint64_t>(key.policy));
}

const Result<std::vector<LinkId>>& CloudWorld::ResolvePath(
    NodeId src, NodeId dst, EgressPolicy policy) const {
  if (path_memo_revision_ != topology_.revision()) {
    path_memo_.clear();
    path_memo_revision_ = topology_.revision();
  }
  PathKey key{src, dst, policy};
  auto it = path_memo_.find(key);
  if (it == path_memo_.end()) {
    ++path_computations_;
    it = path_memo_
             .emplace(key, topology_.ShortestPath(src, dst, PathCost(policy)))
             .first;
  }
  return it->second;
}

Result<std::vector<LinkId>> CloudWorld::ResolveInstancePath(
    InstanceId src, InstanceId dst, EgressPolicy policy) const {
  const Instance* a = FindInstance(src);
  const Instance* b = FindInstance(dst);
  if (a == nullptr || b == nullptr) {
    return NotFoundError("unknown instance");
  }
  return ResolvePath(a->host_node, b->host_node, policy);
}

}  // namespace tenantnet
