// The multi-cloud world: providers, regions, zones, the public internet,
// exchange points, on-prem datacenters, and compute instances.
//
// CloudWorld owns the physical Topology and gives both networking worlds
// (vnet baseline and the declarative core) the same substrate:
//
//  * Each region has per-zone host-aggregate nodes behind an edge router.
//  * A provider's regions are joined by a private backbone (full mesh).
//  * Edge routers attach to the nearest public-internet transit routers.
//  * Exchange points (IXPs) model colocation facilities (e.g. Equinix);
//    dedicated circuits (Direct Connect / ExpressRoute / MPLS) terminate
//    there as LinkClass::kDedicated links.
//  * Sites carry 2D coordinates; propagation delay scales with distance,
//    which is what makes hot- vs cold-potato routing geometrically real.
//
// Egress policy selection maps straight onto path cost functions:
// hot potato penalizes backbone links (exit ASAP), cold potato penalizes
// public-internet links (ride the backbone), dedicated prefers circuits.

#ifndef TENANTNET_SRC_CLOUD_WORLD_H_
#define TENANTNET_SRC_CLOUD_WORLD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/net/ip.h"
#include "src/net/ipam.h"
#include "src/sim/topology.h"

namespace tenantnet {

using ProviderId = TypedId<struct ProviderIdTag>;
using RegionId = TypedId<struct RegionIdTag>;
using ExchangeId = TypedId<struct ExchangeIdTag>;
using OnPremId = TypedId<struct OnPremIdTag>;
using TenantId = TypedId<struct TenantIdTag>;
using InstanceId = TypedId<struct InstanceIdTag>;

// Abstract 2D position; 1 unit of distance ~ 1 ms of one-way propagation.
struct GeoPoint {
  double x = 0;
  double y = 0;
};

double GeoDistance(GeoPoint a, GeoPoint b);

// How traffic leaves a provider toward an external destination (§4 QoS).
enum class EgressPolicy : uint8_t {
  kHotPotato,   // exit to the public internet as early as possible
  kColdPotato,  // stay on the provider backbone as long as possible
  kDedicated,   // prefer dedicated circuits where provisioned
};

std::string_view EgressPolicyName(EgressPolicy policy);

struct ZoneSite {
  std::string name;
  NodeId host_node;  // aggregate of the zone's compute
};

struct RegionSite {
  ProviderId provider;
  std::string name;
  GeoPoint position;
  NodeId edge_node;  // provider edge router (egress/peering point)
  std::vector<ZoneSite> zones;
};

struct ProviderSite {
  std::string name;
  uint32_t asn = 0;
  // Public address space this provider assigns EIPs / VPC ranges from.
  IpPrefix address_space;
  std::vector<RegionId> regions;
};

struct ExchangeSite {
  std::string name;
  GeoPoint position;
  NodeId node;
};

struct OnPremSite {
  std::string name;
  GeoPoint position;
  NodeId router_node;
  NodeId host_node;
  IpPrefix address_space;  // RFC1918-style space used by the baseline world
};

struct Instance {
  InstanceId id;
  TenantId tenant;
  ProviderId provider;   // invalid when hosted on-prem
  RegionId region;       // invalid when hosted on-prem
  OnPremId on_prem;      // invalid when hosted in a cloud
  int zone_index = 0;
  NodeId host_node;
  // Per-VM egress bandwidth guarantee the provider sells (§4: adopted
  // unchanged from today's offering).
  double vm_egress_cap_bps = 0;
  bool running = true;
};

// Tunables for world construction.
struct WorldParams {
  double dc_link_bps = 400e9;           // zone <-> edge
  SimDuration dc_link_delay = SimDuration::Micros(250);
  double backbone_bps = 100e9;          // region <-> region, same provider
  SimDuration backbone_jitter = SimDuration::Micros(50);
  double internet_bps = 40e9;           // transit links
  SimDuration internet_jitter = SimDuration::Millis(2);
  double internet_loss = 0.0005;
  double edge_uplink_bps = 80e9;        // provider edge <-> transit router
  double exchange_uplink_bps = 50e9;    // IXP <-> transit router
  double default_vm_egress_bps = 10e9;
  // One-way delay per unit of geo distance.
  SimDuration delay_per_distance = SimDuration::Millis(1);
};

class CloudWorld {
 public:
  explicit CloudWorld(WorldParams params = {});

  Topology& topology() { return topology_; }
  const Topology& topology() const { return topology_; }
  const WorldParams& params() const { return params_; }

  // --- World construction -------------------------------------------------

  // A transit router of the public internet core at `position`. Meshes with
  // every existing transit router (delay by distance).
  NodeId AddTransitRouter(const std::string& name, GeoPoint position);

  ProviderId AddProvider(const std::string& name, uint32_t asn,
                         IpPrefix address_space);

  // Adds a region with `zone_count` zones; wires zone<->edge, the provider
  // backbone mesh, and an uplink to the nearest transit router.
  RegionId AddRegion(ProviderId provider, const std::string& name,
                     GeoPoint position, int zone_count = 2);

  // An internet exchange / colocation facility, linked to the nearest
  // transit router.
  ExchangeId AddExchange(const std::string& name, GeoPoint position);

  // An on-prem datacenter, linked to the nearest transit router.
  OnPremId AddOnPrem(const std::string& name, GeoPoint position,
                     IpPrefix address_space);

  // Provisions a dedicated circuit (Direct Connect-like) between a region's
  // edge and an exchange point. Returns the forward link.
  Result<LinkId> AddDedicatedCircuit(RegionId region, ExchangeId exchange,
                                     double capacity_bps);
  // Dedicated circuit from an on-prem router to an exchange (MPLS-like).
  Result<LinkId> AddDedicatedCircuitFromOnPrem(OnPremId on_prem,
                                               ExchangeId exchange,
                                               double capacity_bps);

  // --- Tenancy and compute -------------------------------------------------

  TenantId AddTenant(const std::string& name);

  Result<InstanceId> LaunchInstance(TenantId tenant, ProviderId provider,
                                    RegionId region, int zone_index = 0);
  Result<InstanceId> LaunchOnPremInstance(TenantId tenant, OnPremId on_prem);
  Status TerminateInstance(InstanceId id);

  // Fault toggle: a crashed instance (running=false) keeps its slot and can
  // come back, unlike TerminateInstance. Idempotent per state. Fault
  // injectors pair this with the per-world health notifications (LB probes
  // in the baseline, NotifyInstanceDown/Up in the declarative API).
  Status SetInstanceRunning(InstanceId id, bool running);

  // --- Lookup ---------------------------------------------------------------

  const ProviderSite& provider(ProviderId id) const;
  const RegionSite& region(RegionId id) const;
  const ExchangeSite& exchange(ExchangeId id) const;
  const OnPremSite& on_prem(OnPremId id) const;
  const Instance* FindInstance(InstanceId id) const;
  const std::string& tenant_name(TenantId id) const;

  size_t provider_count() const { return providers_.size(); }
  size_t region_count() const { return regions_.size(); }
  size_t instance_count() const { return live_instance_count_; }

  // Bumped whenever instance liveness changes (launch, terminate, crash,
  // recover). Both reach verifiers key on it, so a verified "reachable"
  // never outlives the instance it was computed for.
  uint64_t instance_state_epoch() const { return instance_state_epoch_; }

  std::vector<InstanceId> TenantInstances(TenantId tenant) const;

  // Every instance slot (running or crashed; terminated slots are gone),
  // sorted by id — the deterministic pair universe for whole-deployment
  // sweeps like the reachability verifier's VerifyAll.
  std::vector<InstanceId> AllInstances() const;

  // --- Paths ----------------------------------------------------------------

  // Physical path between two attachment nodes under an egress policy:
  // topology().ShortestPath(src, dst, PathCost(policy)), memoized per
  // (src, dst, policy) — failures included — until topology().revision()
  // moves, so the call after a link fault or a new link re-resolves.
  // The result is a reference into the memo. It stays valid until the
  // first ResolvePath call after topology().revision() moves, which clears
  // the memo; copy it (`auto path = ResolvePath(...)`) to keep it longer.
  // Not thread-safe: this const call writes the mutable memo, which belongs
  // to the simulating thread.
  const Result<std::vector<LinkId>>& ResolvePath(NodeId src, NodeId dst,
                                                 EgressPolicy policy) const;

  // The link cost each egress policy routes by.
  static Topology::CostFn PathCost(EgressPolicy policy);

  // ShortestPath runs behind ResolvePath (its memo misses).
  uint64_t path_computations() const { return path_computations_; }

  // Path between two instances under a policy.
  Result<std::vector<LinkId>> ResolveInstancePath(InstanceId src,
                                                  InstanceId dst,
                                                  EgressPolicy policy) const;

 private:
  NodeId NearestTransit(GeoPoint position) const;
  SimDuration DelayFor(GeoPoint a, GeoPoint b) const;

  struct PathKey {
    NodeId src;
    NodeId dst;
    EgressPolicy policy;
    friend bool operator==(const PathKey&, const PathKey&) = default;
  };
  struct PathKeyHash {
    size_t operator()(const PathKey& key) const;
  };

  WorldParams params_;
  Topology topology_;

  std::vector<ProviderSite> providers_;
  std::vector<RegionSite> regions_;
  std::vector<ExchangeSite> exchanges_;
  std::vector<OnPremSite> on_prems_;
  std::vector<std::pair<NodeId, GeoPoint>> transit_routers_;
  std::vector<std::string> tenants_;

  std::unordered_map<InstanceId, Instance> instances_;
  IdGenerator<InstanceId> instance_ids_;
  size_t live_instance_count_ = 0;
  uint64_t instance_state_epoch_ = 0;

  // ResolvePath's memo, valid for topology revision path_memo_revision_.
  mutable std::unordered_map<PathKey, Result<std::vector<LinkId>>, PathKeyHash>
      path_memo_;
  mutable uint64_t path_memo_revision_ = 0;
  mutable uint64_t path_computations_ = 0;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_CLOUD_WORLD_H_
