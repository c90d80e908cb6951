// DeclarativeCloud: the paper's proposed tenant networking interface
// (Table 2), with the provider-side machinery that makes it real.
//
//   request_eip(vm_id)              -> RequestEip(instance)
//   request_sip()                   -> RequestSip(tenant, provider)
//   bind(eip, sip)                  -> Bind(eip, sip [, weight])
//   set_permit_list(eip, permit)    -> SetPermitList(eip, entries)
//   set_qos(region, bandwidth)      -> SetQos(tenant, region, bps)
//
// plus the hot/cold-potato transit profile the paper adopts unchanged from
// today's offerings. There is no tenant networking layer underneath: no
// VPCs, no gateways, no appliances. The provider side consists of
//  * flat EIP allocation from the provider pool, installed in the
//    provider's routing table (host routes the provider may aggregate),
//  * default-off permit-list enforcement replicated at provider edges,
//  * provider-managed SIP load balancing,
//  * distributed egress-quota enforcement.
//
// Every tenant-visible call is recorded in the ConfigLedger as an API call
// so E1/E2/E7 can compare complexity like for like with the baseline.
// On-prem sites participate uniformly: their endpoints get public
// default-off addresses enforced at the site router — the "works across
// administrative domains without cooperation" property of §5.

#ifndef TENANTNET_SRC_CORE_API_H_
#define TENANTNET_SRC_CORE_API_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/cloud/world.h"
#include "src/core/edge_filter.h"
#include "src/core/qos.h"
#include "src/core/sip_lb.h"
#include "src/net/ipam.h"
#include "src/routing/route_table.h"
#include "src/routing/verdict.h"
#include "src/sim/event_queue.h"
#include "src/vnet/config_ledger.h"

namespace tenantnet {

// Where an endpoint lives.
struct EipRecord {
  IpAddress addr;
  InstanceId instance;
  TenantId tenant;
  ProviderId provider;   // invalid for on-prem endpoints
  RegionId region;       // invalid for on-prem endpoints
  OnPremId on_prem;      // invalid for cloud endpoints
  NodeId host_node;
  int zone_index = 0;
};

struct SipRecord {
  IpAddress addr;
  TenantId tenant;
  ProviderId provider;
};

// The verdict for one evaluated flow in the declarative world (a plain
// value, see src/routing/verdict.h).
struct DeclarativeDelivery {
  bool delivered = false;
  std::string_view drop_stage;  // "edge-filter", "sip", "no-eip", ...
  DropReason reason;            // rendered by Explain()
  // Provider-side steps, not tenant boxes (there are none): at most the
  // SIP balancer and the destination's enforcement edge.
  LabelTrace<2> provider_hops;
  IpAddress effective_src;
  IpAddress effective_dst;  // post SIP resolution
  NodeId src_node;
  NodeId dst_node;
  EgressPolicy egress_policy = EgressPolicy::kColdPotato;
  // Provider-enforced per-VM egress guarantee for the source, if known.
  double vm_egress_cap_bps = 0;

  friend bool operator==(const DeclarativeDelivery&,
                         const DeclarativeDelivery&) = default;
};
static_assert(std::is_trivially_copyable_v<DeclarativeDelivery>);

// The reason a flow was dropped, as text ("" if it was delivered).
std::string Explain(const DeclarativeDelivery& delivery);

struct DeclarativeParams {
  EdgeFilterParams filter;
  uint64_t rng_seed = 42;
};

class DeclarativeCloud {
 public:
  // `queue` may be null (permit-list installs apply immediately).
  DeclarativeCloud(CloudWorld& world, ConfigLedger& ledger,
                   EventQueue* queue = nullptr, DeclarativeParams params = {});

  // --- Table 2 -------------------------------------------------------------

  Result<IpAddress> RequestEip(InstanceId vm);
  Status ReleaseEip(IpAddress eip);

  // InvalidArgument, recording nothing, for an unknown provider.
  Result<IpAddress> RequestSip(TenantId tenant, ProviderId provider);
  Status ReleaseSip(IpAddress sip);

  Status Bind(IpAddress eip, IpAddress sip, double weight = 1.0);
  Status Unbind(IpAddress eip, IpAddress sip);

  // Replaces the endpoint's permit list. Returns the time the last edge
  // applies it (== now without an event queue).
  Result<SimTime> SetPermitList(IpAddress eip, std::vector<PermitEntry> entries);

  // Incremental permit-list update — the kind of extension §4 anticipates;
  // avoids resending the whole list on endpoint churn.
  Result<SimTime> UpdatePermitList(IpAddress eip, std::vector<PermitEntry> add,
                                   std::vector<PermitEntry> remove);

  // --- Endpoint groups (the §4 grouping extension) ---------------------------
  // Groups replace the VPC's one remaining legitimate role: naming a set of
  // endpoints. A permit entry may reference a group; membership changes
  // propagate once per enforcement domain instead of once per referencing
  // permit list.
  Result<EndpointGroupId> CreateEndpointGroup(TenantId tenant,
                                              const std::string& name);
  Status DeleteEndpointGroup(EndpointGroupId group);
  // Adding a current member succeeds and sends nothing to any edge.
  Status AddToEndpointGroup(EndpointGroupId group, IpAddress eip);
  Status RemoveFromEndpointGroup(EndpointGroupId group, IpAddress eip);
  // The group's current members (for tests/inspection).
  Result<std::vector<IpAddress>> GroupMembers(EndpointGroupId group) const;

  // With a selector (extension, §4 footnote), only traffic matching it
  // consumes the reservation. InvalidArgument, recording nothing, for an
  // unknown region.
  Status SetQos(TenantId tenant, RegionId region, double bandwidth_bps,
                std::optional<QosSelector> selector = std::nullopt);

  // The hot/cold potato profile (per tenant; §4 adopts this unchanged).
  Status SetEgressProfile(TenantId tenant, EgressPolicy profile);
  EgressPolicy EgressProfileOf(TenantId tenant) const;

  // --- Provider-side signals (not tenant actions) ---------------------------

  // Instance lifecycle: the provider notices and updates SIP health; the
  // tenant does nothing (contrast with baseline health-check config).
  void NotifyInstanceDown(InstanceId instance);
  void NotifyInstanceUp(InstanceId instance);

  // --- Data plane ------------------------------------------------------------

  // Traffic from a tenant instance toward an EIP or SIP. What the world's
  // state refuses is a drop, never an error: an unknown or stopped source
  // ("src-down"), one without an EIP ("no-eip"), an address no endpoint
  // holds ("no-such-endpoint") and a stopped destination ("instance-down").
  Result<DeclarativeDelivery> Evaluate(InstanceId src, IpAddress dst,
                                       uint16_t dst_port, Protocol proto);

  // Evaluate minus the SIP pick, as a reach query: the same walk and
  // verdict toward one concrete endpoint, and nothing moves. Its one error
  // is misuse: a SIP is refused (InvalidArgument); the reach engine expands
  // it to its bindings.
  Result<DeclarativeDelivery> Query(InstanceId src, IpAddress endpoint,
                                    uint16_t dst_port, Protocol proto) const;

  // The source step Evaluate and Query run first, on its own: a verdict
  // dropped at "src-down" or "no-eip", or one with no drop stage for a
  // running sender with an EIP. The reach engine asks it before it expands
  // a SIP, so a refused source is named ahead of any backend.
  DeclarativeDelivery QuerySource(InstanceId src) const;

  // Traffic from an arbitrary internet source (attack simulation).
  DeclarativeDelivery EvaluateExternal(IpAddress src, IpAddress dst,
                                       uint16_t dst_port, Protocol proto);

  // --- Lookup / metrics --------------------------------------------------------

  const EipRecord* FindEip(IpAddress addr) const;
  std::optional<IpAddress> EipOf(InstanceId instance) const;
  bool IsSip(IpAddress addr) const { return sips_.count(addr) > 0; }

  SipLoadBalancer& sip_lb() { return sip_lb_; }
  EgressQuotaManager& qos() { return qos_; }
  EdgeFilterBank& provider_filters(ProviderId provider);
  EdgeFilterBank& on_prem_filters(OnPremId site);

  // An EIP's enforcement point: the filter bank and ingress edge of its
  // hosting domain (the region's edge in its provider's domain, or the
  // on-prem site router; `bank->edge_name(edge_index)` names it).
  // RequestEip binds it once; this reads the record and creates nothing.
  // The reach verifier keys on its epochs.
  struct DestinationEdge {
    EdgeFilterBank* bank = nullptr;
    size_t edge_index = 0;
  };
  Result<DestinationEdge> DestinationEdgeOf(IpAddress eip) const;

  // Revision hook (reach-verifier keying): bumped when the address topology
  // changes — EIP/SIP allocation or release. Permit-list and binding churn
  // are covered by the finer-grained EdgeFilterBank epochs and the SIP
  // balancer's config_revision().
  uint64_t endpoint_revision() const { return endpoint_revision_; }

  // E4a: the provider's routing state under flat EIPs.
  size_t ProviderRibEntries(ProviderId provider);
  // Minimal table if the provider aggregates its (contiguous) allocations.
  size_t ProviderAggregatedRibEntries(ProviderId provider);

  size_t eip_count() const { return eips_.size(); }

 private:
  // An enforcement domain: a provider (one edge per region) or an on-prem
  // site (one edge, its router). Its EIPs come from `eip_pool` and are
  // admitted at one of the edges of `filters`, which verdicts name by
  // `edge_labels` ("edge-filter@<edge>").
  struct Domain {
    std::unique_ptr<HostAllocator> eip_pool;
    std::unique_ptr<EdgeFilterBank> filters;
    std::vector<HopLabel> edge_labels;
  };
  // A provider's domain plus its extras: the SIP pool, the host-route RIB
  // and (registered with `qos_` when the domain is created) quota points.
  struct ProviderState {
    Domain domain;
    std::unordered_map<RegionId, size_t> edge_index;  // region -> edge
    std::unique_ptr<HostAllocator> sip_pool;
    RouteTable rib;  // flat host routes for every live EIP
  };
  // A live EIP and the enforcement point RequestEip bound it to.
  struct Endpoint {
    EipRecord record;
    Domain* domain = nullptr;
    size_t edge = 0;
  };

  // Domains are created on first use; a late one replays existing groups.
  ProviderState& Provider(ProviderId id);
  Domain& OnPrem(OnPremId id);
  Domain NewDomain(const std::string& name, const IpPrefix& eip_space,
                   uint64_t rng_seed, const std::vector<std::string>& edges);
  // Every domain, providers first (the group fan-out order).
  template <typename Fn>
  void ForEachDomain(Fn fn);

  void InstallHostRoute(const EipRecord& record);

  // A verdict in progress: the sending tenant instance (null for an
  // internet source), the flow as the destination's edge sees it, and the
  // delivery.
  struct Verdict {
    const Instance* src = nullptr;
    FiveTuple flow;
    DeclarativeDelivery d;
  };
  // A verdict for a flow toward `dst`, its source not yet filled in.
  static Verdict Toward(IpAddress dst, uint16_t dst_port, Protocol proto);
  // Evaluate and Query's source step: fills in a running sender with an
  // EIP, or drops the verdict at "src-down" or "no-eip". Returns false, with
  // the drop stage set, when it refuses.
  bool FromTenant(InstanceId src, Verdict& v) const;
  // The SIP pick, a verdict's one mutating step: the provider's anycast
  // balancer names the backend a flow toward a SIP goes to. Returns false,
  // with the drop stage set, when it refuses.
  bool PickBackend(Verdict& v);
  // The walk Evaluate, EvaluateExternal and Query share toward a concrete
  // endpoint: the endpoint lookup, the instance-down check (tenant traffic
  // only), the default-off check at the endpoint's bound edge and, for
  // delivered tenant traffic, the egress policy. A drop sets the stage.
  void Walk(Verdict& v) const;

  CloudWorld* world_;
  ConfigLedger* ledger_;
  EventQueue* queue_;
  DeclarativeParams params_;

  std::unordered_map<ProviderId, ProviderState> providers_;
  std::unordered_map<OnPremId, Domain> on_prems_;

  struct GroupRecord {
    TenantId tenant;
    std::string name;
    MemberSnapshot members;  // the current version; never null
  };

  // Replaces a group's membership with `next` and hands that one snapshot
  // to every existing enforcement domain.
  void PropagateGroup(EndpointGroupId group, GroupRecord& record,
                      MemberSnapshot next);

  std::unordered_map<IpAddress, Endpoint> eips_;
  std::unordered_map<InstanceId, IpAddress> eip_by_instance_;
  std::unordered_map<IpAddress, SipRecord> sips_;
  std::unordered_map<TenantId, EgressPolicy> profiles_;
  std::unordered_map<EndpointGroupId, GroupRecord> groups_;
  IdGenerator<EndpointGroupId> group_ids_;

  SipLoadBalancer sip_lb_;
  EgressQuotaManager qos_;
  uint64_t endpoint_revision_ = 0;
  const uint32_t sip_lb_hop_;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_CORE_API_H_
