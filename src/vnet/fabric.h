// BaselineNetwork: the complete traditional tenant-networking layer.
//
// This is the world of §2 of the paper, end to end. The control-plane
// methods are the tenant actions (every one flows through the ConfigLedger
// so complexity is measured, not asserted); the data-plane Evaluate walks a
// flow through the same sequence a real deployment imposes:
//
//   src SG egress -> src subnet ACL egress -> subnet route table ->
//   gateway chain (local / peering / transit gateways / IGW / NAT / VPN /
//   Direct Connect) -> optional ingress DPI firewall -> dst subnet ACL
//   ingress -> dst SG ingress -> (stateless ACLs re-checked on the reverse
//   path, the classic ephemeral-port trap)
//
// Evaluate reports where a flow died and which boxes it traversed, which is
// exactly what experiments E1 (box count), E6 (security) and the
// integration tests need. The report is a plain value (see
// src/routing/verdict.h); Explain() renders a denial's reason as text.

#ifndef TENANTNET_SRC_VNET_FABRIC_H_
#define TENANTNET_SRC_VNET_FABRIC_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/cloud/world.h"
#include "src/net/ipam.h"
#include "src/net/flow.h"
#include "src/routing/bgp.h"
#include "src/routing/verdict.h"
#include "src/vnet/config_ledger.h"
#include "src/vnet/firewall.h"
#include "src/vnet/gateways.h"
#include "src/vnet/load_balancer.h"
#include "src/vnet/security.h"
#include "src/vnet/vpc.h"

namespace tenantnet {

// Gateway traversals one evaluation may make (the loop guard): every
// route-table step, TGW hop and circuit hop spends one.
inline constexpr int kGatewayBudget = 16;

// The hops one evaluation can record. A budgeted step records at most one
// hop, except the circuit step, which records up to four (the circuit, the
// exchange, the far circuit and its TGW) and runs at most once. Two hops
// spend no budget and each happens at most once: the destination VPC's
// ingress firewall, and the VPN that an on-prem source or a TGW's VPN
// attachment goes through. So a walk records at most budget + 3 + 2 hops.
using LogicalHops = LabelTrace<21>;
static_assert(LogicalHops::kCapacity >= kGatewayBudget + 3 + 2,
              "a trace must hold the longest walk the gateway budget allows");

// The verdict for one evaluated flow. Small fields come first so none pads.
struct BaselineDelivery {
  bool delivered = false;
  bool used_public_path = false;
  EgressPolicy egress_policy = EgressPolicy::kHotPotato;
  int gateway_hops = 0;
  std::string_view drop_stage;  // "sg-egress", "acl-ingress", "route", ...
  DropReason reason;            // rendered by Explain()
  // Every virtual box the flow traversed, in order.
  LogicalHops logical_hops;
  // The addresses the flow actually used (post NAT, public vs private).
  IpAddress effective_src;
  IpAddress effective_dst;
  // Physical attachment points for handing to the flow simulator.
  NodeId src_node;
  NodeId dst_node;

  friend bool operator==(const BaselineDelivery&,
                         const BaselineDelivery&) = default;
};
static_assert(std::is_trivially_copyable_v<BaselineDelivery>);

// The reason a flow was dropped, as text ("" if it was delivered).
std::string Explain(const BaselineDelivery& delivery);

// Durable image of the fabric's routing plane: the BGP mesh RIBs plus every
// TGW FIB (static and propagated entries alike, in Routes() form).
struct RoutingSnapshot {
  BgpMeshSnapshot mesh;
  std::vector<std::pair<TransitGatewayId,
                        std::vector<std::pair<IpPrefix, TgwRoute>>>>
      fibs;  // sorted by TGW id

  friend bool operator==(const RoutingSnapshot& a,
                         const RoutingSnapshot& b) = default;
};

class BaselineNetwork {
 public:
  // `world` and `ledger` must outlive the network.
  BaselineNetwork(CloudWorld& world, ConfigLedger& ledger);

  ConfigLedger& ledger() { return *ledger_; }
  CloudWorld& world() { return *world_; }

  // --- Step (1): VPCs, subnets, ACLs, SGs, NICs ---------------------------

  Result<VpcId> CreateVpc(TenantId tenant, ProviderId provider,
                          RegionId region, const std::string& name,
                          const IpPrefix& cidr);
  Result<SubnetId> CreateSubnet(VpcId vpc, const std::string& name,
                                int prefix_len, int zone_index,
                                bool is_public);
  Result<VpcRouteTableId> CreateRouteTable(VpcId vpc, const std::string& name);
  Status AssociateRouteTable(SubnetId subnet, VpcRouteTableId table);
  Status AddRoute(VpcRouteTableId table, const IpPrefix& prefix,
                  VpcRouteTarget target);
  Status RemoveRoute(VpcRouteTableId table, const IpPrefix& prefix);

  Result<SecurityGroupId> CreateSecurityGroup(VpcId vpc,
                                              const std::string& name);
  Status AddSgRule(SecurityGroupId group, SgRule rule);
  Status RemoveSgRule(SecurityGroupId group, size_t rule_index);
  Result<NetworkAclId> CreateNetworkAcl(VpcId vpc, const std::string& name);
  Status AddAclEntry(NetworkAclId acl, AclEntry entry);
  Status AssociateAcl(SubnetId subnet, NetworkAclId acl);

  // Attaches an instance to a subnet: allocates a private IP, optionally a
  // public IP from the provider pool, and binds security groups.
  Result<EniId> AttachInstance(InstanceId instance, SubnetId subnet,
                               std::vector<SecurityGroupId> groups,
                               bool assign_public_ip);
  Status DetachInstance(InstanceId instance);

  // Registers an on-prem instance (address from the site's private space).
  Result<IpAddress> AttachOnPremInstance(InstanceId instance);

  // --- Step (2): connectivity in/out of a VPC ------------------------------

  Result<IgwId> CreateInternetGateway(VpcId vpc, const std::string& name);
  Result<EgressOnlyIgwId> CreateEgressOnlyIgw(VpcId vpc,
                                              const std::string& name);
  Result<NatGatewayId> CreateNatGateway(SubnetId public_subnet,
                                        const std::string& name);
  Result<VpnGatewayId> CreateVpnGateway(VpcId vpc, OnPremId site,
                                        uint32_t bgp_asn,
                                        const std::string& name);

  // --- Step (3): networking multiple VPCs ----------------------------------

  Result<PeeringId> CreatePeering(VpcId requester, VpcId accepter,
                                  const std::string& name);
  Status AcceptPeering(PeeringId peering);

  Result<TransitGatewayId> CreateTransitGateway(ProviderId provider,
                                                RegionId region, uint32_t asn,
                                                const std::string& name);
  Result<size_t> AttachVpcToTgw(TransitGatewayId tgw, VpcId vpc);
  Result<size_t> AttachVpnToTgw(TransitGatewayId tgw, VpnGatewayId vpn);
  Result<size_t> AttachDirectConnectToTgw(TransitGatewayId tgw,
                                          DirectConnectId dx);
  // Cross-region/cloud TGW peering; attaches each to the other.
  Status PeerTransitGateways(TransitGatewayId a, TransitGatewayId b);
  Status AddTgwRoute(TransitGatewayId tgw, const IpPrefix& prefix,
                     size_t attachment_index);

  // --- Step (4): specialized connections ------------------------------------

  Result<DirectConnectId> CreateDirectConnect(RegionId region,
                                              ExchangeId exchange,
                                              double capacity_bps,
                                              uint16_t vlan, uint32_t bgp_asn,
                                              const std::string& name);
  // Cross-connects two circuits landing at the same exchange (e.g. Direct
  // Connect on one side, ExpressRoute on the other): a BGP session over the
  // exchange router the tenant must also configure.
  Status CrossConnect(DirectConnectId a, DirectConnectId b);
  // Lands an MPLS circuit from `site` at the circuit's exchange and peers
  // the two (the Fig. 1 on-prem leg).
  Status CrossConnectToOnPrem(DirectConnectId dx, OnPremId site,
                              double capacity_bps);

  // --- Step (5): appliances --------------------------------------------------

  Result<TargetGroupId> CreateTargetGroup(const std::string& name,
                                          Protocol proto, uint16_t port);
  Status RegisterTarget(TargetGroupId group, InstanceId instance,
                        double weight = 1.0);
  Result<LoadBalancerId> CreateLoadBalancer(LbType type,
                                            const std::string& name, VpcId vpc,
                                            std::vector<SubnetId> subnets);
  Status AddLbListener(LoadBalancerId lb, LbListener listener);
  Status AddLbRule(LoadBalancerId lb, uint16_t port, L7Rule rule);

  Result<FirewallId> CreateFirewall(const std::string& name,
                                    double capacity_pps);
  Status AddFirewallRule(FirewallId firewall, FirewallRule rule);
  // All traffic entering `vpc` from outside it is steered through the
  // firewall (inspection-VPC pattern, simplified).
  Status SetIngressFirewall(VpcId vpc, FirewallId firewall);

  // --- BGP -------------------------------------------------------------------

  // The tenant's inter-domain mesh (TGWs, VPGs, DX and on-prem routers all
  // speak here). Sessions/origins are created by the gateway methods; the
  // tenant still has to trigger and check convergence.
  BgpMesh& bgp() { return bgp_; }
  // Propagates routes: converges BGP incrementally (draining the dirty-
  // prefix queue), then applies the per-speaker Loc-RIB delta set as
  // install/withdraw deltas to the TGW route tables. A convergence that
  // changes nothing touches no FIB and bumps no revision. Returns
  // convergence stats.
  BgpMesh::ConvergenceStats PropagateRoutes();
  // From-scratch reference: full BGP reconvergence plus a complete rebuild
  // of every TGW's propagated routes. Byte-equivalent to the incremental
  // path (asserted by the differential tests); orders of magnitude slower
  // under churn (measured in E4a).
  BgpMesh::ConvergenceStats PropagateRoutesFull();

  // --- Warm restart of the routing plane (see src/common/reconcile.h) -------

  // Captures the BGP RIBs and every TGW FIB.
  RoutingSnapshot CheckpointRouting() const;

  // Kills the routing control plane: BGP config mutations go to the mesh's
  // outage log, PropagateRoutes()/PropagateRoutesFull() become no-ops, and
  // the RIBs and TGW FIBs keep forwarding their frozen state. Idempotent.
  void BeginRoutingRestart();
  bool routing_in_restart() const { return bgp_.in_restart(); }

  //   kWarm: verify retained RIBs against the checkpoint (divergent prefixes
  //     re-selected), replay logged mutations, converge incrementally,
  //     apply the resulting Loc-RIB deltas, then sweep every TGW FIB against
  //     its speaker's Loc-RIB with change-only installs/withdraws. FIBs that
  //     match are untouched — no revision bump, verdict generation unmoved.
  //   kCold: replay logged mutations, then PropagateRoutesFull() — every
  //     RIB rebuilt, every propagated FIB entry dropped and reinstalled
  //     (the revision storm the warm path exists to avoid).
  // Both paths land on the same bytes (asserted by the restart oracle test).
  ReconcileStats CompleteRoutingRestart(RestartMode mode,
                                        const RoutingSnapshot& snap);

  // --- Data plane --------------------------------------------------------------

  // Evaluates instance-to-instance traffic (either instance may be on-prem):
  // the full staged walk on every call, so a DPI firewall on the path
  // inspects (and counts) every evaluation, payload or not. What the
  // world's state refuses is a drop, never an error: an unknown or stopped
  // source ("src-down"), one with neither an ENI nor an on-prem address
  // ("no-eip"), a destination that is unknown or has no address
  // ("no-such-endpoint") and a stopped destination ("instance-down").
  Result<BaselineDelivery> Evaluate(InstanceId src, InstanceId dst,
                                    uint16_t dst_port, Protocol proto,
                                    std::string_view payload = {});
  // The same walk and verdict as a reach query: no data-plane counter
  // moves (a firewall on the path judges the flow but counts nothing).
  Result<BaselineDelivery> Query(InstanceId src, InstanceId dst,
                                 uint16_t dst_port, Protocol proto);

  // Evaluates traffic from an arbitrary external (internet) source toward a
  // destination address the tenant may own. For attack simulation.
  BaselineDelivery EvaluateExternal(IpAddress src, IpAddress dst,
                                    uint16_t dst_port, Protocol proto,
                                    std::string_view payload = {});

  // Resolves a flow aimed at a load balancer to a backend instance.
  Result<InstanceId> ResolveThroughLoadBalancer(LoadBalancerId lb,
                                                const FiveTuple& flow,
                                                const HttpRequestMeta* meta);

  // --- Lookup -------------------------------------------------------------------

  const Vpc* FindVpc(VpcId id) const;
  const Subnet* FindSubnet(SubnetId id) const;
  SecurityGroup* FindSecurityGroup(SecurityGroupId id);
  VpcRouteTable* FindRouteTable(VpcRouteTableId id);
  // All route-table / security-group ids, for whole-config sweeps.
  std::vector<VpcRouteTableId> AllRouteTables() const;
  std::vector<SecurityGroupId> AllSecurityGroups() const;
  const Eni* FindEniByInstance(InstanceId id) const;
  const Eni* FindEniByIp(IpAddress ip) const;
  TargetGroup* FindTargetGroup(TargetGroupId id);
  LoadBalancer* FindLoadBalancer(LoadBalancerId id);
  DpiFirewall* FindFirewall(FirewallId id);
  TransitGateway* FindTgw(TransitGatewayId id);

  size_t vpc_count() const { return vpcs_.size(); }
  size_t gateway_count() const;  // every gateway-ish box, for E1
  size_t appliance_count() const;  // LBs + firewalls

  // Per-kind counts (the cost model bills by box type).
  size_t nat_count() const { return nats_.size(); }
  size_t vpn_count() const { return vpns_.size(); }
  size_t dx_count() const { return dxs_.size(); }
  size_t lb_count() const { return lbs_.size(); }
  size_t firewall_count() const { return firewalls_.size(); }
  size_t tgw_count() const { return tgws_.size(); }
  size_t tgw_attachment_count() const;

  // --- Verdict epochs --------------------------------------------------------
  // Bumped by every verdict-affecting control-plane mutation (fabric
  // methods and direct mutation of hooked objects alike).
  uint64_t config_epoch() const { return config_epoch_; }
  // The coarse verdict generation: any config / instance-state / BGP change
  // moves it. The baseline side of the reach verifier keys its pair set on
  // this — deliberately all-or-nothing, where the declarative world
  // factorizes per endpoint (EdgeFilterBank's EndpointVerdictEpoch): the
  // asymmetry E12 measures. The baseline verdict depends on so many coupled
  // objects that its scope is one generation for the whole fabric. All
  // three counters are monotonic, so their sum is a valid generation.
  uint64_t verdict_generation() const {
    return config_epoch_ + world_->instance_state_epoch() +
           bgp_.mutation_count();
  }
  // Stubs over an all-zero value: the fabric keeps no verdict cache. Only
  // perfbench/e2e/episode.cc still calls them; remove both once it stops.
  VerdictCacheStats evaluate_cache_stats() const { return {}; }
  void ResetVerdictCacheStats() {}

 private:
  struct EvalContext {
    BaselineDelivery delivery;
    int budget = kGatewayBudget;
    // The firewall that judged the flow, if any, and its verdict: traffic
    // charges it after the walk (Charge), a query does not.
    DpiFirewall* inspected_by = nullptr;
    FirewallVerdict firewall_verdict = FirewallVerdict::kAllow;
  };

  // The staged walk behind Evaluate and Query; it fills `ctx.delivery`.
  void Walk(EvalContext& ctx, InstanceId src, InstanceId dst,
            uint16_t dst_port, Protocol proto, std::string_view payload);
  static void Charge(const EvalContext& ctx) {
    if (ctx.inspected_by != nullptr) {
      ctx.inspected_by->Count(ctx.firewall_verdict);
    }
  }

  // Walks the gateway chain after the source-side checks passed. `src_vpc`
  // may be invalid when the flow originates on-prem or externally.
  void RouteAndDeliver(EvalContext& ctx, const FiveTuple& flow, VpcId src_vpc,
                       SubnetId src_subnet, std::string_view payload);

  // Destination-side checks for a flow arriving at an ENI.
  void DeliverIntoVpc(EvalContext& ctx, const FiveTuple& flow,
                      const Eni& dst_eni, bool from_outside_vpc,
                      std::string_view payload);

  // Delivery of a public-internet flow to whatever holds the destination.
  void DeliverFromInternet(EvalContext& ctx, const FiveTuple& flow,
                           std::string_view payload);
  // Terminal delivery into an on-prem site.
  void DeliverToOnPrem(EvalContext& ctx, const FiveTuple& flow, OnPremId site,
                       EgressPolicy policy);
  // Circuit hop: exchange lookup via the tenant BGP mesh, then the far side.
  void DeliverViaDirectConnect(EvalContext& ctx, const FiveTuple& flow,
                               DirectConnectId dx, std::string_view payload);
  // The covering originated prefix for a destination (for RIB queries).
  IpPrefix RouteForDst(IpAddress dst) const;
  // Records a prefix a tenant object originates (a VPC CIDR or an on-prem
  // space) in the set RouteForDst reads.
  void AddKnownPrefix(const IpPrefix& prefix);
  // Interns an on-prem site's name for the reasons that quote it.
  void LabelSite(OnPremId site);

  bool SgMember(SecurityGroupId group, IpAddress ip) const;
  const Subnet* SubnetOf(const Eni& eni) const;
  Vpc* MutableVpc(VpcId id);

  void BumpConfigEpoch() { ++config_epoch_; }

  // Speaker value -> attachment index for one TGW (which attachment a
  // route learned from that speaker resolves to).
  std::unordered_map<uint64_t, size_t> SpeakerAttachments(
      const TransitGateway& tgw) const;
  // Applies a per-speaker Loc-RIB delta set to the TGW FIBs.
  void ApplyRibDeltas(const std::vector<std::vector<RibDelta>>& deltas);
  // Verification sweep of every TGW FIB against its speaker's Loc-RIB:
  // installs/withdraws only entries that differ from the derived intent.
  // Returns deltas applied; `checked` accumulates entries examined.
  uint64_t ReconcileTgwFibs(uint64_t* checked);

  // `stage` must name a string literal (the verdict keeps a view of it).
  void Drop(EvalContext& ctx, std::string_view stage, DropReason reason);

  CloudWorld* world_;
  ConfigLedger* ledger_;

  std::unordered_map<VpcId, std::unique_ptr<Vpc>> vpcs_;
  std::unordered_map<SubnetId, std::unique_ptr<Subnet>> subnets_;
  std::unordered_map<VpcRouteTableId, std::unique_ptr<VpcRouteTable>> tables_;
  std::unordered_map<SecurityGroupId, std::unique_ptr<SecurityGroup>> groups_;
  std::unordered_map<NetworkAclId, std::unique_ptr<NetworkAcl>> acls_;
  std::unordered_map<EniId, std::unique_ptr<Eni>> enis_;
  std::unordered_map<InstanceId, EniId> eni_by_instance_;
  std::unordered_map<IpAddress, EniId> eni_by_ip_;

  std::unordered_map<IgwId, InternetGateway> igws_;
  std::unordered_map<EgressOnlyIgwId, EgressOnlyInternetGateway> egress_igws_;
  std::unordered_map<NatGatewayId, NatGateway> nats_;
  std::unordered_map<VpnGatewayId, VpnGateway> vpns_;
  std::unordered_map<PeeringId, VpcPeering> peerings_;
  std::unordered_map<TransitGatewayId, std::unique_ptr<TransitGateway>> tgws_;
  std::unordered_map<DirectConnectId, DirectConnectConnection> dxs_;

  std::unordered_map<TargetGroupId, std::unique_ptr<TargetGroup>> target_groups_;
  std::unordered_map<LoadBalancerId, std::unique_ptr<LoadBalancer>> lbs_;
  std::unordered_map<FirewallId, std::unique_ptr<DpiFirewall>> firewalls_;
  std::unordered_map<VpcId, FirewallId> vpc_ingress_firewall_;

  std::unordered_map<InstanceId, IpAddress> on_prem_addrs_;
  std::unordered_map<OnPremId, std::unique_ptr<HostAllocator>> on_prem_pools_;
  std::unordered_map<OnPremId, SpeakerId> on_prem_speakers_;
  std::unordered_map<OnPremId, LinkId> on_prem_mpls_;
  std::unordered_map<DirectConnectId, TransitGatewayId> tgw_by_dx_;
  std::unordered_map<OnPremId, uint32_t> site_labels_;  // RouteLabels() ids
  // Every prefix a tenant object originates, sorted and distinct.
  std::vector<IpPrefix> known_prefixes_;
  const uint32_t igw_hop_;
  const uint32_t egress_igw_hop_;

  // Provider public pools (EIPs for NAT/public addresses).
  std::unordered_map<ProviderId, std::unique_ptr<HostAllocator>> public_pools_;

  // VPC the IGW of which a given VPC id uses; quick reverse indexes.
  std::unordered_map<VpcId, IgwId> igw_by_vpc_;
  std::unordered_map<VpcId, EgressOnlyIgwId> egress_igw_by_vpc_;

  BgpMesh bgp_;

  IdGenerator<VpcId> vpc_ids_;
  IdGenerator<SubnetId> subnet_ids_;
  IdGenerator<VpcRouteTableId> table_ids_;
  IdGenerator<SecurityGroupId> group_ids_;
  IdGenerator<NetworkAclId> acl_ids_;
  IdGenerator<EniId> eni_ids_;
  IdGenerator<IgwId> igw_ids_;
  IdGenerator<EgressOnlyIgwId> egress_igw_ids_;
  IdGenerator<NatGatewayId> nat_ids_;
  IdGenerator<VpnGatewayId> vpn_ids_;
  IdGenerator<PeeringId> peering_ids_;
  IdGenerator<TransitGatewayId> tgw_ids_;
  IdGenerator<DirectConnectId> dx_ids_;
  IdGenerator<TargetGroupId> tg_ids_;
  IdGenerator<LoadBalancerId> lb_ids_;
  IdGenerator<FirewallId> firewall_ids_;

  uint64_t lb_pick_seq_ = 0;

  uint64_t config_epoch_ = 0;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_VNET_FABRIC_H_
