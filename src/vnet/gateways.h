// Baseline-world gateways: the "9 gateways" of Figure 1.
//
// Internet gateways, egress-only IGWs, NAT gateways, VPN gateways, VPC
// peering connections, transit gateways (the BGP-speaking interconnect
// hub), and Direct Connect circuits. These are the low-level boxes the
// paper argues tenants should never have to assemble; the baseline builder
// assembles all of them, through the ledger, so their cost is measurable.

#ifndef TENANTNET_SRC_VNET_GATEWAYS_H_
#define TENANTNET_SRC_VNET_GATEWAYS_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cloud/world.h"
#include "src/common/ids.h"
#include "src/net/ip.h"
#include "src/routing/bgp.h"
#include "src/routing/lpm_trie.h"
#include "src/routing/verdict.h"
#include "src/vnet/revision.h"
#include "src/vnet/vpc.h"

namespace tenantnet {

using IgwId = TypedId<struct IgwIdTag>;
using EgressOnlyIgwId = TypedId<struct EgressOnlyIgwIdTag>;
using NatGatewayId = TypedId<struct NatGatewayIdTag>;
using VpnGatewayId = TypedId<struct VpnGatewayIdTag>;
using PeeringId = TypedId<struct PeeringIdTag>;
using TransitGatewayId = TypedId<struct TransitGatewayIdTag>;
using DirectConnectId = TypedId<struct DirectConnectIdTag>;

// IPv4 internet gateway: gives a VPC's public subnets a route to/from the
// public internet.
struct InternetGateway {
  IgwId id;
  VpcId vpc;
  std::string name;
};

// IPv6 egress-only IGW: outbound-initiated traffic only.
struct EgressOnlyInternetGateway {
  EgressOnlyIgwId id;
  VpcId vpc;
  std::string name;
};

// NAT gateway: lives in a public subnet, translates private sources to its
// public address for outbound flows (inbound-initiated traffic is dropped).
struct NatGateway {
  NatGatewayId id;
  SubnetId subnet;
  IpAddress public_ip;
  std::string name;
  HopLabel label;  // "nat:<name>"
};

// VPN gateway: IPsec-ish tunnel endpoint attaching a VPC to an on-prem
// site; runs BGP with the customer gateway.
struct VpnGateway {
  VpnGatewayId id;
  VpcId vpc;
  OnPremId remote_site;
  uint32_t bgp_asn = 0;
  SpeakerId speaker;  // this gateway's speaker in the tenant BGP mesh
  std::string name;
  HopLabel label;  // "vpn:<name>"
};

// Private connectivity between exactly two VPCs. Non-transitive (the
// classic trap: A<->B and B<->C does not give A<->C).
struct VpcPeering {
  PeeringId id;
  VpcId requester;
  VpcId accepter;
  bool accepted = false;
  std::string name;
  HopLabel label;  // "peering:<name>"
};

// What a transit gateway route resolves to.
enum class TgwAttachmentKind : uint8_t {
  kVpc,
  kVpn,            // to an on-prem site
  kPeering,        // to another transit gateway (cross-region/cloud)
  kDirectConnect,  // to a dedicated circuit
};

struct TgwAttachment {
  TgwAttachmentKind kind = TgwAttachmentKind::kVpc;
  uint64_t target_id = 0;  // VpcId / VpnGatewayId / TransitGatewayId /
                           // DirectConnectId value, per kind
  std::string name;
};

// Where a TGW FIB entry came from. Static routes are installed at attach
// time (or via AddTgwRoute) and survive BGP reconvergence; propagated
// routes are owned by PropagateRoutes() and are the only ones delta
// withdraws / full rebuilds may remove.
enum class TgwRouteOrigin : uint8_t {
  kStatic,
  kPropagated,
};

struct TgwRoute {
  size_t attachment = 0;
  TgwRouteOrigin origin = TgwRouteOrigin::kStatic;

  friend bool operator==(const TgwRoute& a, const TgwRoute& b) {
    return a.attachment == b.attachment && a.origin == b.origin;
  }
};

// Regional interconnect hub; holds its own route table over attachments.
class TransitGateway : public RevisionHooked {
 public:
  TransitGateway(TransitGatewayId id, ProviderId provider, RegionId region,
                 uint32_t asn, std::string name)
      : id_(id), provider_(provider), region_(region), asn_(asn),
        name_(std::move(name)), label_(HopLabel::Of("tgw:", name_)) {}

  TransitGatewayId id() const { return id_; }
  ProviderId provider() const { return provider_; }
  RegionId region() const { return region_; }
  uint32_t asn() const { return asn_; }
  const std::string& name() const { return name_; }
  const HopLabel& label() const { return label_; }  // "tgw:<name>"
  SpeakerId speaker() const { return speaker_; }
  void set_speaker(SpeakerId s) { speaker_ = s; }

  // Returns the attachment index.
  size_t Attach(TgwAttachment attachment) {
    attachments_.push_back(std::move(attachment));
    BumpRevision();
    return attachments_.size() - 1;
  }
  const std::vector<TgwAttachment>& attachments() const { return attachments_; }

  // Static route. Returns true (and bumps the revision) only if the FIB
  // actually changed.
  bool InstallRoute(const IpPrefix& prefix, size_t attachment_index) {
    return Install(prefix,
                   TgwRoute{attachment_index, TgwRouteOrigin::kStatic});
  }
  // BGP-derived route (last writer wins, matching flood-order semantics of
  // the full rebuild). Returns true only on actual change.
  bool InstallPropagatedRoute(const IpPrefix& prefix,
                              size_t attachment_index) {
    return Install(prefix,
                   TgwRoute{attachment_index, TgwRouteOrigin::kPropagated});
  }
  // Removes a propagated route; static routes are left alone. Returns true
  // only if an entry was removed.
  bool WithdrawPropagatedRoute(const IpPrefix& prefix) {
    const TgwRoute* existing = routes_.ExactMatch(prefix);
    if (existing == nullptr ||
        existing->origin != TgwRouteOrigin::kPropagated) {
      return false;
    }
    routes_.Remove(prefix);
    BumpRevision();
    return true;
  }
  // Drops every propagated route (full-rebuild reference path). Returns how
  // many were removed.
  size_t ClearPropagatedRoutes() {
    std::vector<IpPrefix> doomed;
    routes_.ForEach([&](const IpPrefix& prefix, const TgwRoute& route) {
      if (route.origin == TgwRouteOrigin::kPropagated) {
        doomed.push_back(prefix);
      }
    });
    for (const IpPrefix& prefix : doomed) {
      routes_.Remove(prefix);
    }
    if (!doomed.empty()) {
      BumpRevision();
    }
    return doomed.size();
  }
  // Longest-prefix match to an attachment; nullptr = drop.
  const TgwRoute* Lookup(IpAddress dst) const {
    return routes_.LongestMatch(dst);
  }
  // Full FIB as sorted (prefix, route) pairs, for differential snapshots.
  std::vector<std::pair<IpPrefix, TgwRoute>> Routes() const {
    std::vector<std::pair<IpPrefix, TgwRoute>> out;
    routes_.ForEach([&](const IpPrefix& prefix, const TgwRoute& route) {
      out.emplace_back(prefix, route);
    });
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
  }
  size_t route_count() const { return routes_.entry_count(); }

 private:
  bool Install(const IpPrefix& prefix, TgwRoute route) {
    const TgwRoute* existing = routes_.ExactMatch(prefix);
    if (existing != nullptr && *existing == route) {
      return false;
    }
    routes_.Insert(prefix, route);
    BumpRevision();
    return true;
  }

  TransitGatewayId id_;
  ProviderId provider_;
  RegionId region_;
  uint32_t asn_;
  std::string name_;
  HopLabel label_;
  SpeakerId speaker_;
  std::vector<TgwAttachment> attachments_;
  LpmTrie<TgwRoute> routes_;
};

// A dedicated circuit from a region's edge to an exchange point, plus the
// logical "virtual interface" configuration riding it.
struct DirectConnectConnection {
  DirectConnectId id;
  RegionId region;
  ExchangeId exchange;
  LinkId circuit;        // the physical dedicated link
  double capacity_bps = 0;
  uint16_t vlan = 0;
  uint32_t bgp_asn = 0;
  SpeakerId speaker;
  std::string name;
  HopLabel label;             // "direct-connect:<name>"
  uint32_t exchange_hop = 0;  // "exchange:<exchange name>"
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_VNET_GATEWAYS_H_
