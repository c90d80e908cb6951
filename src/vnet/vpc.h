// Baseline-world virtual network objects: VPCs, subnets, NICs, route tables.
//
// These are deliberately faithful to the cloud abstractions the paper's §2
// walks through: a VPC owns a CIDR block (the tenant must plan it), subnets
// carve per-zone sub-prefixes out of it, every instance attaches through an
// ENI holding a private address (plus an optional public one), and each
// subnet's route table decides which gateway handles any non-local prefix.

#ifndef TENANTNET_SRC_VNET_VPC_H_
#define TENANTNET_SRC_VNET_VPC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/cloud/world.h"
#include "src/net/ip.h"
#include "src/net/ipam.h"
#include "src/routing/lpm_trie.h"
#include "src/routing/route_table.h"
#include "src/vnet/revision.h"
#include "src/vnet/security.h"

namespace tenantnet {

using VpcId = TypedId<struct VpcIdTag>;
using SubnetId = TypedId<struct SubnetIdTag>;
using EniId = TypedId<struct EniIdTag>;
using VpcRouteTableId = TypedId<struct VpcRouteTableIdTag>;

// Where a VPC route sends traffic. `target_id` is the .value() of the
// specific gateway/peering object's typed id (kind disambiguates the space).
enum class VpcRouteTargetKind : uint8_t {
  kLocal,            // stays inside the VPC
  kInternetGateway,
  kEgressOnlyIgw,
  kNatGateway,
  kVpnGateway,
  kPeering,
  kTransitGateway,
  kBlackhole,
};

std::string_view VpcRouteTargetKindName(VpcRouteTargetKind kind);

struct VpcRouteTarget {
  VpcRouteTargetKind kind = VpcRouteTargetKind::kBlackhole;
  uint64_t target_id = 0;

  friend bool operator==(const VpcRouteTarget& a,
                         const VpcRouteTarget& b) = default;
};

class VpcRouteTable : public RevisionHooked {
 public:
  VpcRouteTable(VpcRouteTableId id, std::string name)
      : id_(id), name_(std::move(name)), label_(RouteLabels().Intern(name_)) {}

  VpcRouteTableId id() const { return id_; }
  const std::string& name() const { return name_; }
  uint32_t label() const { return label_; }  // the name, in RouteLabels()

  void Install(const IpPrefix& prefix, VpcRouteTarget target) {
    trie_.Insert(prefix, target);
    BumpRevision();
  }
  bool Withdraw(const IpPrefix& prefix) {
    BumpRevision();
    return trie_.Remove(prefix);
  }

  // Longest-prefix match; nullptr means no route (drop).
  const VpcRouteTarget* Lookup(IpAddress dst) const {
    return trie_.LongestMatch(dst);
  }

  // Visits every installed route as (prefix, target).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    trie_.ForEach(std::forward<Fn>(fn));
  }

  size_t entry_count() const { return trie_.entry_count(); }

 private:
  VpcRouteTableId id_;
  std::string name_;
  uint32_t label_;
  LpmTrie<VpcRouteTarget> trie_;
};

struct Subnet {
  SubnetId id;
  VpcId vpc;
  std::string name;
  IpPrefix cidr;
  int zone_index = 0;
  bool is_public = false;  // association with an IGW-bearing route table
  VpcRouteTableId route_table;
  NetworkAclId acl;
  HostAllocator allocator;  // private addresses within the subnet

  Subnet(SubnetId id_in, VpcId vpc_in, std::string name_in, IpPrefix cidr_in,
         int zone, bool pub)
      : id(id_in),
        vpc(vpc_in),
        name(std::move(name_in)),
        cidr(cidr_in),
        zone_index(zone),
        is_public(pub),
        allocator(cidr_in) {}
};

// Elastic network interface: how an instance attaches to a subnet.
struct Eni {
  EniId id;
  InstanceId instance;
  SubnetId subnet;
  IpAddress private_ip;
  std::optional<IpAddress> public_ip;
  std::vector<SecurityGroupId> security_groups;
};

struct Vpc {
  VpcId id;
  TenantId tenant;
  ProviderId provider;
  RegionId region;
  std::string name;
  IpPrefix cidr;
  IpFamily family = IpFamily::kIpv4;
  std::vector<SubnetId> subnets;
  NetworkAclId default_acl;
  VpcRouteTableId main_route_table;
  PrefixAllocator subnet_space;  // carves subnet CIDRs out of the VPC block

  Vpc(VpcId id_in, TenantId tenant_in, ProviderId provider_in,
      RegionId region_in, std::string name_in, IpPrefix cidr_in)
      : id(id_in),
        tenant(tenant_in),
        provider(provider_in),
        region(region_in),
        name(std::move(name_in)),
        cidr(cidr_in),
        subnet_space(cidr_in) {}
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_VNET_VPC_H_
