// Baseline-world security primitives: security groups and network ACLs.
//
// Security groups are stateful allow-lists attached to instance NICs; rules
// may reference prefixes or other security groups (the cross-reference kind
// of complexity the ledger counts). Network ACLs are stateless, ordered
// allow/deny lists attached to subnets, evaluated lowest rule number first
// with an implicit final deny — faithful to the AWS semantics the paper's
// Table 1 samples.

#ifndef TENANTNET_SRC_VNET_SECURITY_H_
#define TENANTNET_SRC_VNET_SECURITY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/common/ids.h"
#include "src/net/flow.h"
#include "src/routing/route_table.h"
#include "src/vnet/revision.h"

namespace tenantnet {

using SecurityGroupId = TypedId<struct SecurityGroupIdTag>;
using NetworkAclId = TypedId<struct NetworkAclIdTag>;

enum class TrafficDirection : uint8_t { kIngress, kEgress };

// A rule's peer may be a prefix or another security group.
using SgPeer = std::variant<IpPrefix, SecurityGroupId>;

struct SgRule {
  TrafficDirection direction = TrafficDirection::kIngress;
  Protocol proto = Protocol::kAny;
  PortRange ports = PortRange::Any();  // destination ports for ingress,
                                       // destination ports for egress
  SgPeer peer;                         // remote side of the rule
  std::string description;
};

class SecurityGroup : public RevisionHooked {
 public:
  SecurityGroup(SecurityGroupId id, std::string name) noexcept
      : id_(id), name_(std::move(name)) {}

  SecurityGroupId id() const { return id_; }
  const std::string& name() const { return name_; }

  void AddRule(SgRule rule) {
    rules_.push_back(std::move(rule));
    BumpRevision();
  }
  // Removes the rule at `index`; false if out of range.
  bool RemoveRule(size_t index) {
    if (index >= rules_.size()) {
      return false;
    }
    rules_.erase(rules_.begin() + static_cast<ptrdiff_t>(index));
    BumpRevision();
    return true;
  }
  const std::vector<SgRule>& rules() const { return rules_; }

  // Resolves whether `ip` belongs to a referenced security group (i.e. is
  // assigned to a NIC holding that group).
  using SgMembershipFn =
      std::function<bool(SecurityGroupId group, IpAddress ip)>;

  // True if this group admits the flow in the given direction. For
  // kIngress the peer is matched against flow.src and ports against
  // flow.dst_port; for kEgress the peer is matched against flow.dst and
  // ports against flow.dst_port (AWS semantics).
  bool Allows(TrafficDirection direction, const FiveTuple& flow,
              const SgMembershipFn& membership) const;

 private:
  SecurityGroupId id_;
  std::string name_;
  std::vector<SgRule> rules_;
};

struct AclEntry {
  uint32_t rule_number = 0;  // evaluated ascending
  bool allow = false;
  TrafficDirection direction = TrafficDirection::kIngress;
  FlowMatch match;
};

class NetworkAcl : public RevisionHooked {
 public:
  NetworkAcl(NetworkAclId id, std::string name)
      : id_(id), name_(std::move(name)), label_(RouteLabels().Intern(name_)) {}

  NetworkAclId id() const { return id_; }
  const std::string& name() const { return name_; }
  uint32_t label() const { return label_; }  // the name, in RouteLabels()

  // Entries keep ascending rule_number order.
  void AddEntry(AclEntry entry);
  const std::vector<AclEntry>& entries() const { return entries_; }

  // First matching entry in the direction decides; no match = deny.
  bool Allows(TrafficDirection direction, const FiveTuple& flow) const;

 private:
  NetworkAclId id_;
  std::string name_;
  uint32_t label_;
  std::vector<AclEntry> entries_;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_VNET_SECURITY_H_
