#include "src/vnet/security.h"

#include <algorithm>

namespace tenantnet {

bool SecurityGroup::Allows(TrafficDirection direction, const FiveTuple& flow,
                           const SgMembershipFn& membership) const {
  IpAddress remote =
      direction == TrafficDirection::kIngress ? flow.src : flow.dst;
  for (const SgRule& rule : rules_) {
    if (rule.direction != direction) {
      continue;
    }
    if (rule.proto != Protocol::kAny && rule.proto != flow.proto) {
      continue;
    }
    if (!rule.ports.Contains(flow.dst_port)) {
      continue;
    }
    bool peer_ok = false;
    if (const IpPrefix* prefix = std::get_if<IpPrefix>(&rule.peer)) {
      peer_ok = prefix->Contains(remote);
    } else {
      SecurityGroupId group = std::get<SecurityGroupId>(rule.peer);
      peer_ok = membership && membership(group, remote);
    }
    if (peer_ok) {
      return true;
    }
  }
  return false;
}

void NetworkAcl::AddEntry(AclEntry entry) {
  auto pos = std::upper_bound(
      entries_.begin(), entries_.end(), entry,
      [](const AclEntry& a, const AclEntry& b) {
        return a.rule_number < b.rule_number;
      });
  entries_.insert(pos, std::move(entry));
  BumpRevision();
}

bool NetworkAcl::Allows(TrafficDirection direction,
                        const FiveTuple& flow) const {
  for (const AclEntry& entry : entries_) {
    if (entry.direction != direction) {
      continue;
    }
    if (entry.match.Matches(flow)) {
      return entry.allow;
    }
  }
  return false;  // implicit final deny
}

}  // namespace tenantnet
