// Baseline-world DPI firewall appliance.
//
// The proposal explicitly does *not* support custom middleboxes ("we do not
// support deep-packet inspection firewalls"), so the baseline must have one
// to compare against: an ordered rule engine matching on 5-tuples plus
// payload signatures, with finite inspection capacity. The capacity matters
// for E6 — under a volumetric attack the appliance itself saturates, while
// the proposal's provider-edge permit-list drops the flood before it ever
// converges on a tenant box.

#ifndef TENANTNET_SRC_VNET_FIREWALL_H_
#define TENANTNET_SRC_VNET_FIREWALL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/net/flow.h"
#include "src/routing/verdict.h"
#include "src/vnet/revision.h"

namespace tenantnet {

using FirewallId = TypedId<struct FirewallIdTag>;

enum class FirewallVerdict : uint8_t { kAllow, kDeny };

struct FirewallRule {
  uint32_t priority = 100;  // evaluated ascending
  FlowMatch match;
  // If non-empty, the rule only matches payloads containing this substring
  // (the DPI part).
  std::string payload_signature;
  FirewallVerdict verdict = FirewallVerdict::kDeny;
  std::string description;
};

class DpiFirewall : public RevisionHooked {
 public:
  DpiFirewall(FirewallId id, std::string name, double capacity_pps)
      : id_(id), name_(std::move(name)),
        label_(HopLabel::Of("firewall:", name_)),
        capacity_pps_(capacity_pps) {}

  FirewallId id() const { return id_; }
  const std::string& name() const { return name_; }
  const HopLabel& label() const { return label_; }  // "firewall:<name>"
  double capacity_pps() const { return capacity_pps_; }

  void AddRule(FirewallRule rule);
  const std::vector<FirewallRule>& rules() const { return rules_; }

  void set_default_verdict(FirewallVerdict v) {
    default_verdict_ = v;
    BumpRevision();
  }

  // The verdict on one unit of traffic. Rules are consulted ascending by
  // priority; the first whose match and signature both hit decides.
  FirewallVerdict Judge(const FiveTuple& flow, std::string_view payload) const;
  // Counts one unit of traffic inspected and judged `verdict`; the fabric
  // calls it for traffic, never for a reach query.
  void Count(FirewallVerdict verdict) {
    ++inspected_;
    denied_ += verdict == FirewallVerdict::kDeny ? 1 : 0;
  }

  // Offered-load bookkeeping for the saturation model: callers report the
  // inspection rate they are pushing; Overloaded() compares to capacity.
  uint64_t inspected_count() const { return inspected_; }
  uint64_t denied_count() const { return denied_; }
  void ResetCounters() {
    inspected_ = 0;
    denied_ = 0;
  }

  // Fraction of offered pps the appliance can actually inspect; the rest
  // is dropped indiscriminately (tail drop) once offered > capacity.
  double SurvivalFraction(double offered_pps) const {
    if (offered_pps <= capacity_pps_ || offered_pps <= 0) {
      return 1.0;
    }
    return capacity_pps_ / offered_pps;
  }

 private:
  FirewallId id_;
  std::string name_;
  HopLabel label_;
  double capacity_pps_;
  FirewallVerdict default_verdict_ = FirewallVerdict::kDeny;
  std::vector<FirewallRule> rules_;
  uint64_t inspected_ = 0;
  uint64_t denied_ = 0;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_VNET_FIREWALL_H_
