#include "src/vnet/firewall.h"

#include <algorithm>

namespace tenantnet {

void DpiFirewall::AddRule(FirewallRule rule) {
  auto pos = std::upper_bound(rules_.begin(), rules_.end(), rule,
                              [](const FirewallRule& a, const FirewallRule& b) {
                                return a.priority < b.priority;
                              });
  rules_.insert(pos, std::move(rule));
  BumpRevision();
}

FirewallVerdict DpiFirewall::Judge(const FiveTuple& flow,
                                   std::string_view payload) const {
  for (const FirewallRule& rule : rules_) {
    if (!rule.match.Matches(flow)) {
      continue;
    }
    if (!rule.payload_signature.empty() &&
        payload.find(rule.payload_signature) == std::string_view::npos) {
      continue;
    }
    return rule.verdict;
  }
  return default_verdict_;
}

}  // namespace tenantnet
