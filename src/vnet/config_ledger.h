// Configuration-complexity accounting.
//
// The paper's central quantitative claim is about tenant-side complexity:
// how many components a tenant must create, how many parameters they must
// set, how many decisions they must make, and how many cross-references
// (object A naming object B) they must keep consistent. Both worlds write
// every tenant-visible action through a ConfigLedger, so experiments E1, E2
// and E7 report measured counts rather than assertions.
//
// Only *tenant* actions are recorded. Work the provider does beneath the
// API (allocating from its pool, programming its edges) is deliberately
// excluded — shifting that burden off the tenant is exactly the proposal.

#ifndef TENANTNET_SRC_VNET_CONFIG_LEDGER_H_
#define TENANTNET_SRC_VNET_CONFIG_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tenantnet {

enum class ConfigAction : uint8_t {
  kCreateComponent,  // a box: VPC, subnet, gateway, LB, firewall, ...
  kSetParameter,     // one knob on a component
  kDecision,         // a choice among alternatives (v4/v6? which LB type?)
  kCrossReference,   // one object naming another that must stay consistent
  kApiCall,          // one declarative API invocation (Table 2 world)
};

struct ConfigRecord {
  ConfigAction action;
  std::string component_kind;  // "vpc", "transit-gateway", "permit-list", ...
  std::string detail;          // parameter name / decision description
};

class ConfigLedger {
 public:
  void Record(ConfigAction action, std::string component_kind,
              std::string detail);

  // Convenience wrappers used throughout the two worlds.
  void CreateComponent(std::string kind, std::string name) {
    Record(ConfigAction::kCreateComponent, std::move(kind), std::move(name));
  }
  void SetParameter(std::string kind, std::string param) {
    Record(ConfigAction::kSetParameter, std::move(kind), std::move(param));
  }
  void Decision(std::string kind, std::string what) {
    Record(ConfigAction::kDecision, std::move(kind), std::move(what));
  }
  void CrossReference(std::string kind, std::string what) {
    Record(ConfigAction::kCrossReference, std::move(kind), std::move(what));
  }
  void ApiCall(std::string kind, std::string what) {
    Record(ConfigAction::kApiCall, std::move(kind), std::move(what));
  }

  uint64_t CountOf(ConfigAction action) const;
  uint64_t components() const { return CountOf(ConfigAction::kCreateComponent); }
  uint64_t parameters() const { return CountOf(ConfigAction::kSetParameter); }
  uint64_t decisions() const { return CountOf(ConfigAction::kDecision); }
  uint64_t cross_references() const {
    return CountOf(ConfigAction::kCrossReference);
  }
  uint64_t api_calls() const { return CountOf(ConfigAction::kApiCall); }
  uint64_t total() const { return records_.size(); }

  // Component count per kind ("vpc" -> 6, "transit-gateway" -> 2, ...).
  std::map<std::string, uint64_t> ComponentsByKind() const;

  void Clear() { records_.clear(); }

  // Tabular summary for benches: one line per action category.
  std::string Summary() const;

 private:
  std::vector<ConfigRecord> records_;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_VNET_CONFIG_LEDGER_H_
