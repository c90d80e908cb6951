#include "src/vnet/config_ledger.h"

#include <sstream>

namespace tenantnet {

void ConfigLedger::Record(ConfigAction action, std::string component_kind,
                          std::string detail) {
  records_.push_back(
      ConfigRecord{action, std::move(component_kind), std::move(detail)});
}

uint64_t ConfigLedger::CountOf(ConfigAction action) const {
  uint64_t n = 0;
  for (const auto& r : records_) {
    if (r.action == action) {
      ++n;
    }
  }
  return n;
}

std::map<std::string, uint64_t> ConfigLedger::ComponentsByKind() const {
  std::map<std::string, uint64_t> out;
  for (const auto& r : records_) {
    if (r.action == ConfigAction::kCreateComponent) {
      ++out[r.component_kind];
    }
  }
  return out;
}

std::string ConfigLedger::Summary() const {
  std::ostringstream os;
  os << "components=" << components() << " parameters=" << parameters()
     << " decisions=" << decisions()
     << " cross-references=" << cross_references()
     << " api-calls=" << api_calls();
  return os.str();
}

}  // namespace tenantnet
