#include "src/routing/verdict.h"

namespace tenantnet {

std::string RenderReason(const DropReason& reason, IpAddress src) {
  std::string out;
  if (reason.text == nullptr) {
    return out;
  }
  std::string_view rest = reason.text;
  while (!rest.empty()) {
    const size_t open = rest.find('{');
    out.append(rest.substr(0, open));
    if (open == std::string_view::npos) {
      break;
    }
    rest.remove_prefix(open);
    if (rest.starts_with("{ip}")) {
      out += reason.ip.ToString();
      rest.remove_prefix(4);
    } else if (rest.starts_with("{src}")) {
      out += src.ToString();
      rest.remove_prefix(5);
    } else if (rest.starts_with("{name}")) {
      out += RouteLabels().Name(reason.name);
      rest.remove_prefix(6);
    } else {
      out += '{';
      rest.remove_prefix(1);
    }
  }
  return out;
}

}  // namespace tenantnet
