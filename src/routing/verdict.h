// Verdict vocabulary shared by both worlds' data planes.
//
// A verdict is a plain value: building one allocates nothing, and a verdict
// cache stores and returns it by copy. Names appear only when someone asks
// for text (sonic-swss vnetorch makes the same split: it programs by object
// id and names objects only when it logs a refusal):
//  * hops are RouteLabels() ids in a fixed inline LabelTrace; every box or
//    edge interns its labels once, when it is created (HopLabel);
//  * a denial's reason is a DropReason, a static template plus at most one
//    address and one interned name, which RenderReason() turns into text.

#ifndef TENANTNET_SRC_ROUTING_VERDICT_H_
#define TENANTNET_SRC_ROUTING_VERDICT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/ip.h"
#include "src/routing/route_table.h"

namespace tenantnet {

// A box or edge as verdicts name it: `hop` is its trace label
// ("tgw:core", "edge-filter@aws:east") and `name` the bare name a reason
// quotes ("core", "aws:east"), both RouteLabels() ids.
struct HopLabel {
  uint32_t hop = 0;
  uint32_t name = 0;

  // Interns both labels; call once, when the box or edge is created.
  static HopLabel Of(std::string_view prefix, const std::string& name) {
    return {RouteLabels().Intern(std::string(prefix) + name),
            RouteLabels().Intern(name)};
  }
};

// The hops a flow traversed, in order, as RouteLabels() ids, held inline.
// The owner bounds every trace it builds by `N` (and says why); there is no
// growth and no overflow path.
template <size_t N>
class LabelTrace {
  static_assert(N < 256, "size is kept in one byte");

 public:
  static constexpr size_t kCapacity = N;

  void push_back(uint32_t label) { ids_[size_++] = label; }
  size_t size() const { return size_; }
  uint32_t operator[](size_t i) const { return ids_[i]; }
  uint32_t back() const { return ids_[size_ - 1]; }
  const uint32_t* begin() const { return ids_.data(); }
  const uint32_t* end() const { return ids_.data() + size_; }

  // The hop labels as text, for reports and tests.
  std::vector<std::string> Names() const {
    std::vector<std::string> out;
    for (uint32_t id : *this) {
      out.push_back(RouteLabels().Name(id));
    }
    return out;
  }

  // Slots past size() stay zero, so comparing whole arrays is exact.
  friend bool operator==(const LabelTrace&, const LabelTrace&) = default;

 private:
  std::array<uint32_t, N> ids_{};
  uint8_t size_ = 0;
};

// Why a flow was dropped. `text` is a string literal in which "{ip}" stands
// for `ip`, "{name}" for RouteLabels().Name(name) and "{src}" for the
// verdict's effective source address.
struct DropReason {
  constexpr DropReason() = default;
  constexpr DropReason(const char* text, IpAddress ip = {}, uint32_t name = 0)
      : text(text), ip(ip), name(name) {}

  const char* text = nullptr;  // null: nothing was dropped
  IpAddress ip;
  uint32_t name = 0;

  friend bool operator==(const DropReason&, const DropReason&) = default;
};

// The reason's text ("" when nothing was dropped); `src` fills "{src}".
std::string RenderReason(const DropReason& reason, IpAddress src = {});

}  // namespace tenantnet

#endif  // TENANTNET_SRC_ROUTING_VERDICT_H_
