// Flow identification: protocols, port ranges, 5-tuples.
//
// The simulator is flow-level, so the FiveTuple is the unit the data plane
// classifies on — security groups, ACLs, permit-lists and load balancers all
// match against it.

#ifndef TENANTNET_SRC_NET_FLOW_H_
#define TENANTNET_SRC_NET_FLOW_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "src/net/ip.h"

namespace tenantnet {

enum class Protocol : uint8_t { kAny = 0, kTcp = 6, kUdp = 17, kIcmp = 1 };

std::string_view ProtocolName(Protocol proto);

// Inclusive port range. {0, 65535} matches everything.
struct PortRange {
  uint16_t lo = 0;
  uint16_t hi = 65535;

  static constexpr PortRange Any() { return PortRange{0, 65535}; }
  static constexpr PortRange Single(uint16_t port) {
    return PortRange{port, port};
  }

  bool Contains(uint16_t port) const { return port >= lo && port <= hi; }
  bool IsAny() const { return lo == 0 && hi == 65535; }

  friend bool operator==(const PortRange& a, const PortRange& b) = default;
};

std::ostream& operator<<(std::ostream& os, const PortRange& r);

// Classic 5-tuple.
struct FiveTuple {
  IpAddress src;
  IpAddress dst;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  Protocol proto = Protocol::kTcp;

  std::string ToString() const;

  friend bool operator==(const FiveTuple& a, const FiveTuple& b) = default;
};

std::ostream& operator<<(std::ostream& os, const FiveTuple& t);

// A match pattern over flows: the building block of every filtering
// abstraction in both worlds (SG rules, ACL entries, permit-list entries,
// firewall rules).
struct FlowMatch {
  IpPrefix src_prefix;   // default: family-any set by users
  IpPrefix dst_prefix;
  PortRange src_ports = PortRange::Any();
  PortRange dst_ports = PortRange::Any();
  Protocol proto = Protocol::kAny;

  // Matches everything in the given family.
  static FlowMatch Any(IpFamily family = IpFamily::kIpv4);

  // Matches traffic from one source prefix to anywhere.
  static FlowMatch FromSource(const IpPrefix& src);

  bool Matches(const FiveTuple& flow) const;

  std::string ToString() const;

  friend bool operator==(const FlowMatch& a, const FlowMatch& b) = default;
};

// What the verdict-cache statistics stubs of EdgeFilterBank and
// BaselineNetwork return: always zero, since neither world caches verdicts.
// Kept only for perfbench/e2e/episode.cc; remove with those stubs.
struct VerdictCacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
};

}  // namespace tenantnet

namespace std {
template <>
struct hash<tenantnet::FiveTuple> {
  size_t operator()(const tenantnet::FiveTuple& t) const noexcept {
    size_t h = std::hash<tenantnet::IpAddress>{}(t.src);
    h = h * 1099511628211ULL ^ std::hash<tenantnet::IpAddress>{}(t.dst);
    h = h * 1099511628211ULL ^
        ((static_cast<size_t>(t.src_port) << 24) |
         (static_cast<size_t>(t.dst_port) << 8) |
         static_cast<size_t>(t.proto));
    return h;
  }
};
}  // namespace std

#endif  // TENANTNET_SRC_NET_FLOW_H_
