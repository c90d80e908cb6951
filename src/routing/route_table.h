// Route tables (RIB/FIB) and route aggregation.
//
// RouteTable is the forwarding state a router or a provider fabric holds:
// prefix -> next hop (+ origin metadata). Aggregation answers E4a's routing
// question: given the set of prefixes a provider must carry, how small can
// the table get, flat-EIP world vs VPC world?

#ifndef TENANTNET_SRC_ROUTING_ROUTE_TABLE_H_
#define TENANTNET_SRC_ROUTING_ROUTE_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/slab.h"
#include "src/common/status.h"
#include "src/net/ip.h"
#include "src/routing/lpm_trie.h"
#include "src/sim/topology.h"

namespace tenantnet {

enum class RouteOrigin : uint8_t {
  kLocal,       // directly attached
  kStatic,      // operator-configured
  kPropagated,  // learned via BGP/peering
};

// Interner for RouteEntry::via labels (gateway names, sessions). Labels are
// few and repeated across millions of routes, so entries carry a 4-byte id
// instead of a 32-byte std::string (the PR-8 memory diet; a RouteEntry is
// 24 bytes, and E10's flat EIP RIB holds one per endpoint).
inline StringInterner& RouteLabels() {
  static StringInterner* interner = new StringInterner();
  return *interner;
}

struct RouteEntry {
  NodeId next_hop;
  RouteOrigin origin = RouteOrigin::kStatic;
  uint32_t metric = 0;
  // Human-readable source, interned: RouteLabels().Intern("igw-1"); 0 = "".
  uint32_t via = 0;

  friend bool operator==(const RouteEntry& a, const RouteEntry& b) {
    return a.next_hop == b.next_hop && a.origin == b.origin &&
           a.metric == b.metric;
  }
};

class RouteTable {
 public:
  // Installs/overwrites a route. Returns true if the table changed (new
  // prefix, or an existing entry replaced by a different one) — callers use
  // this to bump revision counters only on actual change.
  bool Install(const IpPrefix& prefix, RouteEntry entry);

  Status Withdraw(const IpPrefix& prefix);

  // Longest-prefix-match lookup.
  const RouteEntry* Lookup(IpAddress dst) const;

  size_t entry_count() const { return trie_.entry_count(); }
  // Structural size: trie nodes (memory proxy for E4a).
  size_t node_count() const { return trie_.node_count(); }
  // Actual arena footprint (E10 bytes/endpoint accounting).
  size_t ApproxBytes() const { return trie_.ApproxBytes(); }
  // Drops arena growth slack after a bulk build, before measuring.
  void ShrinkToFit() { trie_.ShrinkToFit(); }

  // All installed prefixes, for aggregation / reporting.
  std::vector<IpPrefix> Prefixes() const;

  void Clear() { trie_.Clear(); }

 private:
  LpmTrie<RouteEntry> trie_;
};

// Collapses a prefix set to its minimal covering set: buddy pairs merge into
// their parent, contained prefixes are dropped. This models the provider's
// ability to aggregate (the paper argues flat EIP assignment gives the
// provider *maximum* aggregation freedom because tenants no longer pin
// prefixes to VPCs).
std::vector<IpPrefix> AggregatePrefixes(std::vector<IpPrefix> prefixes);

// True iff some prefix in the set covers `addr`. Linear; the reach intent
// layer uses it for closure checks (does a synthesized policy admit exactly
// the observed sources?) where no trie is worth building.
bool CoveredBy(const std::vector<IpPrefix>& prefixes, IpAddress addr);

}  // namespace tenantnet

#endif  // TENANTNET_SRC_ROUTING_ROUTE_TABLE_H_
