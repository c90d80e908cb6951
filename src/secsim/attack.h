// Attack simulation for the §6(iii) security question.
//
// Four attack classes exercise different layers of each defense stack:
//
//   kVolumetricFlood     — many spoofed sources, high pps, one target: the
//                          DDoS/resource-exhaustion case permit-lists are
//                          meant to absorb at the provider edge.
//   kPortScan            — one source probing many ports: tests default-off
//                          vs ACL/SG surface.
//   kUnauthorizedAccess  — network-permitted source, no/bad credential:
//                          must die at the API gateway in both worlds.
//   kStolenCredential    — valid token from a non-permitted network
//                          location: the declarative world's L3/L4 layer
//                          catches what API auth alone cannot.
//
// The driver is world-agnostic: the two worlds plug in a NetworkCheckFn
// (did the packet reach the endpoint, and where did it die?) and an
// optional AppCheckFn (did the request pass API-level auth?). The outcome
// separates network-layer delivery from application acceptance, plus how
// much attack traffic each tenant-owned appliance had to inspect — the
// saturation axis of the comparison.

#ifndef TENANTNET_SRC_SECSIM_ATTACK_H_
#define TENANTNET_SRC_SECSIM_ATTACK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/app/gateway.h"
#include "src/common/rng.h"
#include "src/net/flow.h"

namespace tenantnet {

enum class AttackKind : uint8_t {
  kVolumetricFlood,
  kPortScan,
  kUnauthorizedAccess,
  kStolenCredential,
};

std::string_view AttackKindName(AttackKind kind);

struct AttackConfig {
  AttackKind kind = AttackKind::kVolumetricFlood;
  IpAddress target;
  uint16_t target_port = 443;
  uint64_t attempts = 10000;
  // For credentialed attacks.
  std::string token;                 // empty/bogus for kUnauthorizedAccess
  IpAddress insider_source;          // a network-permitted address, for
                                     // kUnauthorizedAccess
  uint64_t seed = 99;
};

// One probe's network-layer fate.
struct NetworkVerdict {
  bool delivered = false;
  std::string stage;  // drop stage, or "delivered"
};

using NetworkCheckFn = std::function<NetworkVerdict(
    const FiveTuple& flow, const std::string& payload)>;
// Returns the gateway verdict for a request that reached the endpoint.
using AppCheckFn = std::function<GatewayVerdict(const ApiRequest& request)>;

struct AttackOutcome {
  uint64_t attempts = 0;
  uint64_t reached_endpoint = 0;   // network-layer delivered
  uint64_t served = 0;             // also passed application auth
  std::map<std::string, uint64_t> dropped_by_stage;
  std::map<std::string, uint64_t> app_rejections;

  double ReachRate() const {
    return attempts == 0 ? 0
                         : static_cast<double>(reached_endpoint) /
                               static_cast<double>(attempts);
  }
  double ServeRate() const {
    return attempts == 0
               ? 0
               : static_cast<double>(served) / static_cast<double>(attempts);
  }
};

// Runs the attack. `app_check` may be null (pure network-layer attacks).
AttackOutcome RunAttack(const AttackConfig& config, NetworkCheckFn network,
                        AppCheckFn app_check);

}  // namespace tenantnet

#endif  // TENANTNET_SRC_SECSIM_ATTACK_H_
