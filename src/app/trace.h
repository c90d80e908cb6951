// Synthetic tenant traces.
//
// §6(i) says the scalability questions "can be quantitatively answered
// given the appropriate data traces; e.g., with traces that include
// launch/teardown times for tenant instances, per-instance communication
// patterns". We do not have production traces (documented substitution in
// DESIGN.md), so this generator produces the closest synthetic equivalent:
//
//  * instance launches: Poisson arrivals per tenant,
//  * lifetimes: bounded Pareto (heavy-tailed: most instances are
//    short-lived, a few live for the whole trace — the shape cloud
//    churn studies consistently report),
//  * communication: Zipf-weighted partner selection (most instances talk
//    to a few popular services),
//  * permit-list updates: a fraction of launches/teardowns trigger
//    permit-list changes on their communication partners.

#ifndef TENANTNET_SRC_APP_TRACE_H_
#define TENANTNET_SRC_APP_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"

namespace tenantnet {

enum class TraceEventKind : uint8_t { kLaunch, kTeardown };

struct TraceEvent {
  SimTime at;
  TraceEventKind kind;
  uint64_t tenant;
  uint64_t instance;                  // trace-local id
  std::vector<uint64_t> talks_to;     // instances this one communicates with
};

struct TraceParams {
  uint64_t tenants = 10;
  double launches_per_second_per_tenant = 2.0;
  double mean_lifetime_seconds = 300;
  uint64_t partners_per_instance = 4;
  SimDuration duration = SimDuration::Seconds(3600);
  uint64_t seed = 1234;
};

struct TenantTrace {
  std::vector<TraceEvent> events;     // sorted by time
  uint64_t peak_live_instances = 0;
  uint64_t total_instances = 0;
};

// Generates one trace. Deterministic for a given TraceParams.
TenantTrace GenerateTrace(const TraceParams& params);

}  // namespace tenantnet

#endif  // TENANTNET_SRC_APP_TRACE_H_
