#include "src/app/trace.h"

#include <algorithm>
#include <cmath>

namespace tenantnet {

TenantTrace GenerateTrace(const TraceParams& params) {
  Rng rng(params.seed);
  TenantTrace trace;

  struct Pending {
    SimTime at;
    bool launch;
    uint64_t tenant;
    uint64_t instance;
  };
  std::vector<Pending> pending;

  // Pareto scale so that the mean matches mean_lifetime_seconds:
  // E[X] = alpha * x_min / (alpha - 1) for alpha > 1.
  constexpr double kParetoAlpha = 1.3;  // lifetime tail index
  constexpr double kMaxLifetimeSeconds = 86400;
  double x_min = params.mean_lifetime_seconds * (kParetoAlpha - 1) /
                 kParetoAlpha;

  uint64_t next_instance = 0;
  std::vector<std::vector<uint64_t>> per_tenant_instances(params.tenants);

  for (uint64_t tenant = 0; tenant < params.tenants; ++tenant) {
    Rng tenant_rng = rng.Fork();
    double t = 0;
    double horizon = params.duration.ToSeconds();
    while (true) {
      t += tenant_rng.NextExponential(params.launches_per_second_per_tenant);
      if (t >= horizon) {
        break;
      }
      uint64_t instance = next_instance++;
      per_tenant_instances[tenant].push_back(instance);
      double lifetime =
          std::min(tenant_rng.NextPareto(x_min, kParetoAlpha),
                   kMaxLifetimeSeconds);
      pending.push_back(
          {SimTime::FromSeconds(t), true, tenant, instance});
      pending.push_back(
          {SimTime::FromSeconds(t + lifetime), false, tenant, instance});
    }
  }

  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) {
              if (a.at != b.at) {
                return a.at < b.at;
              }
              // Launches before teardowns at identical timestamps.
              return a.launch && !b.launch;
            });

  trace.total_instances = next_instance;
  uint64_t live = 0;

  // Partner selection: Zipf over the tenant's instance population (popular
  // instances attract most flows).
  constexpr double kZipfS = 1.1;
  std::vector<ZipfSampler> samplers;
  samplers.reserve(params.tenants);
  for (uint64_t tenant = 0; tenant < params.tenants; ++tenant) {
    samplers.emplace_back(
        std::max<uint64_t>(1, per_tenant_instances[tenant].size()),
        kZipfS);
  }

  trace.events.reserve(pending.size());
  for (const Pending& p : pending) {
    TraceEvent event;
    event.at = p.at;
    event.kind = p.launch ? TraceEventKind::kLaunch : TraceEventKind::kTeardown;
    event.tenant = p.tenant;
    event.instance = p.instance;
    if (p.launch) {
      ++live;
      trace.peak_live_instances = std::max(trace.peak_live_instances, live);
      const auto& population = per_tenant_instances[p.tenant];
      if (population.size() > 1) {
        for (uint64_t k = 0; k < params.partners_per_instance; ++k) {
          uint64_t partner = population[samplers[p.tenant].Sample(rng)];
          if (partner != p.instance) {
            event.talks_to.push_back(partner);
          }
        }
        std::sort(event.talks_to.begin(), event.talks_to.end());
        event.talks_to.erase(
            std::unique(event.talks_to.begin(), event.talks_to.end()),
            event.talks_to.end());
      }
    } else {
      if (live > 0) {
        --live;
      }
    }
    trace.events.push_back(std::move(event));
  }
  return trace;
}

}  // namespace tenantnet
