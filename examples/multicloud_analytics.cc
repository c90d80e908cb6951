// The Figure 1 scenario end to end: an enterprise whose Spark cluster,
// database, web tiers, analytics and on-prem alert manager span two clouds
// and a private datacenter — deployed BOTH ways, then driven with live
// request traffic over the fluid network simulator.
//
// Watch for three things in the output:
//   1. the construction transcript lengths (what the tenant had to do),
//   2. identical application-level connectivity from both worlds,
//   3. comparable end-to-end latency — the declarative world gives up no
//      performance; it only removes the tenant network layer.

#include <cstdio>
#include <functional>
#include <map>

#include "src/app/workload.h"
#include "src/sim/flow_sim.h"
#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/vnet/builder.h"

using namespace tenantnet;  // NOLINT: example brevity

namespace {

// Drives the app's three main request patterns through either world and
// prints per-pattern latency.
using ConnectorFactory = std::function<ConnectorFn(uint16_t port)>;

void DriveTraffic(const char* label, CloudWorld& world,
                  const Fig1World& fig, const ConnectorFactory& connector) {
  EventQueue queue;
  FlowSim flows(queue, world.topology());
  RequestWorkload workload(queue, flows, world, WorkloadParams{});

  size_t spark_db = *workload.AddStreamingPattern(
      "spark->db", fig.spark, fig.database, RateCurve::Constant(30.0),
      connector(Fig1Baseline::kDbPort));
  size_t web_spark = *workload.AddStreamingPattern(
      "web->spark", fig.web_eu, fig.spark, RateCurve::Constant(20.0),
      connector(Fig1Baseline::kSparkPort));
  size_t alert = *workload.AddStreamingPattern(
      "spark->alerting", fig.spark, fig.alerting, RateCurve::Constant(5.0),
      connector(Fig1Baseline::kAlertPort));
  workload.Start(SimDuration::Seconds(15));
  queue.RunAll();

  std::printf("%s\n", label);
  for (size_t p : {spark_db, web_spark, alert}) {
    const PatternStats& stats = workload.stats(p);
    std::printf("  %-16s attempted=%llu delivered=%llu p50=%.1fms "
                "p99=%.1fms\n",
                workload.pattern_name(p).c_str(),
                static_cast<unsigned long long>(stats.attempted),
                static_cast<unsigned long long>(stats.completed),
                stats.latency_ms.P50(), stats.latency_ms.P99());
  }
}

}  // namespace

int main() {
  // ======================= World 1: the baseline =========================
  Fig1World fig_base = BuildFig1World();
  ConfigLedger base_ledger;
  BaselineNetwork baseline(*fig_base.world, base_ledger);
  auto handles = BuildFig1Baseline(baseline, fig_base);
  if (!handles.ok()) {
    std::printf("baseline build failed: %s\n",
                handles.status().ToString().c_str());
    return 1;
  }
  std::printf("Baseline build: %llu tenant actions "
              "(%llu components, %llu parameters, %llu cross-references)\n",
              static_cast<unsigned long long>(base_ledger.total()),
              static_cast<unsigned long long>(base_ledger.components()),
              static_cast<unsigned long long>(base_ledger.parameters()),
              static_cast<unsigned long long>(base_ledger.cross_references()));

  ConnectorFactory base_connector = [&baseline](uint16_t port) {
    return [&baseline, port](InstanceId src, InstanceId dst) {
      return RouteFor(baseline.Evaluate(src, dst, port, Protocol::kTcp));
    };
  };
  DriveTraffic("Baseline traffic:", *fig_base.world, fig_base,
               base_connector);

  // ===================== World 2: the declarative API =====================
  Fig1World fig_decl = BuildFig1World();
  ConfigLedger decl_ledger;
  DeclarativeCloud cloud(*fig_decl.world, decl_ledger);

  std::map<uint64_t, IpAddress> eip;
  for (InstanceId id : fig_decl.AllInstances()) {
    eip[id.value()] = *cloud.RequestEip(id);
  }
  auto permit = [&](InstanceId target,
                    std::vector<const std::vector<InstanceId>*> groups) {
    std::vector<PermitEntry> permits;
    for (const auto* group : groups) {
      for (InstanceId src : *group) {
        if (src != target) {
          PermitEntry e;
          e.source = IpPrefix::Host(eip[src.value()]);
          permits.push_back(e);
        }
      }
    }
    (void)cloud.SetPermitList(eip[target.value()], permits);
  };
  for (InstanceId db : fig_decl.database) {
    permit(db, {&fig_decl.spark, &fig_decl.analytics, &fig_decl.alerting});
  }
  for (InstanceId sp : fig_decl.spark) {
    permit(sp, {&fig_decl.spark, &fig_decl.web_eu, &fig_decl.web_us,
                &fig_decl.alerting});
  }
  for (InstanceId al : fig_decl.alerting) {
    permit(al, {&fig_decl.spark});
  }
  (void)cloud.SetEgressProfile(fig_decl.tenant, EgressPolicy::kColdPotato);
  std::printf("\nDeclarative build: %llu tenant actions "
              "(%llu API calls; 0 components; 0 cross-references)\n",
              static_cast<unsigned long long>(decl_ledger.total()),
              static_cast<unsigned long long>(decl_ledger.api_calls()));

  ConnectorFactory decl_connector = [&cloud, &eip](uint16_t port) {
    return [&cloud, &eip, port](InstanceId src, InstanceId dst) {
      auto result =
          cloud.Evaluate(src, eip[dst.value()], port, Protocol::kTcp);
      ResolvedRoute route = RouteFor(result);
      if (route.allowed) {
        route.rate_cap_bps = result->vm_egress_cap_bps;
      }
      return route;
    };
  };
  DriveTraffic("Declarative traffic:", *fig_decl.world, fig_decl,
               decl_connector);

  std::printf(
      "\nSame application, same physical world, same connectivity —\n"
      "one of the two tenants also had to build and now operates 6 VPCs,\n"
      "11 gateways and a BGP mesh.\n");
  return 0;
}
