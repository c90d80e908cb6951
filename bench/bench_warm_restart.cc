// E9b warm-restart experiment — cold vs warm control-plane restarts under
// identical seeded restart storms, with the traffic disruption measured.
//
// Two sweeps, each run once per (mode, seed) with the SAME FaultSchedule:
//
//   * Filter/LB sweep (declarative world): a restart-only storm kills the
//     per-provider filter banks and the SIP load balancer while a retrying
//     request workload runs. A cold completion flushes every edge and
//     re-pushes the whole permit surface — the install latency opens a
//     default-off window in which admitted traffic is blackholed at the
//     edge. A warm completion replays the buffered mutations and applies
//     only content deltas, so an unchanged permit surface never denies a
//     packet. Reported: blackholed bytes (denied responses x response
//     size), denial/retry counts, verdict-epoch bumps (each one a change
//     that may flip verdicts), restart-to-converged latency.
//
//   * Routing sweep (baseline world): the storm restarts the whole routing
//     plane (BgpMesh + TGW FIBs) while backbone link faults and gateway
//     restarts churn sessions around it. Mutations arriving mid-outage
//     buffer and replay at completion. Reported: reconcile deltas vs
//     entries checked, config-epoch bumps, and a differential check that
//     the reconciled state matches a from-scratch PropagateRoutesFull()
//     rebuild exactly.
//
// A summary record per seed carries the warm/cold blackholed-bytes ratio;
// CI gates it (< 0.10) via bench/baselines/smoke_gates.json. Run with
// --smoke for the CI fast path.

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/app/workload.h"
#include "src/cloud/presets.h"
#include "src/common/reconcile.h"
#include "src/core/api.h"
#include "src/faults/fault_injector.h"
#include "src/restart/warm_restart.h"
#include "src/sim/flow_sim.h"
#include "src/vnet/builder.h"
#include "src/vnet/fabric.h"

namespace tenantnet {
namespace {

BenchJsonWriter* g_json = nullptr;

struct RestartBenchConfig {
  uint64_t storm_seed = 7;
  size_t restart_count = 14;  // restart-only storm events
  SimDuration window = SimDuration::Seconds(12);
  SimDuration min_outage = SimDuration::Millis(200);
  SimDuration max_outage = SimDuration::Seconds(1);
  double rps = 200.0;  // dense enough to sample every default-off window
  SimDuration workload_span = SimDuration::Seconds(16);
  size_t mean_response_bytes = 128 * 1024;
};

// Flat permit-everyone app (same shape as the E8b deployment): restart
// disruption should come from the restart machinery, not the policy.
std::map<uint64_t, IpAddress> DeployApp(DeclarativeCloud& cloud,
                                        const Fig1World& fig) {
  std::map<uint64_t, IpAddress> eip;
  std::vector<InstanceId> all = fig.AllInstances();
  for (InstanceId id : all) {
    eip[id.value()] = *cloud.RequestEip(id);
  }
  for (InstanceId dst : all) {
    std::vector<PermitEntry> permits;
    for (InstanceId src : all) {
      if (src != dst) {
        PermitEntry e;
        e.source = IpPrefix::Host(eip[src.value()]);
        permits.push_back(e);
      }
    }
    (void)cloud.SetPermitList(eip[dst.value()], permits);
  }
  return eip;
}

struct HistAgg {
  double mean_sum = 0;
  double max = 0;
  uint64_t count = 0;
  void Add(const Histogram& h) {
    if (h.count() == 0) {
      return;
    }
    mean_sum += h.sum();
    count += h.count();
    max = std::max(max, h.max());
  }
  double mean() const {
    return count > 0 ? mean_sum / static_cast<double>(count) : 0.0;
  }
};

struct FilterRunResult {
  double blackholed_bytes = 0;
  uint64_t epoch_bumps = 0;
};

FilterRunResult RunFilterStorm(RestartMode mode,
                               const RestartBenchConfig& cfg) {
  Fig1World fig = BuildFig1World();
  CloudWorld& world = *fig.world;
  EventQueue queue;
  FlowSim sim(queue, world.topology());
  MetricRegistry metrics;
  ConfigLedger ledger;
  DeclarativeCloud cloud(world, ledger, &queue);
  std::map<uint64_t, IpAddress> eip = DeployApp(cloud, fig);
  queue.RunAll();  // drain deploy-time installs: start from converged

  EdgeFilterBank& bank_a = cloud.provider_filters(fig.cloud_a);
  EdgeFilterBank& bank_b = cloud.provider_filters(fig.cloud_b);
  uint64_t epoch0 = bank_a.verdict_epoch() + bank_b.verdict_epoch();

  WarmRestartCoordinator coordinator(queue, metrics, mode);
  std::vector<uint32_t> ids;
  ids.push_back(
      coordinator.Register(MakeFilterBankComponent("filters-a", bank_a)));
  ids.push_back(
      coordinator.Register(MakeFilterBankComponent("filters-b", bank_b)));
  ids.push_back(coordinator.Register(MakeSipLbComponent("lb", cloud.sip_lb())));

  ConnectorFn connector = [&cloud, &eip](InstanceId src, InstanceId dst) {
    auto it = eip.find(dst.value());
    if (it == eip.end()) {
      ResolvedRoute route;
      route.deny_stage = DenyStage("no-eip");
      return route;
    }
    return RouteFor(cloud.Evaluate(src, it->second, 443, Protocol::kTcp));
  };

  FaultHooks hooks;
  coordinator.WireHooks(hooks);
  FaultInjector injector(queue, world.topology(), sim, &world, metrics,
                         std::move(hooks));

  WorkloadParams wparams;
  wparams.seed = 17;
  wparams.max_retries = 6;
  wparams.mean_response_bytes = cfg.mean_response_bytes;
  RequestWorkload workload(queue, sim, world, wparams);
  size_t pattern = workload.AddPattern("spark->db", fig.spark, fig.database,
                                       cfg.rps, connector);
  workload.Start(cfg.workload_span);

  // Restart-only storm: every disruption below is attributable to the
  // restart path, not to link or instance faults.
  StormParams params;
  params.event_count = cfg.restart_count;
  params.window = cfg.window;
  params.min_duration = cfg.min_outage;
  params.max_duration = cfg.max_outage;
  params.include_control_plane = false;
  params.restart_components = ids;
  injector.Schedule(FaultSchedule::Storm(cfg.storm_seed, params));

  auto t0 = std::chrono::steady_clock::now();
  queue.RunAll();
  auto t1 = std::chrono::steady_clock::now();
  double wall_ms = std::chrono::duration<double>(t1 - t0).count() * 1e3;

  HistAgg outage;
  HistAgg converged;
  for (uint32_t id : ids) {
    outage.Add(coordinator.outage_ms(id));
    converged.Add(coordinator.to_converged_ms(id));
  }
  const ReconcileStats& total = coordinator.total();
  const PatternStats& stats = workload.stats(pattern);
  FilterRunResult result;
  // Every denied attempt is one response the edge blackholed until the
  // restart reconverged (the deployed policy permits all of this traffic).
  result.blackholed_bytes = static_cast<double>(stats.denied) *
                            static_cast<double>(cfg.mean_response_bytes);
  result.epoch_bumps =
      bank_a.verdict_epoch() + bank_b.verdict_epoch() - epoch0;

  g_json->Recordf(
      "{\"bench\":\"warm_restart\",\"world\":\"declarative\","
      "\"mode\":\"%s\",\"storm_seed\":%llu,\"wall_ms\":%.1f,"
      "\"restarts\":%llu,"
      "\"outage_ms_mean\":%.1f,\"outage_ms_max\":%.1f,"
      "\"to_converged_ms_mean\":%.1f,\"to_converged_ms_max\":%.1f,"
      "\"reconcile_checked\":%llu,\"deltas_applied\":%llu,"
      "\"replayed\":%llu,\"dropped\":%llu,"
      "\"verdict_epoch_bumps\":%llu,"
      "\"attempted\":%llu,\"completed\":%llu,\"denied\":%llu,"
      "\"retries\":%llu,\"gave_up\":%llu,"
      "\"latency_ms_p50\":%.2f,\"latency_ms_p99\":%.2f,"
      "\"blackholed_bytes\":%.0f}",
      RestartModeName(mode),
      static_cast<unsigned long long>(cfg.storm_seed), wall_ms,
      static_cast<unsigned long long>(coordinator.restarts_completed()),
      outage.mean(), outage.max, converged.mean(), converged.max,
      static_cast<unsigned long long>(total.checked),
      static_cast<unsigned long long>(total.deltas_applied),
      static_cast<unsigned long long>(total.replayed_mutations),
      static_cast<unsigned long long>(total.dropped_mutations),
      static_cast<unsigned long long>(result.epoch_bumps),
      static_cast<unsigned long long>(stats.attempted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.denied),
      static_cast<unsigned long long>(stats.retries),
      static_cast<unsigned long long>(stats.gave_up),
      stats.latency_ms.Quantile(0.5), stats.latency_ms.Quantile(0.99),
      result.blackholed_bytes);
  return result;
}

struct RoutingRunResult {
  bool matches_full_rebuild = false;
};

RoutingRunResult RunRoutingStorm(RestartMode mode,
                                 const RestartBenchConfig& cfg) {
  Fig1World fig = BuildFig1World();
  CloudWorld& world = *fig.world;
  EventQueue queue;
  FlowSim sim(queue, world.topology());
  MetricRegistry metrics;
  ConfigLedger ledger;
  BaselineNetwork net(world, ledger);
  Fig1Baseline handles = *BuildFig1Baseline(net, fig);
  (void)net.PropagateRoutes();

  WarmRestartCoordinator coordinator(queue, metrics, mode);
  uint32_t routing = coordinator.Register(MakeRoutingComponent("routing", net));

  // Session churn racing the restarts: gateway restarts drop and re-add the
  // inter-cloud session; either can land mid-outage (it buffers + replays).
  SpeakerId tgw_a_speaker = net.FindTgw(handles.tgw_a)->speaker();
  SpeakerId tgw_b_speaker = net.FindTgw(handles.tgw_b)->speaker();
  FaultHooks hooks;
  hooks.on_inject = [&](const FaultSpec& spec) {
    if (spec.kind == FaultKind::kGatewayRestart) {
      (void)net.bgp().RemoveSession(tgw_a_speaker, tgw_b_speaker);
    }
    (void)net.PropagateRoutes();
  };
  hooks.on_recover = [&](const FaultSpec& spec) {
    if (spec.kind == FaultKind::kGatewayRestart) {
      (void)net.bgp().AddSession(tgw_a_speaker, tgw_b_speaker);
    }
    (void)net.PropagateRoutes();
  };
  coordinator.WireHooks(hooks);
  FaultInjector injector(queue, world.topology(), sim, &world, metrics,
                         std::move(hooks));

  StormParams params;
  params.event_count = cfg.restart_count;
  params.window = cfg.window;
  params.min_duration = cfg.min_outage;
  params.max_duration = cfg.max_outage;
  params.include_control_plane = false;
  const Topology& topo = world.topology();
  for (size_t i = 0; i < topo.link_count(); ++i) {
    LinkId id(i + 1);
    if (topo.link(id).cls == LinkClass::kBackbone) {
      params.links.push_back(id);
    }
  }
  params.gateways = {world.region(fig.a_us_east).edge_node,
                     world.region(fig.b_us_east).edge_node};
  params.restart_components = {routing};
  injector.Schedule(FaultSchedule::Storm(cfg.storm_seed, params));

  uint64_t epoch0 = net.config_epoch();
  auto t0 = std::chrono::steady_clock::now();
  queue.RunAll();
  auto t1 = std::chrono::steady_clock::now();
  double wall_ms = std::chrono::duration<double>(t1 - t0).count() * 1e3;
  (void)net.PropagateRoutes();  // drain whatever the last hook left pending
  uint64_t epoch_bumps = net.config_epoch() - epoch0;

  // Differential check: the reconciled routing state must be exactly what a
  // from-scratch rebuild computes.
  RoutingSnapshot reconciled = net.CheckpointRouting();
  (void)net.PropagateRoutesFull();
  RoutingRunResult result;
  result.matches_full_rebuild = net.CheckpointRouting() == reconciled;

  HistAgg converged;
  converged.Add(coordinator.to_converged_ms(routing));
  const ReconcileStats& total = coordinator.total();
  const Histogram& repair =
      injector.control_repair_ms(FaultKind::kControlPlaneRestart);
  g_json->Recordf(
      "{\"bench\":\"warm_restart_routing\",\"world\":\"baseline\","
      "\"mode\":\"%s\",\"storm_seed\":%llu,\"wall_ms\":%.1f,"
      "\"restarts\":%llu,"
      "\"reconcile_checked\":%llu,\"deltas_applied\":%llu,"
      "\"replayed\":%llu,\"dropped\":%llu,"
      "\"config_epoch_bumps\":%llu,"
      "\"to_converged_ms_max\":%.1f,"
      "\"repair_wall_ms_mean\":%.4f,"
      "\"matches_full_rebuild\":%d}",
      RestartModeName(mode),
      static_cast<unsigned long long>(cfg.storm_seed), wall_ms,
      static_cast<unsigned long long>(coordinator.restarts_completed()),
      static_cast<unsigned long long>(total.checked),
      static_cast<unsigned long long>(total.deltas_applied),
      static_cast<unsigned long long>(total.replayed_mutations),
      static_cast<unsigned long long>(total.dropped_mutations),
      static_cast<unsigned long long>(epoch_bumps), converged.max,
      repair.count() > 0 ? repair.mean() : 0.0,
      result.matches_full_rebuild ? 1 : 0);
  return result;
}

}  // namespace
}  // namespace tenantnet

int main(int argc, char** argv) {
  const tenantnet::BenchArgs args = tenantnet::ParseBenchArgs(argc, argv);
  const bool smoke = args.smoke;
  tenantnet::BenchJsonWriter json("warm_restart", args);
  tenantnet::g_json = &json;

  tenantnet::RestartBenchConfig cfg;
  if (smoke) {
    cfg.restart_count = 10;
    cfg.window = tenantnet::SimDuration::Seconds(8);
    cfg.workload_span = tenantnet::SimDuration::Seconds(12);
  }
  std::vector<uint64_t> seeds =
      smoke ? std::vector<uint64_t>{7} : std::vector<uint64_t>{7, 21, 99};
  for (uint64_t seed : seeds) {
    cfg.storm_seed = seed;
    tenantnet::FilterRunResult cold =
        tenantnet::RunFilterStorm(tenantnet::RestartMode::kCold, cfg);
    tenantnet::FilterRunResult warm =
        tenantnet::RunFilterStorm(tenantnet::RestartMode::kWarm, cfg);
    tenantnet::RoutingRunResult cold_routing =
        tenantnet::RunRoutingStorm(tenantnet::RestartMode::kCold, cfg);
    tenantnet::RoutingRunResult warm_routing =
        tenantnet::RunRoutingStorm(tenantnet::RestartMode::kWarm, cfg);

    double ratio = cold.blackholed_bytes > 0
                       ? warm.blackholed_bytes / cold.blackholed_bytes
                       : (warm.blackholed_bytes > 0 ? 1e9 : 0.0);
    json.Recordf(
        "{\"bench\":\"warm_restart_summary\",\"storm_seed\":%llu,"
        "\"cold_blackholed_bytes\":%.0f,\"warm_blackholed_bytes\":%.0f,"
        "\"warm_cold_blackhole_ratio\":%.4f,"
        "\"cold_epoch_bumps\":%llu,\"warm_epoch_bumps\":%llu,"
        "\"routing_matches_full_rebuild\":%d}",
        static_cast<unsigned long long>(seed), cold.blackholed_bytes,
        warm.blackholed_bytes, ratio,
        static_cast<unsigned long long>(cold.epoch_bumps),
        static_cast<unsigned long long>(warm.epoch_bumps),
        (cold_routing.matches_full_rebuild &&
         warm_routing.matches_full_rebuild)
            ? 1
            : 0);
  }
  return 0;
}
