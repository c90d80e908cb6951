// E5 — §6(ii): does hot/cold-potato routing plus egress guarantees
// approximate dedicated links?
//
// The Fig. 1 world carries two cross-cloud application flows:
//   near  — spark (cloud A us-east)  -> database  (cloud B us-east)
//   far   — spark (cloud A us-east)  -> analytics (cloud B europe)
// with heavy background cross-traffic loading the public internet links.
//
// Four transport configurations are compared:
//   dedicated      — Direct Connect circuits via the exchange (the baseline
//                    §2(4) answer; also a circuit from A's EU region for
//                    the far flow)
//   hot-potato     — exit to the internet at the first edge
//   cold-potato    — ride the provider backbone to the edge nearest the
//                    destination, then exit
//   cold+guarantee — cold potato plus a provider egress-bandwidth
//                    reservation (modeled as elevated max-min weight at the
//                    shared links, per §4's set_qos approximation)
//
// Shape expected (the paper's conjecture): dedicated best and tightest;
// hot-potato worst under congestion; cold-potato recovers most of the
// latency; the guarantee closes most of the remaining goodput gap.
//
// BENCH_qos_potato.json holds one record per (pair, config) and one
// qos_potato_summary record per pair whose ratio fields carry the orderings
// above, so the gates in bench/baselines/smoke_gates.json can bound them.

#include <cstdio>
#include <iterator>
#include <vector>

#include "bench/bench_util.h"
#include "src/app/workload.h"
#include "src/sim/flow_sim.h"
#include "src/cloud/presets.h"

namespace tenantnet {
namespace {

struct Config {
  const char* name;
  EgressPolicy policy;
  double weight;
};

struct RunResult {
  double p50_ms;
  double p95_ms;
  double p99_ms;
  double jitter_ms;  // stddev
  double goodput_mbps;
};

RunResult RunConfig(const Fig1World& fig, const Config& config,
                    bool far_pair) {
  CloudWorld& world = *fig.world;
  EventQueue queue;
  FlowSim flows(queue, world.topology());
  // Two workloads over the same fluid network: small fixed-size probes
  // measure latency/jitter; large transfers measure goodput. (Mixing them
  // in one pattern would let response-size variance swamp path jitter.)
  WorkloadParams probe_params;
  probe_params.mean_response_bytes = 2 * 1024;
  probe_params.response_pareto_alpha = 50;  // effectively fixed size
  probe_params.seed = 11;
  RequestWorkload probes(queue, flows, world, probe_params);
  WorkloadParams bulk_params;
  bulk_params.mean_response_bytes = 25e6;  // bandwidth-dominated transfers
  bulk_params.seed = 13;
  RequestWorkload workload(queue, flows, world, bulk_params);

  // Background congestion: persistent internet flows between the web tiers
  // and the remote regions, always hot-potato (other tenants' traffic).
  auto add_background = [&](InstanceId src, InstanceId dst) {
    // Both directions: responses ride the reverse links.
    auto path = world.ResolveInstancePath(src, dst, EgressPolicy::kHotPotato);
    if (path.ok()) {
      flows.StartPersistentFlow(*path, /*weight=*/6.0);
    }
    auto back = world.ResolveInstancePath(dst, src, EgressPolicy::kHotPotato);
    if (back.ok()) {
      flows.StartPersistentFlow(*back, /*weight=*/6.0);
    }
  };
  for (size_t i = 0; i < fig.web_us.size(); ++i) {
    add_background(fig.web_us[i], fig.analytics[i % fig.analytics.size()]);
    add_background(fig.web_us[i], fig.database[i % fig.database.size()]);
  }
  for (size_t i = 0; i < fig.web_eu.size(); ++i) {
    add_background(fig.web_eu[i], fig.database[i % fig.database.size()]);
    add_background(fig.web_eu[i], fig.analytics[i % fig.analytics.size()]);
  }

  ConnectorFn connector = [&world, &config](InstanceId src, InstanceId dst) {
    ResolvedRoute route;
    route.allowed = true;
    route.src_node = world.FindInstance(src)->host_node;
    route.dst_node = world.FindInstance(dst)->host_node;
    route.policy = config.policy;
    route.weight = config.weight;
    return route;
  };

  const std::vector<InstanceId>& dsts =
      far_pair ? fig.analytics : fig.database;
  size_t probe_pattern = *probes.AddStreamingPattern(
      std::string(config.name) + ":rt", fig.spark, dsts,
      RateCurve::Constant(40.0), connector);
  size_t bulk_pattern = *workload.AddStreamingPattern(
      std::string(config.name) + ":bulk", fig.spark, dsts,
      RateCurve::Constant(3.0), connector);
  probes.Start(SimDuration::Seconds(20));
  workload.Start(SimDuration::Seconds(20));
  queue.RunAll();

  const PatternStats& probe_stats = probes.stats(probe_pattern);
  const PatternStats& bulk_stats = workload.stats(bulk_pattern);
  RunResult result;
  result.p50_ms = probe_stats.latency_ms.P50();
  result.p95_ms = probe_stats.latency_ms.P95();
  result.p99_ms = probe_stats.latency_ms.P99();
  result.jitter_ms = probe_stats.latency_ms.StdDev();
  // Goodput per transfer: bytes over time-in-flight, averaged.
  double mean_latency_s = bulk_stats.latency_ms.mean() / 1000.0;
  double mean_bytes =
      bulk_stats.completed > 0
          ? bulk_stats.bytes_transferred /
                static_cast<double>(bulk_stats.completed)
          : 0;
  result.goodput_mbps =
      mean_latency_s > 0 ? mean_bytes * 8.0 / mean_latency_s / 1e6 : 0;
  return result;
}

void RunPair(BenchJsonWriter& json, const char* pair, const char* title,
             bool far_pair) {
  // Fresh world per pair so circuits/flows don't leak across runs.
  Fig1World fig = BuildFig1World();
  // Dedicated circuits: both clouds to the exchange; for the far pair, also
  // from cloud A's EU region and cloud B's EU region (the paper's multi-
  // exchange reality).
  (void)fig.world->AddDedicatedCircuit(fig.a_us_east, fig.exchange, 10e9);
  (void)fig.world->AddDedicatedCircuit(fig.b_us_east, fig.exchange, 10e9);
  ExchangeId eu_exchange =
      fig.world->AddExchange("equinix:eu", {41, -3});
  (void)fig.world->AddDedicatedCircuit(fig.a_eu_west, eu_exchange, 10e9);
  (void)fig.world->AddDedicatedCircuit(fig.b_europe, eu_exchange, 10e9);

  std::printf("\n%s\n", title);
  TablePrinter table({16, 10, 10, 10, 11, 14});
  table.Row({"config", "p50 ms", "p95 ms", "p99 ms", "jitter ms",
             "goodput Mbps"});
  table.Rule();
  // The summary below reads the results in this order.
  const Config configs[] = {
      {"dedicated", EgressPolicy::kDedicated, 1.0},
      {"hot-potato", EgressPolicy::kHotPotato, 1.0},
      {"cold-potato", EgressPolicy::kColdPotato, 1.0},
      {"cold+guarantee", EgressPolicy::kColdPotato, 8.0},
  };
  RunResult results[std::size(configs)];
  for (size_t i = 0; i < std::size(configs); ++i) {
    const RunResult& r = results[i] = RunConfig(fig, configs[i], far_pair);
    table.Row({configs[i].name, FmtF(r.p50_ms, 1), FmtF(r.p95_ms, 1),
               FmtF(r.p99_ms, 1), FmtF(r.jitter_ms, 1),
               FmtF(r.goodput_mbps, 1)});
  }
  for (size_t i = 0; i < std::size(configs); ++i) {
    const RunResult& r = results[i];
    json.Recordf(
        "{\"bench\":\"qos_potato\",\"pair\":\"%s\",\"config\":\"%s\","
        "\"p50_ms\":%.2f,\"p95_ms\":%.2f,\"p99_ms\":%.2f,"
        "\"jitter_ms\":%.2f,\"goodput_mbps\":%.1f}",
        pair, configs[i].name, r.p50_ms, r.p95_ms, r.p99_ms, r.jitter_ms,
        r.goodput_mbps);
  }
  const RunResult& dedicated = results[0];
  const RunResult& hot = results[1];
  const RunResult& cold = results[2];
  const RunResult& guarantee = results[3];
  json.Recordf(
      "{\"bench\":\"qos_potato_summary\",\"pair\":\"%s\","
      "\"p50_cold_over_dedicated\":%.4f,\"p50_hot_over_cold\":%.4f,"
      "\"goodput_guarantee_over_cold\":%.4f,"
      "\"goodput_cold_over_hot\":%.4f,"
      "\"goodput_dedicated_over_guarantee\":%.4f}",
      pair, cold.p50_ms / dedicated.p50_ms, hot.p50_ms / cold.p50_ms,
      guarantee.goodput_mbps / cold.goodput_mbps,
      cold.goodput_mbps / hot.goodput_mbps,
      dedicated.goodput_mbps / guarantee.goodput_mbps);
}

}  // namespace
}  // namespace tenantnet

int main(int argc, char** argv) {
  tenantnet::BenchJsonWriter json("qos_potato",
                                  tenantnet::ParseBenchArgs(argc, argv));
  tenantnet::Banner("E5",
                    "QoS: potato routing + guarantees vs dedicated (§6 ii)");
  tenantnet::RunPair(json, "near",
                     "Near pair: spark (A us-east) -> db (B us-east)",
                     /*far_pair=*/false);
  tenantnet::RunPair(json, "far",
                     "Far pair: spark (A us-east) -> analytics (B europe)",
                     /*far_pair=*/true);
  std::printf(
      "\nReading: dedicated circuits give the lowest, tightest latency.\n"
      "Hot-potato suffers most under congested transit; cold-potato\n"
      "recovers latency by staying on the backbone; adding the egress\n"
      "guarantee recovers most of the goodput gap — supporting (with the\n"
      "caveats of §6) the paper's approximation conjecture.\n");
  return 0;
}
