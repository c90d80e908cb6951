// FlowSim churn microbenchmark — the cost model behind every fluid-plane
// experiment (E4c, E5, E8a/E8b, soak).
//
// Churns N concurrent flows under two path regimes and reports JSON:
//   * disjoint     — N/10 independent 2-link chains: congestion components
//                    stay ~10 flows, so scoped reallocation touches a tiny
//                    slice of the live set per event.
//   * overlapping  — 32 pod links feeding one core link: a single giant
//                    component, the worst case where scoped == global.
//   * batch        — quota-style burst: re-cap 10% of flows, comparing one
//                    reallocation per change vs one per BatchUpdate scope.
//
// Metrics per run: events/sec (starts+cancels+cap changes+completions over
// wall time), reallocation_count, mean flows-touched-per-realloc, and the
// reallocation wall-time histogram mean. Run with --smoke for the CI sizes
// (N=1e3 only).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/sim/flow_sim.h"
#include "src/sim/shard_executor.h"

namespace tenantnet {
namespace {

// Set in main(); all JSON lines flow through it into BENCH_flow_sim.json.
BenchJsonWriter* g_json = nullptr;

struct ChurnWorld {
  EventQueue queue;
  Topology topo;
  std::vector<std::vector<LinkId>> paths;  // candidate paths for new flows
};

// G disjoint a -1G-> b -0.5G-> c chains; flows in group g share only group
// g's links, so components never span groups.
void BuildDisjoint(ChurnWorld& w, size_t groups) {
  for (size_t g = 0; g < groups; ++g) {
    NodeId a = w.topo.AddNode({"a", NodeKind::kHostAggregate, "x"});
    NodeId b = w.topo.AddNode({"b", NodeKind::kBackboneRouter, "x"});
    NodeId c = w.topo.AddNode({"c", NodeKind::kHostAggregate, "x"});
    LinkId ab = w.topo.AddLink({a, b, 1e9, SimDuration::Millis(1),
                                SimDuration::Zero(), 0,
                                LinkClass::kDatacenter});
    LinkId bc = w.topo.AddLink({b, c, 0.5e9, SimDuration::Millis(1),
                                SimDuration::Zero(), 0,
                                LinkClass::kDatacenter});
    w.paths.push_back({ab, bc});
  }
}

// 32 pod uplinks into one shared core link: every flow shares the core, so
// all live flows form one congestion component.
void BuildOverlapping(ChurnWorld& w, size_t pods) {
  NodeId core_a = w.topo.AddNode({"ca", NodeKind::kBackboneRouter, "x"});
  NodeId core_b = w.topo.AddNode({"cb", NodeKind::kBackboneRouter, "x"});
  LinkId core = w.topo.AddLink({core_a, core_b, 40e9, SimDuration::Millis(1),
                                SimDuration::Zero(), 0, LinkClass::kBackbone});
  for (size_t p = 0; p < pods; ++p) {
    NodeId pod = w.topo.AddNode({"p", NodeKind::kHostAggregate, "x"});
    LinkId up = w.topo.AddLink({pod, core_a, 1e9, SimDuration::Millis(1),
                                SimDuration::Zero(), 0,
                                LinkClass::kDatacenter});
    w.paths.push_back({up, core});
  }
}

// Pathological depth for the bottleneck decomposition: 64 lanes with
// *staggered* capacities all feeding one saturated trunk. Low lanes freeze
// at ascending levels below the trunk's fair level, high-lane flows bind at
// the trunk, and the staggered per-flow caps (see RunChurn) interleave cap
// freezes between the link levels — so every fill walks a deep chain of
// distinct bottleneck levels and trunk-side churn must replay many
// lane-bound externals. This is the worst case for the incremental
// re-leveler; it is measured here rather than assumed.
void BuildBottleneckChain(ChurnWorld& w, size_t lanes) {
  NodeId trunk_a = w.topo.AddNode({"ta", NodeKind::kBackboneRouter, "x"});
  NodeId trunk_b = w.topo.AddNode({"tb", NodeKind::kBackboneRouter, "x"});
  LinkId trunk = w.topo.AddLink({trunk_a, trunk_b, 20e9,
                                 SimDuration::Millis(1), SimDuration::Zero(),
                                 0, LinkClass::kBackbone});
  for (size_t l = 0; l < lanes; ++l) {
    NodeId lane = w.topo.AddNode({"l", NodeKind::kHostAggregate, "x"});
    LinkId up = w.topo.AddLink({lane, trunk_a,
                                100e6 + 25e6 * static_cast<double>(l),
                                SimDuration::Millis(1), SimDuration::Zero(),
                                0, LinkClass::kDatacenter});
    w.paths.push_back({up, trunk});
  }
}

// TN_FLOWSIM_SCRATCH=1 runs the churn scenarios with the incremental
// relevel disabled — every reallocation goes through the from-scratch
// component fill. Same harness, same event stream: the honest before/after
// comparison for the bottleneck-structured allocator (ancestor binaries ran
// too few churn events for their wall-clock numbers to mean anything).
bool ScratchMode() {
  const char* v = std::getenv("TN_FLOWSIM_SCRATCH");
  return v != nullptr && v[0] == '1';
}

void EmitJson(const char* scenario, size_t flows, uint64_t events,
              double wall_seconds, const FlowSim& sim) {
  g_json->Recordf(
      "{\"bench\":\"flow_sim_churn\",\"scenario\":\"%s\",\"mode\":\"%s\","
      "\"flows\":%zu,"
      "\"events\":%llu,\"events_per_sec\":%.0f,"
      "\"reallocation_count\":%llu,"
      "\"mean_flows_touched_per_realloc\":%.1f,"
      "\"fill_restarts\":%llu,\"full_fills\":%llu,"
      "\"flows_rescheduled\":%llu,"
      "\"realloc_mean_us\":%.2f,\"wall_ms\":%.1f}",
      scenario, ScratchMode() ? "scratch" : "incremental", flows,
      static_cast<unsigned long long>(events),
      static_cast<double>(events) / wall_seconds,
      static_cast<unsigned long long>(sim.reallocation_count()),
      sim.mean_flows_touched_per_realloc(),
      static_cast<unsigned long long>(sim.fill_restarts()),
      static_cast<unsigned long long>(sim.full_fills()),
      static_cast<unsigned long long>(sim.flows_rescheduled()),
      sim.realloc_micros_histogram().mean(), wall_seconds * 1e3);
}

void RunChurn(const char* scenario, size_t n, size_t churn_events) {
  // Local-measurement escape hatches: TN_CHURN_EVENTS stretches the run on
  // noisy boxes (longer runs drown scheduler jitter), TN_SCENARIO=name
  // skips everything else (e.g. for a profiler pass over one scenario).
  if (const char* only = std::getenv("TN_SCENARIO");
      only != nullptr && std::strcmp(only, scenario) != 0) {
    return;
  }
  if (const char* ce = std::getenv("TN_CHURN_EVENTS"); ce != nullptr) {
    churn_events = static_cast<size_t>(std::strtoull(ce, nullptr, 10));
  }
  ChurnWorld w;
  bool chain = std::strcmp(scenario, "bottleneck_chain") == 0;
  if (std::strcmp(scenario, "disjoint") == 0) {
    BuildDisjoint(w, std::max<size_t>(1, n / 10));
  } else if (chain) {
    BuildBottleneckChain(w, 64);
  } else {
    BuildOverlapping(w, 32);
  }
  FlowSim sim(w.queue, w.topo);
  sim.SetIncrementalRelevel(!ScratchMode());
  Rng rng(42);
  std::vector<FlowId> live;
  live.reserve(n);
  uint64_t completions = 0;
  // Weights cycle 1..3 and 20% of flows carry a cap from a small value set
  // (few distinct freeze levels keeps water-filling rounds realistic for
  // quota-shaped workloads); the chain scenario instead staggers every
  // flow's cap across 64 distinct values so cap freezes interleave with
  // the staggered lane levels. A quarter are finite transfers so
  // completion (re)scheduling — the flows_rescheduled counter — is
  // exercised too.
  auto start_one = [&](size_t i) {
    const std::vector<LinkId>& path = w.paths[i % w.paths.size()];
    double weight = 1.0 + static_cast<double>(i % 3);
    double cap = chain ? 4e6 * static_cast<double>(i % 64 + 1)
                 : (i % 5 == 0) ? 50e6
                                : std::numeric_limits<double>::infinity();
    if (i % 4 == 3) {
      live.push_back(sim.StartFlow(
          path, 50e3, [&completions](FlowId, SimTime) { ++completions; },
          weight, cap));
    } else {
      live.push_back(sim.StartPersistentFlow(path, weight, cap));
    }
  };
  {
    // Populate inside one batch: setup is one reallocation, not N. In the
    // overlapping world sequential starts would each re-fill the whole
    // giant component (O(N^2) setup) and swamp the churn measurement.
    FlowSim::BatchScope batch = sim.Batch();
    for (size_t i = 0; i < n; ++i) {
      start_one(i);
    }
  }

  auto t0 = std::chrono::steady_clock::now();
  uint64_t events = 0;
  for (size_t e = 0; e < churn_events; ++e) {
    switch (rng.NextU64(3)) {
      case 0: {
        size_t victim = rng.NextU64(live.size());
        (void)sim.CancelFlow(live[victim]);
        live[victim] = live.back();
        live.pop_back();
        start_one(rng.NextU64(1 << 20));
        events += 2;
        break;
      }
      case 1:
        (void)sim.SetRateCap(
            live[rng.NextU64(live.size())],
            chain ? 4e6 * static_cast<double>(rng.NextU64(64) + 1)
            : rng.NextBool(0.5) ? 50e6
                                : std::numeric_limits<double>::infinity());
        ++events;
        break;
      default: {
        size_t victim = rng.NextU64(live.size());
        (void)sim.CancelFlow(live[victim]);
        live[victim] = live.back();
        live.pop_back();
        start_one(rng.NextU64(1 << 20));
        events += 2;
        break;
      }
    }
    if (e % 64 == 0) {
      w.queue.RunUntil(w.queue.now() + SimDuration::Micros(100));
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  // Completed finite flows leave dangling ids in `live`; the cancel / cap
  // churn on them is a harmless NotFound no-op, matching real callers that
  // race completion.
  EmitJson(scenario, n, events + completions,
           std::chrono::duration<double>(t1 - t0).count(), sim);
}

// Quota-epoch shape: re-cap 10% of the live set. Without batching that is
// one reallocation per SetRateCap; a BatchUpdate scope coalesces the burst
// into exactly one pass.
void RunBatch(size_t n) {
  ChurnWorld w;
  BuildDisjoint(w, std::max<size_t>(1, n / 10));
  FlowSim sim(w.queue, w.topo);
  std::vector<FlowId> live;
  for (size_t i = 0; i < n; ++i) {
    live.push_back(sim.StartPersistentFlow(w.paths[i % w.paths.size()]));
  }
  size_t burst = std::max<size_t>(1, n / 10);
  uint64_t before = sim.reallocation_count();
  auto t0 = std::chrono::steady_clock::now();
  {
    FlowSim::BatchScope batch = sim.Batch();
    for (size_t i = 0; i < burst; ++i) {
      (void)sim.SetRateCap(live[i * 7 % live.size()], 25e6);
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  double wall = std::chrono::duration<double>(t1 - t0).count();
  g_json->Recordf(
      "{\"bench\":\"flow_sim_batch\",\"scenario\":\"batch\",\"flows\":%zu,"
      "\"cap_changes\":%zu,\"reallocations_for_burst\":%llu,"
      "\"mean_flows_touched_per_realloc\":%.1f,\"wall_ms\":%.2f}",
      n, burst,
      static_cast<unsigned long long>(sim.reallocation_count() - before),
      sim.mean_flows_touched_per_realloc(), wall * 1e3);
}

// --- Shard executor thread sweep ---------------------------------------------
//
// The disjoint world again, but driven through ShardExecutor: islands map to
// independent shards, completion-driven churn (every finite transfer restarts
// itself) keeps all of them busy, and the identical run is repeated across a
// thread-count sweep. Each record carries the measured speedup over the
// 1-thread run plus `matches_1thread` (completions and delivered bytes are
// byte-identical by the executor's determinism contract — checked here too,
// not just in the unit tests). bench/baselines/smoke_gates.json gates the
// 4-thread speedup, skipping it when the runner has fewer hardware threads
// than the record.

struct ShardRunResult {
  double wall_s = 0;
  uint64_t completions = 0;
  double bytes = 0;
  uint64_t epochs = 0;
  size_t shards = 0;
};

ShardRunResult RunShardOnce(int threads, size_t islands,
                            size_t flows_per_island, double sim_seconds) {
  ChurnWorld w;
  BuildDisjoint(w, islands);
  ShardExecutor::Options opts;
  opts.num_threads = threads;
  ShardExecutor exec(w.queue, w.topo, opts);

  ShardRunResult r;
  r.shards = exec.shard_count();
  // Every completion immediately restarts the same transfer, so each island
  // sustains `flows_per_island` concurrent flows and one reallocation per
  // completion for the whole run — shard-local compute with zero cross-shard
  // coupling, the best case the speedup gate is calibrated against.
  std::function<void(size_t)> start_one = [&](size_t path_idx) {
    exec.StartFlow(w.paths[path_idx], /*bytes=*/100e3,
                   [&r, &start_one, path_idx](FlowId, SimTime) {
                     ++r.completions;
                     start_one(path_idx);
                   },
                   /*weight=*/1.0 + static_cast<double>(path_idx % 3));
  };
  {
    FlowControlSurface::BatchScope batch = exec.Batch();
    for (size_t g = 0; g < islands; ++g) {
      for (size_t f = 0; f < flows_per_island; ++f) {
        start_one(g);
      }
    }
  }
  auto t0 = std::chrono::steady_clock::now();
  exec.RunUntil(SimTime::FromSeconds(sim_seconds));
  auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.bytes = exec.total_bytes_delivered();
  r.epochs = exec.epochs_run();
  return r;
}

void RunShardSweep(size_t islands, size_t flows_per_island,
                   double sim_seconds) {
  const unsigned hw = std::thread::hardware_concurrency();
  ShardRunResult base;
  for (int threads : {1, 2, 4, 8}) {
    ShardRunResult r =
        RunShardOnce(threads, islands, flows_per_island, sim_seconds);
    if (threads == 1) {
      base = r;
    }
    bool matches = r.completions == base.completions && r.bytes == base.bytes;
    double speedup = r.wall_s > 0 ? base.wall_s / r.wall_s : 0.0;
    g_json->Recordf(
        "{\"bench\":\"flow_sim_shard\",\"scenario\":\"disjoint\","
        "\"flows\":%zu,\"threads\":%d,\"shards\":%zu,\"hw_threads\":%u,"
        "\"epochs\":%llu,\"completions\":%llu,"
        "\"completions_per_sec\":%.0f,\"wall_ms\":%.1f,"
        "\"speedup_vs_1thread\":%.2f,\"matches_1thread\":%s}",
        islands * flows_per_island, threads, r.shards, hw,
        static_cast<unsigned long long>(r.epochs),
        static_cast<unsigned long long>(r.completions),
        static_cast<double>(r.completions) / r.wall_s, r.wall_s * 1e3, speedup,
        matches ? "true" : "false");
  }
}

// --- Cross-shard (Fig. 1 giant component) thread sweep -----------------------
//
// One WAN-stitched component, the shape the link-cut partitioner exists
// for: R regions of H hosts behind a hub, hubs chained into a WAN ring.
// Intra-region flows (host -> hub -> host) keep each region one congestion
// component — heavy per-shard water-fill work — and every 10th flow crosses
// to the next region over the WAN trunk, so the trunks and the target
// region's host links become epoch-synchronized shared links with capacity
// leases. Records carry the partition quality (border links, cut fraction)
// and live crossing-flow count next to the speedup/determinism columns;
// bench/baselines/smoke_gates.json gates the 4-thread speedup.

struct CrossWorld {
  EventQueue queue;
  Topology topo;
  std::vector<std::vector<LinkId>> up, down;  // per region, per host
  std::vector<LinkId> wan;                    // forward trunk r -> r+1
};

void BuildWanStitched(CrossWorld& w, size_t regions, size_t hosts) {
  std::vector<NodeId> hubs;
  for (size_t r = 0; r < regions; ++r) {
    NodeId hub = w.topo.AddNode({"hub", NodeKind::kBackboneRouter, "x"});
    hubs.push_back(hub);
    w.up.emplace_back();
    w.down.emplace_back();
    for (size_t h = 0; h < hosts; ++h) {
      NodeId host = w.topo.AddNode({"h", NodeKind::kHostAggregate, "x"});
      LinkInfo link;
      link.src = hub;
      link.dst = host;
      link.capacity_bps = 1e9;
      link.delay = SimDuration::Micros(50);
      auto pair = w.topo.AddDuplexLink(link);
      w.down[r].push_back(pair.first);
      w.up[r].push_back(pair.second);
    }
  }
  for (size_t r = 0; r < regions; ++r) {
    LinkInfo link;
    link.src = hubs[r];
    link.dst = hubs[(r + 1) % regions];
    link.capacity_bps = 10e9;
    link.delay = SimDuration::Millis(10);
    w.wan.push_back(w.topo.AddDuplexLink(link).first);
  }
}

struct CrossRunResult {
  double wall_s = 0;
  uint64_t completions = 0;
  double bytes = 0;
  uint64_t epochs = 0;
  uint64_t lease_reconciliations = 0;
  size_t shards = 0;
  size_t crossing = 0;
  uint32_t border_links = 0;
  double cut_fraction = 0;
};

CrossRunResult RunCrossOnce(int threads, size_t regions, size_t hosts,
                            size_t flows_per_region, double sim_seconds) {
  CrossWorld w;
  BuildWanStitched(w, regions, hosts);
  ShardExecutor::Options opts;
  opts.num_threads = threads;
  // One shard per region — fixed across the thread sweep, so the partition
  // (and the result) is identical for every row.
  opts.num_shards = static_cast<int>(regions);
  ShardExecutor exec(w.queue, w.topo, opts);

  CrossRunResult r;
  r.shards = exec.shard_count();
  r.border_links = exec.partition().border_link_count;
  r.cut_fraction = exec.partition().CutFraction();
  // Completion-restart churn: every finite transfer immediately restarts
  // itself, so each region sustains `flows_per_region` concurrent flows and
  // one component-scoped reallocation per completion. Crossing flows
  // additionally dirty their shared links on every restart, so the lease
  // reconciliation path runs at full churn rate.
  std::function<void(size_t, size_t)> start_one = [&](size_t region,
                                                      size_t idx) {
    std::vector<LinkId> path;
    if (idx % 10 == 0) {
      path = {w.up[region][idx % hosts], w.wan[region],
              w.down[(region + 1) % regions][(idx * 7 + 3) % hosts]};
    } else {
      path = {w.up[region][idx % hosts],
              w.down[region][(idx * 7 + 3) % hosts]};
    }
    exec.StartFlow(std::move(path), /*bytes=*/100e3,
                   [&r, &start_one, region, idx](FlowId, SimTime) {
                     ++r.completions;
                     start_one(region, idx);
                   },
                   /*weight=*/1.0 + static_cast<double>(idx % 3));
  };
  {
    FlowControlSurface::BatchScope batch = exec.Batch();
    for (size_t region = 0; region < regions; ++region) {
      for (size_t f = 0; f < flows_per_region; ++f) {
        start_one(region, f);
      }
    }
  }
  r.crossing = exec.crossing_flow_count();
  auto t0 = std::chrono::steady_clock::now();
  exec.RunUntil(SimTime::FromSeconds(sim_seconds));
  auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.bytes = exec.total_bytes_delivered();
  r.epochs = exec.epochs_run();
  r.lease_reconciliations = exec.lease_reconciliations();
  return r;
}

void RunCrossSweep(size_t regions, size_t hosts, size_t flows_per_region,
                   double sim_seconds) {
  const unsigned hw = std::thread::hardware_concurrency();
  CrossRunResult base;
  for (int threads : {1, 2, 4, 8}) {
    CrossRunResult r =
        RunCrossOnce(threads, regions, hosts, flows_per_region, sim_seconds);
    if (threads == 1) {
      base = r;
    }
    bool matches = r.completions == base.completions && r.bytes == base.bytes;
    double speedup = r.wall_s > 0 ? base.wall_s / r.wall_s : 0.0;
    g_json->Recordf(
        "{\"bench\":\"flow_sim_shard\",\"scenario\":\"crossshard\","
        "\"flows\":%zu,\"threads\":%d,\"shards\":%zu,\"hw_threads\":%u,"
        "\"border_links\":%u,\"cut_fraction\":%.4f,"
        "\"crossing_flows\":%zu,\"lease_reconciliations\":%llu,"
        "\"epochs\":%llu,\"completions\":%llu,"
        "\"completions_per_sec\":%.0f,\"wall_ms\":%.1f,"
        "\"speedup_vs_1thread\":%.2f,\"matches_1thread\":%s}",
        regions * flows_per_region, threads, r.shards, hw, r.border_links,
        r.cut_fraction, r.crossing,
        static_cast<unsigned long long>(r.lease_reconciliations),
        static_cast<unsigned long long>(r.epochs),
        static_cast<unsigned long long>(r.completions),
        static_cast<double>(r.completions) / r.wall_s, r.wall_s * 1e3, speedup,
        matches ? "true" : "false");
  }
}

}  // namespace
}  // namespace tenantnet

int main(int argc, char** argv) {
  const tenantnet::BenchArgs args = tenantnet::ParseBenchArgs(argc, argv);
  const bool smoke = args.smoke;
  tenantnet::BenchJsonWriter json("flow_sim", args);
  tenantnet::g_json = &json;
  std::vector<size_t> sizes = smoke ? std::vector<size_t>{1000}
                                    : std::vector<size_t>{1000, 10000, 100000};
  for (size_t n : sizes) {
    // Churn long enough that steady-state throughput dominates the few-ms
    // run (the CI gate compares events/sec; sub-10ms runs are scheduler
    // noise). Incremental re-leveling makes even the shared-link scenarios
    // O(affected-groups) per event, so 20k events stays interactive.
    size_t churn = smoke ? 20000 : std::min<size_t>(n, 20000);
    tenantnet::RunChurn("disjoint", n, churn);
    tenantnet::RunChurn("overlapping", n, churn);
    tenantnet::RunChurn("bottleneck_chain", n, smoke ? 10000 : churn);
    tenantnet::RunBatch(n);
  }
  if (std::getenv("TN_SCENARIO") != nullptr) {
    return 0;  // churn-scenario filter active: skip the thread sweeps
  }
  // Thread sweep through ShardExecutor over the disjoint world. The smoke
  // size (32 islands x 32 flows) is what the CI speedup gate is baselined on.
  if (smoke) {
    tenantnet::RunShardSweep(/*islands=*/32, /*flows_per_island=*/32,
                             /*sim_seconds=*/3.0);
  } else {
    tenantnet::RunShardSweep(/*islands=*/64, /*flows_per_island=*/64,
                             /*sim_seconds=*/5.0);
  }
  // Cross-shard sweep over one WAN-stitched giant component (Fig. 1 shape):
  // the link-cut partitioner's target case. The smoke size (8 regions x 40
  // flows, 10% crossing) is what the crossshard CI gate is baselined on.
  if (smoke) {
    tenantnet::RunCrossSweep(/*regions=*/8, /*hosts=*/8,
                             /*flows_per_region=*/40, /*sim_seconds=*/2.0);
  } else {
    tenantnet::RunCrossSweep(/*regions=*/16, /*hosts=*/16,
                             /*flows_per_region=*/64, /*sim_seconds=*/4.0);
  }
  return 0;
}
