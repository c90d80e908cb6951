// E10 — §6(i) at production scale: the million-endpoint memory diet.
//
// Sweeps endpoint population 100k -> 1M and measures, per population:
//
//   * bytes/endpoint of the provider's hot state: the flat EIP RIB (one
//     host route per endpoint in the arena Patricia trie) plus the edge
//     permit bank (interned lists, SoA endpoint columns, shared compiled
//     matchers). The diet target from ISSUE 8: <= 150 bytes/endpoint
//     combined at 1M.
//   * the same state's modeled pre-diet footprint — node-per-bit heap trie
//     for the RIB (~72 bytes per bit-node) and per-endpoint list copies in
//     nested hash maps for the bank — and the reduction factor (>= 4x).
//   * warm verdicts/s through the cached data plane at full population
//     (the E4b fast path must survive the diet; gated against baseline).
//   * churn convergence: permit-list reinstalls/s against the fully
//     populated bank (intern hit + version bump + epoch bump per op).
//   * streaming open-loop generator flatness: pending event-queue entries
//     for a rate curve proportional to population vs the transactions a
//     materializing Start() would have pre-scheduled.
//   * peak RSS after each population (cumulative high-water, reported for
//     the record; the per-population gauge is ApproxBytes).
//
// JSON rows (kind "million_diet") land in BENCH_million.json for the CI
// gate in bench/baselines/smoke_gates.json. Args: `--smoke` shrinks the
// sweep to {100k, 1M}; `--json_out=<path>` moves the artifact.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/app/workload.h"
#include "src/cloud/presets.h"
#include "src/common/rng.h"
#include "src/core/edge_filter.h"
#include "src/routing/route_table.h"
#include "src/sim/flow_sim.h"
#include "src/telemetry/metrics.h"

namespace tenantnet {
namespace {

constexpr uint64_t kEntriesPerEp = 16;
constexpr uint64_t kEndpointsPerDistinctList = 256;
constexpr size_t kEdges = 2;

IpAddress EpAddr(uint64_t ep) {
  // Spread endpoints over several /8s so the trie sees realistic branching,
  // not one arithmetic ramp.
  return IpAddress::V4(static_cast<uint32_t>(0x05000000u + ep * 2654435761u %
                                             0x30000000u));
}

// The distinct permit list shared by one cohort of endpoints: 14 host
// prefixes, one scoped CIDR, one protocol-scoped wide prefix (the E4b list
// shape, minus the group so cohorts stay byte-identical and intern).
std::vector<PermitEntry> CohortList(uint64_t cohort) {
  std::vector<PermitEntry> permits;
  permits.reserve(kEntriesPerEp);
  for (uint64_t k = 0; k + 2 < kEntriesPerEp; ++k) {
    PermitEntry e;
    e.source = IpPrefix::Host(IpAddress::V4(
        static_cast<uint32_t>(0x0A000000u + (cohort * 13 + k) % 0x00FFFFFFu)));
    permits.push_back(e);
  }
  PermitEntry cidr;
  cidr.source = *IpPrefix::Parse("10.200.0.0/16");
  cidr.dst_ports = PortRange::Single(8080);
  permits.push_back(cidr);
  PermitEntry udp;
  udp.source = *IpPrefix::Parse("11.0.0.0/8");
  udp.proto = Protocol::kUdp;
  permits.push_back(udp);
  return permits;
}

// Modeled pre-diet RIB bytes: the old trie allocated one heap node per bit
// of every inserted prefix (std::optional<T> + two unique_ptrs, ~72 bytes
// with allocator overhead). Node count for a prefix set = sum over sorted
// prefixes of the bits not shared with the previous prefix, plus the root.
uint64_t ModeledPreDietTrieNodes(std::vector<IpPrefix> prefixes) {
  std::sort(prefixes.begin(), prefixes.end());
  uint64_t nodes = 1;
  const IpPrefix* prev = nullptr;
  for (const IpPrefix& p : prefixes) {
    int shared = 0;
    if (prev != nullptr) {
      const uint32_t a = prev->base().v4_bits();
      const uint32_t b = p.base().v4_bits();
      const uint32_t x = a ^ b;
      shared = x == 0 ? 32 : __builtin_clz(x);
      shared = std::min({shared, prev->length(), p.length()});
    }
    nodes += static_cast<uint64_t>(p.length() - shared);
    prev = &p;
  }
  return nodes;
}

constexpr uint64_t kPreDietNodeBytes = 72;

// Modeled pre-diet bank bytes: every endpoint held its own
// std::vector<PermitEntry> copy inside two levels of unordered_map (one
// per-edge replica plus the master copy), with no interning and no shared
// compiled matcher.
uint64_t ModeledPreDietBankBytes(uint64_t endpoints) {
  constexpr uint64_t kMapNodeBytes = 56;   // unordered_map node + bucket share
  constexpr uint64_t kVectorBytes = 24;    // SSO-free vector header
  const uint64_t per_list =
      kMapNodeBytes + kVectorBytes + kEntriesPerEp * sizeof(PermitEntry);
  return endpoints * per_list * (kEdges + 1);
}

template <typename Fn>
std::pair<double, uint64_t> MeasureVerdicts(
    const std::vector<FiveTuple>& queries, int passes, Fn&& verdict) {
  uint64_t admitted = 0;
  auto start = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; ++p) {
    for (const FiveTuple& q : queries) {
      admitted += verdict(q) ? 1 : 0;
    }
  }
  double seconds =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count()) /
      1e9;
  return {static_cast<double>(queries.size()) * passes / seconds,
          admitted / static_cast<uint64_t>(passes)};
}

// Pending event-queue entries after Start() of a streaming pattern whose
// rate scales with population, vs the arrivals a materializing Start()
// would have pre-scheduled. Flat == O(patterns), not O(transactions).
struct StreamingProbe {
  uint64_t pending_events = 0;
  uint64_t equivalent_transactions = 0;
};

StreamingProbe ProbeStreamingFlatness(uint64_t endpoints) {
  TestWorld tw = BuildTestWorld();
  InstanceId a = *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
  InstanceId b = *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.west, 0);
  EventQueue queue;
  FlowSim flows(queue, tw.world->topology());
  RequestWorkload workload(queue, flows, *tw.world);
  const double rps = static_cast<double>(endpoints) / 100.0;
  const SimDuration horizon = SimDuration::Seconds(600);
  CloudWorld* world = tw.world.get();
  workload.AddStreamingPattern(
      "diet", {a}, {b}, RateCurve::Diurnal(rps, 0.5, SimDuration::Seconds(300)),
      [world](InstanceId src, InstanceId dst) {
        ResolvedRoute route;
        route.allowed = true;
        route.src_node = world->FindInstance(src)->host_node;
        route.dst_node = world->FindInstance(dst)->host_node;
        return route;
      });
  workload.Start(horizon);
  StreamingProbe probe;
  probe.pending_events = queue.pending_count();
  probe.equivalent_transactions =
      static_cast<uint64_t>(rps * horizon.ToSeconds());
  return probe;
}

void RunSweep(BenchJsonWriter& json, bool smoke) {
  TablePrinter table({10, 9, 12, 11, 12, 9, 12, 12, 10});
  table.Row({"endpoints", "lists", "rib B/ep", "bank B/ep", "prediet B/ep",
             "redux", "warm v/s", "churn i/s", "peakRSS MB"});
  table.Rule();

  std::vector<uint64_t> sizes =
      smoke ? std::vector<uint64_t>{100000, 1000000}
            : std::vector<uint64_t>{100000, 250000, 500000, 1000000};
  const size_t kQueries = 16384;
  // Warm throughput is measured best-of-3 with enough passes for a ~50ms
  // window; single-digit-ms windows are noise on shared runners.
  const int kWarmPasses = 16;
  const uint64_t kChurnOps = smoke ? 20000 : 50000;

  for (uint64_t endpoints : sizes) {
    // --- Build the flat EIP RIB: one host route per endpoint. ------------
    RouteTable rib;
    const uint32_t via_eip = RouteLabels().Intern("eip");
    std::vector<IpPrefix> prefixes;
    prefixes.reserve(endpoints);
    for (uint64_t ep = 0; ep < endpoints; ++ep) {
      IpPrefix host = IpPrefix::Host(EpAddr(ep));
      prefixes.push_back(host);
      rib.Install(host, RouteEntry{NodeId(1), RouteOrigin::kStatic, 0,
                                   via_eip});
    }
    rib.ShrinkToFit();

    // --- Build the permit bank: interned cohort lists. --------------------
    EdgeFilterParams params;
    params.verdict_cache_slots = 1 << 19;
    EdgeFilterBank bank("p", nullptr, 1, params);
    for (size_t e = 0; e < kEdges; ++e) {
      bank.AddEdge("edge" + std::to_string(e));
    }
    bank.ReserveEndpoints(endpoints);
    for (uint64_t ep = 0; ep < endpoints; ++ep) {
      bank.SetPermitList(EpAddr(ep), CohortList(ep / kEndpointsPerDistinctList));
    }
    bank.ShrinkToFit();

    const uint64_t rib_bytes = rib.ApproxBytes();
    const uint64_t bank_bytes = bank.ApproxBytes();
    const double bytes_per_ep =
        static_cast<double>(rib_bytes + bank_bytes) /
        static_cast<double>(endpoints);
    const double prediet_per_ep =
        static_cast<double>(ModeledPreDietTrieNodes(prefixes) *
                                kPreDietNodeBytes +
                            ModeledPreDietBankBytes(endpoints)) /
        static_cast<double>(endpoints);
    const double reduction = prediet_per_ep / bytes_per_ep;

    // Memory telemetry the control plane would export.
    MetricRegistry metrics;
    bank.PublishMemoryGauges(metrics);

    // --- Warm verdict throughput at full population. ----------------------
    Rng rng(42);
    std::vector<FiveTuple> queries;
    queries.reserve(kQueries);
    for (size_t i = 0; i < kQueries; ++i) {
      const uint64_t ep = rng.NextU64(endpoints);
      const uint64_t cohort = ep / kEndpointsPerDistinctList;
      FiveTuple flow;
      flow.dst = EpAddr(ep);
      flow.src_port = 40000;
      flow.dst_port = 443;
      flow.proto = Protocol::kTcp;
      switch (rng.NextU64(3)) {
        case 0:  // permitted host entry
          flow.src = IpAddress::V4(static_cast<uint32_t>(
              0x0A000000u + (cohort * 13 + rng.NextU64(kEntriesPerEp - 2)) %
                                0x00FFFFFFu));
          break;
        case 1:  // scoped CIDR
          flow.src = IpAddress::V4(
              0x0AC80000u + static_cast<uint32_t>(rng.NextU64(0x10000)));
          flow.dst_port = rng.NextBool(0.5) ? 8080 : 443;
          break;
        default:  // denied
          flow.src = IpAddress::V4(
              0x0C000000u + static_cast<uint32_t>(rng.NextU64(0x01000000)));
          break;
      }
      queries.push_back(flow);
    }
    auto [cold_vps, cold_admits] = MeasureVerdicts(
        queries, 1, [&](const FiveTuple& q) { return bank.Admits(0, q); });
    bank.ResetVerdictCacheStats();
    double warm_vps = 0;
    uint64_t warm_admits = 0;
    for (int rep = 0; rep < 3; ++rep) {
      auto [vps, admits] = MeasureVerdicts(
          queries, kWarmPasses,
          [&](const FiveTuple& q) { return bank.Admits(0, q); });
      warm_vps = std::max(warm_vps, vps);
      warm_admits = admits;
    }
    if (warm_admits != cold_admits) {
      std::printf("VERDICT MISMATCH: cold=%llu warm=%llu\n",
                  static_cast<unsigned long long>(cold_admits),
                  static_cast<unsigned long long>(warm_admits));
      return;
    }
    const double warm_hit = bank.verdict_cache_stats().hit_rate();

    // --- Churn: reinstalls/s against the populated bank. ------------------
    auto churn_start = std::chrono::steady_clock::now();
    for (uint64_t op = 0; op < kChurnOps; ++op) {
      const uint64_t ep = (op * 977) % endpoints;
      bank.SetPermitList(EpAddr(ep), CohortList(ep / kEndpointsPerDistinctList));
    }
    const double churn_seconds =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - churn_start)
                .count()) /
        1e9;
    const double churn_installs_per_s =
        static_cast<double>(kChurnOps) / churn_seconds;

    // --- Streaming generator flatness. ------------------------------------
    StreamingProbe probe = ProbeStreamingFlatness(endpoints);

    const uint64_t peak_rss = PeakRssBytes();
    table.Row({FmtInt(endpoints), FmtInt(bank.distinct_permit_sets()),
               FmtF(static_cast<double>(rib_bytes) / endpoints, 1),
               FmtF(static_cast<double>(bank_bytes) / endpoints, 1),
               FmtF(prediet_per_ep, 0), FmtF(reduction, 1) + "x",
               FmtF(warm_vps, 0), FmtF(churn_installs_per_s, 0),
               FmtF(static_cast<double>(peak_rss) / (1 << 20), 0)});
    json.Recordf(
        "{\"bench\":\"million_diet\",\"endpoints\":%llu,"
        "\"entries_per_ep\":%llu,\"distinct_lists\":%llu,"
        "\"rib_bytes\":%llu,\"bank_bytes\":%llu,"
        "\"bytes_per_endpoint\":%.1f,"
        "\"modeled_prediet_bytes_per_endpoint\":%.1f,"
        "\"reduction_vs_prediet\":%.2f,"
        "\"cold_vps\":%.0f,\"warm_vps\":%.0f,\"warm_hit_rate\":%.4f,"
        "\"churn_installs_per_s\":%.0f,"
        "\"streaming_pending_events\":%llu,"
        "\"streaming_equivalent_transactions\":%llu,"
        "\"filter_gauge_bytes\":%.0f,\"peak_rss_bytes\":%llu}",
        static_cast<unsigned long long>(endpoints),
        static_cast<unsigned long long>(kEntriesPerEp),
        static_cast<unsigned long long>(bank.distinct_permit_sets()),
        static_cast<unsigned long long>(rib_bytes),
        static_cast<unsigned long long>(bank_bytes), bytes_per_ep,
        prediet_per_ep, reduction, cold_vps, warm_vps, warm_hit,
        churn_installs_per_s,
        static_cast<unsigned long long>(probe.pending_events),
        static_cast<unsigned long long>(probe.equivalent_transactions),
        metrics.GetGauge("p.filter.approx_bytes").value(),
        static_cast<unsigned long long>(peak_rss));
  }
  std::printf(
      "The diet: one arena trie node per branch point (not per bit), one\n"
      "interned list + compiled matcher per distinct cohort (not per\n"
      "endpoint), SoA columns for the per-endpoint versions/epochs. The\n"
      "streaming generator holds one pending arrival per pattern however\n"
      "many transactions the horizon implies.\n");
}

}  // namespace
}  // namespace tenantnet

int main(int argc, char** argv) {
  const tenantnet::BenchArgs args = tenantnet::ParseBenchArgs(argc, argv);
  const bool smoke = args.smoke;
  tenantnet::BenchJsonWriter json("million", args);
  tenantnet::Banner("E10", "Million-endpoint memory diet (§6 i at scale)");
  tenantnet::RunSweep(json, smoke);
  return 0;
}
