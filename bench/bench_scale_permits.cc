// E4b — §6(i): does a dynamic shared permit-list between tenants and cloud
// providers scale?
//
// Two sweeps:
//  1. Static scale: endpoints x entries-per-endpoint x edge replicas ->
//     installed filter state and update fan-out.
//  2. Dynamic scale: replay a synthetic tenant trace (launches/teardowns
//     with Zipf communication partners); every lifecycle event triggers
//     permit-list updates on the affected partners. Reports update
//     messages per simulated second and the install-convergence latency
//     distribution (time until the *last* edge applies an update).
//  3. Verdict fast path: cold/warm/churn verdict throughput of the cached
//     data plane (Admits) against the compiled-uncached matcher and the
//     original linear scan, plus compile cost and cache hit rates. JSON
//     rows land in BENCH_scale_permits.json for the CI regression gate.
//
// Args: `--smoke` shrinks the sweeps for CI; `--json_out=<path>` moves the
// JSON artifact.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "src/app/trace.h"
#include "src/common/rng.h"
#include "src/core/edge_filter.h"
#include "src/telemetry/metrics.h"

namespace tenantnet {
namespace {

void StaticSweep(bool smoke) {
  std::printf("\nStatic state: entries replicated across ingress edges\n");
  TablePrinter table({10, 14, 8, 16, 16});
  table.Row({"endpoints", "entries/ep", "edges", "installed total",
             "update msgs"});
  table.Rule();
  std::vector<uint64_t> endpoint_sizes =
      smoke ? std::vector<uint64_t>{1000}
            : std::vector<uint64_t>{1000, 10000, 100000};
  for (uint64_t endpoints : endpoint_sizes) {
    for (uint64_t entries : {4u, 16u, 64u}) {
      for (size_t edges : {3u, 10u, 25u}) {
        EdgeFilterBank bank("p", nullptr, 1);
        for (size_t e = 0; e < edges; ++e) {
          bank.AddEdge("edge" + std::to_string(e));
        }
        std::vector<PermitEntry> permits(entries);
        for (uint64_t i = 0; i < entries; ++i) {
          permits[i].source = IpPrefix::Host(
              IpAddress::V4(static_cast<uint32_t>(0x0A000000 + i)));
        }
        for (uint64_t ep = 0; ep < endpoints; ++ep) {
          bank.SetPermitList(
              IpAddress::V4(static_cast<uint32_t>(0x05000000 + ep)), permits);
        }
        if (entries == 16 || endpoints == 1000) {
          table.Row({FmtInt(endpoints), FmtInt(entries), FmtInt(edges),
                     FmtInt(bank.total_installed_entries()),
                     FmtInt(bank.update_messages_sent())});
        }
      }
    }
  }
  std::printf(
      "State grows as endpoints x entries x edges: linear in each factor —\n"
      "big but partitionable (each edge only needs lists for endpoints it\n"
      "can reach; here we charge the worst case of full replication).\n");
}

void ChurnReplay(bool smoke) {
  std::printf("\nDynamic scale: trace-driven permit-list churn\n");
  TablePrinter table({10, 12, 14, 16, 14, 14});
  table.Row({"tenants", "launch/s", "events", "update msgs", "msgs/sim-s",
             "p99 conv ms"});
  table.Rule();

  std::vector<uint64_t> tenant_sizes =
      smoke ? std::vector<uint64_t>{5} : std::vector<uint64_t>{5, 20, 80};
  for (uint64_t tenants : tenant_sizes) {
    TraceParams params;
    params.tenants = tenants;
    params.launches_per_second_per_tenant = 1.0;
    params.duration = SimDuration::Seconds(300);
    params.partners_per_instance = 4;
    params.mean_lifetime_seconds = 120;
    TenantTrace trace = GenerateTrace(params);

    EventQueue queue;
    EdgeFilterBank bank("p", &queue, 5);
    for (int e = 0; e < 10; ++e) {
      bank.AddEdge("edge" + std::to_string(e));
    }
    Histogram convergence_ms;
    uint64_t updates = 0;

    // Each live instance's permit list = its inbound partners. A launch
    // adds the newcomer to each partner's list (and installs its own); a
    // teardown removes it again.
    std::map<uint64_t, std::set<uint64_t>> inbound;    // instance -> sources
    std::map<uint64_t, std::set<uint64_t>> listed_in;  // src -> endpoints
    auto addr_of = [](uint64_t instance) {
      return IpAddress::V4(static_cast<uint32_t>(0x05000000 + instance));
    };
    auto reinstall = [&](uint64_t instance) {
      std::vector<PermitEntry> permits;
      for (uint64_t src : inbound[instance]) {
        PermitEntry e;
        e.source = IpPrefix::Host(addr_of(src));
        permits.push_back(e);
      }
      SimTime done = bank.SetPermitList(addr_of(instance), permits);
      convergence_ms.Record((done - queue.now()).ToMillis());
      ++updates;
    };

    for (const TraceEvent& event : trace.events) {
      queue.RunUntil(event.at);
      if (event.kind == TraceEventKind::kLaunch) {
        for (uint64_t partner : event.talks_to) {
          inbound[partner].insert(event.instance);
          listed_in[event.instance].insert(partner);
          reinstall(partner);
          inbound[event.instance].insert(partner);
          listed_in[partner].insert(event.instance);
        }
        reinstall(event.instance);
      } else {
        for (uint64_t target : listed_in[event.instance]) {
          auto it = inbound.find(target);
          if (it != inbound.end() && it->second.erase(event.instance) > 0) {
            reinstall(target);
          }
        }
        listed_in.erase(event.instance);
        inbound.erase(event.instance);
        bank.RemovePermitList(addr_of(event.instance));
      }
    }
    queue.RunAll();

    double sim_seconds = params.duration.ToSeconds();
    table.Row({FmtInt(tenants),
               FmtF(params.launches_per_second_per_tenant, 1),
               FmtInt(trace.events.size()),
               FmtInt(bank.update_messages_sent()),
               FmtF(static_cast<double>(bank.update_messages_sent()) /
                        sim_seconds,
                    1),
               FmtF(convergence_ms.P99(), 1)});
  }
  std::printf(
      "Update load scales with churn x partner degree, not with total\n"
      "endpoint count; convergence latency is the per-edge install time\n"
      "(independent of scale) — the shared permit-list is dynamically\n"
      "maintainable at these rates.\n");
}

// --- Verdict fast path -------------------------------------------------------

// Wall-clock verdicts/sec of `verdict(flow)` over `passes` passes of the
// query set. The admitted count defeats dead-code elimination and doubles
// as an equivalence check between the three data-plane paths.
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
  auto elapsed = std::chrono::steady_clock::now() - start;
  double seconds =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()) /
      1e9;
  double vps = static_cast<double>(queries.size()) *
               static_cast<double>(passes) / seconds;
  return {vps, admitted / static_cast<uint64_t>(passes)};
}

void VerdictSweep(BenchJsonWriter& json, bool smoke) {
  std::printf(
      "\nVerdict fast path: compiled matchers + generational cache\n");
  TablePrinter table({10, 11, 12, 12, 12, 12, 12, 10, 9});
  table.Row({"endpoints", "compile ms", "linear v/s", "uncached", "cold",
             "warm", "churn", "warm hit%", "speedup"});
  table.Rule();

  const uint64_t kEntriesPerEp = 16;
  std::vector<uint64_t> sizes =
      smoke ? std::vector<uint64_t>{1000} : std::vector<uint64_t>{10000,
                                                                  100000};
  const size_t kQueries = smoke ? 16384 : 65536;
  const int kWarmPasses = smoke ? 4 : 6;

  for (uint64_t endpoints : sizes) {
    EdgeFilterParams params;
    params.verdict_cache_slots = 1 << 19;  // queries fit: warm ≈ all hits
    EdgeFilterBank bank("p", nullptr, 1, params);
    bank.AddEdge("edge0");

    // One shared group every list references (exercises the member-snapshot
    // probe alongside the prefix trie).
    EndpointGroupId group(1);
    std::vector<IpAddress> members;
    for (uint32_t m = 0; m < 64; ++m) {
      members.push_back(IpAddress::V4(0x0B000000 + m));
    }
    bank.SetGroup(group, members);

    auto ep_addr = [](uint64_t ep) {
      return IpAddress::V4(static_cast<uint32_t>(0x05000000 + ep));
    };
    auto host_src = [](uint64_t ep, uint64_t k) {
      return IpAddress::V4(
          static_cast<uint32_t>(0x0A000000 + (ep * 13 + k) % 0x00FFFFFF));
    };

    // 16 entries per endpoint: 13 host prefixes, one scoped CIDR, one
    // scoped group reference, one protocol-scoped wide prefix.
    auto start_compile = std::chrono::steady_clock::now();
    for (uint64_t ep = 0; ep < endpoints; ++ep) {
      std::vector<PermitEntry> permits;
      permits.reserve(kEntriesPerEp);
      for (uint64_t k = 0; k < 13; ++k) {
        PermitEntry e;
        e.source = IpPrefix::Host(host_src(ep, k));
        permits.push_back(e);
      }
      PermitEntry cidr;
      cidr.source = *IpPrefix::Parse("10.200.0.0/16");
      cidr.dst_ports = PortRange::Single(8080);
      permits.push_back(cidr);
      PermitEntry grp;
      grp.source_group = group;
      grp.proto = Protocol::kTcp;
      grp.dst_ports = PortRange::Single(443);
      permits.push_back(grp);
      PermitEntry udp;
      udp.source = *IpPrefix::Parse("11.0.0.0/8");
      udp.proto = Protocol::kUdp;
      permits.push_back(udp);
      bank.SetPermitList(ep_addr(ep), std::move(permits));
    }
    double compile_ms =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start_compile)
                .count()) /
        1000.0;

    // Query mix: permitted host / scoped CIDR / group member / denied.
    Rng rng(42);
    std::vector<FiveTuple> queries;
    queries.reserve(kQueries);
    for (size_t i = 0; i < kQueries; ++i) {
      uint64_t ep = rng.NextU64(endpoints);
      FiveTuple flow;
      flow.dst = ep_addr(ep);
      flow.src_port = 40000;
      flow.dst_port = 443;
      flow.proto = Protocol::kTcp;
      switch (rng.NextU64(4)) {
        case 0:
          flow.src = host_src(ep, rng.NextU64(13));
          break;
        case 1:
          flow.src = IpAddress::V4(
              0x0AC80000 + static_cast<uint32_t>(rng.NextU64(0x10000)));
          flow.dst_port = rng.NextBool(0.5) ? 8080 : 443;
          break;
        case 2:
          flow.src = members[rng.NextU64(members.size())];
          break;
        default:
          flow.src = IpAddress::V4(
              0x0C000000 + static_cast<uint32_t>(rng.NextU64(0x01000000)));
          break;
      }
      queries.push_back(flow);
    }

    auto [linear_vps, linear_admits] = MeasureVerdicts(
        queries, 1,
        [&](const FiveTuple& q) { return bank.AdmitsLinear(0, q); });
    auto [uncached_vps, uncached_admits] = MeasureVerdicts(
        queries, 2,
        [&](const FiveTuple& q) { return bank.AdmitsUncached(0, q); });

    bank.ClearVerdictCache();
    bank.ResetVerdictCacheStats();
    auto [cold_vps, cold_admits] = MeasureVerdicts(
        queries, 1, [&](const FiveTuple& q) { return bank.Admits(0, q); });

    bank.ResetVerdictCacheStats();
    auto [warm_vps, warm_admits] = MeasureVerdicts(
        queries, kWarmPasses,
        [&](const FiveTuple& q) { return bank.Admits(0, q); });
    double warm_hit = bank.verdict_cache_stats().hit_rate();

    if (linear_admits != uncached_admits || linear_admits != cold_admits ||
        linear_admits != warm_admits) {
      std::printf("VERDICT MISMATCH: linear=%llu uncached=%llu cold=%llu "
                  "warm=%llu\n",
                  static_cast<unsigned long long>(linear_admits),
                  static_cast<unsigned long long>(uncached_admits),
                  static_cast<unsigned long long>(cold_admits),
                  static_cast<unsigned long long>(warm_admits));
      return;
    }

    // Churn: every 1024 verdicts one endpoint's list is reinstalled.
    // Scoped epochs mean only that endpoint's cached verdicts go stale;
    // throughput should stay near warm, not collapse to cold.
    bank.ResetVerdictCacheStats();
    uint64_t churn_counter = 0;
    uint64_t churn_victim = 0;
    auto [churn_vps, churn_admits] = MeasureVerdicts(
        queries, kWarmPasses, [&](const FiveTuple& q) {
          if ((++churn_counter & 1023) == 0) {
            uint64_t ep = churn_victim++ % endpoints;
            std::vector<PermitEntry> permits;
            for (uint64_t k = 0; k < 13; ++k) {
              PermitEntry e;
              e.source = IpPrefix::Host(host_src(ep, k));
              permits.push_back(e);
            }
            PermitEntry cidr;
            cidr.source = *IpPrefix::Parse("10.200.0.0/16");
            cidr.dst_ports = PortRange::Single(8080);
            permits.push_back(cidr);
            PermitEntry grp;
            grp.source_group = group;
            grp.proto = Protocol::kTcp;
            grp.dst_ports = PortRange::Single(443);
            permits.push_back(grp);
            PermitEntry udp;
            udp.source = *IpPrefix::Parse("11.0.0.0/8");
            udp.proto = Protocol::kUdp;
            permits.push_back(udp);
            bank.SetPermitList(ep_addr(ep), std::move(permits));
          }
          return bank.Admits(0, q);
        });
    (void)churn_admits;  // identical lists: verdicts unchanged by churn
    double churn_hit = bank.verdict_cache_stats().hit_rate();

    double speedup = warm_vps / linear_vps;
    table.Row({FmtInt(endpoints), FmtF(compile_ms, 1), FmtF(linear_vps, 0),
               FmtF(uncached_vps, 0), FmtF(cold_vps, 0), FmtF(warm_vps, 0),
               FmtF(churn_vps, 0), FmtF(warm_hit * 100.0, 1),
               FmtF(speedup, 1)});
    json.Recordf(
        "{\"bench\":\"scale_permits_verdict\",\"endpoints\":%llu,"
        "\"entries_per_ep\":%llu,\"compiles\":%llu,\"compile_ms\":%.2f,"
        "\"linear_vps\":%.0f,\"uncached_vps\":%.0f,\"cold_vps\":%.0f,"
        "\"warm_vps\":%.0f,\"churn_vps\":%.0f,\"warm_hit_rate\":%.4f,"
        "\"churn_hit_rate\":%.4f,\"speedup_warm_vs_linear\":%.2f}",
        static_cast<unsigned long long>(endpoints),
        static_cast<unsigned long long>(kEntriesPerEp),
        static_cast<unsigned long long>(bank.permit_compiles()), compile_ms,
        linear_vps, uncached_vps, cold_vps, warm_vps, churn_vps, warm_hit,
        churn_hit, speedup);
  }
  std::printf(
      "Warm verdicts are one cache probe + generation compares; churn only\n"
      "invalidates the mutated endpoint's verdicts (scoped epochs), so\n"
      "throughput under churn tracks warm, not cold. Compile cost is paid\n"
      "once per list update, off the data path.\n");
}

}  // namespace
}  // namespace tenantnet

int main(int argc, char** argv) {
  const tenantnet::BenchArgs args = tenantnet::ParseBenchArgs(argc, argv);
  const bool smoke = args.smoke;
  tenantnet::BenchJsonWriter json("scale_permits", args);
  tenantnet::Banner("E4b", "Scalability: dynamic shared permit-lists (§6 i)");
  tenantnet::StaticSweep(smoke);
  tenantnet::ChurnReplay(smoke);
  tenantnet::VerdictSweep(json, smoke);
  return 0;
}
