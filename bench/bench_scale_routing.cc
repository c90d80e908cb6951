// E4a — §6(i): does flat public EIP addressing scale in the provider's
// routing tables?
//
// Sweeps the endpoint count and reports, for each scale:
//   * flat host routes the provider carries (one per EIP),
//   * trie nodes (memory proxy),
//   * the minimal table after provider-side aggregation (the paper's
//     argument: because tenants cannot pin prefixes, the provider may
//     renumber/aggregate freely — sequential pools collapse massively),
//   * the same after trace-driven churn (fragmentation from releases),
//   * the VPC-world comparison: one route per VPC-prefix instead,
//   * LPM lookup latency at that scale.
//
// Paper claim under test: flat EIPs are tractable *because* aggregation
// freedom stays with the provider; churn erodes but does not destroy it.
//
// A churn-convergence sweep compares from-scratch BGP convergence against
// the incremental engine (retained Adj-RIB-Ins + dirty-prefix queue) for
// single-route churn, and an aggregation-timing record establishes that the
// provider can re-derive its advertised aggregate from 10^6 flat host
// routes in interactive time.
//
// A second sweep measures the baseline world's verdict path: the rate of
// BaselineNetwork::Evaluate's staged walk and the delivered count of its
// seeded queries.
//
// Args: `--smoke` shrinks the sweeps for CI; `--json_out=<path>` moves the
// JSON artifact (default BENCH_scale_routing.json).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cloud/presets.h"
#include "src/common/rng.h"
#include "src/net/ipam.h"
#include "src/routing/bgp.h"
#include "src/routing/route_table.h"
#include "src/vnet/fabric.h"

namespace tenantnet {
namespace {

struct ScaleResult {
  uint64_t endpoints;
  uint64_t flat_entries;
  uint64_t trie_nodes;
  uint64_t aggregated;
  uint64_t churned_lifo;        // aggregated table after churn, LIFO reuse
  uint64_t churned_dense;       // ... with lowest-first (dense) reuse
  uint64_t vpc_world_entries;
  double lookup_ns;
};

// Steady-state churn: interleaved releases and allocations around a stable
// population (NOT release-then-realloc pairs, which any reuse policy
// trivially undoes). Returns the aggregated table size afterwards.
uint64_t AggregatedAfterChurn(uint64_t endpoints,
                              HostAllocator::ReusePolicy policy) {
  HostAllocator pool(*IpPrefix::Parse("5.0.0.0/9"), policy);
  RouteTable rib;
  std::vector<IpAddress> live;
  live.reserve(endpoints);
  for (uint64_t i = 0; i < endpoints; ++i) {
    IpAddress eip = *pool.Allocate();
    rib.Install(IpPrefix::Host(eip),
                RouteEntry{NodeId(1 + i % 16), RouteOrigin::kLocal, 0, 0});
    live.push_back(eip);
  }
  Rng rng(17);
  uint64_t churn_ops = endpoints;  // one full population turnover
  for (uint64_t op = 0; op < churn_ops; ++op) {
    // Release a random victim...
    size_t victim = rng.NextU64(live.size());
    (void)rib.Withdraw(IpPrefix::Host(live[victim]));
    (void)pool.Release(live[victim]);
    live[victim] = live.back();
    live.pop_back();
    // ...and independently admit 1 newcomer (population oscillates).
    uint64_t arrivals = rng.NextBool(0.5) ? 2 : 0;
    for (uint64_t a = 0; a < arrivals && live.size() < endpoints; ++a) {
      IpAddress eip = *pool.Allocate();
      rib.Install(IpPrefix::Host(eip),
                  RouteEntry{NodeId(1 + op % 16), RouteOrigin::kLocal, 0, 0});
      live.push_back(eip);
    }
  }
  return AggregatePrefixes(rib.Prefixes()).size();
}

ScaleResult RunScale(uint64_t endpoints) {
  ScaleResult result;
  result.endpoints = endpoints;

  HostAllocator pool(*IpPrefix::Parse("5.0.0.0/9"));
  RouteTable rib;
  std::vector<IpAddress> live;
  live.reserve(endpoints);
  for (uint64_t i = 0; i < endpoints; ++i) {
    IpAddress eip = *pool.Allocate();
    rib.Install(IpPrefix::Host(eip),
                RouteEntry{NodeId(1 + i % 16), RouteOrigin::kLocal, 0, 0});
    live.push_back(eip);
  }
  result.flat_entries = rib.entry_count();
  result.trie_nodes = rib.node_count();
  result.aggregated = AggregatePrefixes(rib.Prefixes()).size();

  result.churned_lifo =
      AggregatedAfterChurn(endpoints, HostAllocator::ReusePolicy::kLifo);
  result.churned_dense = AggregatedAfterChurn(
      endpoints, HostAllocator::ReusePolicy::kLowestFirst);

  // VPC world: tenants pin prefixes; one route per VPC. Assume the survey
  // average of ~50 instances per VPC.
  result.vpc_world_entries = (endpoints + 49) / 50;

  // LPM lookup cost at this table size.
  uint64_t probes = 200000;
  Rng probe_rng(23);
  auto start = std::chrono::steady_clock::now();
  uint64_t hits = 0;
  for (uint64_t i = 0; i < probes; ++i) {
    IpAddress target = live[probe_rng.NextU64(live.size())];
    if (rib.Lookup(target) != nullptr) {
      ++hits;
    }
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  benchmark::DoNotOptimize(hits);
  result.lookup_ns =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()) /
      static_cast<double>(probes);
  return result;
}

void Run(bool smoke) {
  Banner("E4a", "Scalability: flat EIP routing state vs scale (§6 i)");

  TablePrinter table({10, 12, 12, 12, 13, 13, 12, 12});
  table.Row({"endpoints", "flat routes", "trie nodes", "aggregated",
             "churn(LIFO)", "churn(dense)", "VPC-world", "lookup ns"});
  table.Rule();
  std::vector<uint64_t> sizes =
      smoke ? std::vector<uint64_t>{1000, 10000}
            : std::vector<uint64_t>{1000, 10000, 100000, 500000};
  for (uint64_t n : sizes) {
    ScaleResult r = RunScale(n);
    table.Row({FmtInt(r.endpoints), FmtInt(r.flat_entries),
               FmtInt(r.trie_nodes), FmtInt(r.aggregated),
               FmtInt(r.churned_lifo), FmtInt(r.churned_dense),
               FmtInt(r.vpc_world_entries), FmtF(r.lookup_ns, 1)});
  }
  std::printf(
      "\nReading: the provider carries one host route per EIP internally;\n"
      "at bootstrap the table aggregates to a handful of prefixes. Churn\n"
      "is where the provider's aggregation *freedom* matters: with naive\n"
      "LIFO reuse a population turnover fragments the table badly, while\n"
      "lowest-first (dense) reuse — a choice only the provider can make,\n"
      "and only because tenants cannot pin addresses — keeps it compact.\n"
      "Worst case remains O(live endpoints), i.e. it never blows up; the\n"
      "VPC world's table is smaller but every prefix in it is pinned by a\n"
      "tenant, so the provider has no such lever (and tenants carry the\n"
      "planning cost, E1/E2). Lookup stays O(address bits) regardless.\n");
}

// --- Churn convergence: full vs incremental BGP -----------------------------

// Hub-and-spoke mesh: one hub speaker, `spokes` edge speakers each
// originating an equal share of `total_prefixes`. The shape matches the
// provider control plane at scale — many edge speakers, few transit hubs —
// and is the worst case for from-scratch convergence (every prefix crosses
// the hub every time).
IpPrefix ChurnPrefix(uint64_t i) {
  return *IpPrefix::Create(
      IpAddress::V4(0x0B000000u + (static_cast<uint32_t>(i) << 8)), 24);
}

struct ChurnResult {
  uint64_t prefixes;
  uint64_t speakers;
  double full_ms;
  double incr_op_ms;
  double updates_per_sec;
  double routes_touched_per_op;
  double speedup;
};

ChurnResult RunChurn(uint64_t total_prefixes, uint64_t spokes,
                     uint64_t churn_ops) {
  BgpMesh mesh;
  SpeakerId hub = mesh.AddSpeaker(65000, "hub");
  std::vector<SpeakerId> spoke_ids;
  for (uint64_t s = 0; s < spokes; ++s) {
    spoke_ids.push_back(mesh.AddSpeaker(static_cast<uint32_t>(65001 + s),
                                        "spoke" + std::to_string(s)));
    (void)mesh.AddSession(hub, spoke_ids.back());
  }
  uint64_t per_spoke = total_prefixes / spokes;
  for (uint64_t s = 0; s < spokes; ++s) {
    for (uint64_t j = 0; j < per_spoke; ++j) {
      (void)mesh.Originate(spoke_ids[s], ChurnPrefix(s * per_spoke + j));
    }
  }
  mesh.Converge();
  mesh.TakeDeltas();

  // Cost of one from-scratch convergence on the steady state (what every
  // route change used to pay). Min of 3 runs: the most favorable number
  // for the full rebuild, so the reported speedup is conservative.
  double full_ms = 0;
  for (int run = 0; run < 3; ++run) {
    auto start = std::chrono::steady_clock::now();
    mesh.ConvergeFull();
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    mesh.TakeDeltas();
    full_ms = run == 0 ? ms : std::min(full_ms, ms);
  }

  // Incremental churn: withdraw a random route, converge, re-originate it,
  // converge. Each converge+delta-drain is one op.
  Rng rng(41);
  uint64_t touched = 0;
  auto start = std::chrono::steady_clock::now();
  for (uint64_t op = 0; op < churn_ops; ++op) {
    uint64_t s = rng.NextU64(spokes);
    IpPrefix p = ChurnPrefix(s * per_spoke + rng.NextU64(per_spoke));
    (void)mesh.WithdrawOrigin(spoke_ids[s], p);
    touched += mesh.Converge().prefixes_processed;
    mesh.TakeDeltas();
    (void)mesh.Originate(spoke_ids[s], p);
    touched += mesh.Converge().prefixes_processed;
    mesh.TakeDeltas();
  }
  double churn_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  uint64_t ops = churn_ops * 2;

  ChurnResult r;
  r.prefixes = per_spoke * spokes;
  r.speakers = spokes + 1;
  r.full_ms = full_ms;
  r.incr_op_ms = churn_ms / static_cast<double>(ops);
  r.updates_per_sec = static_cast<double>(ops) / (churn_ms / 1e3);
  r.routes_touched_per_op =
      static_cast<double>(touched) / static_cast<double>(ops);
  r.speedup = r.full_ms / r.incr_op_ms;
  return r;
}

void ChurnSweep(BenchJsonWriter& json, bool smoke) {
  std::printf(
      "\nChurn convergence: from-scratch vs incremental (delta BGP engine)\n");
  TablePrinter table({10, 9, 11, 12, 13, 13, 10});
  table.Row({"prefixes", "speakers", "full ms", "incr op ms", "updates/s",
             "touched/op", "speedup"});
  table.Rule();
  struct Size {
    uint64_t prefixes, spokes, ops;
  };
  std::vector<Size> sizes = smoke
                                ? std::vector<Size>{{5000, 8, 100}}
                                : std::vector<Size>{{5000, 8, 200},
                                                    {20000, 16, 200},
                                                    {100000, 16, 200}};
  for (const Size& size : sizes) {
    ChurnResult r = RunChurn(size.prefixes, size.spokes, size.ops);
    table.Row({FmtInt(r.prefixes), FmtInt(r.speakers), FmtF(r.full_ms, 2),
               FmtF(r.incr_op_ms, 4), FmtF(r.updates_per_sec, 0),
               FmtF(r.routes_touched_per_op, 1), FmtF(r.speedup, 0)});
    json.Recordf(
        "{\"bench\":\"routing_churn\",\"prefixes\":%llu,\"speakers\":%llu,"
        "\"full_ms\":%.3f,\"incr_op_ms\":%.5f,\"updates_per_sec\":%.0f,"
        "\"routes_touched_per_op\":%.1f,\"speedup_incremental\":%.1f}",
        static_cast<unsigned long long>(r.prefixes),
        static_cast<unsigned long long>(r.speakers), r.full_ms, r.incr_op_ms,
        r.updates_per_sec, r.routes_touched_per_op, r.speedup);
  }
  std::printf(
      "\nReading: a single-route change used to cost a from-scratch mesh\n"
      "convergence — O(total prefixes x sessions). The event-driven engine\n"
      "re-selects only the dirty prefix from retained Adj-RIB-Ins and\n"
      "advertises only the changed best route, so the per-op cost tracks\n"
      "touched/op (a handful of routes) instead of the table size, and the\n"
      "gap widens linearly with scale.\n");
}

// Provider-side aggregation timing at full E4a scale: the provider must be
// able to re-derive its advertised aggregate from 1M flat host routes
// faster than BGP dampening timescales for the paper's argument to hold.
void AggregateTiming(BenchJsonWriter& json, bool smoke) {
  uint64_t n = smoke ? 200000 : 1000000;
  HostAllocator pool(*IpPrefix::Parse("5.0.0.0/9"));
  std::vector<IpPrefix> hosts;
  hosts.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    hosts.push_back(IpPrefix::Host(*pool.Allocate()));
  }
  auto start = std::chrono::steady_clock::now();
  auto out = AggregatePrefixes(hosts);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  std::printf("\nAggregation timing: %llu host routes -> %llu prefixes in "
              "%.1f ms\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(out.size()), ms);
  json.Recordf(
      "{\"bench\":\"routing_aggregate_timing\",\"prefixes\":%llu,"
      "\"aggregate_ms\":%.2f,\"output_prefixes\":%llu}",
      static_cast<unsigned long long>(n), ms,
      static_cast<unsigned long long>(out.size()));
}

// --- Baseline verdict path ---------------------------------------------------

// Wall-clock evaluations/sec of `verdict(a, b, port)` over `passes` passes
// of the query set, and the delivered count per pass (gated: it pins the
// verdicts, and it keeps the compiler from dropping the walk).
template <typename Fn>
std::pair<double, uint64_t> MeasureEvals(
    const std::vector<std::array<uint64_t, 3>>& queries, int passes,
    Fn&& verdict) {
  uint64_t delivered = 0;
  auto start = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; ++p) {
    for (const auto& q : queries) {
      delivered += verdict(q[0], q[1], static_cast<uint16_t>(q[2])) ? 1 : 0;
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
  return {vps, delivered / static_cast<uint64_t>(passes)};
}

void BaselineVerdictSweep(BenchJsonWriter& json, bool smoke) {
  std::printf("\nBaseline verdict path: the staged Evaluate walk\n");
  TablePrinter table({10, 12, 10});
  table.Row({"instances", "verdicts/s", "delivered"});
  table.Rule();

  const size_t kInstances = smoke ? 200 : 1000;
  const size_t kQueries = smoke ? 8192 : 32768;
  const int kPasses = smoke ? 4 : 6;

  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  BaselineNetwork net(*tw.world, ledger);

  auto vpc = *net.CreateVpc(tw.tenant, tw.provider, tw.east, "v1",
                            *IpPrefix::Parse("10.0.0.0/16"));
  auto subnet = *net.CreateSubnet(vpc, "s1", 20, 0, false);
  auto sg = *net.CreateSecurityGroup(vpc, "sg");
  SgRule egress;
  egress.direction = TrafficDirection::kEgress;
  egress.peer = IpPrefix::Any(IpFamily::kIpv4);
  (void)net.AddSgRule(sg, egress);
  SgRule ingress;
  ingress.direction = TrafficDirection::kIngress;
  ingress.proto = Protocol::kTcp;
  ingress.ports = PortRange::Single(443);
  ingress.peer = *IpPrefix::Parse("10.0.0.0/16");
  (void)net.AddSgRule(sg, ingress);
  auto acl = *net.CreateNetworkAcl(vpc, "acl");
  for (TrafficDirection dir :
       {TrafficDirection::kIngress, TrafficDirection::kEgress}) {
    AclEntry entry;
    entry.rule_number = 100;
    entry.allow = true;
    entry.direction = dir;
    entry.match = FlowMatch::Any();
    (void)net.AddAclEntry(acl, entry);
  }
  (void)net.AssociateAcl(subnet, acl);

  std::vector<InstanceId> instances;
  instances.reserve(kInstances);
  for (size_t i = 0; i < kInstances; ++i) {
    auto inst = *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
    (void)net.AttachInstance(inst, subnet, {sg}, false);
    instances.push_back(inst);
  }

  // Queries: random pairs; port 443 delivers, 80 dies at sg-ingress.
  Rng rng(7);
  std::vector<std::array<uint64_t, 3>> queries;
  queries.reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    uint64_t a = rng.NextU64(kInstances);
    uint64_t b = rng.NextU64(kInstances);
    queries.push_back({a, b, rng.NextBool(0.75) ? 443u : 80u});
  }

  auto [verdict_vps, delivered] = MeasureEvals(
      queries, kPasses, [&](uint64_t a, uint64_t b, uint16_t port) {
        auto r = net.Evaluate(instances[a], instances[b], port,
                              Protocol::kTcp);
        return r.ok() && r->delivered;
      });

  table.Row({FmtInt(kInstances), FmtF(verdict_vps, 0), FmtInt(delivered)});
  json.Recordf(
      "{\"bench\":\"scale_routing_verdict\",\"instances\":%llu,"
      "\"verdict_vps\":%.0f,\"delivered\":%llu}",
      static_cast<unsigned long long>(kInstances), verdict_vps,
      static_cast<unsigned long long>(delivered));
  std::printf(
      "\nEvery verdict walks SG egress, ACLs, the route table, the gateway\n"
      "chain and the destination's ACL and SG. The walk depends on coupled\n"
      "global state — routes, SGs, ACLs, BGP — that does not factorize per\n"
      "endpoint, so one config mutation anywhere moves the fabric's single\n"
      "verdict generation; the declarative world's permit lists keep\n"
      "per-endpoint epochs (E12 measures what each costs a verifier).\n");
}

}  // namespace
}  // namespace tenantnet

int main(int argc, char** argv) {
  const tenantnet::BenchArgs args = tenantnet::ParseBenchArgs(argc, argv);
  const bool smoke = args.smoke;
  tenantnet::BenchJsonWriter json("scale_routing", args);
  tenantnet::Run(smoke);
  tenantnet::ChurnSweep(json, smoke);
  tenantnet::AggregateTiming(json, smoke);
  tenantnet::BaselineVerdictSweep(json, smoke);
  return 0;
}
