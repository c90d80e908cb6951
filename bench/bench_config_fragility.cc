// E9 — §3(5) "complex to maintain and evolve": configuration blast radius.
//
// Take the fully built Fig. 1 deployment and apply every possible
// *single-element* removal — one route, one security-group rule — measure
// how many of the application's legitimate flows break, then restore and
// try the next. Repeat in the declarative world, where the only removable
// elements are individual permit entries.
//
// What this quantifies: in the baseline, shared infrastructure elements
// (a 10/8 route toward a transit gateway, an egress-all SG rule) are load-
// bearing for many flows at once, and their blast radius is invisible
// from the element itself. In the declarative world each element names
// exactly the communication it allows, so the blast radius is the entry's
// own scope — maintenance becomes local.

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/reach/reach.h"
#include "src/vnet/builder.h"

namespace tenantnet {
namespace {

struct AppFlow {
  InstanceId src;
  InstanceId dst;
  uint16_t port;
};

// The legitimate communication matrix of the Fig. 1 app, instance-pair
// granular (~60 flows).
std::vector<AppFlow> LegitFlows(const Fig1World& fig) {
  std::vector<AppFlow> flows;
  for (InstanceId sp : fig.spark) {
    for (InstanceId db : fig.database) {
      flows.push_back({sp, db, Fig1Baseline::kDbPort});
    }
  }
  for (InstanceId web : fig.web_eu) {
    flows.push_back({web, fig.spark[0], Fig1Baseline::kSparkPort});
  }
  for (InstanceId web : fig.web_us) {
    flows.push_back({web, fig.spark[1], Fig1Baseline::kSparkPort});
  }
  for (InstanceId a : fig.analytics) {
    flows.push_back({a, fig.database[0], Fig1Baseline::kDbPort});
  }
  for (InstanceId al : fig.alerting) {
    flows.push_back({al, fig.spark[0], Fig1Baseline::kSparkPort});
    flows.push_back({fig.spark[2], al, Fig1Baseline::kAlertPort});
  }
  return flows;
}

struct BlastStats {
  uint64_t mutations = 0;
  uint64_t harmless = 0;     // mutations breaking nothing
  uint64_t total_broken = 0;
  uint64_t max_broken = 0;

  void Record(uint64_t broken) {
    ++mutations;
    if (broken == 0) {
      ++harmless;
    }
    total_broken += broken;
    max_broken = std::max(max_broken, broken);
  }
  double MeanBroken() const {
    return mutations == 0
               ? 0
               : static_cast<double>(total_broken) /
                     static_cast<double>(mutations);
  }
};

void Run() {
  Banner("E9", "Maintenance fragility: single-element removal blast radius");

  // ----- Baseline world -----------------------------------------------------
  Fig1World fig = BuildFig1World();
  ConfigLedger base_ledger;
  BaselineNetwork baseline(*fig.world, base_ledger);
  auto handles = BuildFig1Baseline(baseline, fig);
  if (!handles.ok()) {
    std::printf("build failed\n");
    return;
  }
  std::vector<AppFlow> flows = LegitFlows(fig);

  auto baseline_broken = [&]() {
    uint64_t broken = 0;
    for (const AppFlow& flow : flows) {
      auto result = baseline.Evaluate(flow.src, flow.dst, flow.port,
                                      Protocol::kTcp);
      if (!result->delivered) {
        ++broken;
      }
    }
    return broken;
  };
  if (baseline_broken() != 0) {
    std::printf("baseline sanity check failed\n");
    return;
  }

  BlastStats route_stats;
  for (VpcRouteTableId table_id : baseline.AllRouteTables()) {
    VpcRouteTable* table = baseline.FindRouteTable(table_id);
    // Snapshot the routes (prefix + target) so each can be removed and
    // restored. Lookup() gives targets; we re-walk via a prefix listing
    // that VpcRouteTable does not expose, so collect through the trie in
    // fabric: simplest is to try the prefixes we know the builder used.
    // Instead: mutate by LPM-visible prefixes gathered from a probe set.
    // To stay exact, VpcRouteTable exposes entries via ForEach below.
    std::vector<std::pair<IpPrefix, VpcRouteTarget>> routes;
    table->ForEach([&](const IpPrefix& p, const VpcRouteTarget& t) {
      routes.push_back({p, t});
    });
    for (const auto& [prefix, target] : routes) {
      if (target.kind == VpcRouteTargetKind::kLocal) {
        continue;  // local routes are implicit, not tenant-removable
      }
      (void)baseline.RemoveRoute(table_id, prefix);
      route_stats.Record(baseline_broken());
      table->Install(prefix, target);  // restore
    }
  }

  BlastStats sg_stats;
  for (SecurityGroupId sg_id : baseline.AllSecurityGroups()) {
    SecurityGroup* sg = baseline.FindSecurityGroup(sg_id);
    for (size_t i = 0; i < sg->rules().size(); ++i) {
      SgRule saved = sg->rules()[i];
      (void)baseline.RemoveSgRule(sg_id, i);
      sg_stats.Record(baseline_broken());
      sg->AddRule(saved);  // restore (order does not matter for SGs)
      // Re-removal indices stay valid: restored rule lands at the end.
    }
  }

  // ----- Declarative world --------------------------------------------------
  Fig1World decl_fig = BuildFig1World();
  ConfigLedger decl_ledger;
  DeclarativeCloud cloud(*decl_fig.world, decl_ledger);
  std::map<uint64_t, IpAddress> eip;
  for (InstanceId id : decl_fig.AllInstances()) {
    eip[id.value()] = *cloud.RequestEip(id);
  }
  // Permit lists mirroring the same matrix (host-granular).
  std::map<uint64_t, std::vector<PermitEntry>> lists;
  std::vector<AppFlow> decl_flows = LegitFlows(decl_fig);
  for (const AppFlow& flow : decl_flows) {
    PermitEntry e;
    e.source = IpPrefix::Host(eip.at(flow.src.value()));
    e.dst_ports = PortRange::Single(flow.port);
    e.proto = Protocol::kTcp;
    auto& list = lists[flow.dst.value()];
    if (std::find(list.begin(), list.end(), e) == list.end()) {
      list.push_back(e);
    }
  }
  for (const auto& [dst, list] : lists) {
    (void)cloud.SetPermitList(eip.at(dst), list);
  }

  auto decl_broken = [&]() {
    uint64_t broken = 0;
    for (const AppFlow& flow : decl_flows) {
      auto result = cloud.Evaluate(flow.src, eip.at(flow.dst.value()),
                                   flow.port, Protocol::kTcp);
      if (!result->delivered) {
        ++broken;
      }
    }
    return broken;
  };
  if (decl_broken() != 0) {
    std::printf("declarative sanity check failed\n");
    return;
  }

  BlastStats permit_stats;
  for (const auto& [dst, list] : lists) {
    for (const PermitEntry& entry : list) {
      (void)cloud.UpdatePermitList(eip.at(dst), {}, {entry});
      permit_stats.Record(decl_broken());
      (void)cloud.UpdatePermitList(eip.at(dst), {entry}, {});  // restore
    }
  }

  std::printf("\n%zu legitimate flows; every single-element removal tried:\n",
              flows.size());
  TablePrinter table({30, 11, 10, 12, 11});
  table.Row({"mutation class", "mutations", "harmless", "mean broken",
             "max broken"});
  table.Rule();
  table.Row({"baseline: route removal", FmtInt(route_stats.mutations),
             FmtInt(route_stats.harmless), FmtF(route_stats.MeanBroken(), 1),
             FmtInt(route_stats.max_broken)});
  table.Row({"baseline: SG rule removal", FmtInt(sg_stats.mutations),
             FmtInt(sg_stats.harmless), FmtF(sg_stats.MeanBroken(), 1),
             FmtInt(sg_stats.max_broken)});
  table.Row({"declarative: permit entry", FmtInt(permit_stats.mutations),
             FmtInt(permit_stats.harmless),
             FmtF(permit_stats.MeanBroken(), 1),
             FmtInt(permit_stats.max_broken)});
  std::printf(
      "\nReading: a baseline route or SG rule is shared infrastructure —\n"
      "removing one can break dozens of flows, and which ones is not\n"
      "deducible from the element itself (§3(5)'s maintenance burden).\n"
      "A permit entry names exactly the flows it allows: blast radius is\n"
      "its own scope, so maintenance is local and reviewable.\n");
}

// FNV-1a (64-bit) of a verifier's fingerprint, in hex: the E12 records pin
// the verdict text itself, not only that two sweeps agree on it.
std::string Fnv1aHex(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    hash = (hash ^ c) * 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

// E12 — incremental reachability revalidation. After the blast-radius sweep
// above showed that a permit entry's scope is local, this measures the
// operational payoff: when one destination's policy changes, re-verifying
// the tenant's reachability matrix only recomputes that destination's
// column (the verifier keys on per-endpoint verdict epochs), while the
// baseline's coarse config generation forces a full re-verify on any
// change. Both worlds assert byte-identity against a from-scratch sweep —
// the incremental path is a pure optimization, never an approximation.
void RunE12(BenchJsonWriter& json) {
  Banner("E12", "Reachability revalidation: incremental vs from-scratch");
  using Clock = std::chrono::steady_clock;
  auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };

  // ----- Declarative world --------------------------------------------------
  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  DeclarativeCloud cloud(*tw.world, ledger);
  constexpr size_t kN = 48;
  std::vector<InstanceId> vms;
  std::vector<IpAddress> eips;
  for (size_t i = 0; i < kN; ++i) {
    InstanceId id = *tw.world->LaunchInstance(
        tw.tenant, tw.provider, i % 2 == 0 ? tw.east : tw.west, 0);
    vms.push_back(id);
    eips.push_back(*cloud.RequestEip(id));
  }
  for (size_t d = 0; d < kN; ++d) {
    std::vector<PermitEntry> entries;
    for (size_t s = 1; s <= 8; ++s) {
      PermitEntry e;
      e.source = IpPrefix::Host(eips[(d + s) % kN]);
      e.dst_ports = PortRange::Single(443);
      entries.push_back(e);
    }
    (void)cloud.SetPermitList(eips[d], entries);
  }

  DeclarativeReachVerifier verifier(*tw.world, cloud);
  std::vector<DeclarativeReachVerifier::Pair> pairs;
  for (size_t s = 0; s < kN; ++s) {
    for (size_t d = 0; d < kN; ++d) {
      if (s != d) {
        pairs.push_back({vms[s], eips[d], 443, Protocol::kTcp});
      }
    }
  }
  verifier.SetPairs(pairs);
  auto t0 = Clock::now();
  (void)verifier.VerifyAll();
  double full_ms = ms_since(t0);

  constexpr int kMutations = 16;
  double reval_ms = 0;
  uint64_t recomputed = 0;
  uint64_t reused = 0;
  for (int m = 0; m < kMutations; ++m) {
    size_t d = static_cast<size_t>(m * 3 + 1) % kN;
    PermitEntry extra;
    extra.source = IpPrefix::Host(eips[(d + 9 + static_cast<size_t>(m)) % kN]);
    extra.dst_ports = PortRange::Single(443);
    (void)cloud.UpdatePermitList(eips[d], {extra}, {});
    t0 = Clock::now();
    ReachSweepStats stats = verifier.Revalidate();
    reval_ms += ms_since(t0);
    recomputed += stats.recomputed;
    reused += stats.reused;
  }
  double mean_reval_ms = reval_ms / kMutations;
  double decl_speedup = mean_reval_ms > 0 ? full_ms / mean_reval_ms : 0;
  double decl_fraction = static_cast<double>(recomputed) /
                         static_cast<double>(recomputed + reused);

  DeclarativeReachVerifier fresh(*tw.world, cloud);
  fresh.SetPairs(pairs);
  (void)fresh.VerifyAll();
  bool decl_identical = fresh.Fingerprint() == verifier.Fingerprint();

  // ----- Baseline world (coarse generation: any change dirties all) ---------
  Fig1World fig = BuildFig1World();
  ConfigLedger base_ledger;
  BaselineNetwork baseline(*fig.world, base_ledger);
  auto handles = BuildFig1Baseline(baseline, fig);
  if (!handles.ok()) {
    std::printf("baseline build failed\n");
    return;
  }
  std::vector<InstanceId> all = fig.AllInstances();
  BaselineReachVerifier base_verifier(baseline);
  std::vector<BaselineReachVerifier::Pair> base_pairs;
  for (InstanceId s : all) {
    for (InstanceId d : all) {
      if (s != d) {
        base_pairs.push_back({s, d, Fig1Baseline::kDbPort, Protocol::kTcp});
      }
    }
  }
  base_verifier.SetPairs(base_pairs);
  t0 = Clock::now();
  (void)base_verifier.VerifyAll();
  double base_full_ms = ms_since(t0);

  double base_reval_ms = 0;
  uint64_t base_recomputed = 0;
  uint64_t base_reused = 0;
  for (int m = 0; m < kMutations; ++m) {
    SgRule rule;
    rule.direction = TrafficDirection::kIngress;
    rule.proto = Protocol::kTcp;
    rule.ports = PortRange::Single(static_cast<uint16_t>(30000 + m));
    rule.peer = *IpPrefix::Parse("10.0.0.0/8");
    (void)baseline.AddSgRule(handles->sg_spark, rule);
    t0 = Clock::now();
    ReachSweepStats stats = base_verifier.Revalidate();
    base_reval_ms += ms_since(t0);
    base_recomputed += stats.recomputed;
    base_reused += stats.reused;
  }
  double base_mean_reval_ms = base_reval_ms / kMutations;
  double base_speedup =
      base_mean_reval_ms > 0 ? base_full_ms / base_mean_reval_ms : 0;
  double base_fraction =
      static_cast<double>(base_recomputed) /
      static_cast<double>(base_recomputed + base_reused);

  BaselineReachVerifier base_fresh(baseline);
  base_fresh.SetPairs(base_pairs);
  (void)base_fresh.VerifyAll();
  bool base_identical = base_fresh.Fingerprint() == base_verifier.Fingerprint();

  TablePrinter table({26, 7, 10, 11, 11, 10, 10});
  table.Row({"world", "pairs", "full (ms)", "reval (ms)", "recompute %",
             "speedup", "identical"});
  table.Rule();
  table.Row({"declarative (per-ep epoch)", FmtInt(pairs.size()),
             FmtF(full_ms, 2), FmtF(mean_reval_ms, 3),
             FmtF(100 * decl_fraction, 1), FmtF(decl_speedup, 1),
             decl_identical ? "yes" : "NO"});
  table.Row({"baseline (coarse gen)", FmtInt(base_pairs.size()),
             FmtF(base_full_ms, 2), FmtF(base_mean_reval_ms, 3),
             FmtF(100 * base_fraction, 1), FmtF(base_speedup, 1),
             base_identical ? "yes" : "NO"});
  std::printf(
      "\nReading: one permit change dirties one destination's column, so\n"
      "the declarative verifier re-verifies ~%.0f%% of the matrix per\n"
      "change. The baseline's verdict generation is all-or-nothing: any SG\n"
      "edit forces a full sweep. Both land byte-identical to from-scratch.\n",
      100 * decl_fraction);

  json.Recordf(
      "{\"bench\": \"config_fragility\", \"experiment\": \"E12\", "
      "\"world\": \"declarative\", \"pairs\": %zu, \"mutations\": %d, "
      "\"full_ms\": %.3f, \"mean_revalidate_ms\": %.4f, "
      "\"revalidate_speedup\": %.2f, \"recompute_fraction\": %.4f, "
      "\"fingerprint_identical\": %d, \"fingerprint_fnv1a\": \"%s\"}",
      pairs.size(), kMutations, full_ms, mean_reval_ms, decl_speedup,
      decl_fraction, decl_identical ? 1 : 0,
      Fnv1aHex(fresh.Fingerprint()).c_str());
  json.Recordf(
      "{\"bench\": \"config_fragility\", \"experiment\": \"E12\", "
      "\"world\": \"baseline\", \"pairs\": %zu, \"mutations\": %d, "
      "\"full_ms\": %.3f, \"mean_revalidate_ms\": %.4f, "
      "\"revalidate_speedup\": %.2f, \"recompute_fraction\": %.4f, "
      "\"fingerprint_identical\": %d, \"fingerprint_fnv1a\": \"%s\"}",
      base_pairs.size(), kMutations, base_full_ms, base_mean_reval_ms,
      base_speedup, base_fraction, base_identical ? 1 : 0,
      Fnv1aHex(base_fresh.Fingerprint()).c_str());
}

}  // namespace
}  // namespace tenantnet

int main(int argc, char** argv) {
  tenantnet::BenchJsonWriter json("config_fragility",
                                  tenantnet::ParseBenchArgs(argc, argv));
  tenantnet::Run();
  tenantnet::RunE12(json);
  return 0;
}
