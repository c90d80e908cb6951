// E1 — Figure 1: tenant-side complexity of the example deployment.
//
// Builds the paper's Figure 1 deployment twice on the same physical world:
// once the traditional way (VPCs, gateways, peerings, circuits, LBs,
// firewall) and once through the Table 2 API. Reports the boxes the tenant
// owns and every configuration action the ledger recorded.
//
// Paper claim (§5): "the tenant will no longer have to consider any of the
// 6 VPCs or 9 gateways in the original topology, only the endpoints
// themselves."
//
// After the tables, one JSON record per world carries the same counts
// (`bench: fig1_complexity`), which CI pins exactly.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/vnet/builder.h"

namespace tenantnet {
namespace {

// Mirrors the parity test's declarative deployment (EIP per instance, SIPs
// for web/db tiers, permit lists from the communication matrix).
void DeployDeclarative(DeclarativeCloud& cloud, const Fig1World& fig) {
  std::map<uint64_t, IpAddress> eip;
  for (InstanceId id : fig.AllInstances()) {
    eip[id.value()] = *cloud.RequestEip(id);
  }
  IpAddress web_sip = *cloud.RequestSip(fig.tenant, fig.cloud_a);
  for (InstanceId id : fig.web_eu) {
    (void)cloud.Bind(eip[id.value()], web_sip);
  }
  IpAddress db_sip = *cloud.RequestSip(fig.tenant, fig.cloud_b);
  for (InstanceId id : fig.database) {
    (void)cloud.Bind(eip[id.value()], db_sip);
  }
  auto permit_hosts = [&](InstanceId target,
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
  for (InstanceId db : fig.database) {
    permit_hosts(db, {&fig.spark, &fig.analytics, &fig.alerting});
  }
  for (InstanceId sp : fig.spark) {
    permit_hosts(sp, {&fig.spark, &fig.web_eu, &fig.web_us, &fig.alerting});
  }
  for (const auto* group : {&fig.web_eu, &fig.web_us}) {
    for (InstanceId web : *group) {
      PermitEntry anyone;
      anyone.source = IpPrefix::Any(IpFamily::kIpv4);
      anyone.dst_ports = PortRange::Single(Fig1Baseline::kWebPort);
      anyone.proto = Protocol::kTcp;
      (void)cloud.SetPermitList(eip[web.value()], {anyone});
    }
  }
  for (InstanceId a : fig.analytics) {
    permit_hosts(a, {&fig.database});
  }
  for (InstanceId al : fig.alerting) {
    permit_hosts(al, {&fig.spark});
  }
  // QoS: a regional egress allowance where the tenant's heavy cross-cloud
  // traffic originates, plus the transit profile.
  (void)cloud.SetQos(fig.tenant, fig.a_us_east, 10e9);
  (void)cloud.SetQos(fig.tenant, fig.b_us_east, 10e9);
  (void)cloud.SetEgressProfile(fig.tenant, EgressPolicy::kColdPotato);
}

// One world's record, without its closing brace: the boxes the tenant
// owns and every action its ledger recorded.
std::string WorldFields(const char* world, size_t vpcs, size_t gateways,
                        size_t appliances, size_t bgp_speakers,
                        const ConfigLedger& ledger) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\": \"fig1_complexity\", \"experiment\": \"E1\", "
      "\"world\": \"%s\", \"vpcs\": %zu, \"gateways\": %zu, "
      "\"appliances\": %zu, \"bgp_speakers\": %zu, \"components\": %llu, "
      "\"parameters\": %llu, \"decisions\": %llu, \"cross_refs\": %llu, "
      "\"api_calls\": %llu, \"total_actions\": %llu",
      world, vpcs, gateways, appliances, bgp_speakers,
      static_cast<unsigned long long>(ledger.components()),
      static_cast<unsigned long long>(ledger.parameters()),
      static_cast<unsigned long long>(ledger.decisions()),
      static_cast<unsigned long long>(ledger.cross_references()),
      static_cast<unsigned long long>(ledger.api_calls()),
      static_cast<unsigned long long>(ledger.total()));
  return buf;
}

void Run(BenchJsonWriter& json) {
  Banner("E1", "Figure 1 deployment: tenant-side complexity, both worlds");

  Fig1World fig = BuildFig1World();
  ConfigLedger base_ledger;
  BaselineNetwork baseline(*fig.world, base_ledger);
  auto built = BuildFig1Baseline(baseline, fig);
  if (!built.ok()) {
    std::printf("baseline build failed: %s\n",
                built.status().ToString().c_str());
    return;
  }

  ConfigLedger decl_ledger;
  DeclarativeCloud declarative(*fig.world, decl_ledger);
  DeployDeclarative(declarative, fig);

  std::printf("\nTenant-owned network boxes (paper: 6 VPCs + 9 gateways):\n");
  TablePrinter boxes({28, 12, 12});
  boxes.Row({"box kind", "baseline", "declarative"});
  boxes.Rule();
  boxes.Row({"VPCs / virtual networks", FmtInt(baseline.vpc_count()), "0"});
  boxes.Row({"gateways (IGW/NAT/VPN/TGW/DX)",
             FmtInt(baseline.gateway_count()), "0"});
  boxes.Row({"appliances (LBs, firewall)",
             FmtInt(baseline.appliance_count()), "0"});
  boxes.Row({"BGP speakers the tenant runs",
             FmtInt(baseline.bgp().speaker_count()), "0"});

  std::printf("\nComponent breakdown (baseline world):\n");
  TablePrinter kinds({28, 12});
  for (const auto& [kind, count] : base_ledger.ComponentsByKind()) {
    kinds.Row({kind, FmtInt(count)});
  }

  std::printf("\nConfiguration actions recorded by the ledger:\n");
  TablePrinter actions({28, 12, 12});
  actions.Row({"action category", "baseline", "declarative"});
  actions.Rule();
  actions.Row({"components created", FmtInt(base_ledger.components()),
               FmtInt(decl_ledger.components())});
  actions.Row({"parameters set", FmtInt(base_ledger.parameters()),
               FmtInt(decl_ledger.parameters())});
  actions.Row({"decisions made", FmtInt(base_ledger.decisions()),
               FmtInt(decl_ledger.decisions())});
  actions.Row({"cross-references", FmtInt(base_ledger.cross_references()),
               FmtInt(decl_ledger.cross_references())});
  actions.Row({"declarative API calls", FmtInt(base_ledger.api_calls()),
               FmtInt(decl_ledger.api_calls())});
  actions.Row({"TOTAL tenant actions", FmtInt(base_ledger.total()),
               FmtInt(decl_ledger.total())});

  // BuildFig1Baseline already converged the mesh, so an incremental
  // Converge() finds nothing dirty; re-flooding it from scratch measures
  // what bringing the tenant's mesh up costs.
  auto bgp = baseline.bgp().ConvergeFull();
  std::printf(
      "\nBaseline also requires the tenant's BGP mesh: %zu speakers, "
      "%zu sessions, %llu update messages to converge from scratch "
      "(%llu rounds).\n",
      baseline.bgp().speaker_count(), baseline.bgp().session_count(),
      static_cast<unsigned long long>(bgp.update_messages),
      static_cast<unsigned long long>(bgp.rounds));
  std::printf(
      "Declarative: the tenant runs no routing protocol at all; permit-list\n"
      "entries (%llu parameters above) are the only per-host state.\n",
      static_cast<unsigned long long>(decl_ledger.parameters()));

  json.Record(WorldFields("baseline", baseline.vpc_count(),
                          baseline.gateway_count(),
                          baseline.appliance_count(),
                          baseline.bgp().speaker_count(), base_ledger) +
              ", \"bgp_update_messages\": " +
              std::to_string(bgp.update_messages) +
              ", \"bgp_rounds\": " + std::to_string(bgp.rounds) + "}");
  json.Record(WorldFields("declarative", 0, 0, 0, 0, decl_ledger) + "}");
}

}  // namespace
}  // namespace tenantnet

int main(int argc, char** argv) {
  tenantnet::BenchJsonWriter json("fig1_complexity",
                                  tenantnet::ParseBenchArgs(argc, argv));
  tenantnet::Run(json);
  return 0;
}
