// E11 — §1: "building a virtual network is ad hoc, complex, and ultimately
// expensive." The monthly bill for the Fig. 1 network layer, priced with a
// parameterized book in the vicinity of public list prices.
//
// Both worlds pay identical provider *transfer* charges; the comparison
// isolates what the boxes add: instance-hours for every gateway/appliance
// plus per-GB processing at each box the traffic crosses. The declarative
// column's only extra is the (unpriced-by-default) egress guarantee.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/cloud/presets.h"
#include "src/vnet/builder.h"
#include "src/vnet/pricing.h"

namespace tenantnet {
namespace {

void Run() {
  Banner("E11", "The monthly bill: tenant network layer, both worlds");

  Fig1World fig = BuildFig1World();
  ConfigLedger ledger;
  BaselineNetwork baseline(*fig.world, ledger);
  auto handles = BuildFig1Baseline(baseline, fig);
  if (!handles.ok()) {
    std::printf("build failed\n");
    return;
  }

  // A plausible month for the Fig. 1 app (spark->db bulk dominates).
  MonthlyTraffic traffic;
  traffic.intra_region_gb = 50000;
  traffic.inter_region_gb = 8000;
  traffic.cross_cloud_gb = 20000;
  traffic.internet_egress_gb = 5000;
  traffic.nat_egress_gb = 1000;

  PriceBook book;
  CostReport base = PriceBaseline(baseline, book, traffic);
  // Reserve 10 Gbps x 2 regions of egress guarantee in the declarative
  // world (matching E1's set_qos calls); unpriced by default.
  CostReport decl = PriceDeclarative(book, traffic, /*reserved_gbps=*/20);

  std::printf("\nBaseline bill (USD/month):\n");
  TablePrinter table({26, 12, 12, 12, 12});
  table.Row({"component", "box-hours", "processing", "transfer", "total"});
  table.Rule();
  for (const auto& [kind, line] : base.lines) {
    table.Row({kind, FmtF(line.box_hours_usd, 0),
               FmtF(line.processing_usd, 0), FmtF(line.transfer_usd, 0),
               FmtF(line.total(), 0)});
  }
  CostLine base_sum = base.Sum();
  table.Rule();
  table.Row({"TOTAL", FmtF(base_sum.box_hours_usd, 0),
             FmtF(base_sum.processing_usd, 0),
             FmtF(base_sum.transfer_usd, 0), FmtF(base_sum.total(), 0)});

  std::printf("\nDeclarative bill (USD/month):\n");
  TablePrinter dtable({26, 12, 12, 12, 12});
  dtable.Row({"component", "box-hours", "processing", "transfer", "total"});
  dtable.Rule();
  for (const auto& [kind, line] : decl.lines) {
    dtable.Row({kind, FmtF(line.box_hours_usd, 0),
                FmtF(line.processing_usd, 0), FmtF(line.transfer_usd, 0),
                FmtF(line.total(), 0)});
  }
  CostLine decl_sum = decl.Sum();
  dtable.Rule();
  dtable.Row({"TOTAL", FmtF(decl_sum.box_hours_usd, 0),
              FmtF(decl_sum.processing_usd, 0),
              FmtF(decl_sum.transfer_usd, 0), FmtF(decl_sum.total(), 0)});

  double premium = base_sum.total() - decl_sum.total();
  std::printf(
      "\nNetwork-layer premium the boxes add: $%.0f/month (%.0f%% on top of\n"
      "the transfer charges both worlds pay). The declarative guarantee\n"
      "line is $%.0f — the provider's pricing freedom for set_qos; it has\n"
      "that much headroom before the tenant is worse off.\n",
      premium,
      100.0 * premium / std::max(1.0, decl_sum.total()),
      decl.lines.at("egress guarantee").box_hours_usd);
}

}  // namespace
}  // namespace tenantnet

int main(int argc, char** argv) {
  tenantnet::ParseBenchArgs(argc, argv);
  tenantnet::Run();
  return 0;
}
