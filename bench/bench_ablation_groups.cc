// Ablation — endpoint groups vs host-granular permit lists under churn.
//
// DESIGN.md calls out the grouping extension (§4: the one VPC role the
// base API dropped). This ablation replays the same tenant churn trace
// three ways and counts control-plane work:
//
//   host-lists/full     every membership change rewrites each referencing
//                       permit list in full (the base Table 2 API)
//   host-lists/incr     same, but with the incremental update extension
//   groups              permit lists reference a group; a change is one
//                       group-membership call regardless of fan-in
//
// The scenario: one popular service tier of `kServers` endpoints, every
// one of which permits "the worker group"; workers churn (launch/teardown)
// at trace rates. Fan-in is what separates the three columns.

#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "src/app/trace.h"
#include "src/core/edge_filter.h"

namespace tenantnet {
namespace {

constexpr size_t kServers = 20;
constexpr size_t kEdges = 10;

IpAddress WorkerAddr(uint64_t instance) {
  return IpAddress::V4(static_cast<uint32_t>(0x05000000 + instance));
}
IpAddress ServerAddr(size_t index) {
  return IpAddress::V4(static_cast<uint32_t>(0x06000000 + index));
}

TenantTrace MakeTrace() {
  TraceParams params;
  params.tenants = 1;
  params.launches_per_second_per_tenant = 3.0;
  params.duration = SimDuration::Seconds(600);
  params.mean_lifetime_seconds = 120;
  return GenerateTrace(params);
}

struct AblationResult {
  uint64_t update_messages;
  uint64_t entries_transmitted;  // payload: permit entries / members sent
  uint64_t peak_entries;
};

enum class Mode { kFullRewrite, kIncremental, kGroups };

AblationResult Run(Mode mode) {
  TenantTrace trace = MakeTrace();
  EdgeFilterBank bank("p", nullptr, 3);
  for (size_t e = 0; e < kEdges; ++e) {
    bank.AddEdge("edge" + std::to_string(e));
  }

  EndpointGroupId workers(1);
  std::set<uint64_t> live;

  // Install the servers' permit lists once.
  if (mode == Mode::kGroups) {
    PermitEntry by_group;
    by_group.source_group = workers;
    for (size_t s = 0; s < kServers; ++s) {
      bank.SetPermitList(ServerAddr(s), {by_group});
    }
    bank.SetGroup(workers, {});
  } else {
    for (size_t s = 0; s < kServers; ++s) {
      bank.SetPermitList(ServerAddr(s), {});
    }
  }

  uint64_t transmitted = 0;
  uint64_t peak_entries = 0;
  auto full_lists = [&live]() {
    std::vector<PermitEntry> entries;
    for (uint64_t worker : live) {
      PermitEntry e;
      e.source = IpPrefix::Host(WorkerAddr(worker));
      entries.push_back(e);
    }
    return entries;
  };

  for (const TraceEvent& event : trace.events) {
    if (event.kind == TraceEventKind::kLaunch) {
      live.insert(event.instance);
    } else {
      live.erase(event.instance);
    }
    switch (mode) {
      case Mode::kFullRewrite: {
        std::vector<PermitEntry> entries = full_lists();
        for (size_t s = 0; s < kServers; ++s) {
          bank.SetPermitList(ServerAddr(s), entries);
          transmitted += entries.size() * kEdges;
        }
        break;
      }
      case Mode::kIncremental: {
        PermitEntry delta;
        delta.source = IpPrefix::Host(WorkerAddr(event.instance));
        for (size_t s = 0; s < kServers; ++s) {
          if (event.kind == TraceEventKind::kLaunch) {
            bank.UpdatePermitList(ServerAddr(s), {delta}, {});
          } else {
            bank.UpdatePermitList(ServerAddr(s), {}, {delta});
          }
          transmitted += kEdges;  // one delta entry per edge
        }
        break;
      }
      case Mode::kGroups: {
        std::vector<IpAddress> members;
        members.reserve(live.size());
        for (uint64_t worker : live) {
          members.push_back(WorkerAddr(worker));
        }
        transmitted += kEdges;  // a delta-encoded membership change
        bank.SetGroup(workers, std::move(members));
        break;
      }
    }
    peak_entries = std::max(peak_entries, bank.total_installed_entries());
  }
  return AblationResult{bank.update_messages_sent(), transmitted,
                        peak_entries};
}

void RunAll() {
  Banner("Ablation", "endpoint groups vs per-host permit lists");
  TenantTrace trace = MakeTrace();
  std::printf(
      "\n%zu servers each permitting the worker tier; %llu churn events\n"
      "(peak %llu live workers), %zu-edge replication.\n",
      kServers, static_cast<unsigned long long>(trace.events.size()),
      static_cast<unsigned long long>(trace.peak_live_instances), kEdges);

  TablePrinter table({22, 18, 20, 16});
  table.Row({"mode", "update messages", "entries sent", "peak entries"});
  table.Rule();
  struct Row {
    const char* name;
    Mode mode;
  };
  for (const Row& row : {Row{"host-lists/full", Mode::kFullRewrite},
                         Row{"host-lists/incr", Mode::kIncremental},
                         Row{"groups", Mode::kGroups}}) {
    AblationResult r = Run(row.mode);
    table.Row({row.name, FmtInt(r.update_messages),
               FmtInt(r.entries_transmitted), FmtInt(r.peak_entries)});
  }
  std::printf(
      "\nReading: per-host lists pay fan-in x edges per churn event (full\n"
      "rewrites also pay list length); groups pay edges only — the VPC's\n"
      "grouping role, recovered as a one-call extension.\n");
}

}  // namespace
}  // namespace tenantnet

int main(int argc, char** argv) {
  tenantnet::ParseBenchArgs(argc, argv);
  tenantnet::RunAll();
  return 0;
}
