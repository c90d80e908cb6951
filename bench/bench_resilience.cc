// E8b resilience experiment — identical seeded fault storms replayed
// against the baseline fabric and the declarative world.
//
// For each storm seed the SAME FaultSchedule (link faults on backbone /
// internet links, instance crashes, gateway restarts, control-plane
// degrades) drives both worlds while a retrying request workload runs over
// them. Reported per (world, seed) as a JSON line:
//   * blackholed bytes + flows and aborted flows (the fault blast radius),
//   * workload outcome (completed / retries / gave-up / denied, latency
//     p50 / p99) — how much of the storm the application actually felt,
//     and so how it recovered,
//   * the wall-clock cost of the control-plane repair hooks,
//   * stalled_after — permanently blackholed flows once everything
//     recovered; the headline invariant is that this is zero.
//
// A second sweep measures the permit-staleness window: how long a revoked
// peer keeps slipping through some edge filter when the revocation races a
// degraded replication plane, as a function of the per-message drop
// probability. Run with --smoke for the CI fast path.

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "src/app/workload.h"
#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/faults/fault_injector.h"
#include "src/sim/flow_sim.h"
#include "src/sim/shard_executor.h"
#include "src/vnet/builder.h"
#include "src/vnet/fabric.h"

namespace tenantnet {
namespace {

// Set in main(); all JSON lines flow through it into BENCH_resilience.json.
BenchJsonWriter* g_json = nullptr;

struct StormConfig {
  uint64_t storm_seed = 7;
  size_t event_count = 100;
  SimDuration window = SimDuration::Seconds(20);
  double rps = 80.0;
  SimDuration workload_span = SimDuration::Seconds(25);
};

// Flat permit-everyone app: the resilience experiment exercises recovery,
// not the security matrix.
std::map<uint64_t, IpAddress> DeployDeclarativeApp(DeclarativeCloud& cloud,
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

StormParams Fig1Storm(const Fig1World& fig, const StormConfig& cfg) {
  StormParams p;
  p.event_count = cfg.event_count;
  p.window = cfg.window;
  p.min_duration = SimDuration::Millis(100);
  p.max_duration = SimDuration::Seconds(2);
  const Topology& topo = fig.world->topology();
  for (size_t i = 0; i < topo.link_count(); ++i) {
    LinkId id(i + 1);
    LinkClass cls = topo.link(id).cls;
    if (cls == LinkClass::kBackbone || cls == LinkClass::kPublicInternet) {
      p.links.push_back(id);
    }
  }
  for (InstanceId id : fig.spark) {
    p.instances.push_back(id);
  }
  for (InstanceId id : fig.database) {
    p.instances.push_back(id);
  }
  p.gateways = {fig.world->region(fig.a_us_east).edge_node,
                fig.world->region(fig.b_us_east).edge_node};
  return p;
}

// threads == 0 runs the classic single-queue FlowSim; threads >= 1 drives the
// same storm through a ShardExecutor with that many workers. The executor's
// determinism contract means the storm outcome (blackhole/abort counters,
// workload stats) is identical across thread counts — only wall_ms moves.
void RunStorm(bool declarative, const StormConfig& cfg, int threads = 0) {
  Fig1World fig = BuildFig1World();
  CloudWorld& world = *fig.world;
  EventQueue queue;
  std::unique_ptr<FlowSim> plain_sim;
  std::unique_ptr<ShardExecutor> exec;
  if (threads >= 1) {
    ShardExecutor::Options opts;
    opts.num_threads = threads;
    exec = std::make_unique<ShardExecutor>(queue, world.topology(), opts);
  } else {
    plain_sim = std::make_unique<FlowSim>(queue, world.topology());
  }
  FlowControlSurface& sim =
      exec ? static_cast<FlowControlSurface&>(*exec)
           : static_cast<FlowControlSurface&>(*plain_sim);
  MetricRegistry metrics;

  ConfigLedger ledger;
  std::unique_ptr<BaselineNetwork> baseline;
  std::unique_ptr<DeclarativeCloud> decl;
  std::map<uint64_t, IpAddress> eip;
  ConnectorFn connector;
  FaultHooks hooks;
  if (declarative) {
    decl = std::make_unique<DeclarativeCloud>(world, ledger);
    eip = DeployDeclarativeApp(*decl, fig);
    DeclarativeCloud* cloud = decl.get();
    auto* eips = &eip;
    // An instance without an EIP is dialled at an address no endpoint
    // holds, which the walk drops as no-such-endpoint.
    connector = [cloud, eips](InstanceId src, InstanceId dst) {
      auto it = eips->find(dst.value());
      return RouteFor(cloud->Evaluate(
          src, it == eips->end() ? IpAddress() : it->second, 443,
          Protocol::kTcp));
    };
    hooks.on_inject = [cloud](const FaultSpec& spec) {
      if (spec.kind == FaultKind::kInstanceCrash) {
        cloud->NotifyInstanceDown(spec.instance);
      }
    };
    hooks.on_recover = [cloud](const FaultSpec& spec) {
      if (spec.kind == FaultKind::kInstanceCrash) {
        cloud->NotifyInstanceUp(spec.instance);
      }
    };
  } else {
    baseline = std::make_unique<BaselineNetwork>(world, ledger);
    (void)BuildFig1Baseline(*baseline, fig);
    BaselineNetwork* net = baseline.get();
    // The baseline tenant's control plane reacts to transport faults by
    // re-running route propagation (what a real deployment's BGP holddown
    // expiry triggers). With the incremental engine this is a delta apply;
    // the injector's control_repair_ms histogram records what each
    // reaction cost.
    hooks.on_inject = [net](const FaultSpec& spec) {
      if (spec.kind == FaultKind::kLinkDown ||
          spec.kind == FaultKind::kGatewayRestart) {
        (void)net->PropagateRoutes();
      }
    };
    hooks.on_recover = [net](const FaultSpec& spec) {
      if (spec.kind == FaultKind::kLinkDown ||
          spec.kind == FaultKind::kGatewayRestart) {
        (void)net->PropagateRoutes();
      }
    };
    connector = [net](InstanceId src, InstanceId dst) {
      return RouteFor(
          net->Evaluate(src, dst, Fig1Baseline::kDbPort, Protocol::kTcp));
    };
  }

  WorkloadParams wparams;
  wparams.seed = 17;
  wparams.max_retries = 6;
  wparams.mean_response_bytes = 128 * 1024;
  RequestWorkload workload(queue, sim, world, wparams);
  size_t pattern = *workload.AddStreamingPattern(
      "spark->db", fig.spark, fig.database, RateCurve::Constant(cfg.rps),
      connector);
  workload.Start(cfg.workload_span);

  FaultInjector injector(queue, world.topology(), sim, &world, metrics,
                         std::move(hooks));
  injector.Schedule(FaultSchedule::Storm(cfg.storm_seed, Fig1Storm(fig, cfg)));
  auto t0 = std::chrono::steady_clock::now();
  if (exec) {
    exec->RunAll();
  } else {
    queue.RunAll();
  }
  auto t1 = std::chrono::steady_clock::now();
  double wall_ms = std::chrono::duration<double>(t1 - t0).count() * 1e3;

  double repair_sum = 0;
  double repair_max = 0;
  uint64_t repair_count = 0;
  for (FaultKind kind :
       {FaultKind::kLinkDown, FaultKind::kInstanceCrash,
        FaultKind::kGatewayRestart, FaultKind::kControlPlaneDegrade}) {
    const Histogram& r = injector.control_repair_ms(kind);
    if (r.count() > 0) {
      repair_sum += r.sum();
      repair_count += r.count();
      repair_max = std::max(repair_max, r.max());
    }
  }

  const PatternStats& stats = workload.stats(pattern);
  g_json->Recordf(
      "{\"bench\":\"resilience\",\"world\":\"%s\",\"storm_seed\":%llu,"
      "\"threads\":%d,\"hw_threads\":%u,\"wall_ms\":%.1f,"
      "\"fault_events\":%zu,"
      "\"injected\":%llu,\"control_repair_events\":%llu,"
      "\"control_repair_ms_mean\":%.4f,\"control_repair_ms_max\":%.4f,"
      "\"bytes_blackholed\":%.0f,\"flows_blackholed\":%llu,"
      "\"flows_aborted\":%llu,"
      "\"attempted\":%llu,\"completed\":%llu,\"denied\":%llu,"
      "\"retries\":%llu,\"gave_up\":%llu,"
      "\"latency_ms_p50\":%.2f,\"latency_ms_p99\":%.2f,"
      "\"stalled_after\":%zu}",
      declarative ? "declarative" : "baseline",
      static_cast<unsigned long long>(cfg.storm_seed), threads,
      std::thread::hardware_concurrency(), wall_ms, cfg.event_count,
      static_cast<unsigned long long>(injector.faults_injected()),
      static_cast<unsigned long long>(repair_count),
      repair_count > 0 ? repair_sum / static_cast<double>(repair_count) : 0.0,
      repair_max, sim.bytes_blackholed(),
      static_cast<unsigned long long>(sim.flows_blackholed()),
      static_cast<unsigned long long>(sim.flows_aborted()),
      static_cast<unsigned long long>(stats.attempted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.denied),
      static_cast<unsigned long long>(stats.retries),
      static_cast<unsigned long long>(stats.gave_up),
      stats.latency_ms.Quantile(0.5), stats.latency_ms.Quantile(0.99),
      sim.stalled_flow_count());
}

// How long a revoked peer still gets through some edge while replication is
// degraded: revoke `rounds` times under a control-plane degrade fault and
// record the window between the revocation call and the moment no edge
// admits the peer any more.
void RunStaleness(double drop_prob, int rounds) {
  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  EventQueue queue;
  DeclarativeParams dparams;
  dparams.filter.degraded_drop_prob = drop_prob;
  DeclarativeCloud cloud(*tw.world, ledger, &queue, dparams);
  FlowSim sim(queue, tw.world->topology());
  MetricRegistry metrics;

  InstanceId client =
      *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.west, 0);
  IpAddress client_eip = *cloud.RequestEip(client);
  InstanceId server =
      *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
  IpAddress server_eip = *cloud.RequestEip(server);
  PermitEntry permit;
  permit.source = IpPrefix::Host(client_eip);

  EdgeFilterBank& bank = cloud.provider_filters(tw.provider);
  FaultHooks hooks;
  hooks.set_control_degraded = [&](bool degraded) {
    bank.SetReplicationDegraded(degraded);
  };
  FaultInjector injector(queue, tw.world->topology(), sim, tw.world.get(),
                         metrics, std::move(hooks));
  FaultSpec fault;
  fault.kind = FaultKind::kControlPlaneDegrade;
  fault.duration = SimDuration::Seconds(600);
  injector.InjectNow(fault);

  FiveTuple flow;
  flow.src = client_eip;
  flow.dst = server_eip;
  flow.dst_port = 443;
  flow.proto = Protocol::kTcp;
  auto any_edge_admits = [&] {
    for (size_t e = 0; e < bank.edge_count(); ++e) {
      if (bank.Admits(e, flow)) {
        return true;
      }
    }
    return false;
  };

  // RunUntil (not RunAll) between rounds: draining the queue would also
  // fire the degrade fault's far-future recovery and the whole sweep would
  // measure a healthy control plane. The 5s bound comfortably covers the
  // worst capped retransmit chain.
  struct ProbeState {
    bool recorded = false;
    SimTime revoked_at;
  };
  Histogram staleness_ms;
  for (int r = 0; r < rounds; ++r) {
    (void)cloud.SetPermitList(server_eip, {permit});
    queue.RunUntil(queue.now() + SimDuration::Seconds(5));
    auto state = std::make_shared<ProbeState>();
    state->revoked_at = queue.now();
    (void)cloud.SetPermitList(server_eip, {});
    auto probe = std::make_shared<std::function<void()>>();
    *probe = [state, probe, &queue, &staleness_ms, &any_edge_admits] {
      if (state->recorded) {
        return;
      }
      if (!any_edge_admits()) {
        state->recorded = true;
        staleness_ms.Record((queue.now() - state->revoked_at).ToMillis());
        return;
      }
      queue.ScheduleAfter(SimDuration::Millis(1), *probe);
    };
    (*probe)();
    queue.RunUntil(queue.now() + SimDuration::Seconds(5));
    // The probe function captures its own shared_ptr so scheduled copies
    // can reschedule; null the pointee to break that reference cycle.
    *probe = nullptr;
  }
  queue.RunAll();  // drain the degrade fault's recovery

  g_json->Recordf(
      "{\"bench\":\"resilience_staleness\",\"drop_prob\":%.2f,"
      "\"revocations\":%d,\"messages_dropped\":%llu,"
      "\"staleness_ms_mean\":%.2f,\"staleness_ms_max\":%.2f}",
      drop_prob, rounds,
      static_cast<unsigned long long>(bank.messages_dropped()),
      staleness_ms.mean(), staleness_ms.max());
}

}  // namespace
}  // namespace tenantnet

int main(int argc, char** argv) {
  const tenantnet::BenchArgs args = tenantnet::ParseBenchArgs(argc, argv);
  const bool smoke = args.smoke;
  tenantnet::BenchJsonWriter json("resilience", args);
  tenantnet::g_json = &json;
  tenantnet::StormConfig cfg;
  if (smoke) {
    cfg.event_count = 40;
    cfg.window = tenantnet::SimDuration::Seconds(8);
    cfg.rps = 40.0;
    cfg.workload_span = tenantnet::SimDuration::Seconds(10);
  }
  std::vector<uint64_t> seeds =
      smoke ? std::vector<uint64_t>{7} : std::vector<uint64_t>{7, 21, 99};
  for (uint64_t seed : seeds) {
    cfg.storm_seed = seed;
    tenantnet::RunStorm(/*declarative=*/false, cfg);
    tenantnet::RunStorm(/*declarative=*/true, cfg);
  }
  // Executor-mode thread sweep: the same declarative storm through
  // ShardExecutor. Counters must come out identical across rows (the
  // determinism contract); wall_ms is the only column allowed to move.
  cfg.storm_seed = seeds[0];
  for (int threads : {1, 2, 4, 8}) {
    tenantnet::RunStorm(/*declarative=*/true, cfg, threads);
  }
  std::vector<double> drop_probs =
      smoke ? std::vector<double>{0.35} : std::vector<double>{0.0, 0.35, 0.9};
  for (double p : drop_probs) {
    tenantnet::RunStaleness(p, smoke ? 3 : 10);
  }
  return 0;
}
