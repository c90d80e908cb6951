// E8a — §4 Availability: provider-managed SIP load balancing under backend
// failure, versus the baseline tenant-configured NLB.
//
// A client stream resolves the service at a steady rate while `kKilled`
// of the backends die at t=10s. In the baseline world the tenant's NLB
// only notices through its health checks (interval x unhealthy-threshold
// of blackout, during which the dead backends keep receiving a share of
// requests and fail them). In the declarative world the provider sees the
// instance die and repairs the SIP binding immediately — availability is
// an obligation below the API, not a tenant-tuned knob.
//
// Output: failed requests and success rate over the run, plus the measured
// blackout window, for several health-check configurations of the
// baseline vs the single (knob-free) declarative row.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/sim/event_queue.h"
#include "src/vnet/fabric.h"

namespace tenantnet {
namespace {

constexpr int kBackends = 4;
constexpr int kKilled = 2;
constexpr double kRps = 200;
constexpr double kRunSeconds = 30;
constexpr double kKillAt = 10;

struct AvailabilityResult {
  uint64_t total = 0;
  uint64_t failed = 0;
  double blackout_seconds = 0;  // last failure time - kill time
};

// Baseline: NLB with periodic health probes; a request routed to a dead
// backend fails (connection timeout).
AvailabilityResult RunBaseline(SimDuration probe_interval,
                               int unhealthy_threshold) {
  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  BaselineNetwork net(*tw.world, ledger);
  auto vpc = *net.CreateVpc(tw.tenant, tw.provider, tw.east, "v",
                            *IpPrefix::Parse("10.0.0.0/16"));
  auto subnet = *net.CreateSubnet(vpc, "s", 20, 0, false);
  auto tg = *net.CreateTargetGroup("tg", Protocol::kTcp, 443);
  TargetGroup* group = net.FindTargetGroup(tg);
  group->mutable_health_check().interval = probe_interval;
  group->mutable_health_check().unhealthy_threshold = unhealthy_threshold;

  std::vector<InstanceId> backends;
  for (int i = 0; i < kBackends; ++i) {
    InstanceId id =
        *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, i % 2);
    backends.push_back(id);
    (void)net.RegisterTarget(tg, id);
  }
  auto lb = *net.CreateLoadBalancer(LbType::kNetwork, "nlb", vpc, {subnet});
  LbListener listener;
  listener.proto = Protocol::kTcp;
  listener.port = 443;
  listener.default_target = tg;
  (void)net.AddLbListener(lb, listener);

  EventQueue queue;
  std::vector<bool> dead(kBackends, false);

  // Health prober: every interval, probe each target; probes against dead
  // instances fail and eventually flip the target unhealthy.
  std::function<void()> probe = [&] {
    for (int i = 0; i < kBackends; ++i) {
      group->RecordProbe(backends[i], !dead[i]);
    }
    queue.ScheduleAfter(probe_interval, probe);
  };
  queue.ScheduleAfter(probe_interval, probe);

  // Kill event.
  queue.ScheduleAt(SimTime::FromSeconds(kKillAt), [&] {
    for (int i = 0; i < kKilled; ++i) {
      dead[i] = true;
    }
  });

  AvailabilityResult result;
  double last_failure = kKillAt;
  FiveTuple flow;
  flow.src = IpAddress::V4(1, 1, 1, 1);
  flow.dst = IpAddress::V4(2, 2, 2, 2);
  flow.dst_port = 443;
  flow.proto = Protocol::kTcp;
  // Deterministic request clock.
  for (double t = 0; t < kRunSeconds; t += 1.0 / kRps) {
    queue.ScheduleAt(SimTime::FromSeconds(t), [&, t] {
      ++result.total;
      auto target = net.ResolveThroughLoadBalancer(lb, flow, nullptr);
      bool ok = target.ok();
      if (ok) {
        for (int i = 0; i < kBackends; ++i) {
          if (backends[i] == *target && dead[i]) {
            ok = false;  // routed to a dead backend: request fails
          }
        }
      }
      if (!ok) {
        ++result.failed;
        last_failure = t;
      }
    });
  }
  // The prober reschedules itself indefinitely; run to the horizon only.
  queue.RunUntil(SimTime::FromSeconds(kRunSeconds + 1));
  result.blackout_seconds = last_failure - kKillAt;
  return result;
}

// Declarative: provider notices the death immediately (its hypervisor
// knows) and the SIP stops resolving to it.
AvailabilityResult RunDeclarative(SimDuration provider_detection) {
  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  DeclarativeCloud cloud(*tw.world, ledger);
  std::vector<InstanceId> backends;
  std::vector<IpAddress> eips;
  IpAddress sip = *cloud.RequestSip(tw.tenant, tw.provider);
  InstanceId client =
      *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.west, 0);
  IpAddress client_eip = *cloud.RequestEip(client);
  for (int i = 0; i < kBackends; ++i) {
    InstanceId id =
        *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, i % 2);
    backends.push_back(id);
    IpAddress eip = *cloud.RequestEip(id);
    eips.push_back(eip);
    (void)cloud.Bind(eip, sip);
    PermitEntry e;
    e.source = IpPrefix::Host(client_eip);
    (void)cloud.SetPermitList(eip, {e});
  }

  EventQueue queue;
  std::vector<bool> dead(kBackends, false);
  queue.ScheduleAt(SimTime::FromSeconds(kKillAt), [&] {
    for (int i = 0; i < kKilled; ++i) {
      dead[i] = true;
    }
  });
  // The provider's detection lag (hypervisor signal, not tenant probes).
  queue.ScheduleAt(SimTime::FromSeconds(kKillAt) + provider_detection, [&] {
    for (int i = 0; i < kKilled; ++i) {
      cloud.NotifyInstanceDown(backends[i]);
    }
  });

  AvailabilityResult result;
  double last_failure = kKillAt;
  for (double t = 0; t < kRunSeconds; t += 1.0 / kRps) {
    queue.ScheduleAt(SimTime::FromSeconds(t), [&, t] {
      ++result.total;
      auto outcome = cloud.Evaluate(client, sip, 443, Protocol::kTcp);
      bool ok = outcome->delivered;
      if (ok) {
        for (int i = 0; i < kBackends; ++i) {
          if (eips[i] == outcome->effective_dst && dead[i]) {
            ok = false;
          }
        }
      }
      if (!ok) {
        ++result.failed;
        last_failure = t;
      }
    });
  }
  queue.RunAll();
  result.blackout_seconds = last_failure - kKillAt;
  return result;
}

void Run() {
  Banner("E8a", "Availability: SIP binding vs tenant-configured NLB");
  std::printf(
      "\n%d of %d backends die at t=%.0fs; %.0f req/s for %.0fs.\n",
      kKilled, kBackends, kKillAt, kRps, kRunSeconds);

  TablePrinter table({34, 10, 10, 12, 14});
  table.Row({"configuration", "requests", "failed", "success %",
             "blackout s"});
  table.Rule();
  struct BaseCfg {
    const char* name;
    SimDuration interval;
    int threshold;
  };
  for (const BaseCfg& cfg :
       {BaseCfg{"baseline NLB (30s probe, 3 fails)", SimDuration::Seconds(30),
                3},
        BaseCfg{"baseline NLB (10s probe, 2 fails)", SimDuration::Seconds(10),
                2},
        BaseCfg{"baseline NLB (5s probe, 2 fails)", SimDuration::Seconds(5),
                2}}) {
    AvailabilityResult r = RunBaseline(cfg.interval, cfg.threshold);
    table.Row({cfg.name, FmtInt(r.total), FmtInt(r.failed),
               FmtF(100.0 * (r.total - r.failed) / r.total, 2),
               FmtF(r.blackout_seconds, 1)});
  }
  AvailabilityResult decl = RunDeclarative(SimDuration::Millis(500));
  table.Row({"declarative SIP (no tenant knobs)", FmtInt(decl.total),
             FmtInt(decl.failed),
             FmtF(100.0 * (decl.total - decl.failed) / decl.total, 2),
             FmtF(decl.blackout_seconds, 1)});

  std::printf(
      "\nReading: the baseline's availability is a function of health-check\n"
      "knobs the tenant must discover and tune per LB; the SIP's failover\n"
      "is the provider's problem and bounded by its internal detection lag.\n");
}

}  // namespace
}  // namespace tenantnet

int main(int argc, char** argv) {
  tenantnet::ParseBenchArgs(argc, argv);
  tenantnet::Run();
  return 0;
}
