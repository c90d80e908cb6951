// E3 — Table 2: control-plane microbenchmarks of the proposed API.
//
// Measures each verb's cost at realistic control-plane scale (the state
// holds `Endpoints` live EIPs before timing starts), plus the data-plane
// admission check. google-benchmark binary: absolute numbers are
// machine-dependent; the shape to look for is flat-or-logarithmic scaling
// in the endpoint count.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_util.h"
#include "src/cloud/presets.h"
#include "src/core/api.h"

namespace tenantnet {
namespace {

// Shared fixture state: a world with `n` endpoints already provisioned.
struct ApiWorld {
  explicit ApiWorld(int64_t n) : tw(BuildTestWorld()), cloud(*tw.world, ledger) {
    for (int64_t i = 0; i < n; ++i) {
      InstanceId vm = *tw.world->LaunchInstance(
          tw.tenant, tw.provider, i % 2 == 0 ? tw.east : tw.west,
          static_cast<int>(i % 2));
      instances.push_back(vm);
      eips.push_back(*cloud.RequestEip(vm));
    }
  }

  TestWorld tw;
  ConfigLedger ledger;
  DeclarativeCloud cloud;
  std::vector<InstanceId> instances;
  std::vector<IpAddress> eips;
};

void BM_RequestReleaseEip(benchmark::State& state) {
  ApiWorld world(state.range(0));
  InstanceId fresh = *world.tw.world->LaunchInstance(
      world.tw.tenant, world.tw.provider, world.tw.east, 0);
  for (auto _ : state) {
    IpAddress eip = *world.cloud.RequestEip(fresh);
    benchmark::DoNotOptimize(eip);
    (void)world.cloud.ReleaseEip(eip);
  }
  state.SetLabel(std::to_string(state.range(0)) + " live endpoints");
}
BENCHMARK(BM_RequestReleaseEip)->Arg(100)->Arg(10000)->Arg(100000);

void BM_BindUnbind(benchmark::State& state) {
  ApiWorld world(state.range(0));
  IpAddress sip = *world.cloud.RequestSip(world.tw.tenant, world.tw.provider);
  // Pre-bind half the endpoints so the SIP has realistic fan-out.
  for (size_t i = 0; i < world.eips.size() / 2; ++i) {
    (void)world.cloud.Bind(world.eips[i], sip);
  }
  IpAddress subject = world.eips.back();
  for (auto _ : state) {
    (void)world.cloud.Bind(subject, sip);
    (void)world.cloud.Unbind(subject, sip);
  }
  state.SetLabel(std::to_string(state.range(0) / 2) + " bound backends");
}
BENCHMARK(BM_BindUnbind)->Arg(100)->Arg(10000);

void BM_SetPermitList(benchmark::State& state) {
  ApiWorld world(1000);
  int64_t entries = state.range(0);
  std::vector<PermitEntry> permits;
  for (int64_t i = 0; i < entries; ++i) {
    PermitEntry e;
    e.source = IpPrefix::Host(world.eips[static_cast<size_t>(i) %
                                         world.eips.size()]);
    permits.push_back(e);
  }
  IpAddress target = world.eips[0];
  for (auto _ : state) {
    auto when = world.cloud.SetPermitList(target, permits);
    benchmark::DoNotOptimize(when);
  }
  state.SetLabel(std::to_string(entries) + " entries, " +
                 std::to_string(
                     world.cloud.provider_filters(world.tw.provider)
                         .edge_count()) +
                 " edges");
}
BENCHMARK(BM_SetPermitList)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

void BM_SetQos(benchmark::State& state) {
  ApiWorld world(100);
  double quota = 1e9;
  for (auto _ : state) {
    (void)world.cloud.SetQos(world.tw.tenant, world.tw.east, quota);
    quota += 1;  // defeat any idempotence shortcut
  }
}
BENCHMARK(BM_SetQos);

void BM_DataPlaneAdmission(benchmark::State& state) {
  ApiWorld world(state.range(0));
  // Every endpoint permits endpoint 0.
  for (size_t i = 1; i < world.eips.size(); ++i) {
    PermitEntry e;
    e.source = IpPrefix::Host(world.eips[0]);
    (void)world.cloud.SetPermitList(world.eips[i], {e});
  }
  size_t i = 1;
  for (auto _ : state) {
    auto result = world.cloud.Evaluate(world.instances[0], world.eips[i],
                                       443, Protocol::kTcp);
    benchmark::DoNotOptimize(result);
    i = (i + 1) % world.eips.size();
    if (i == 0) {
      i = 1;
    }
  }
  state.SetLabel(std::to_string(state.range(0)) + " endpoints with lists");
}
BENCHMARK(BM_DataPlaneAdmission)->Arg(100)->Arg(10000);

void BM_SipResolve(benchmark::State& state) {
  ApiWorld world(state.range(0));
  IpAddress sip = *world.cloud.RequestSip(world.tw.tenant, world.tw.provider);
  for (const IpAddress& eip : world.eips) {
    (void)world.cloud.Bind(eip, sip);
  }
  for (auto _ : state) {
    auto backend = world.cloud.sip_lb().Resolve(sip);
    benchmark::DoNotOptimize(backend);
  }
  state.SetLabel(std::to_string(state.range(0)) + " backends");
}
BENCHMARK(BM_SipResolve)->Arg(4)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace tenantnet

// google-benchmark takes its --benchmark_* flags first; the rest go through the
// shared bench parser, so --smoke is accepted (it changes nothing here) and
// anything else is refused.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  tenantnet::ParseBenchArgs(argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
