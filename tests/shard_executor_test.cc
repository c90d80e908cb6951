// Differential determinism tests for ShardExecutor.
//
// The executor's contract is byte-identical results for any thread count:
// shard assignment, per-shard event order, outbox drain order, and the
// epoch schedule depend only on the topology and the call sequence. These
// tests drive three scenarios (storm, churn, migration) over a
// multi-component topology at 1/2/4/8 threads and compare replay
// fingerprints — a hash of the full observable callback stream plus every
// aggregate counter printed at maximum precision — against the 1-thread
// run. A fingerprint mismatch of even one bit fails.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <algorithm>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/sim/event_queue.h"
#include "src/sim/flow_sim.h"
#include "src/sim/shard_executor.h"
#include "src/sim/topology.h"

namespace tenantnet {
namespace {

constexpr int kIslands = 8;
constexpr int kNodesPerIsland = 5;  // 4 forward links per island chain

// Disjoint island chains: island i is n0-n1-...-n4 with duplex links.
// Returns the forward link chain of each island.
Topology BuildIslands(std::vector<std::vector<LinkId>>* island_links) {
  Topology topo;
  island_links->clear();
  for (int island = 0; island < kIslands; ++island) {
    std::vector<NodeId> nodes;
    for (int n = 0; n < kNodesPerIsland; ++n) {
      NodeInfo info;
      info.name = "i" + std::to_string(island) + "n" + std::to_string(n);
      info.domain = "island" + std::to_string(island);
      nodes.push_back(topo.AddNode(info));
    }
    std::vector<LinkId> forward;
    for (int n = 0; n + 1 < kNodesPerIsland; ++n) {
      LinkInfo link;
      link.src = nodes[n];
      link.dst = nodes[n + 1];
      link.capacity_bps = 10e9;
      link.delay = SimDuration::Millis(1);
      forward.push_back(topo.AddDuplexLink(link).first);
    }
    island_links->push_back(std::move(forward));
  }
  return topo;
}

// FNV-1a over 64-bit words; doubles are hashed by bit pattern, so any
// floating-point divergence (even in the last ulp) changes the hash.
class EventLog {
 public:
  void Mix(uint64_t word) {
    hash_ ^= word;
    hash_ *= 1099511628211ull;
    ++events_;
  }
  void Mix(double value) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    Mix(bits);
  }
  void MixEvent(uint64_t tag, FlowId id, SimTime when) {
    Mix(tag);
    Mix(id.value());
    Mix(static_cast<uint64_t>(when.nanos()));
  }
  uint64_t hash() const { return hash_; }
  uint64_t events() const { return events_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
  uint64_t events_ = 0;
};

enum EventTag : uint64_t {
  kComplete = 1,
  kAbort = 2,
  kCancelStatus = 3,
  kProbe = 4,
  kFault = 5,
};

struct Driver {
  EventQueue control;
  Topology topo;
  std::vector<std::vector<LinkId>> islands;
  std::unique_ptr<ShardExecutor> exec;
  EventLog log;
  std::vector<FlowId> live;  // flows started and not yet seen finishing

  explicit Driver(int num_threads) {
    topo = BuildIslands(&islands);
    ShardExecutor::Options opts;
    opts.num_threads = num_threads;
    opts.epoch_quantum = SimDuration::Millis(5);
    exec = std::make_unique<ShardExecutor>(control, topo, opts);
  }

  // A sub-path of `island`'s forward chain.
  std::vector<LinkId> Path(Rng& rng, int island) {
    const std::vector<LinkId>& chain = islands[island];
    size_t first = rng.NextU64(chain.size());
    size_t last = first + rng.NextU64(chain.size() - first);
    return std::vector<LinkId>(chain.begin() + first,
                               chain.begin() + last + 1);
  }

  FlowId StartLogged(std::vector<LinkId> path, double bytes, double weight,
                     bool with_abort) {
    FlowControlSurface::AbortFn on_abort;
    if (with_abort) {
      on_abort = [this](FlowId id, SimTime when) {
        log.MixEvent(kAbort, id, when);
      };
    }
    FlowId id = exec->StartFlow(
        std::move(path), bytes,
        [this](FlowId fid, SimTime when) { log.MixEvent(kComplete, fid, when); },
        weight, std::numeric_limits<double>::infinity(), std::move(on_abort));
    live.push_back(id);
    return id;
  }

  void Probe() {
    log.Mix(kProbe);
    log.Mix(static_cast<uint64_t>(exec->active_flow_count()));
    log.Mix(exec->total_bytes_delivered());
    log.Mix(static_cast<uint64_t>(exec->stalled_flow_count()));
    log.Mix(exec->bytes_blackholed());
  }

  std::string Fingerprint() {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "events=%llu hash=%016llx active=%llu bytes=%.17g aborted=%llu "
        "blackholed=%llu bytes_bh=%.17g stalled=%llu reallocs=%llu "
        "resched=%llu epochs=%llu deferred=%llu",
        static_cast<unsigned long long>(log.events()),
        static_cast<unsigned long long>(log.hash()),
        static_cast<unsigned long long>(exec->active_flow_count()),
        exec->total_bytes_delivered(),
        static_cast<unsigned long long>(exec->flows_aborted()),
        static_cast<unsigned long long>(exec->flows_blackholed()),
        exec->bytes_blackholed(),
        static_cast<unsigned long long>(exec->stalled_flow_count()),
        static_cast<unsigned long long>(exec->reallocation_count()),
        static_cast<unsigned long long>(exec->flows_rescheduled()),
        static_cast<unsigned long long>(exec->epochs_run()),
        static_cast<unsigned long long>(exec->callbacks_deferred()));
    return buf;
  }
};

// Storm: a burst of finite flows racing link faults. Half the flows carry
// abort handlers (killed by faults), half blackhole and recover.
std::string RunStorm(uint64_t seed, int num_threads) {
  Driver d(num_threads);
  Rng rng(seed);
  for (int i = 0; i < 200; ++i) {
    double at_ms = rng.NextDouble(0.0, 2000.0);
    int island = static_cast<int>(rng.NextU64(kIslands));
    auto path = d.Path(rng, island);
    double bytes = rng.NextDouble(1e5, 5e7);
    double weight = rng.NextDouble(0.5, 4.0);
    bool with_abort = rng.NextBool(0.5);
    d.control.ScheduleAt(
        SimTime::FromSeconds(at_ms / 1e3),
        [&d, path, bytes, weight, with_abort]() mutable {
          d.StartLogged(std::move(path), bytes, weight, with_abort);
        });
  }
  for (int i = 0; i < 40; ++i) {
    double down_ms = rng.NextDouble(100.0, 1500.0);
    double up_ms = down_ms + rng.NextDouble(20.0, 400.0);
    int island = static_cast<int>(rng.NextU64(kIslands));
    LinkId link =
        d.islands[island][rng.NextU64(d.islands[island].size())];
    d.control.ScheduleAt(SimTime::FromSeconds(down_ms / 1e3), [&d, link] {
      d.log.Mix(kFault);
      d.log.Mix(link.value());
      (void)d.exec->SetLinkUp(link, false);
    });
    d.control.ScheduleAt(SimTime::FromSeconds(up_ms / 1e3), [&d, link] {
      (void)d.exec->SetLinkUp(link, true);
    });
  }
  for (int ms = 250; ms <= 4000; ms += 250) {
    d.control.ScheduleAt(SimTime::FromSeconds(ms / 1e3), [&d] { d.Probe(); });
  }
  d.exec->RunUntil(SimTime::FromSeconds(60.0));
  return d.Fingerprint();
}

// Churn: persistent + finite flows with random cancels and cap changes.
std::string RunChurn(uint64_t seed, int num_threads) {
  Driver d(num_threads);
  Rng rng(seed);
  for (int i = 0; i < 150; ++i) {
    double at_ms = rng.NextDouble(0.0, 1000.0);
    int island = static_cast<int>(rng.NextU64(kIslands));
    auto path = d.Path(rng, island);
    bool persistent = rng.NextBool(0.4);
    double bytes = persistent ? std::numeric_limits<double>::infinity()
                              : rng.NextDouble(1e6, 1e8);
    double weight = rng.NextDouble(0.5, 2.0);
    d.control.ScheduleAt(SimTime::FromSeconds(at_ms / 1e3),
                         [&d, path, bytes, weight]() mutable {
                           d.StartLogged(std::move(path), bytes, weight,
                                         /*with_abort=*/false);
                         });
  }
  for (int i = 0; i < 120; ++i) {
    double at_ms = rng.NextDouble(1000.0, 3000.0);
    uint64_t pick = rng.NextU64();
    bool cancel = rng.NextBool(0.5);
    double cap = rng.NextDouble(1e8, 5e9);
    d.control.ScheduleAt(
        SimTime::FromSeconds(at_ms / 1e3), [&d, pick, cancel, cap] {
          if (d.live.empty()) {
            return;
          }
          FlowId target = d.live[pick % d.live.size()];
          if (cancel) {
            Status st = d.exec->CancelFlow(target);
            d.log.MixEvent(kCancelStatus, target,
                           d.control.now());
            d.log.Mix(static_cast<uint64_t>(st.ok() ? 1 : 0));
          } else {
            (void)d.exec->SetRateCap(target, cap);
          }
        });
  }
  for (int ms = 500; ms <= 5000; ms += 500) {
    d.control.ScheduleAt(SimTime::FromSeconds(ms / 1e3), [&d] { d.Probe(); });
  }
  d.exec->RunUntil(SimTime::FromSeconds(60.0));
  return d.Fingerprint();
}

// Migration: persistent flows hop island to island (cancel + restart on the
// next island), exercising cross-shard flow lifecycle on one global id
// space while each hop lands on a different shard.
std::string RunMigration(uint64_t seed, int num_threads) {
  Driver d(num_threads);
  Rng rng(seed);
  struct Hop {
    double at_ms;
    int island;
    double weight;
    uint64_t path_salt;
  };
  // 40 tenants × 6 hops each.
  for (int tenant = 0; tenant < 40; ++tenant) {
    int island = static_cast<int>(rng.NextU64(kIslands));
    double weight = rng.NextDouble(0.5, 3.0);
    auto slot = std::make_shared<FlowId>();
    double at_ms = rng.NextDouble(0.0, 200.0);
    for (int hop = 0; hop < 6; ++hop) {
      Rng hop_rng(rng.NextU64());
      auto path = d.Path(hop_rng, island);
      d.control.ScheduleAt(
          SimTime::FromSeconds(at_ms / 1e3), [&d, slot, path, weight] {
            if (slot->valid()) {
              Status st = d.exec->CancelFlow(*slot);
              d.log.MixEvent(kCancelStatus, *slot, d.control.now());
              d.log.Mix(static_cast<uint64_t>(st.ok() ? 1 : 0));
            }
            *slot = d.exec->StartPersistentFlow(path, weight);
            d.live.push_back(*slot);
          });
      island = (island + 1) % kIslands;
      at_ms += rng.NextDouble(100.0, 600.0);
    }
  }
  // Rate probes between hops: CurrentRate feeds the hash, so the max-min
  // allocation itself must match bit-for-bit across thread counts.
  for (int ms = 100; ms <= 4000; ms += 100) {
    uint64_t pick = rng.NextU64();
    d.control.ScheduleAt(SimTime::FromSeconds(ms / 1e3), [&d, pick] {
      d.Probe();
      if (!d.live.empty()) {
        FlowId target = d.live[pick % d.live.size()];
        auto rate = d.exec->CurrentRate(target);
        d.log.Mix(rate.ok() ? *rate : -1.0);
      }
    });
  }
  d.exec->RunUntil(SimTime::FromSeconds(30.0));
  return d.Fingerprint();
}

using ScenarioFn = std::string (*)(uint64_t, int);

struct Scenario {
  const char* name;
  ScenarioFn run;
};

constexpr Scenario kScenarios[] = {
    {"storm", RunStorm},
    {"churn", RunChurn},
    {"migration", RunMigration},
};

TEST(ShardExecutorDifferentialTest, ThreadCountNeverChangesTheFingerprint) {
  for (const Scenario& scenario : kScenarios) {
    for (uint64_t seed : {11ull, 42ull, 1337ull}) {
      SCOPED_TRACE(std::string(scenario.name) + " seed=" +
                   std::to_string(seed));
      std::string base = scenario.run(seed, 1);
      for (int threads : {2, 4, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EXPECT_EQ(base, scenario.run(seed, threads));
      }
    }
  }
}

TEST(ShardExecutorDifferentialTest, RerunningTheSameConfigIsStable) {
  for (const Scenario& scenario : kScenarios) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(scenario.name) + " threads=" +
                   std::to_string(threads));
      EXPECT_EQ(scenario.run(7, threads), scenario.run(7, threads));
    }
  }
}

TEST(ShardExecutorTest, ComponentsArePartitionedDeterministically) {
  std::vector<std::vector<LinkId>> islands;
  Topology topo = BuildIslands(&islands);
  TopologyComponents comp = ComputeTopologyComponents(topo);
  EXPECT_EQ(comp.count, static_cast<uint32_t>(kIslands));
  // Component numbering follows ascending smallest node index: island i's
  // nodes were added i-th, so its component number is exactly i.
  for (int island = 0; island < kIslands; ++island) {
    for (int n = 0; n < kNodesPerIsland; ++n) {
      EXPECT_EQ(comp.node_component[island * kNodesPerIsland + n],
                static_cast<uint32_t>(island));
    }
    for (LinkId link : islands[island]) {
      EXPECT_EQ(comp.link_component[Topology::DenseLinkIndex(link)],
                static_cast<uint32_t>(island));
    }
  }
}

TEST(ShardExecutorTest, SingleFlowBehavesLikeFlowSim) {
  EventQueue control;
  std::vector<std::vector<LinkId>> islands;
  Topology topo = BuildIslands(&islands);
  ShardExecutor::Options opts;
  opts.num_threads = 4;
  ShardExecutor exec(control, topo, opts);

  // 10 Gb/s chain, 1 GB transfer => 0.8 s.
  SimTime done = SimTime::Epoch();
  FlowId id = exec.StartFlow(
      {islands[0][0]}, 1e9,
      [&done](FlowId, SimTime when) { done = when; });
  ASSERT_NE(exec.FindFlow(id), nullptr);
  auto rate = exec.CurrentRate(id);
  ASSERT_TRUE(rate.ok());
  EXPECT_DOUBLE_EQ(*rate, 10e9);
  exec.RunUntil(SimTime::FromSeconds(10));
  EXPECT_DOUBLE_EQ(done.ToSeconds(), 0.8);
  EXPECT_EQ(exec.FindFlow(id), nullptr);
  EXPECT_DOUBLE_EQ(exec.total_bytes_delivered(), 1e9);
  EXPECT_EQ(exec.active_flow_count(), 0u);
}

// An EndBatch with no open batch is refused, not underflowed: flows started
// afterwards get their rate at once. Checked without assert, so it holds in
// Release builds too.
TEST(ShardExecutorTest, UnmatchedEndBatchIsACountedNoOp) {
  EventQueue control;
  std::vector<std::vector<LinkId>> islands;
  Topology topo = BuildIslands(&islands);
  ShardExecutor::Options opts;
  opts.num_threads = 2;
  ShardExecutor exec(control, topo, opts);

  exec.EndBatch();
  EXPECT_EQ(exec.unmatched_end_batches(), 1u);
  FlowId id = exec.StartFlow({islands[0][0]}, 1e9, nullptr);
  EXPECT_DOUBLE_EQ(*exec.CurrentRate(id), 10e9);
  exec.BeginBatch();
  FlowId batched = exec.StartFlow({islands[1][0]}, 1e9, nullptr);
  EXPECT_DOUBLE_EQ(*exec.CurrentRate(batched), 0.0);
  exec.EndBatch();
  EXPECT_DOUBLE_EQ(*exec.CurrentRate(batched), 10e9);
  EXPECT_EQ(exec.unmatched_end_batches(), 1u);
  exec.RunAll();
  EXPECT_EQ(exec.active_flow_count(), 0u);
}

// RunUntil inside an open batch is refused in every build, since the
// batch's reallocations have not run: nothing fires, no clock moves, and
// the call is counted. After EndBatch the same call runs.
TEST(ShardExecutorTest, RunUntilInsideABatchIsRefused) {
  EventQueue control;
  std::vector<std::vector<LinkId>> islands;
  Topology topo = BuildIslands(&islands);
  ShardExecutor::Options opts;
  opts.num_threads = 2;
  ShardExecutor exec(control, topo, opts);
  int completions = 0;
  int control_fired = 0;
  control.ScheduleAt(SimTime::FromSeconds(0.1), [&] { ++control_fired; });
  exec.BeginBatch();
  exec.StartFlow({islands[0][0]}, 1e9,
                 [&completions](FlowId, SimTime) { ++completions; });
  EXPECT_EQ(exec.RunUntil(SimTime::FromSeconds(10)), 0u);
  EXPECT_EQ(exec.RunAll(), 0u);
  EXPECT_EQ(exec.runs_in_batch(), 2u);
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(control_fired, 0);
  EXPECT_EQ(exec.now(), SimTime::Epoch());
  exec.EndBatch();
  EXPECT_GT(exec.RunUntil(SimTime::FromSeconds(10)), 0u);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(control_fired, 1);
  EXPECT_EQ(exec.runs_in_batch(), 2u);
}

// The executor refuses what FlowSim refuses, before it spends a global
// id: no mapping, no shard flow, no callback.
TEST(ShardExecutorTest, InvalidStartsAreRefused) {
  EventQueue control;
  std::vector<std::vector<LinkId>> islands;
  Topology topo = BuildIslands(&islands);
  ShardExecutor::Options opts;
  opts.num_threads = 2;
  ShardExecutor exec(control, topo, opts);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  int callbacks = 0;
  auto count = [&callbacks](FlowId, SimTime) { ++callbacks; };
  const std::vector<std::pair<double, double>> refused = {
      {-1.0, 1.0}, {nan, 1.0}, {1e6, 0.0}, {1e6, -2.0}, {1e6, nan}};
  for (auto [bytes, weight] : refused) {
    EXPECT_FALSE(exec.StartFlow({islands[0][0], islands[0][1]}, bytes, count,
                                weight,
                                std::numeric_limits<double>::infinity(), count)
                     .valid())
        << bytes << " bytes, weight " << weight;
  }
  EXPECT_FALSE(exec.StartPersistentFlow({islands[1][0]}, 0.0).valid());
  EXPECT_EQ(exec.active_flow_count(), 0u);
  EXPECT_EQ(exec.reallocation_count(), 0u);
  EXPECT_EQ(exec.shared_link_count(), 0u);
  EXPECT_EQ(exec.RunAll(), 0u);
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(exec.StartFlow({islands[0][0]}, 1e6, count), FlowId(1));
  exec.RunAll();
  EXPECT_EQ(callbacks, 1);
}

TEST(ShardExecutorTest, FaultsLandOnTheOwningShard) {
  EventQueue control;
  std::vector<std::vector<LinkId>> islands;
  Topology topo = BuildIslands(&islands);
  ShardExecutor::Options opts;
  opts.num_threads = 2;
  ShardExecutor exec(control, topo, opts);

  bool aborted = false;
  exec.StartFlow(
      {islands[2][0]}, 1e12, [](FlowId, SimTime) {}, 1.0,
      std::numeric_limits<double>::infinity(),
      [&aborted](FlowId, SimTime) { aborted = true; });
  FlowId stalls = exec.StartFlow({islands[3][0]}, 1e12, [](FlowId, SimTime) {});

  control.ScheduleAt(SimTime::FromSeconds(1), [&exec, &islands] {
    (void)exec.SetLinkUp(islands[2][0], false);
    (void)exec.SetLinkUp(islands[3][0], false);
  });
  exec.RunUntil(SimTime::FromSeconds(2));
  EXPECT_TRUE(aborted);
  EXPECT_EQ(exec.flows_aborted(), 1u);
  EXPECT_EQ(exec.flows_blackholed(), 1u);
  EXPECT_EQ(exec.stalled_flow_count(), 1u);
  EXPECT_FALSE(exec.IsLinkUp(islands[2][0]));

  control.ScheduleAt(SimTime::FromSeconds(3), [&exec, &islands] {
    (void)exec.SetLinkUp(islands[3][0], true);
  });
  exec.RunUntil(SimTime::FromSeconds(4));
  EXPECT_EQ(exec.stalled_flow_count(), 0u);
  auto rate = exec.CurrentRate(stalls);
  ASSERT_TRUE(rate.ok());
  EXPECT_GT(*rate, 0.0);
}

// --- Cross-shard (giant-component) scenarios --------------------------------
//
// One WAN-stitched component: R regions of `hosts` hosts behind a hub, hubs
// chained into a ring of backbone links. A link-cut partition splits this
// at the WAN links, so intra-region flows stay inside one shard while
// region-to-region flows *cross* shards and exercise the capacity-lease
// machinery. The differential contract is the same as for islands:
// byte-identical fingerprints for any thread count.

constexpr int kRegions = 6;
constexpr int kHostsPerRegion = 6;

struct WanRegions {
  Topology topo;
  // Per region: up[h] = host h -> hub, down[h] = hub -> host h.
  std::vector<std::vector<LinkId>> up, down;
  // wan_fwd[r] = hub r -> hub r+1 (mod R); wan_back[r] the reverse.
  std::vector<LinkId> wan_fwd, wan_back;
};

WanRegions BuildWanRegions() {
  WanRegions w;
  std::vector<NodeId> hubs;
  for (int r = 0; r < kRegions; ++r) {
    NodeInfo hub_info;
    hub_info.name = "hub" + std::to_string(r);
    hub_info.domain = "region" + std::to_string(r);
    NodeId hub = w.topo.AddNode(hub_info);
    hubs.push_back(hub);
    w.up.emplace_back();
    w.down.emplace_back();
    for (int h = 0; h < kHostsPerRegion; ++h) {
      NodeInfo info;
      info.name = "r" + std::to_string(r) + "h" + std::to_string(h);
      info.domain = hub_info.domain;
      NodeId host = w.topo.AddNode(info);
      LinkInfo link;
      link.src = hub;
      link.dst = host;
      link.capacity_bps = 10e9;
      link.delay = SimDuration::Micros(50);
      auto pair = w.topo.AddDuplexLink(link);
      w.down[r].push_back(pair.first);
      w.up[r].push_back(pair.second);
    }
  }
  for (int r = 0; r < kRegions; ++r) {
    LinkInfo link;
    link.src = hubs[r];
    link.dst = hubs[(r + 1) % kRegions];
    link.capacity_bps = 40e9;  // WAN trunk: fat but contended by crossings
    link.delay = SimDuration::Millis(10);
    auto pair = w.topo.AddDuplexLink(link);
    w.wan_fwd.push_back(pair.first);
    w.wan_back.push_back(pair.second);
  }
  return w;
}

struct CrossDriver {
  EventQueue control;
  WanRegions wan;
  std::unique_ptr<ShardExecutor> exec;
  EventLog log;
  std::vector<FlowId> live;

  explicit CrossDriver(int num_threads) : wan(BuildWanRegions()) {
    ShardExecutor::Options opts;
    opts.num_threads = num_threads;
    opts.num_shards = kRegions;  // cut at the WAN ring
    opts.epoch_quantum = SimDuration::Millis(5);
    exec = std::make_unique<ShardExecutor>(control, wan.topo, opts);
  }

  // Intra-region: host a -> hub -> host b. One shard, no leases.
  std::vector<LinkId> IntraPath(Rng& rng) {
    int r = static_cast<int>(rng.NextU64(kRegions));
    int a = static_cast<int>(rng.NextU64(kHostsPerRegion));
    int b = static_cast<int>(rng.NextU64(kHostsPerRegion));
    return {wan.up[r][a], wan.down[r][b]};
  }

  // Crossing: host -> hub_r -> (1 or 2 WAN hops) -> hub_r' -> host. The WAN
  // links are border links; with flows homed on several shards they become
  // epoch-synchronized shared resources.
  std::vector<LinkId> CrossPath(Rng& rng) {
    int r = static_cast<int>(rng.NextU64(kRegions));
    int hops = rng.NextBool(0.3) ? 2 : 1;
    int a = static_cast<int>(rng.NextU64(kHostsPerRegion));
    int b = static_cast<int>(rng.NextU64(kHostsPerRegion));
    std::vector<LinkId> path{wan.up[r][a]};
    int at = r;
    for (int hop = 0; hop < hops; ++hop) {
      path.push_back(wan.wan_fwd[at]);
      at = (at + 1) % kRegions;
    }
    path.push_back(wan.down[at][b]);
    return path;
  }

  FlowId StartLogged(std::vector<LinkId> path, double bytes, double weight,
                     bool with_abort) {
    FlowControlSurface::AbortFn on_abort;
    if (with_abort) {
      on_abort = [this](FlowId id, SimTime when) {
        log.MixEvent(kAbort, id, when);
      };
    }
    FlowId id = exec->StartFlow(
        std::move(path), bytes,
        [this](FlowId fid, SimTime when) { log.MixEvent(kComplete, fid, when); },
        weight, std::numeric_limits<double>::infinity(), std::move(on_abort));
    live.push_back(id);
    return id;
  }

  void Probe() {
    log.Mix(kProbe);
    log.Mix(static_cast<uint64_t>(exec->active_flow_count()));
    log.Mix(exec->total_bytes_delivered());
    log.Mix(static_cast<uint64_t>(exec->stalled_flow_count()));
    log.Mix(exec->bytes_blackholed());
    log.Mix(static_cast<uint64_t>(exec->crossing_flow_count()));
    log.Mix(static_cast<uint64_t>(exec->shared_link_count()));
    // Utilization of a WAN trunk folds every shard's allocation into the
    // hash, so lease splits themselves must be bit-identical.
    log.Mix(exec->LinkUtilization(wan.wan_fwd[0]));
  }

  std::string Fingerprint() {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "events=%llu hash=%016llx active=%llu bytes=%.17g aborted=%llu "
        "blackholed=%llu bytes_bh=%.17g stalled=%llu reallocs=%llu "
        "resched=%llu epochs=%llu deferred=%llu leases=%llu splits=%llu",
        static_cast<unsigned long long>(log.events()),
        static_cast<unsigned long long>(log.hash()),
        static_cast<unsigned long long>(exec->active_flow_count()),
        exec->total_bytes_delivered(),
        static_cast<unsigned long long>(exec->flows_aborted()),
        static_cast<unsigned long long>(exec->flows_blackholed()),
        exec->bytes_blackholed(),
        static_cast<unsigned long long>(exec->stalled_flow_count()),
        static_cast<unsigned long long>(exec->reallocation_count()),
        static_cast<unsigned long long>(exec->flows_rescheduled()),
        static_cast<unsigned long long>(exec->epochs_run()),
        static_cast<unsigned long long>(exec->callbacks_deferred()),
        static_cast<unsigned long long>(exec->lease_reconciliations()),
        static_cast<unsigned long long>(exec->leases_applied()));
    return buf;
  }
};

// Crossing storm: intra + crossing flows racing faults on border (WAN) and
// host links. Crossing flows with abort handlers get killed mid-epoch when
// their WAN hop goes down; the rest blackhole and recover.
std::string RunCrossStorm(uint64_t seed, int num_threads) {
  CrossDriver d(num_threads);
  Rng rng(seed);
  for (int i = 0; i < 160; ++i) {
    double at_ms = rng.NextDouble(0.0, 1500.0);
    bool crossing = rng.NextBool(0.4);
    auto path = crossing ? d.CrossPath(rng) : d.IntraPath(rng);
    double bytes = rng.NextDouble(1e5, 5e7);
    double weight = rng.NextDouble(0.5, 4.0);
    bool with_abort = rng.NextBool(0.5);
    d.control.ScheduleAt(SimTime::FromSeconds(at_ms / 1e3),
                         [&d, path, bytes, weight, with_abort]() mutable {
                           d.StartLogged(std::move(path), bytes, weight,
                                         with_abort);
                         });
  }
  // Faults: 2/3 on WAN trunks (border links), 1/3 on host links.
  for (int i = 0; i < 30; ++i) {
    double down_ms = rng.NextDouble(100.0, 1200.0);
    double up_ms = down_ms + rng.NextDouble(20.0, 300.0);
    LinkId link;
    if (rng.NextBool(0.67)) {
      link = d.wan.wan_fwd[rng.NextU64(kRegions)];
    } else {
      int r = static_cast<int>(rng.NextU64(kRegions));
      link = d.wan.up[r][rng.NextU64(kHostsPerRegion)];
    }
    d.control.ScheduleAt(SimTime::FromSeconds(down_ms / 1e3), [&d, link] {
      d.log.Mix(kFault);
      d.log.Mix(link.value());
      (void)d.exec->SetLinkUp(link, false);
    });
    d.control.ScheduleAt(SimTime::FromSeconds(up_ms / 1e3), [&d, link] {
      (void)d.exec->SetLinkUp(link, true);
    });
  }
  for (int ms = 200; ms <= 3000; ms += 200) {
    d.control.ScheduleAt(SimTime::FromSeconds(ms / 1e3), [&d] { d.Probe(); });
  }
  d.exec->RunUntil(SimTime::FromSeconds(60.0));
  return d.Fingerprint();
}

// Crossing churn: persistent + finite crossing flows with cancels and cap
// changes, so shared-link demand (weights, finite-cap sums, uncapped
// counts) churns every epoch.
std::string RunCrossChurn(uint64_t seed, int num_threads) {
  CrossDriver d(num_threads);
  Rng rng(seed);
  for (int i = 0; i < 120; ++i) {
    double at_ms = rng.NextDouble(0.0, 800.0);
    bool crossing = rng.NextBool(0.5);
    auto path = crossing ? d.CrossPath(rng) : d.IntraPath(rng);
    bool persistent = rng.NextBool(0.35);
    double bytes = persistent ? std::numeric_limits<double>::infinity()
                              : rng.NextDouble(1e6, 1e8);
    double weight = rng.NextDouble(0.5, 2.0);
    d.control.ScheduleAt(SimTime::FromSeconds(at_ms / 1e3),
                         [&d, path, bytes, weight]() mutable {
                           d.StartLogged(std::move(path), bytes, weight,
                                         /*with_abort=*/false);
                         });
  }
  for (int i = 0; i < 100; ++i) {
    double at_ms = rng.NextDouble(800.0, 2500.0);
    uint64_t pick = rng.NextU64();
    bool cancel = rng.NextBool(0.5);
    double cap = rng.NextDouble(1e8, 5e9);
    d.control.ScheduleAt(
        SimTime::FromSeconds(at_ms / 1e3), [&d, pick, cancel, cap] {
          if (d.live.empty()) {
            return;
          }
          FlowId target = d.live[pick % d.live.size()];
          if (cancel) {
            Status st = d.exec->CancelFlow(target);
            d.log.MixEvent(kCancelStatus, target, d.control.now());
            d.log.Mix(static_cast<uint64_t>(st.ok() ? 1 : 0));
          } else {
            (void)d.exec->SetRateCap(target, cap);
          }
        });
  }
  for (int ms = 400; ms <= 4000; ms += 400) {
    uint64_t pick = rng.NextU64();
    d.control.ScheduleAt(SimTime::FromSeconds(ms / 1e3), [&d, pick] {
      d.Probe();
      if (!d.live.empty()) {
        FlowId target = d.live[pick % d.live.size()];
        auto rate = d.exec->CurrentRate(target);
        d.log.Mix(rate.ok() ? *rate : -1.0);
      }
    });
  }
  d.exec->RunUntil(SimTime::FromSeconds(60.0));
  return d.Fingerprint();
}

constexpr Scenario kCrossScenarios[] = {
    {"cross_storm", RunCrossStorm},
    {"cross_churn", RunCrossChurn},
};

TEST(CrossShardDifferentialTest, ThreadCountNeverChangesTheFingerprint) {
  for (const Scenario& scenario : kCrossScenarios) {
    for (uint64_t seed : {11ull, 42ull, 1337ull}) {
      SCOPED_TRACE(std::string(scenario.name) + " seed=" +
                   std::to_string(seed));
      std::string base = scenario.run(seed, 1);
      for (int threads : {2, 4, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EXPECT_EQ(base, scenario.run(seed, threads));
      }
    }
  }
}

// The partition cuts the WAN ring: every shard is a region, the border
// links are exactly the WAN trunks, and crossing flows are tracked.
TEST(CrossShardTest, WanRingIsCutAtTheTrunks) {
  CrossDriver d(2);
  EXPECT_EQ(d.exec->shard_count(), static_cast<size_t>(kRegions));
  const LinkCutPartition& part = d.exec->partition();
  EXPECT_GT(part.border_link_count, 0u);
  // Host fan-out links never cross a part boundary (a host has exactly one
  // neighbor, its hub, so refinement keeps them together).
  for (int r = 0; r < kRegions; ++r) {
    for (int h = 0; h < kHostsPerRegion; ++h) {
      EXPECT_FALSE(part.link_is_border[Topology::DenseLinkIndex(d.wan.up[r][h])]);
      EXPECT_FALSE(
          part.link_is_border[Topology::DenseLinkIndex(d.wan.down[r][h])]);
    }
  }
  // A crossing flow is homed on exactly one shard and counted.
  FlowId id = d.exec->StartPersistentFlow(
      {d.wan.up[0][0], d.wan.wan_fwd[0], d.wan.down[1][0]});
  EXPECT_EQ(d.exec->crossing_flow_count(), 1u);
  ASSERT_NE(d.exec->FindFlow(id), nullptr);
  (void)d.exec->CancelFlow(id);
  EXPECT_EQ(d.exec->crossing_flow_count(), 0u);
}

// A crossing flow whose WAN hop faults mid-epoch: the abort handler fires
// (deferred to the barrier), the flow is reclaimed, and the shared link's
// lease is released so the surviving shard gets the full trunk back.
TEST(CrossShardTest, BorderFaultAbortsCrossingFlowMidEpoch) {
  CrossDriver d(4);
  bool aborted = false;
  SimTime abort_when = SimTime::Epoch();
  d.exec->StartFlow(
      {d.wan.up[0][0], d.wan.wan_fwd[0], d.wan.down[1][0]}, 1e12,
      [](FlowId, SimTime) {}, 1.0, std::numeric_limits<double>::infinity(),
      [&](FlowId, SimTime when) {
        aborted = true;
        abort_when = when;
      });
  // A second crossing flow homed on another shard keeps the trunk shared.
  FlowId survivor = d.exec->StartFlow(
      {d.wan.up[1][1], d.wan.wan_back[0], d.wan.down[0][1]}, 1e12,
      [](FlowId, SimTime) {});
  d.control.ScheduleAt(SimTime::FromSeconds(1), [&d] {
    (void)d.exec->SetLinkUp(d.wan.wan_fwd[0], false);
  });
  d.exec->RunUntil(SimTime::FromSeconds(2));
  EXPECT_TRUE(aborted);
  EXPECT_EQ(abort_when.ToSeconds(), 1.0);
  EXPECT_EQ(d.exec->flows_aborted(), 1u);
  EXPECT_EQ(d.exec->crossing_flow_count(), 1u);
  // The survivor (on wan_back, unaffected by the wan_fwd fault) still runs.
  auto rate = d.exec->CurrentRate(survivor);
  ASSERT_TRUE(rate.ok());
  EXPECT_GT(*rate, 0.0);
}

// Satellite: a single giant component must not collapse to one shard (the
// old component-modulo placement left num_threads-1 workers idle). The
// default heuristic sizes shards from the partitioner target.
TEST(CrossShardTest, GiantComponentStillGetsMultipleShards) {
  WanRegions wan = BuildWanRegions();
  ASSERT_EQ(ComputeTopologyComponents(wan.topo).count, 1u);
  EventQueue control;
  ShardExecutor::Options opts;
  opts.num_threads = 4;
  opts.num_shards = 0;  // heuristic: min(32, max(1, ceil(42/32))) = 2
  ShardExecutor exec(control, wan.topo, opts);
  EXPECT_GE(exec.shard_count(), 2u);
  EXPECT_EQ(exec.shard_count(), static_cast<size_t>(exec.partition().count));

  // And the executor still simulates correctly: one flow per region pair,
  // all complete.
  int completions = 0;
  for (int r = 0; r < kRegions; ++r) {
    exec.StartFlow({wan.up[r][0], wan.wan_fwd[r], wan.down[(r + 1) % kRegions][0]},
                   1e9, [&completions](FlowId, SimTime) { ++completions; });
  }
  exec.RunUntil(SimTime::FromSeconds(30));
  EXPECT_EQ(completions, kRegions);
  EXPECT_EQ(exec.active_flow_count(), 0u);
}

// Semantic differential vs the unsharded FlowSim. Sharded results are NOT
// byte-identical to FlowSim (leases quantize shared capacity per epoch) but
// must be (a) feasible — summing every live flow's rate over each link
// never exceeds its capacity — and (b) complete: with the same finite
// workload run to quiescence, both engines deliver exactly the same bytes,
// and the executor's makespan stays within a small factor of FlowSim's.
TEST(CrossShardTest, LeasedCapacityIsFeasibleAndWorkConserving) {
  struct Planned {
    double at_ms;
    std::vector<LinkId> path;
    double bytes;
    double weight;
  };
  WanRegions wan = BuildWanRegions();
  std::vector<Planned> plan;
  Rng rng(99);
  for (int i = 0; i < 80; ++i) {
    Planned p;
    p.at_ms = rng.NextDouble(0.0, 500.0);
    int r = static_cast<int>(rng.NextU64(kRegions));
    int a = static_cast<int>(rng.NextU64(kHostsPerRegion));
    int b = static_cast<int>(rng.NextU64(kHostsPerRegion));
    if (rng.NextBool(0.5)) {
      p.path = {wan.up[r][a], wan.wan_fwd[r], wan.down[(r + 1) % kRegions][b]};
    } else {
      p.path = {wan.up[r][a], wan.down[r][b]};
    }
    p.bytes = rng.NextDouble(1e6, 5e7);
    p.weight = rng.NextDouble(0.5, 2.0);
    plan.push_back(std::move(p));
  }

  struct Outcome {
    double makespan_s = 0;
    int completions = 0;
    std::unordered_map<uint64_t, const Planned*> live;
  };
  // `out` must outlive the queue run: the scheduled callbacks reference it.
  auto schedule = [&plan, &wan](FlowControlSurface& surface,
                                EventQueue& control, Outcome& out,
                                bool check_feasibility) {
    for (const Planned& p : plan) {
      control.ScheduleAt(
          SimTime::FromSeconds(p.at_ms / 1e3), [&surface, &out, &p] {
            FlowId id = surface.StartFlow(
                p.path, p.bytes,
                [&out](FlowId fid, SimTime when) {
                  ++out.completions;
                  out.makespan_s = std::max(out.makespan_s, when.ToSeconds());
                  out.live.erase(fid.value());
                },
                p.weight);
            out.live.emplace(id.value(), &p);
          });
    }
    if (check_feasibility) {
      for (int ms = 50; ms <= 2000; ms += 50) {
        control.ScheduleAt(
            SimTime::FromSeconds(ms / 1e3), [&surface, &out, &wan] {
              std::unordered_map<uint64_t, double> per_link;
              for (const auto& [fid, planned] : out.live) {
                auto rate = surface.CurrentRate(FlowId(fid));
                if (!rate.ok()) {
                  continue;
                }
                for (LinkId link : planned->path) {
                  per_link[link.value()] += *rate;
                }
              }
              for (const auto& [link_value, bps] : per_link) {
                double cap = wan.topo.link(LinkId(link_value)).capacity_bps;
                EXPECT_LE(bps, cap * (1.0 + 1e-6))
                    << "link " << link_value << " oversubscribed";
              }
            });
      }
    }
  };

  EventQueue plain_q;
  FlowSim plain(plain_q, wan.topo);
  Outcome plain_out;
  schedule(plain, plain_q, plain_out, /*check_feasibility=*/false);
  plain_q.RunUntil(SimTime::FromSeconds(120));

  EventQueue exec_q;
  ShardExecutor::Options opts;
  opts.num_threads = 4;
  opts.num_shards = kRegions;
  ShardExecutor exec(exec_q, wan.topo, opts);
  Outcome exec_out;
  schedule(exec, exec_q, exec_out, /*check_feasibility=*/true);
  exec.RunUntil(SimTime::FromSeconds(120));

  EXPECT_EQ(plain_out.completions, static_cast<int>(plan.size()));
  EXPECT_EQ(exec_out.completions, static_cast<int>(plan.size()));
  // Conservative splits waste idle leased capacity within an epoch, so the
  // sharded makespan may trail the global water-fill — but must stay close.
  EXPECT_GT(exec_out.makespan_s, 0.0);
  EXPECT_LE(exec_out.makespan_s, plain_out.makespan_s * 2.0 + 0.1);
}

// Regression: RunAll() (an infinite deadline) must terminate once every
// shard queue and the control queue are drained — the epoch loop's deadline
// comparison alone never fires when both sides are Infinite.
TEST(ShardExecutorTest, RunAllTerminatesWhenQueuesDrain) {
  EventQueue control;
  std::vector<std::vector<LinkId>> islands;
  Topology topo = BuildIslands(&islands);
  ShardExecutor::Options opts;
  opts.num_threads = 4;
  ShardExecutor exec(control, topo, opts);

  SimTime done = SimTime::Epoch();
  exec.StartFlow({islands[1][0]}, 1e9,
                 [&done](FlowId, SimTime when) { done = when; });
  control.ScheduleAt(SimTime::FromSeconds(5), [] {});
  exec.RunAll();
  EXPECT_DOUBLE_EQ(done.ToSeconds(), 0.8);
  EXPECT_EQ(exec.active_flow_count(), 0u);
  EXPECT_EQ(exec.now().ToSeconds(), 5.0);
  // And again with nothing pending at all.
  EXPECT_EQ(exec.RunAll(), 0u);
}

}  // namespace
}  // namespace tenantnet
