// Tests for the fluid flow simulator: max-min fairness, caps, weights,
// completion scheduling.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/flow_sim.h"

namespace tenantnet {
namespace {

struct Line {
  EventQueue queue;
  Topology topo;
  NodeId a, b, c;
  LinkId ab, bc;

  // a --1Gbps--> b --0.5Gbps--> c
  Line() {
    a = topo.AddNode({"a", NodeKind::kHostAggregate, "x"});
    b = topo.AddNode({"b", NodeKind::kBackboneRouter, "x"});
    c = topo.AddNode({"c", NodeKind::kHostAggregate, "x"});
    ab = topo.AddLink({a, b, 1e9, SimDuration::Millis(1),
                       SimDuration::Zero(), 0, LinkClass::kDatacenter});
    bc = topo.AddLink({b, c, 0.5e9, SimDuration::Millis(1),
                       SimDuration::Zero(), 0, LinkClass::kDatacenter});
  }
};

TEST(FlowSimTest, SingleFlowGetsBottleneckRate) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  FlowId f = sim.StartPersistentFlow({w.ab, w.bc});
  EXPECT_DOUBLE_EQ(*sim.CurrentRate(f), 0.5e9);
  EXPECT_DOUBLE_EQ(sim.LinkUtilization(w.bc), 1.0);
  EXPECT_DOUBLE_EQ(sim.LinkUtilization(w.ab), 0.5);
}

TEST(FlowSimTest, TwoFlowsShareBottleneckEqually) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  FlowId f1 = sim.StartPersistentFlow({w.ab, w.bc});
  FlowId f2 = sim.StartPersistentFlow({w.ab, w.bc});
  EXPECT_NEAR(*sim.CurrentRate(f1), 0.25e9, 1);
  EXPECT_NEAR(*sim.CurrentRate(f2), 0.25e9, 1);
}

TEST(FlowSimTest, WeightsBiasTheShare) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  FlowId heavy = sim.StartPersistentFlow({w.ab, w.bc}, /*weight=*/3.0);
  FlowId light = sim.StartPersistentFlow({w.ab, w.bc}, /*weight=*/1.0);
  EXPECT_NEAR(*sim.CurrentRate(heavy), 0.375e9, 1);
  EXPECT_NEAR(*sim.CurrentRate(light), 0.125e9, 1);
}

TEST(FlowSimTest, RateCapFreesBandwidthForOthers) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  FlowId capped =
      sim.StartPersistentFlow({w.ab, w.bc}, 1.0, /*rate_cap=*/0.1e9);
  FlowId open = sim.StartPersistentFlow({w.ab, w.bc});
  EXPECT_NEAR(*sim.CurrentRate(capped), 0.1e9, 1);
  EXPECT_NEAR(*sim.CurrentRate(open), 0.4e9, 1);  // max-min gives the rest
}

TEST(FlowSimTest, MaxMinWithDistinctBottlenecks) {
  // Classic example: flows X (a->c via both links) and Y (only b->c link).
  Line w;
  FlowSim sim(w.queue, w.topo);
  FlowId x = sim.StartPersistentFlow({w.ab, w.bc});
  FlowId y = sim.StartPersistentFlow({w.bc});
  FlowId z = sim.StartPersistentFlow({w.ab});
  // bc (0.5G) is shared by x and y -> 0.25 each; z then gets the remaining
  // 0.75G of ab.
  EXPECT_NEAR(*sim.CurrentRate(x), 0.25e9, 1);
  EXPECT_NEAR(*sim.CurrentRate(y), 0.25e9, 1);
  EXPECT_NEAR(*sim.CurrentRate(z), 0.75e9, 1);
}

TEST(FlowSimTest, FiniteFlowCompletesAtPredictedTime) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  SimTime finish_time;
  bool done = false;
  // 0.5 Gbit/s bottleneck, 62.5 MB = 5e8 bits -> exactly 1 second.
  sim.StartFlow({w.ab, w.bc}, 62.5e6, [&](FlowId, SimTime t) {
    done = true;
    finish_time = t;
  });
  w.queue.RunAll();
  ASSERT_TRUE(done);
  EXPECT_NEAR(finish_time.ToSeconds(), 1.0, 1e-9);
  EXPECT_NEAR(sim.total_bytes_delivered(), 62.5e6, 1);
  EXPECT_EQ(sim.active_flow_count(), 0u);
}

TEST(FlowSimTest, CompletionRescheduledWhenContentionChanges) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  SimTime finish;
  sim.StartFlow({w.ab, w.bc}, 62.5e6,
                [&](FlowId, SimTime t) { finish = t; });
  // At t=0.5s, a competitor arrives and halves the first flow's rate.
  FlowId competitor;
  w.queue.ScheduleAt(SimTime::FromSeconds(0.5), [&] {
    competitor = sim.StartPersistentFlow({w.ab, w.bc});
  });
  w.queue.RunUntil(SimTime::FromSeconds(10));
  // First half took 0.5s at 0.5G (2.5e8 bits); remaining 2.5e8 bits at
  // 0.25G takes 1s more -> finish at 1.5s.
  EXPECT_NEAR(finish.ToSeconds(), 1.5, 1e-6);
  EXPECT_TRUE(sim.CancelFlow(competitor).ok());
}

TEST(FlowSimTest, CancelStopsDelivery) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  bool completed = false;
  FlowId f = sim.StartFlow({w.ab, w.bc}, 62.5e6,
                           [&](FlowId, SimTime) { completed = true; });
  w.queue.RunUntil(SimTime::FromSeconds(0.5));
  ASSERT_TRUE(sim.CancelFlow(f).ok());
  w.queue.RunAll();
  EXPECT_FALSE(completed);
  // Half the bytes were delivered before the cancel.
  EXPECT_NEAR(sim.total_bytes_delivered(), 31.25e6, 1e3);
}

TEST(FlowSimTest, EmptyPathCompletesImmediately) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  bool done = false;
  SimTime when;
  sim.StartFlow({}, 1e9, [&](FlowId, SimTime t) {
    done = true;
    when = t;
  });
  w.queue.RunAll();
  EXPECT_TRUE(done);
  EXPECT_EQ(when, SimTime::Epoch());
}

TEST(FlowSimTest, SetRateCapMidFlight) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  FlowId f = sim.StartPersistentFlow({w.ab, w.bc});
  EXPECT_DOUBLE_EQ(*sim.CurrentRate(f), 0.5e9);
  ASSERT_TRUE(sim.SetRateCap(f, 0.2e9).ok());
  EXPECT_DOUBLE_EQ(*sim.CurrentRate(f), 0.2e9);
  ASSERT_TRUE(sim.SetRateCap(f, 1e12).ok());
  EXPECT_DOUBLE_EQ(*sim.CurrentRate(f), 0.5e9);
}

TEST(FlowSimTest, ZeroCapStallsUntilRaised) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  bool done = false;
  FlowId f = sim.StartFlow({w.ab, w.bc}, 62.5e6,
                           [&](FlowId, SimTime) { done = true; }, 1.0,
                           /*rate_cap=*/0.0);
  w.queue.RunUntil(SimTime::FromSeconds(5));
  EXPECT_FALSE(done);
  ASSERT_TRUE(sim.SetRateCap(f, 0.5e9).ok());
  w.queue.RunAll();
  EXPECT_TRUE(done);
  // Stalled for 5s then 1s of transfer.
  EXPECT_NEAR(w.queue.now().ToSeconds(), 6.0, 1e-6);
}

TEST(FlowSimTest, QueuePenaltyGrowsWithUtilization) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  std::vector<LinkId> path{w.ab, w.bc};
  SimDuration idle = sim.QueuePenalty(path, SimDuration::Millis(1),
                                      SimDuration::Millis(50));
  sim.StartPersistentFlow(path);
  SimDuration busy = sim.QueuePenalty(path, SimDuration::Millis(1),
                                      SimDuration::Millis(50));
  EXPECT_GT(busy, idle);
  // The fully-utilized bc link hits the cap.
  EXPECT_GE(busy, SimDuration::Millis(50));
}

TEST(FlowSimTest, UnknownFlowOperationsFail) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  EXPECT_EQ(sim.CancelFlow(FlowId(999)).code(), StatusCode::kNotFound);
  EXPECT_EQ(sim.SetRateCap(FlowId(999), 1).code(), StatusCode::kNotFound);
  EXPECT_FALSE(sim.CurrentRate(FlowId(999)).ok());
  EXPECT_EQ(sim.FindFlow(FlowId(999)), nullptr);
}

// StartFlow's contract holds without assert, so in Release builds too: NaN
// or negative bytes, and a weight SetWeight would refuse, come back as
// FlowId() with nothing registered, scheduled or called back.
TEST(FlowSimTest, InvalidStartsAreRefused) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  int callbacks = 0;
  auto count = [&callbacks](FlowId, SimTime) { ++callbacks; };
  const std::vector<std::pair<double, double>> refused = {
      {-1.0, 1.0}, {nan, 1.0}, {1e6, 0.0}, {1e6, -2.0}, {1e6, nan}};
  for (auto [bytes, weight] : refused) {
    for (const std::vector<LinkId>& path :
         {std::vector<LinkId>{w.ab, w.bc}, std::vector<LinkId>{}}) {
      EXPECT_FALSE(
          sim.StartFlow(path, bytes, count, weight, inf, count).valid())
          << bytes << " bytes, weight " << weight;
    }
  }
  EXPECT_FALSE(sim.StartPersistentFlow({w.ab}, 0.0).valid());
  EXPECT_EQ(sim.active_flow_count(), 0u);
  EXPECT_EQ(sim.reallocation_count(), 0u);
  EXPECT_TRUE(w.queue.empty());
  EXPECT_EQ(w.queue.RunAll(), 0u);
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(sim.total_bytes_delivered(), 0.0);
  // No id was spent on the refused starts.
  EXPECT_EQ(sim.StartFlow({w.ab}, 1e6, count), FlowId(1));
  w.queue.RunAll();
  EXPECT_EQ(callbacks, 1);
}

// Property: on random topologies with random weighted/capped flows, the
// allocation must be (1) feasible — no link above capacity — and
// (2) max-min: every flow is either at its cap or bottlenecked at some
// saturated link where no co-located flow has a higher weight-normalized
// rate. These two conditions characterize weighted max-min fairness.
class MaxMinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaxMinPropertyTest, FeasibleAndBottlenecked) {
  Rng rng(GetParam());
  EventQueue queue;
  Topology topo;
  constexpr int kNodes = 12;
  std::vector<NodeId> nodes;
  for (int i = 0; i < kNodes; ++i) {
    nodes.push_back(topo.AddNode({"n" + std::to_string(i),
                                  NodeKind::kBackboneRouter, "x"}));
  }
  // A connected ring plus random chords.
  std::vector<LinkId> links;
  auto add_link = [&](int a, int b) {
    links.push_back(topo.AddLink(
        {nodes[a], nodes[b], 0.1e9 + rng.NextDouble() * 0.9e9,
         SimDuration::Millis(1), SimDuration::Zero(), 0,
         LinkClass::kBackbone}));
  };
  for (int i = 0; i < kNodes; ++i) {
    add_link(i, (i + 1) % kNodes);
  }
  for (int i = 0; i < 10; ++i) {
    int a = static_cast<int>(rng.NextU64(kNodes));
    int b = static_cast<int>(rng.NextU64(kNodes));
    if (a != b) {
      add_link(a, b);
    }
  }

  FlowSim sim(queue, topo);
  struct TestFlow {
    FlowId id;
    std::vector<LinkId> path;
    double weight;
    double cap;
  };
  std::vector<TestFlow> flows;
  for (int i = 0; i < 40; ++i) {
    NodeId src = nodes[rng.NextU64(kNodes)];
    NodeId dst = nodes[rng.NextU64(kNodes)];
    if (src == dst) {
      continue;
    }
    auto path = topo.ShortestPath(src, dst, Topology::DelayCost());
    if (!path.ok() || path->empty()) {
      continue;
    }
    double weight = 0.5 + rng.NextDouble() * 3.0;
    double cap = rng.NextBool(0.3)
                     ? 1e6 + rng.NextDouble() * 2e8
                     : std::numeric_limits<double>::infinity();
    FlowId id = sim.StartPersistentFlow(*path, weight, cap);
    flows.push_back({id, *path, weight, cap});
  }
  ASSERT_GT(flows.size(), 10u);

  constexpr double kRelEps = 1e-6;
  // (1) Feasibility.
  std::map<uint64_t, double> link_load;
  for (const TestFlow& flow : flows) {
    double rate = *sim.CurrentRate(flow.id);
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, flow.cap * (1 + kRelEps));
    for (LinkId link : flow.path) {
      link_load[link.value()] += rate;
    }
  }
  for (const auto& [link_value, load] : link_load) {
    double cap = topo.link(LinkId(link_value)).capacity_bps;
    EXPECT_LE(load, cap * (1 + kRelEps)) << "link " << link_value;
  }
  // (2) Bottleneck condition.
  for (const TestFlow& flow : flows) {
    double rate = *sim.CurrentRate(flow.id);
    if (rate >= flow.cap * (1 - kRelEps)) {
      continue;  // at cap: justified
    }
    double normalized = rate / flow.weight;
    bool justified = false;
    for (LinkId link : flow.path) {
      double cap = topo.link(link).capacity_bps;
      if (link_load[link.value()] < cap * (1 - kRelEps)) {
        continue;  // link not saturated
      }
      // Is this flow among the top weight-normalized rates on the link?
      double max_norm = 0;
      for (const TestFlow& other : flows) {
        bool on_link = std::find(other.path.begin(), other.path.end(),
                                 link) != other.path.end();
        if (on_link) {
          max_norm = std::max(max_norm,
                              *sim.CurrentRate(other.id) / other.weight);
        }
      }
      if (normalized >= max_norm * (1 - 1e-3)) {
        justified = true;
        break;
      }
    }
    EXPECT_TRUE(justified)
        << "flow with rate " << rate << " (weight " << flow.weight
        << ") is neither capped nor bottlenecked";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(FlowSimTest, ManyFlowsConservationProperty) {
  // Allocation must never exceed any link capacity and must be work-
  // conserving on the bottleneck.
  Line w;
  FlowSim sim(w.queue, w.topo);
  std::vector<FlowId> flows;
  for (int i = 0; i < 20; ++i) {
    flows.push_back(sim.StartPersistentFlow(
        {w.ab, w.bc}, 1.0 + (i % 3),
        (i % 5 == 0) ? 1e7 : std::numeric_limits<double>::infinity()));
  }
  double total = 0;
  for (FlowId f : flows) {
    total += *sim.CurrentRate(f);
  }
  EXPECT_LE(total, 0.5e9 * (1 + 1e-6));
  EXPECT_GE(total, 0.5e9 * (1 - 1e-6));  // work conserving
}

TEST(FlowSimTest, EmptyPathPersistentFlowIsTrackedNoOp) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  FlowId real = sim.StartPersistentFlow({w.ab, w.bc});
  uint64_t reallocs = sim.reallocation_count();
  FlowId noop = sim.StartPersistentFlow({});
  EXPECT_EQ(sim.active_flow_count(), 2u);
  EXPECT_NE(sim.FindFlow(noop), nullptr);
  EXPECT_DOUBLE_EQ(*sim.CurrentRate(noop), 0.0);
  // It consumes no link capacity and triggers no reallocation — not on
  // start, not on cap changes, not on cancel.
  EXPECT_EQ(sim.reallocation_count(), reallocs);
  EXPECT_DOUBLE_EQ(*sim.CurrentRate(real), 0.5e9);
  EXPECT_TRUE(sim.SetRateCap(noop, 1e6).ok());
  EXPECT_EQ(sim.reallocation_count(), reallocs);
  EXPECT_TRUE(sim.CancelFlow(noop).ok());
  EXPECT_EQ(sim.reallocation_count(), reallocs);
  EXPECT_EQ(sim.active_flow_count(), 1u);
  EXPECT_DOUBLE_EQ(*sim.CurrentRate(real), 0.5e9);
  EXPECT_EQ(sim.CancelFlow(noop).code(), StatusCode::kNotFound);
}

TEST(FlowSimTest, BatchCoalescesBurstIntoOneReallocation) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  std::vector<FlowId> flows;
  for (int i = 0; i < 16; ++i) {
    flows.push_back(sim.StartPersistentFlow({w.ab, w.bc}));
  }
  uint64_t before = sim.reallocation_count();
  FlowId added;
  {
    FlowSim::BatchScope batch = sim.Batch();
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(sim.SetRateCap(flows[i], 10e6).ok());
    }
    added = sim.StartPersistentFlow({w.ab, w.bc});
    ASSERT_TRUE(sim.CancelFlow(flows[8]).ok());
    // Inside the scope nothing has been reallocated yet: touched flows
    // report their pre-batch rate, new flows report 0.
    EXPECT_EQ(sim.reallocation_count(), before);
    EXPECT_DOUBLE_EQ(*sim.CurrentRate(added), 0.0);
  }
  // One pass for the whole burst, with the same result as unbatched
  // updates: 8 flows capped at 10M, the other 8 share the remaining 420M.
  EXPECT_EQ(sim.reallocation_count(), before + 1);
  for (int i = 0; i < 8; ++i) {
    EXPECT_NEAR(*sim.CurrentRate(flows[i]), 10e6, 1);
  }
  for (size_t i = 9; i < flows.size(); ++i) {
    EXPECT_NEAR(*sim.CurrentRate(flows[i]), 52.5e6, 1);
  }
  EXPECT_NEAR(*sim.CurrentRate(added), 52.5e6, 1);
}

TEST(FlowSimTest, NestedBatchScopesReallocateOnceAtOutermostExit) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  FlowId f = sim.StartPersistentFlow({w.ab, w.bc});
  uint64_t before = sim.reallocation_count();
  {
    FlowSim::BatchScope outer = sim.Batch();
    {
      FlowSim::BatchScope inner = sim.Batch();
      ASSERT_TRUE(sim.SetRateCap(f, 0.1e9).ok());
    }
    // Inner exit must not reallocate while the outer scope is open.
    EXPECT_EQ(sim.reallocation_count(), before);
  }
  EXPECT_EQ(sim.reallocation_count(), before + 1);
  EXPECT_NEAR(*sim.CurrentRate(f), 0.1e9, 1);
}

TEST(FlowSimTest, EmptyBatchDoesNotReallocate) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  sim.StartPersistentFlow({w.ab, w.bc});
  uint64_t before = sim.reallocation_count();
  { FlowSim::BatchScope batch = sim.Batch(); }
  EXPECT_EQ(sim.reallocation_count(), before);
}

// An EndBatch with no open batch must not underflow the depth counter: if
// it did, every later mutation would wait for an EndBatch that never comes.
// Checked without assert, so it holds in Release builds too.
TEST(FlowSimTest, UnmatchedEndBatchIsACountedNoOp) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  sim.EndBatch();
  sim.EndBatch();
  EXPECT_EQ(sim.unmatched_end_batches(), 2u);
  // Mutations still apply at once ...
  FlowId f = sim.StartPersistentFlow({w.ab, w.bc});
  EXPECT_DOUBLE_EQ(*sim.CurrentRate(f), 0.5e9);
  // ... and a matched batch still defers to its own EndBatch.
  sim.BeginBatch();
  FlowId g = sim.StartPersistentFlow({w.ab, w.bc});
  EXPECT_DOUBLE_EQ(*sim.CurrentRate(g), 0.0);
  sim.EndBatch();
  EXPECT_NEAR(*sim.CurrentRate(g), 0.25e9, 1);
  EXPECT_EQ(sim.unmatched_end_batches(), 2u);
}

TEST(FlowSimTest, ScopedReallocationLeavesDisjointComponentsAlone) {
  // Two independent bottlenecks; churn on one must not grow the touched
  // set beyond that component.
  EventQueue queue;
  Topology topo;
  std::vector<std::vector<LinkId>> paths;
  for (int g = 0; g < 2; ++g) {
    NodeId a = topo.AddNode({"a", NodeKind::kHostAggregate, "x"});
    NodeId b = topo.AddNode({"b", NodeKind::kBackboneRouter, "x"});
    LinkId ab = topo.AddLink({a, b, 1e9, SimDuration::Millis(1),
                              SimDuration::Zero(), 0,
                              LinkClass::kDatacenter});
    paths.push_back({ab});
  }
  FlowSim sim(queue, topo);
  for (int i = 0; i < 8; ++i) {
    sim.StartPersistentFlow(paths[0]);
  }
  const uint64_t touched = sim.flows_touched();
  FlowId lone = sim.StartPersistentFlow(paths[1]);
  // Starting `lone` touched only its 1-flow component, not the 8 flows in
  // the other one.
  EXPECT_EQ(sim.flows_touched(), touched + 1);
  ASSERT_TRUE(sim.SetRateCap(lone, 1e6).ok());
  EXPECT_LT(sim.mean_flows_touched_per_realloc(),
            static_cast<double>(sim.active_flow_count()));
}

// --- Incremental vs global equivalence --------------------------------------
// The core property of component-scoped reallocation: after EVERY event of
// a long random churn trace, the incrementally maintained rates must match
// a from-scratch global water-fill. The reference below re-implements the
// original (pre-incremental) map-based algorithm verbatim.

struct RefFlow {
  std::vector<LinkId> path;
  double weight = 1.0;
  double cap = std::numeric_limits<double>::infinity();
};

std::map<uint64_t, double> GlobalWaterFill(
    const Topology& topo, const std::map<uint64_t, RefFlow>& flows) {
  constexpr double kEps = 1e-9;
  std::map<uint64_t, double> rates;
  struct LinkBudget {
    double remaining = 0;
    double weight_sum = 0;
  };
  std::map<uint64_t, LinkBudget> budgets;
  using Entry = const std::pair<const uint64_t, RefFlow>;
  std::vector<Entry*> unfrozen;
  for (Entry& kv : flows) {
    rates[kv.first] = 0;
    if (kv.second.path.empty()) {
      continue;  // tracked zero-link no-op flows never acquire rate
    }
    unfrozen.push_back(&kv);
    for (LinkId link : kv.second.path) {
      auto [it, inserted] = budgets.try_emplace(
          link.value(), LinkBudget{topo.link(link).capacity_bps, 0});
      it->second.weight_sum += kv.second.weight;
    }
  }
  while (!unfrozen.empty()) {
    double lambda = std::numeric_limits<double>::infinity();
    for (Entry* f : unfrozen) {
      lambda = std::min(lambda, f->second.cap / f->second.weight);
      for (LinkId link : f->second.path) {
        const LinkBudget& b = budgets[link.value()];
        if (b.weight_sum > 0) {
          lambda =
              std::min(lambda, std::max(0.0, b.remaining) / b.weight_sum);
        }
      }
    }
    if (!std::isfinite(lambda)) {
      for (Entry* f : unfrozen) {
        rates[f->first] = 1e18;
      }
      break;
    }
    std::vector<Entry*> still_unfrozen;
    for (Entry* f : unfrozen) {
      bool frozen = false;
      double rate = f->second.weight * lambda;
      if (f->second.cap / f->second.weight <= lambda * (1 + kEps) + kEps) {
        rate = f->second.cap;
        frozen = true;
      } else {
        for (LinkId link : f->second.path) {
          const LinkBudget& b = budgets[link.value()];
          if (b.weight_sum > 0 &&
              std::max(0.0, b.remaining) / b.weight_sum <=
                  lambda * (1 + kEps) + kEps) {
            frozen = true;
            break;
          }
        }
      }
      if (frozen) {
        rates[f->first] = rate;
        for (LinkId link : f->second.path) {
          LinkBudget& b = budgets[link.value()];
          b.remaining -= rate;
          b.weight_sum -= f->second.weight;
        }
      } else {
        still_unfrozen.push_back(f);
      }
    }
    if (still_unfrozen.size() == unfrozen.size()) {
      for (Entry* f : still_unfrozen) {
        rates[f->first] = f->second.weight * lambda;
      }
      still_unfrozen.clear();
    }
    unfrozen.swap(still_unfrozen);
  }
  return rates;
}

// Mixed topology: five isolated 2-link chains (tiny components) plus four
// pod uplinks through one shared core (one clustered component).
struct ChurnTopo {
  EventQueue queue;
  Topology topo;
  std::vector<std::vector<LinkId>> paths;

  ChurnTopo() {
    for (int g = 0; g < 5; ++g) {
      NodeId a = topo.AddNode({"a", NodeKind::kHostAggregate, "x"});
      NodeId b = topo.AddNode({"b", NodeKind::kBackboneRouter, "x"});
      NodeId c = topo.AddNode({"c", NodeKind::kHostAggregate, "x"});
      LinkId ab = topo.AddLink({a, b, 1e9, SimDuration::Millis(1),
                                SimDuration::Zero(), 0,
                                LinkClass::kDatacenter});
      LinkId bc = topo.AddLink({b, c, 0.5e9, SimDuration::Millis(1),
                                SimDuration::Zero(), 0,
                                LinkClass::kDatacenter});
      paths.push_back({ab, bc});
    }
    NodeId core_a = topo.AddNode({"ca", NodeKind::kBackboneRouter, "x"});
    NodeId core_b = topo.AddNode({"cb", NodeKind::kBackboneRouter, "x"});
    LinkId core =
        topo.AddLink({core_a, core_b, 2e9, SimDuration::Millis(1),
                      SimDuration::Zero(), 0, LinkClass::kBackbone});
    for (int p = 0; p < 4; ++p) {
      NodeId pod = topo.AddNode({"p", NodeKind::kHostAggregate, "x"});
      LinkId up = topo.AddLink({pod, core_a, 1e9, SimDuration::Millis(1),
                                SimDuration::Zero(), 0,
                                LinkClass::kDatacenter});
      paths.push_back({up, core});
    }
  }
};

TEST(FlowSimEquivalenceTest, IncrementalMatchesGlobalOnEveryChurnStep) {
  ChurnTopo w;
  FlowSim sim(w.queue, w.topo);
  Rng rng(2024);
  std::map<uint64_t, RefFlow> ref;
  std::vector<FlowId> live;

  auto verify = [&] {
    std::map<uint64_t, double> expect = GlobalWaterFill(w.topo, ref);
    for (const auto& [id_value, want] : expect) {
      Result<double> got = sim.CurrentRate(FlowId(id_value));
      ASSERT_TRUE(got.ok()) << "flow " << id_value << " missing";
      ASSERT_NEAR(*got, want, std::max(1.0, want) * 1e-6)
          << "flow " << id_value << " diverged from global water-fill";
    }
  };
  auto start_one = [&] {
    const std::vector<LinkId>& path = w.paths[rng.NextU64(w.paths.size())];
    double weight = 1.0 + static_cast<double>(rng.NextU64(3));
    double cap = rng.NextBool(0.25)
                     ? 20e6 + 1e6 * static_cast<double>(rng.NextU64(10))
                     : std::numeric_limits<double>::infinity();
    FlowId id;
    if (rng.NextBool(0.3)) {
      // Finite transfer, small enough to complete during the trace; its
      // completion exercises the incremental path from HandleCompletion.
      double bytes = 20e3 + 1e3 * static_cast<double>(rng.NextU64(100));
      id = sim.StartFlow(
          path, bytes,
          [&](FlowId done, SimTime) {
            ref.erase(done.value());
            live.erase(std::find(live.begin(), live.end(), done));
          },
          weight, cap);
    } else {
      id = sim.StartPersistentFlow(path, weight, cap);
    }
    ref[id.value()] = RefFlow{path, weight, cap};
    live.push_back(id);
  };

  for (int i = 0; i < 30; ++i) {
    start_one();
  }
  constexpr int kEvents = 10000;
  for (int e = 0; e < kEvents; ++e) {
    uint64_t kind = rng.NextU64(4);
    if (kind == 0 || live.size() < 15) {
      start_one();
    } else if (kind == 1) {
      size_t victim = rng.NextU64(live.size());
      FlowId id = live[victim];
      ASSERT_TRUE(sim.CancelFlow(id).ok());
      ref.erase(id.value());
      live.erase(live.begin() + victim);
    } else if (kind == 2) {
      FlowId id = live[rng.NextU64(live.size())];
      double cap = rng.NextBool(0.5)
                       ? 20e6 + 1e6 * static_cast<double>(rng.NextU64(10))
                       : std::numeric_limits<double>::infinity();
      ASSERT_TRUE(sim.SetRateCap(id, cap).ok());
      ref[id.value()].cap = cap;
    } else {
      // Advance simulated time so finite flows progress and complete.
      w.queue.RunUntil(w.queue.now() + SimDuration::Micros(200));
    }
    ASSERT_NO_FATAL_FAILURE(verify()) << "after event " << e;
  }
  EXPECT_EQ(sim.active_flow_count(), live.size());
}

TEST(FlowSimDeterminismTest, SameSeedYieldsIdenticalEventTrace) {
  // (flow id, completion time ns) pairs plus the cost counters must be
  // bit-identical across runs with the same seed: the slab queue's FIFO
  // tie-break and the deterministic component iteration leave no room for
  // run-to-run drift.
  auto run = [](uint64_t seed) {
    ChurnTopo w;
    FlowSim sim(w.queue, w.topo);
    Rng rng(seed);
    std::vector<std::pair<uint64_t, int64_t>> trace;
    std::vector<FlowId> live;
    auto start_one = [&] {
      const std::vector<LinkId>& path =
          w.paths[rng.NextU64(w.paths.size())];
      double weight = 1.0 + static_cast<double>(rng.NextU64(3));
      FlowId id = sim.StartFlow(
          path, 20e3 + 1e3 * static_cast<double>(rng.NextU64(50)),
          [&](FlowId done, SimTime t) {
            trace.push_back({done.value(), t.nanos()});
            live.erase(std::find(live.begin(), live.end(), done));
          },
          weight,
          rng.NextBool(0.3) ? 40e6 : std::numeric_limits<double>::infinity());
      live.push_back(id);
    };
    for (int i = 0; i < 20; ++i) {
      start_one();
    }
    for (int e = 0; e < 2000; ++e) {
      uint64_t kind = rng.NextU64(4);
      if (kind == 0 || live.size() < 10) {
        start_one();
      } else if (kind == 1) {
        size_t victim = rng.NextU64(live.size());
        FlowId id = live[victim];
        live.erase(live.begin() + victim);
        EXPECT_TRUE(sim.CancelFlow(id).ok());
      } else if (kind == 2) {
        (void)sim.SetRateCap(
            live[rng.NextU64(live.size())],
            rng.NextBool(0.5) ? 40e6
                              : std::numeric_limits<double>::infinity());
      } else {
        w.queue.RunUntil(w.queue.now() + SimDuration::Micros(500));
      }
    }
    w.queue.RunAll();
    return std::tuple(trace, sim.reallocation_count(),
                      sim.flows_rescheduled(), sim.total_bytes_delivered());
  };
  auto a = run(7);
  auto b = run(7);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_DOUBLE_EQ(std::get<3>(a), std::get<3>(b));
  EXPECT_GT(std::get<0>(a).size(), 100u);  // the trace actually ran
}

TEST(FlowSimTest, DownLinkStallsFlowAndRestoreResumes) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  FlowId f = sim.StartPersistentFlow({w.ab, w.bc});
  ASSERT_TRUE(sim.SetLinkUp(w.bc, false).ok());
  EXPECT_FALSE(sim.IsLinkUp(w.bc));
  EXPECT_DOUBLE_EQ(*sim.CurrentRate(f), 0.0);
  EXPECT_EQ(sim.stalled_flow_count(), 1u);
  EXPECT_EQ(sim.flows_blackholed(), 1u);
  // Re-downing an already-down link is a no-op: no double counting.
  ASSERT_TRUE(sim.SetLinkUp(w.bc, false).ok());
  EXPECT_EQ(sim.flows_blackholed(), 1u);
  ASSERT_TRUE(sim.SetLinkUp(w.bc, true).ok());
  EXPECT_TRUE(sim.IsLinkUp(w.bc));
  EXPECT_DOUBLE_EQ(*sim.CurrentRate(f), 0.5e9);
  EXPECT_EQ(sim.stalled_flow_count(), 0u);
}

TEST(FlowSimTest, DownLinkAbortsFlowsWithAbortHandlers) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  bool completed = false;
  int aborts = 0;
  FlowId aborted_id;
  SimTime abort_time;
  FlowId f = sim.StartFlow(
      {w.ab, w.bc}, 62.5e6, [&](FlowId, SimTime) { completed = true; }, 1.0,
      std::numeric_limits<double>::infinity(), [&](FlowId id, SimTime t) {
        ++aborts;
        aborted_id = id;
        abort_time = t;
      });
  // Halfway through the 1-second transfer the bottleneck link dies.
  w.queue.ScheduleAt(SimTime::FromSeconds(0.5), [&] {
    ASSERT_TRUE(sim.SetLinkUp(w.bc, false).ok());
  });
  w.queue.RunAll();
  EXPECT_FALSE(completed);
  EXPECT_EQ(aborts, 1);
  EXPECT_EQ(aborted_id.value(), f.value());
  EXPECT_NEAR(abort_time.ToSeconds(), 0.5, 1e-9);
  EXPECT_EQ(sim.flows_aborted(), 1u);
  EXPECT_EQ(sim.active_flow_count(), 0u);
  // Half the payload made it out before the fault; the rest blackholed.
  EXPECT_NEAR(sim.total_bytes_delivered(), 31.25e6, 1.0);
  EXPECT_NEAR(sim.bytes_blackholed(), 31.25e6, 1.0);
}

TEST(FlowSimTest, DownLinkFreesCapacityForSurvivors) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  FlowId through = sim.StartPersistentFlow({w.ab, w.bc});
  FlowId local = sim.StartPersistentFlow({w.ab});
  EXPECT_NEAR(*sim.CurrentRate(local), 0.5e9, 1);
  ASSERT_TRUE(sim.SetLinkUp(w.bc, false).ok());
  // The stalled flow's share of ab is released to the survivor.
  EXPECT_DOUBLE_EQ(*sim.CurrentRate(through), 0.0);
  EXPECT_NEAR(*sim.CurrentRate(local), 1e9, 1);
  EXPECT_DOUBLE_EQ(sim.LinkUtilization(w.bc), 1.0);  // down reads saturated
  ASSERT_TRUE(sim.SetLinkUp(w.bc, true).ok());
  EXPECT_NEAR(*sim.CurrentRate(through), 0.5e9, 1);
  EXPECT_NEAR(*sim.CurrentRate(local), 0.5e9, 1);
}

TEST(FlowSimTest, NestedBatchAppliesLinkDownAndStartsAtomically) {
  // Satellite: Batch() nesting under concurrent link-down + flow-start.
  // SetLinkUp opens its own nested batch; wrapped in an outer scope the
  // whole burst must settle in a single reallocation at the outermost end.
  Line w;
  FlowSim sim(w.queue, w.topo);
  FlowId f1 = sim.StartPersistentFlow({w.ab, w.bc});
  uint64_t reallocs_before = sim.reallocation_count();
  FlowId f2;
  {
    auto outer = sim.Batch();
    ASSERT_TRUE(sim.SetLinkUp(w.bc, false).ok());
    {
      auto inner = sim.Batch();
      f2 = sim.StartPersistentFlow({w.ab});
    }
    // Neither the inner scope's close nor SetLinkUp reallocated yet.
    EXPECT_EQ(sim.reallocation_count(), reallocs_before);
  }
  EXPECT_EQ(sim.reallocation_count(), reallocs_before + 1);
  EXPECT_DOUBLE_EQ(*sim.CurrentRate(f1), 0.0);
  EXPECT_NEAR(*sim.CurrentRate(f2), 1e9, 1);
  EXPECT_EQ(sim.flows_blackholed(), 1u);
  EXPECT_EQ(sim.stalled_flow_count(), 1u);
}

TEST(FlowSimTest, SameTimestampFaultAndCompletionBothOrdersDeliver) {
  // Satellite: a fault batch that removes a flow's last link at the exact
  // sim timestamp where the flow's completion is due. The EventQueue FIFO
  // tie-break makes both interleavings reachable; in BOTH the flow must be
  // delivered exactly once and never charged as blackholed.
  //
  // Order A: the fault event is scheduled before the flow starts, so at
  // t=1s the fault fires first. Settling inside the fault batch leaves
  // bytes_left == 0 and the write-back re-completes the flow at `now`.
  {
    Line w;
    FlowSim sim(w.queue, w.topo);
    w.queue.ScheduleAt(SimTime::FromSeconds(1), [&] {
      ASSERT_TRUE(sim.SetLinkUp(w.bc, false).ok());
    });
    int completions = 0;
    SimTime finish;
    sim.StartFlow({w.ab, w.bc}, 62.5e6, [&](FlowId, SimTime t) {
      ++completions;
      finish = t;
    });
    w.queue.RunAll();
    EXPECT_EQ(completions, 1);
    EXPECT_NEAR(finish.ToSeconds(), 1.0, 1e-9);
    EXPECT_EQ(sim.flows_blackholed(), 0u);
    EXPECT_DOUBLE_EQ(sim.bytes_blackholed(), 0.0);
    EXPECT_NEAR(sim.total_bytes_delivered(), 62.5e6, 1.0);
    EXPECT_EQ(sim.active_flow_count(), 0u);
  }
  // Order B: the completion event was scheduled first and wins the
  // tie-break; the fault batch then finds no crossing flows and the stale
  // completion-handle Cancel inside the batch must be a safe no-op.
  {
    Line w;
    FlowSim sim(w.queue, w.topo);
    int completions = 0;
    sim.StartFlow({w.ab, w.bc}, 62.5e6,
                  [&](FlowId, SimTime) { ++completions; });
    w.queue.ScheduleAt(SimTime::FromSeconds(1), [&] {
      ASSERT_TRUE(sim.SetLinkUp(w.bc, false).ok());
    });
    w.queue.RunAll();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(sim.flows_blackholed(), 0u);
    EXPECT_DOUBLE_EQ(sim.bytes_blackholed(), 0.0);
    EXPECT_NEAR(sim.total_bytes_delivered(), 62.5e6, 1.0);
    EXPECT_EQ(sim.active_flow_count(), 0u);
  }
}

// A start across a link that is already down gets the contract of a link
// that fails right after the start: the flow aborts, its handler firing
// once, through the queue, at the start time. Recovery does not revive it.
TEST(FlowSimTest, StartOnADownedLinkAborts) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  w.queue.AdvanceTo(SimTime::FromSeconds(2));
  ASSERT_TRUE(sim.SetLinkUp(w.bc, false).ok());
  bool completed = false;
  int aborts = 0;
  FlowId aborted_id;
  SimTime abort_time;
  FlowId f = sim.StartFlow(
      {w.ab, w.bc}, 62.5e6, [&](FlowId, SimTime) { completed = true; }, 1.0,
      std::numeric_limits<double>::infinity(), [&](FlowId id, SimTime t) {
        ++aborts;
        aborted_id = id;
        abort_time = t;
      });
  ASSERT_TRUE(f.valid());
  EXPECT_EQ(aborts, 0);  // not from inside StartFlow
  EXPECT_EQ(sim.flows_aborted(), 1u);
  EXPECT_DOUBLE_EQ(sim.bytes_blackholed(), 62.5e6);
  EXPECT_EQ(sim.active_flow_count(), 0u);
  ASSERT_TRUE(sim.SetLinkUp(w.bc, true).ok());
  w.queue.RunAll();
  EXPECT_EQ(aborts, 1);
  EXPECT_EQ(aborted_id.value(), f.value());
  EXPECT_EQ(abort_time.ToSeconds(), 2.0);
  EXPECT_FALSE(completed);
  EXPECT_EQ(sim.flows_blackholed(), 0u);
  EXPECT_DOUBLE_EQ(sim.total_bytes_delivered(), 0.0);
}

// Without a handler the same start stalls at rate 0 and counts as
// blackholed once, like a flow whose link fails later.
TEST(FlowSimTest, StartOnADownedLinkWithoutHandlerStalls) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  ASSERT_TRUE(sim.SetLinkUp(w.bc, false).ok());
  bool completed = false;
  FlowId f = sim.StartFlow({w.ab, w.bc}, 62.5e6,
                           [&](FlowId, SimTime) { completed = true; });
  EXPECT_DOUBLE_EQ(*sim.CurrentRate(f), 0.0);
  EXPECT_EQ(sim.stalled_flow_count(), 1u);
  EXPECT_EQ(sim.flows_blackholed(), 1u);
  EXPECT_DOUBLE_EQ(sim.bytes_blackholed(), 62.5e6);
  EXPECT_EQ(sim.flows_aborted(), 0u);
  ASSERT_TRUE(sim.SetLinkUp(w.bc, true).ok());
  ASSERT_TRUE(sim.SetLinkUp(w.bc, false).ok());
  EXPECT_EQ(sim.flows_blackholed(), 1u);  // a stall is counted once
  ASSERT_TRUE(sim.SetLinkUp(w.bc, true).ok());
  w.queue.RunAll();
  EXPECT_TRUE(completed);
  EXPECT_EQ(sim.stalled_flow_count(), 0u);
}

TEST(FlowSimTest, SetLinkUpRejectsUnknownLink) {
  Line w;
  FlowSim sim(w.queue, w.topo);
  EXPECT_FALSE(sim.SetLinkUp(LinkId(), false).ok());
  EXPECT_FALSE(sim.SetLinkUp(LinkId(999), false).ok());
}

}  // namespace
}  // namespace tenantnet
