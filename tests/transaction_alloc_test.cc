// Allocation guard for transactions: after warm-up, moving a pending event
// in place or cancelling and replacing one costs no heap allocation, and a
// RequestWorkload transaction over FlowSim allocates only what its response
// flow keeps — the path, FlowSim's flow node and that flow's member_pos —
// in either world. A denied transaction and a rejected arrival candidate
// allocate nothing. This binary replaces the global operator new/delete
// with counting versions; only allocations inside a counting window are
// tallied.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <unordered_map>
#include <vector>

#include "src/app/workload.h"
#include "src/cloud/presets.h"
#include "src/core/api.h"
#include "src/sim/flow_sim.h"
#include "src/vnet/builder.h"
#include "src/vnet/fabric.h"
#include "tests/test_env.h"

namespace {
bool g_counting = false;
uint64_t g_allocations = 0;
}  // namespace

// GCC takes free() of operator new's memory for a mismatch; here the two
// are one pair by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpragmas"
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_counting) {
    ++g_allocations;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
#pragma GCC diagnostic pop

namespace tenantnet {
namespace {

// Heap allocations made while `fn` runs.
template <typename Fn>
uint64_t AllocationsIn(Fn&& fn) {
  g_allocations = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations;
}

TEST(TransactionAllocationTest, CountingOperatorNewIsInstalled) {
  std::vector<int> kept;
  EXPECT_EQ(AllocationsIn([&] { kept.assign(100, 1); }), 1u);
}

// FlowSim's completion pattern: 100 live events, each moved again and
// again to a new time.
TEST(TransactionAllocationTest, InPlaceMovesAllocateNothing) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(q.ScheduleAfter(SimDuration::Millis(1 + i), [] {}));
  }
  test_env::PairSampler rng(7);
  auto move = [&](int moves) {
    for (int i = 0; i < moves; ++i) {
      EventHandle& h = handles[i % handles.size()];
      h = q.Reschedule(h, q.now() + SimDuration::Micros(rng.Index(100000)));
    }
  };
  move(1000);
  EXPECT_EQ(AllocationsIn([&] { move(100000); }), 0u);
  EXPECT_EQ(q.pending_count(), 100u);
}

// Cancel + ScheduleAt churn at a fixed clock: with nothing firing, a heap
// that kept cancelled entries would grow with every replacement.
TEST(TransactionAllocationTest, CancelAndReplaceChurnAllocatesNothing) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(q.ScheduleAfter(SimDuration::Millis(1 + i), [] {}));
  }
  auto churn = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      EventHandle& h = handles[i % handles.size()];
      q.Cancel(h);
      h = q.ScheduleAfter(SimDuration::Millis(1 + i % 1000), [] {});
    }
  };
  churn(1000);
  EXPECT_EQ(AllocationsIn([&] { churn(100000); }), 0u);
  EXPECT_EQ(q.pending_count(), 100u);
}

// What one measured window of a workload run did.
struct Window {
  uint64_t allocations = 0;
  uint64_t attempted = 0;
  uint64_t denied = 0;
  uint64_t completed = 0;
  uint64_t events = 0;
};

// Fires events until no transaction is in flight; returns how many fired.
uint64_t RunToQuiet(EventQueue& queue, const RequestWorkload& workload) {
  uint64_t fired = 0;
  while (workload.inflight() > 0 && queue.Step()) {
    ++fired;
  }
  return fired;
}

// Runs a fresh RequestWorkload over a fresh FlowSim for 10 s of warm-up,
// then counts allocations over the next 5 s. Both window edges are quiet
// points (nothing in flight), so every transaction admitted in the window
// also started and finished its response flow there. `connector` delivers
// Fig. 1's spark -> database traffic and denies web -> database. With
// `admitted`, spark's pattern runs beside the web tier's; without it, the
// web tier's runs beside one whose thinning sampler rejects 99 in 100
// arrival candidates (and whose accepted arrivals are denied too).
Window MeasureWorkload(const Fig1World& fig, const ConnectorFn& connector,
                       bool admitted) {
  EventQueue queue;
  FlowSim sim(queue, fig.world->topology());
  WorkloadParams params;
  params.seed = 11;
  params.mean_response_bytes = 64 * 1024;
  RequestWorkload workload(queue, sim, *fig.world, params);
  workload.AddStreamingPattern(
      "web->db", fig.web_eu, fig.database, RateCurve::Constant(100.0),
      connector);
  if (admitted) {
    workload.AddStreamingPattern(
        "spark->db", fig.spark, fig.database, RateCurve::Constant(400.0),
        connector);
  } else {
    // The flash crowd starts after the run: the rate stays at the base,
    // 1/100 of the envelope the candidates arrive at.
    workload.AddStreamingPattern(
        "web->db streaming", fig.web_eu, fig.database,
        RateCurve::FlashCrowd(20.0, 99.0, SimDuration::Seconds(3600),
                              SimDuration::Seconds(1),
                              SimDuration::Seconds(1)),
        connector);
  }
  workload.Start(SimDuration::Seconds(20));
  queue.RunUntil(SimTime::FromSeconds(10));
  RunToQuiet(queue, workload);

  auto totals = [&workload] {
    Window w;
    for (size_t p = 0; p < workload.pattern_count(); ++p) {
      w.attempted += workload.stats(p).attempted;
      w.denied += workload.stats(p).denied;
      w.completed += workload.stats(p).completed;
    }
    return w;
  };
  const Window before = totals();
  Window window;
  window.allocations = AllocationsIn([&] {
    window.events = queue.RunUntil(SimTime::FromSeconds(15));
    window.events += RunToQuiet(queue, workload);
  });
  const Window after = totals();
  window.attempted = after.attempted - before.attempted;
  window.denied = after.denied - before.denied;
  window.completed = after.completed - before.completed;
  EXPECT_EQ(window.attempted, window.denied + window.completed);
  return window;
}

void ExpectTransactionBudget(const Fig1World& fig,
                             const ConnectorFn& connector) {
  {
    SCOPED_TRACE("delivered and denied transactions");
    const Window w = MeasureWorkload(fig, connector, /*admitted=*/true);
    EXPECT_GT(w.completed, 1000u);
    EXPECT_GT(w.denied, 200u);
    // Per admitted transaction: the flow's path, FlowSim's node for the
    // flow and its member_pos. Denied ones may add nothing. The 1% is
    // amortized growth, not a per-transaction cost: a window that sets a
    // new peak of live flows on a link doubles that link's member list.
    EXPECT_LE(w.allocations, 3 * w.completed + w.completed / 100)
        << w.allocations << " allocations for " << w.completed
        << " admitted and " << w.denied << " denied transactions";
  }
  {
    SCOPED_TRACE("denied transactions and rejected arrival candidates");
    const Window w = MeasureWorkload(fig, connector, /*admitted=*/false);
    EXPECT_EQ(w.completed, 0u);
    EXPECT_GT(w.denied, 200u);
    // Rejected candidates are the events no transaction accounts for.
    EXPECT_GT(w.events, 10 * w.attempted);
    EXPECT_EQ(w.allocations, 0u)
        << w.allocations << " allocations for " << w.denied
        << " denied transactions and "
        << w.events - w.attempted << " other events";
  }
}

TEST(TransactionAllocationTest, BaselineTransactionsAllocateOnlyTheirFlow) {
  Fig1World fig = BuildFig1World();
  ConfigLedger ledger;
  BaselineNetwork net(*fig.world, ledger);
  ASSERT_TRUE(BuildFig1Baseline(net, fig).ok());
  // Spark reaches the database over the circuits; the web tier's SG
  // ingress is refused.
  auto connector = [&net](InstanceId src, InstanceId dst) {
    return RouteFor(
        net.Evaluate(src, dst, Fig1Baseline::kDbPort, Protocol::kTcp));
  };
  ExpectTransactionBudget(fig, connector);
}

TEST(TransactionAllocationTest, DeclarativeTransactionsAllocateOnlyTheirFlow) {
  Fig1World fig = BuildFig1World();
  ConfigLedger ledger;
  DeclarativeCloud cloud(*fig.world, ledger);
  std::unordered_map<uint64_t, IpAddress> eips;
  std::vector<PermitEntry> from_spark;
  for (InstanceId spark : fig.spark) {
    eips[spark.value()] = *cloud.RequestEip(spark);
    PermitEntry entry;
    entry.source = IpPrefix::Host(eips[spark.value()]);
    from_spark.push_back(entry);
  }
  for (InstanceId web : fig.web_eu) {
    eips[web.value()] = *cloud.RequestEip(web);
  }
  for (InstanceId db : fig.database) {
    eips[db.value()] = *cloud.RequestEip(db);
    ASSERT_TRUE(cloud.SetPermitList(eips[db.value()], from_spark).ok());
  }
  // The databases permit only spark: the web tier is edge-filtered.
  auto connector = [&cloud, &eips](InstanceId src, InstanceId dst) {
    return RouteFor(
        cloud.Evaluate(src, eips.at(dst.value()), 443, Protocol::kTcp));
  };
  ExpectTransactionBudget(fig, connector);
}

}  // namespace
}  // namespace tenantnet
