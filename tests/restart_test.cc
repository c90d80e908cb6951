// Tests for control-plane warm restart (src/common/reconcile.h protocol,
// src/restart/ coordination).
//
// The invariants:
//   * Checkpoint -> RestoreFromSnapshot -> Checkpoint is a fixed point for
//     the filter bank and the SIP balancer, from empty through post-storm
//     states.
//   * The data plane keeps serving the frozen state during an outage, and a
//     warm completion never opens a default-off window; a cold completion
//     does (measurably).
//   * Warm and cold completions land on semantically identical state — for
//     the filter bank modulo version numbers (StateFingerprint), for the
//     routing plane byte-for-byte against a PropagateRoutesFull() rebuild.
//   * Overlapping restarts of one component are idempotent: one kill, one
//     reconcile, at the last recovery (FaultInjector ref-counting).

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/cloud/presets.h"
#include "src/common/rng.h"
#include "src/core/api.h"
#include "src/core/edge_filter.h"
#include "src/core/sip_lb.h"
#include "src/faults/fault_injector.h"
#include "src/reach/reach.h"
#include "src/restart/warm_restart.h"
#include "src/routing/bgp.h"
#include "src/sim/flow_sim.h"
#include "src/vnet/builder.h"
#include "src/vnet/fabric.h"
#include "tests/test_env.h"

namespace tenantnet {
namespace {

IpAddress A(const char* s) { return *IpAddress::Parse(s); }
IpPrefix P(const char* s) { return *IpPrefix::Parse(s); }

FiveTuple Flow(const char* src, const char* dst, uint16_t dport,
               Protocol proto = Protocol::kTcp) {
  FiveTuple t;
  t.src = A(src);
  t.dst = A(dst);
  t.src_port = 40000;
  t.dst_port = dport;
  t.proto = proto;
  return t;
}

PermitEntry Permit(const char* source, PortRange ports = PortRange::Any(),
                   Protocol proto = Protocol::kAny) {
  PermitEntry e;
  e.source = P(source);
  e.dst_ports = ports;
  e.proto = proto;
  return e;
}

PermitEntry PermitGroup(EndpointGroupId group) {
  PermitEntry e;
  e.source_group = group;
  return e;
}

// ---------------------------------------------------------------------------
// Fixed point: Checkpoint -> Restore -> Checkpoint.
// ---------------------------------------------------------------------------

TEST(RestartFixedPointTest, EmptyFilterBank) {
  EdgeFilterBank bank("p", nullptr, 1);
  bank.AddEdge("e0");
  FilterBankSnapshot snap = bank.Checkpoint();
  bank.RestoreFromSnapshot(snap);
  EXPECT_TRUE(bank.Checkpoint() == snap);
}

TEST(RestartFixedPointTest, PopulatedFilterBank) {
  EdgeFilterBank bank("p", nullptr, 7);
  bank.AddEdge("e0");
  bank.AddEdge("e1");
  EndpointGroupId web(1);
  bank.SetGroup(web, {A("10.1.0.1"), A("10.1.0.2")});
  bank.SetPermitList(A("5.0.0.1"), {Permit("10.0.0.0/8"), PermitGroup(web)});
  bank.SetPermitList(A("5.0.0.2"), {Permit("192.168.0.0/16",
                                           PortRange{443, 443},
                                           Protocol::kTcp)});
  FilterBankSnapshot snap = bank.Checkpoint();
  bank.RestoreFromSnapshot(snap);
  EXPECT_TRUE(bank.Checkpoint() == snap);
}

TEST(RestartFixedPointTest, EmptyAndPopulatedSipLb) {
  SipLoadBalancer lb;
  SipLbSnapshot empty = lb.Checkpoint();
  lb.RestoreFromSnapshot(empty);
  EXPECT_TRUE(lb.Checkpoint() == empty);

  ASSERT_TRUE(lb.AddSip(A("6.0.0.1")).ok());
  ASSERT_TRUE(lb.Bind(A("10.0.0.1"), A("6.0.0.1"), 2.0).ok());
  ASSERT_TRUE(lb.Bind(A("10.0.0.2"), A("6.0.0.1"), 1.0).ok());
  lb.SetHealth(A("10.0.0.2"), false);
  (void)lb.Resolve(A("6.0.0.1"));  // advance the pick counter
  SipLbSnapshot snap = lb.Checkpoint();
  lb.RestoreFromSnapshot(snap);
  EXPECT_TRUE(lb.Checkpoint() == snap);
  EXPECT_EQ(lb.resolutions(), snap.pick_seq);
}

// ---------------------------------------------------------------------------
// Filter bank: outage behavior and completion modes.
// ---------------------------------------------------------------------------

TEST(FilterRestartTest, DataPlaneServesFrozenStateDuringOutage) {
  EdgeFilterBank bank("p", nullptr, 3);
  bank.AddEdge("e0");
  IpAddress endpoint = A("5.0.0.1");
  bank.SetPermitList(endpoint, {Permit("10.0.0.0/8")});
  ASSERT_TRUE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.1", 443)));

  FilterBankSnapshot snap = bank.Checkpoint();
  bank.BeginRestart();
  EXPECT_TRUE(bank.in_restart());

  // A mutation during the outage buffers: the edge keeps the old verdicts.
  bank.SetPermitList(endpoint, {Permit("172.16.0.0/12")});
  EXPECT_TRUE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.1", 443)));
  EXPECT_FALSE(bank.Admits(0, Flow("172.16.9.9", "5.0.0.1", 443)));

  ReconcileStats stats = bank.CompleteRestart(RestartMode::kWarm, snap);
  EXPECT_FALSE(bank.in_restart());
  EXPECT_EQ(stats.replayed_mutations, 1u);
  // The replayed list is now live; no moment admitted nothing.
  EXPECT_FALSE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.1", 443)));
  EXPECT_TRUE(bank.Admits(0, Flow("172.16.9.9", "5.0.0.1", 443)));
}

TEST(FilterRestartTest, QuietWarmRestartAppliesNothingAndKeepsCaches) {
  EdgeFilterBank bank("p", nullptr, 3);
  bank.AddEdge("e0");
  bank.AddEdge("e1");
  EndpointGroupId web(1);
  bank.SetGroup(web, {A("10.1.0.1")});
  bank.SetPermitList(A("5.0.0.1"), {Permit("10.0.0.0/8"), PermitGroup(web)});

  FilterBankSnapshot snap = bank.Checkpoint();
  uint64_t epoch_before = bank.verdict_epoch();
  bank.BeginRestart();
  ReconcileStats stats = bank.CompleteRestart(RestartMode::kWarm, snap);
  EXPECT_GT(stats.checked, 0u);
  EXPECT_EQ(stats.deltas_applied, 0u);
  // No edge was touched, so no verdict epoch moved: cached verdicts live on.
  EXPECT_EQ(bank.verdict_epoch(), epoch_before);
  EXPECT_TRUE(bank.Checkpoint() == snap);
}

TEST(FilterRestartTest, ColdRestartOpensDefaultOffWindow) {
  EventQueue queue;
  EdgeFilterBank bank("p", &queue, 3);
  bank.AddEdge("e0");
  IpAddress endpoint = A("5.0.0.1");
  bank.SetPermitList(endpoint, {Permit("10.0.0.0/8")});
  queue.RunAll();
  ASSERT_TRUE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.1", 443)));

  FilterBankSnapshot snap = bank.Checkpoint();
  uint64_t epoch_before = bank.verdict_epoch();

  // Warm first: the flow stays admitted at every instant.
  bank.BeginRestart();
  (void)bank.CompleteRestart(RestartMode::kWarm, snap);
  EXPECT_TRUE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.1", 443)));
  queue.RunAll();
  EXPECT_TRUE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.1", 443)));
  EXPECT_EQ(bank.verdict_epoch(), epoch_before);

  // Cold: edges are flushed synchronously, re-installs land after install
  // latency — in between, default-off denies the previously admitted flow.
  bank.BeginRestart();
  ReconcileStats stats = bank.CompleteRestart(RestartMode::kCold, snap);
  EXPECT_GT(stats.deltas_applied, 0u);
  EXPECT_FALSE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.1", 443)));
  EXPECT_GT(bank.verdict_epoch(), epoch_before);
  queue.RunAll();
  EXPECT_TRUE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.1", 443)));
  EXPECT_GE(stats.converged_at, SimTime::Epoch());
}

TEST(FilterRestartTest, WarmReconcileRemovesOrphanedEdgeState) {
  EdgeFilterBank bank("p", nullptr, 3);
  bank.AddEdge("e0");
  bank.SetPermitList(A("5.0.0.1"), {Permit("10.0.0.0/8")});
  bank.SetPermitList(A("5.0.0.2"), {Permit("10.0.0.0/8")});
  // Checkpoint holds only the first list: the second is "not in intent"
  // (e.g. installed between checkpoint and crash, then lost with the
  // control plane's memory).
  FilterBankSnapshot snap = bank.Checkpoint();
  bank.RemovePermitList(A("5.0.0.2"));
  FilterBankSnapshot stale = bank.Checkpoint();
  bank.SetPermitList(A("5.0.0.2"), {Permit("10.0.0.0/8")});
  ASSERT_TRUE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.2", 443)));
  (void)snap;

  bank.BeginRestart();
  ReconcileStats stats = bank.CompleteRestart(RestartMode::kWarm, stale);
  EXPECT_GT(stats.deltas_applied, 0u);
  // The orphaned edge list is swept; intent is authoritative.
  EXPECT_FALSE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.2", 443)));
  EXPECT_TRUE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.1", 443)));
}

// The warm sweep re-pushes a group only where an edge's members differ from
// the restored intent. Edges holding the checkpointed snapshot, or an equal
// set sent again after the checkpoint, are left alone; edges holding a set
// changed after the checkpoint get the checkpointed set back.
TEST(FilterRestartTest, WarmReconcileRepushesOnlyGroupsThatDiffer) {
  EdgeFilterBank bank("p", nullptr, 3);
  bank.AddEdge("e0");
  bank.AddEdge("e1");
  EndpointGroupId same(1);
  EndpointGroupId resent(2);
  EndpointGroupId changed(3);
  bank.SetGroup(same, {A("10.1.0.1")});
  bank.SetGroup(resent, {A("10.2.0.1")});
  bank.SetGroup(changed, {A("10.3.0.1")});
  bank.SetPermitList(A("5.0.0.1"), {PermitGroup(same), PermitGroup(resent),
                                    PermitGroup(changed)});
  FilterBankSnapshot snap = bank.Checkpoint();
  bank.SetGroup(resent, {A("10.2.0.1")});
  bank.SetGroup(changed, {A("10.3.0.1"), A("10.3.0.2")});
  ASSERT_TRUE(bank.Admits(0, Flow("10.3.0.2", "5.0.0.1", 443)));

  bank.BeginRestart();
  ReconcileStats stats = bank.CompleteRestart(RestartMode::kWarm, snap);
  EXPECT_EQ(stats.deltas_applied, 2u);  // `changed`, on both edges
  for (size_t edge : {0u, 1u}) {
    EXPECT_FALSE(bank.Admits(edge, Flow("10.3.0.2", "5.0.0.1", 443)));
    EXPECT_TRUE(bank.Admits(edge, Flow("10.3.0.1", "5.0.0.1", 443)));
    EXPECT_TRUE(bank.Admits(edge, Flow("10.2.0.1", "5.0.0.1", 443)));
  }
}

// A cold flush outranks every install still in flight: an install sent
// before the crash lands after the flush and must not bring back a list the
// intent dropped during the outage.
TEST(FilterRestartTest, ColdFlushOutranksInstallsInFlight) {
  EventQueue queue;
  EdgeFilterBank bank("p", &queue, 3);
  bank.AddEdge("e0");
  IpAddress endpoint = A("5.0.0.1");
  bank.SetPermitList(endpoint, {Permit("10.0.0.0/8")});  // still in flight
  FilterBankSnapshot snap = bank.Checkpoint();
  bank.BeginRestart();
  bank.RemovePermitList(endpoint);
  (void)bank.CompleteRestart(RestartMode::kCold, snap);
  queue.RunAll();
  EXPECT_FALSE(bank.HasList(0, endpoint));
  EXPECT_FALSE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.1", 443)));
  EXPECT_TRUE(bank.IsConverged(endpoint));
}

// A warm restart re-pushes a list only to the edges still lagging, under a
// fresh version; the edge that had applied it keeps the older version. Both
// hold the master's list, so the endpoint is converged.
TEST(FilterRestartTest, WarmPartialRepushConverges) {
  EventQueue queue;
  EdgeFilterBank bank("p", &queue, 3);
  bank.AddEdge("e0");
  bank.AddEdge("e1");
  IpAddress endpoint = A("5.0.0.1");
  bank.SetPermitList(endpoint, {Permit("10.0.0.0/8")});
  while (bank.HasList(0, endpoint) == bank.HasList(1, endpoint)) {
    ASSERT_TRUE(queue.Step());
  }

  FilterBankSnapshot snap = bank.Checkpoint();
  bank.BeginRestart();
  ReconcileStats stats = bank.CompleteRestart(RestartMode::kWarm, snap);
  EXPECT_EQ(stats.deltas_applied, 1u);  // the lagging edge only
  queue.RunAll();
  for (size_t edge : {0u, 1u}) {
    EXPECT_TRUE(bank.Admits(edge, Flow("10.1.1.1", "5.0.0.1", 443)));
  }
  EXPECT_TRUE(bank.IsConverged(endpoint));
}

// Every list and group an edge holds in `fingerprint` (E<i> / EG<i> lines)
// is also in the master (M / MG lines): nothing the intent dropped survives
// on an edge.
void ExpectEdgesHoldOnlyMasterState(const std::string& fingerprint) {
  std::set<std::string> master;
  std::vector<std::string> held;
  std::istringstream lines(fingerprint);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream words(line);
    std::string tag;
    std::string key;
    words >> tag >> key;
    if (tag == "M" || tag == "MG") {
      master.insert(tag + " " + key);
    } else {
      held.push_back((tag[1] == 'G' ? "MG " : "M ") + key);
    }
  }
  for (const std::string& entry : held) {
    EXPECT_TRUE(master.contains(entry)) << "edge holds " << entry;
  }
}

// Warm and cold completions of the same outage land on the same semantic
// state (version numbers differ; StateFingerprint is version-free).
// Randomized: identical twin banks, identical op stream, different modes.
// With an event queue, installs are in flight at the crash, the queue runs
// during the outage, the checkpoint is taken at the kill (the coordinator's
// default), and the banks are compared once both queues drain.
void ExpectWarmAndColdAgree(uint64_t seed, bool with_queue) {
  SCOPED_TRACE("TN_SEED=" + std::to_string(seed));
  const int ops = static_cast<int>(test_env::ItersOverride(60));

  EventQueue warm_queue;
  EventQueue cold_queue;
  EdgeFilterBank warm("p", with_queue ? &warm_queue : nullptr, 1234);
  EdgeFilterBank cold("p", with_queue ? &cold_queue : nullptr, 1234);
  for (int e = 0; e < 3; ++e) {
    warm.AddEdge("e" + std::to_string(e));
    cold.AddEdge("e" + std::to_string(e));
  }

  Rng rng(seed);
  auto random_op = [&](EdgeFilterBank& bank, uint64_t draw, uint64_t ep,
                       uint64_t grp) {
    IpAddress endpoint = A(("5.0.0." + std::to_string(1 + ep % 8)).c_str());
    EndpointGroupId group(1 + grp % 4);
    switch (draw % 5) {
      case 0:
        bank.SetPermitList(endpoint, {Permit("10.0.0.0/8"),
                                      PermitGroup(group)});
        break;
      case 1:
        bank.UpdatePermitList(endpoint, {Permit("192.168.0.0/16")},
                              {Permit("10.0.0.0/8")});
        break;
      case 2:
        bank.RemovePermitList(endpoint);
        break;
      case 3:
        bank.SetGroup(group, {A(("10.1.0." + std::to_string(1 + ep % 16))
                                    .c_str())});
        break;
      case 4:
        bank.RemoveGroup(group);
        break;
    }
  };
  // One op on both banks; with queues, both then run the same stretch of
  // simulated time (drawn only then, so null-queue op streams stay put).
  auto step = [&] {
    uint64_t draw = rng.NextU64(1 << 30);
    uint64_t ep = rng.NextU64(1 << 30);
    uint64_t grp = rng.NextU64(1 << 30);
    random_op(warm, draw, ep, grp);
    random_op(cold, draw, ep, grp);
    if (with_queue) {
      const SimDuration run = SimDuration::Millis(
          static_cast<int64_t>(rng.NextU64(25)));
      warm_queue.RunUntil(warm_queue.now() + run);
      cold_queue.RunUntil(cold_queue.now() + run);
    }
  };
  // Pre-outage history (identical on both banks).
  for (int i = 0; i < ops; ++i) {
    step();
  }
  FilterBankSnapshot warm_snap = warm.Checkpoint();
  FilterBankSnapshot cold_snap = cold.Checkpoint();
  ASSERT_TRUE(warm_snap == cold_snap);

  warm.BeginRestart();
  cold.BeginRestart();
  // Outage-time mutations (logged, identical).
  for (int i = 0; i < ops / 3; ++i) {
    step();
  }
  ReconcileStats ws = warm.CompleteRestart(RestartMode::kWarm, warm_snap);
  ReconcileStats cs = cold.CompleteRestart(RestartMode::kCold, cold_snap);
  EXPECT_EQ(ws.replayed_mutations, cs.replayed_mutations);
  warm_queue.RunAll();
  cold_queue.RunAll();
  const std::string fingerprint = warm.StateFingerprint();
  EXPECT_EQ(fingerprint, cold.StateFingerprint());
  ExpectEdgesHoldOnlyMasterState(fingerprint);
  // Warm touches at most as much data plane as cold rewrites.
  EXPECT_LE(ws.deltas_applied, cs.deltas_applied);
}

class FilterRestartEquivalenceTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FilterRestartEquivalenceTest, WarmAndColdAgreeOnSemantics) {
  ExpectWarmAndColdAgree(GetParam(), /*with_queue=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterRestartEquivalenceTest,
                         ::testing::ValuesIn(test_env::SeedList(
                             {5, 21, 1009})));

class FilterRestartLatencyEquivalenceTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FilterRestartLatencyEquivalenceTest, WarmAndColdAgreeAfterDrain) {
  ExpectWarmAndColdAgree(GetParam(), /*with_queue=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterRestartLatencyEquivalenceTest,
                         ::testing::ValuesIn(test_env::SeedList(
                             {5, 21, 1009})));

// ---------------------------------------------------------------------------
// SIP load balancer: frozen table, stale health, replay validation.
// ---------------------------------------------------------------------------

TEST(SipLbRestartTest, HealthSignalsGoStaleDuringOutage) {
  SipLoadBalancer lb;
  IpAddress sip = A("6.0.0.1");
  ASSERT_TRUE(lb.AddSip(sip).ok());
  ASSERT_TRUE(lb.Bind(A("10.0.0.1"), sip).ok());
  ASSERT_TRUE(lb.Bind(A("10.0.0.2"), sip).ok());

  SipLbSnapshot snap = lb.Checkpoint();
  lb.BeginRestart();
  // Backend 2 dies mid-outage; the frozen table keeps resolving to it.
  lb.SetHealth(A("10.0.0.2"), false);
  bool resolved_stale = false;
  for (int i = 0; i < 16; ++i) {
    Result<IpAddress> r = lb.Resolve(sip);
    ASSERT_TRUE(r.ok());
    resolved_stale = resolved_stale || *r == A("10.0.0.2");
  }
  EXPECT_TRUE(resolved_stale);  // the measurable stale-backend window

  uint64_t picks = lb.resolutions();
  ReconcileStats stats = lb.CompleteRestart(RestartMode::kWarm, snap);
  EXPECT_EQ(stats.replayed_mutations, 1u);
  EXPECT_EQ(stats.dropped_mutations, 0u);
  // Reconciled: the dead backend is never picked again...
  for (int i = 0; i < 16; ++i) {
    Result<IpAddress> r = lb.Resolve(sip);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, A("10.0.0.1"));
  }
  // ...and the pick counter continued (data-plane state, not replayed).
  EXPECT_GT(lb.resolutions(), picks);
}

TEST(SipLbRestartTest, InvalidBufferedOpsDropAtReplay) {
  SipLoadBalancer lb;
  IpAddress sip = A("6.0.0.1");
  ASSERT_TRUE(lb.AddSip(sip).ok());
  ASSERT_TRUE(lb.Bind(A("10.0.0.1"), sip).ok());
  SipLbSnapshot snap = lb.Checkpoint();

  lb.BeginRestart();
  // Remove the SIP, then bind to it: the bind is invalid by replay time
  // (it would have failed synchronously outside the outage).
  EXPECT_TRUE(lb.RemoveSip(sip).ok());
  EXPECT_TRUE(lb.Bind(A("10.0.0.9"), sip).ok());
  ReconcileStats stats = lb.CompleteRestart(RestartMode::kWarm, snap);
  EXPECT_EQ(stats.replayed_mutations, 2u);
  EXPECT_EQ(stats.dropped_mutations, 1u);
  EXPECT_FALSE(lb.IsSip(sip));
}

TEST(SipLbRestartTest, WarmAndColdAgreeOnBindings) {
  SipLoadBalancer warm;
  SipLoadBalancer cold;
  for (SipLoadBalancer* lb : {&warm, &cold}) {
    ASSERT_TRUE(lb->AddSip(A("6.0.0.1")).ok());
    ASSERT_TRUE(lb->Bind(A("10.0.0.1"), A("6.0.0.1"), 2.0).ok());
    ASSERT_TRUE(lb->AddSip(A("6.0.0.2")).ok());
    ASSERT_TRUE(lb->Bind(A("10.0.0.2"), A("6.0.0.2")).ok());
  }
  SipLbSnapshot snap = warm.Checkpoint();
  ASSERT_TRUE(snap == cold.Checkpoint());
  for (SipLoadBalancer* lb : {&warm, &cold}) {
    lb->BeginRestart();
    EXPECT_TRUE(lb->Unbind(A("10.0.0.2"), A("6.0.0.2")).ok());
    EXPECT_TRUE(lb->Bind(A("10.0.0.3"), A("6.0.0.2")).ok());
    lb->UnbindEverywhere(A("10.0.0.1"));
  }
  ReconcileStats ws = warm.CompleteRestart(RestartMode::kWarm, snap);
  ReconcileStats cs = cold.CompleteRestart(RestartMode::kCold, snap);
  EXPECT_TRUE(warm.Checkpoint() == cold.Checkpoint());
  EXPECT_LE(ws.deltas_applied, cs.deltas_applied);
}

// ---------------------------------------------------------------------------
// Outage log: every mutator of every component defers. Table-driven, one row
// per mutator (plus rows that become invalid by replay time): during the
// outage the call is accepted and the live state does not move; at
// completion the mutation lands, or counts as dropped.
// ---------------------------------------------------------------------------

TEST(OutageDeferralTest, FilterBankDefersEveryMutator) {
  const IpAddress listed = A("5.0.0.1");
  const IpAddress other = A("5.0.0.2");
  const EndpointGroupId web(1);
  auto admits = [](EdgeFilterBank& bank, const char* src) {
    return bank.Admits(0, Flow(src, "5.0.0.1", 443)) &&
           bank.Admits(1, Flow(src, "5.0.0.1", 443));
  };
  struct Row {
    const char* mutator;
    std::function<void(EdgeFilterBank&)> mutate;
    std::function<bool(EdgeFilterBank&)> landed;
  };
  const std::vector<Row> rows = {
      {"SetPermitList",
       [&](EdgeFilterBank& b) {
         b.SetPermitList(listed, {Permit("172.16.0.0/12")});
       },
       [&](EdgeFilterBank& b) { return admits(b, "172.16.0.9"); }},
      {"UpdatePermitList",
       [&](EdgeFilterBank& b) {
         b.UpdatePermitList(listed, {Permit("192.168.0.0/16")},
                            {Permit("10.0.0.0/8")});
       },
       // The merge keeps the group entry: it ran against the restored
       // master, not the wiped one.
       [&](EdgeFilterBank& b) {
         return admits(b, "192.168.0.9") && !admits(b, "10.9.9.9") &&
                admits(b, "100.64.0.1");
       }},
      {"RemovePermitList",
       [&](EdgeFilterBank& b) { b.RemovePermitList(other); },
       [&](EdgeFilterBank& b) {
         return !b.HasList(0, other) && !b.HasList(1, other);
       }},
      {"SetGroup",
       [&](EdgeFilterBank& b) { b.SetGroup(web, {A("100.64.0.2")}); },
       [&](EdgeFilterBank& b) { return admits(b, "100.64.0.2"); }},
      {"RemoveGroup",
       [&](EdgeFilterBank& b) { b.RemoveGroup(web); },
       [&](EdgeFilterBank& b) {
         return !b.Admits(0, Flow("100.64.0.1", "5.0.0.1", 443)) &&
                !b.Admits(1, Flow("100.64.0.1", "5.0.0.1", 443));
       }},
  };
  for (RestartMode mode : {RestartMode::kWarm, RestartMode::kCold}) {
    for (const Row& row : rows) {
      SCOPED_TRACE(std::string(row.mutator) + " " + RestartModeName(mode));
      EdgeFilterBank bank("p", nullptr, 3);
      bank.AddEdge("e0");
      bank.AddEdge("e1");
      bank.SetGroup(web, {A("100.64.0.1")});
      bank.SetPermitList(listed, {Permit("10.0.0.0/8"), PermitGroup(web)});
      bank.SetPermitList(other, {Permit("10.0.0.0/8")});
      ASSERT_FALSE(row.landed(bank));
      FilterBankSnapshot snap = bank.Checkpoint();
      bank.BeginRestart();
      const std::string frozen = bank.StateFingerprint();
      const uint64_t messages = bank.update_messages_sent();
      row.mutate(bank);
      EXPECT_EQ(bank.StateFingerprint(), frozen);
      EXPECT_EQ(bank.update_messages_sent(), messages);
      EXPECT_FALSE(row.landed(bank));
      ReconcileStats stats = bank.CompleteRestart(mode, snap);
      EXPECT_EQ(stats.replayed_mutations, 1u);
      EXPECT_EQ(stats.dropped_mutations, 0u);
      EXPECT_TRUE(row.landed(bank));
    }
  }
}

std::optional<SipLoadBalancer::Binding> BindingOf(const SipLoadBalancer& lb,
                                                  IpAddress sip,
                                                  IpAddress eip) {
  Result<std::vector<SipLoadBalancer::Binding>> bindings = lb.Bindings(sip);
  if (bindings.ok()) {
    for (const SipLoadBalancer::Binding& b : *bindings) {
      if (b.eip == eip) {
        return b;
      }
    }
  }
  return std::nullopt;
}

TEST(OutageDeferralTest, SipLoadBalancerDefersEveryMutator) {
  const IpAddress sip1 = A("6.0.0.1");
  const IpAddress sip2 = A("6.0.0.2");
  const IpAddress sip3 = A("6.0.0.3");
  const IpAddress eip1 = A("10.0.0.1");
  const IpAddress eip2 = A("10.0.0.2");
  const IpAddress eip3 = A("10.0.0.3");
  const IpAddress eip4 = A("10.0.0.4");
  struct Row {
    const char* mutator;
    std::function<Status(SipLoadBalancer&)> mutate;
    // Null for a row that is invalid by replay time: it must drop.
    std::function<bool(const SipLoadBalancer&)> landed;
  };
  auto ok = [](auto&& apply) {
    return [apply](SipLoadBalancer& lb) {
      apply(lb);
      return Status::Ok();
    };
  };
  const std::vector<Row> rows = {
      {"AddSip", [&](SipLoadBalancer& lb) { return lb.AddSip(sip3); },
       [&](const SipLoadBalancer& lb) { return lb.IsSip(sip3); }},
      {"AddSip (already registered)",
       [&](SipLoadBalancer& lb) { return lb.AddSip(sip1); }, nullptr},
      {"RemoveSip", [&](SipLoadBalancer& lb) { return lb.RemoveSip(sip2); },
       [&](const SipLoadBalancer& lb) { return !lb.IsSip(sip2); }},
      {"RemoveSip (unknown)",
       [&](SipLoadBalancer& lb) { return lb.RemoveSip(sip3); }, nullptr},
      {"Bind", [&](SipLoadBalancer& lb) { return lb.Bind(eip4, sip1, 2.0); },
       [&](const SipLoadBalancer& lb) {
         auto b = BindingOf(lb, sip1, eip4);
         return b.has_value() && b->weight == 2.0;
       }},
      {"Bind (unknown SIP)",
       [&](SipLoadBalancer& lb) { return lb.Bind(eip4, sip3); }, nullptr},
      {"Unbind", [&](SipLoadBalancer& lb) { return lb.Unbind(eip2, sip1); },
       [&](const SipLoadBalancer& lb) {
         return !BindingOf(lb, sip1, eip2).has_value();
       }},
      {"Unbind (not bound)",
       [&](SipLoadBalancer& lb) { return lb.Unbind(eip3, sip1); }, nullptr},
      {"UnbindEverywhere",
       ok([&](SipLoadBalancer& lb) { lb.UnbindEverywhere(eip1); }),
       [&](const SipLoadBalancer& lb) {
         return !BindingOf(lb, sip1, eip1).has_value() &&
                !BindingOf(lb, sip2, eip1).has_value();
       }},
      {"SetHealth", ok([&](SipLoadBalancer& lb) { lb.SetHealth(eip1, false); }),
       [&](const SipLoadBalancer& lb) {
         return !BindingOf(lb, sip1, eip1)->healthy &&
                !BindingOf(lb, sip2, eip1)->healthy;
       }},
  };
  for (RestartMode mode : {RestartMode::kWarm, RestartMode::kCold}) {
    for (const Row& row : rows) {
      SCOPED_TRACE(std::string(row.mutator) + " " + RestartModeName(mode));
      SipLoadBalancer lb;
      ASSERT_TRUE(lb.AddSip(sip1).ok());
      ASSERT_TRUE(lb.AddSip(sip2).ok());
      ASSERT_TRUE(lb.Bind(eip1, sip1).ok());
      ASSERT_TRUE(lb.Bind(eip2, sip1).ok());
      ASSERT_TRUE(lb.Bind(eip1, sip2).ok());
      ASSERT_TRUE(lb.Bind(eip3, sip2).ok());
      SipLbSnapshot snap = lb.Checkpoint();
      ASSERT_TRUE(row.landed == nullptr || !row.landed(lb));
      lb.BeginRestart();
      const uint64_t revision = lb.config_revision();
      EXPECT_TRUE(row.mutate(lb).ok());  // accepted, validated at replay
      EXPECT_TRUE(lb.Checkpoint() == snap);
      EXPECT_EQ(lb.config_revision(), revision);
      ReconcileStats stats = lb.CompleteRestart(mode, snap);
      EXPECT_EQ(stats.replayed_mutations, 1u);
      if (row.landed == nullptr) {
        EXPECT_EQ(stats.dropped_mutations, 1u);
        EXPECT_TRUE(lb.Checkpoint() == snap);
      } else {
        EXPECT_EQ(stats.dropped_mutations, 0u);
        EXPECT_TRUE(row.landed(lb));
      }
    }
  }
}

TEST(OutageDeferralTest, BgpMeshDefersEveryMutator) {
  const SpeakerId a(1);
  const SpeakerId b(2);
  const SpeakerId c(3);
  const IpPrefix p1 = P("10.0.0.0/16");
  const IpPrefix p2 = P("10.2.0.0/16");
  struct Row {
    const char* mutator;
    std::function<Status(BgpMesh&)> mutate;
    // Null for a row that is invalid by replay time: it must drop.
    std::function<bool(const BgpMesh&)> landed;
  };
  const std::vector<Row> rows = {
      {"AddSession", [&](BgpMesh& m) { return m.AddSession(a, c); },
       [&](const BgpMesh& m) { return m.session_count() == 3; }},
      {"AddSession (exists)", [&](BgpMesh& m) { return m.AddSession(a, b); },
       nullptr},
      {"RemoveSession", [&](BgpMesh& m) { return m.RemoveSession(b, c); },
       [&](const BgpMesh& m) { return m.BestRoute(c, p1) == nullptr; }},
      {"RemoveSession (none)",
       [&](BgpMesh& m) { return m.RemoveSession(a, c); }, nullptr},
      {"SetSessionPolicy",
       [&](BgpMesh& m) {
         SessionPolicy closed;
         closed.export_filter = [](const BgpRoute&) { return false; };
         return m.SetSessionPolicy(b, c, std::move(closed));
       },
       [&](const BgpMesh& m) { return m.BestRoute(c, p1) == nullptr; }},
      {"SetSessionPolicy (no session)",
       [&](BgpMesh& m) { return m.SetSessionPolicy(a, c, {}); }, nullptr},
      {"Originate", [&](BgpMesh& m) { return m.Originate(c, p2); },
       [&](const BgpMesh& m) { return m.BestRoute(a, p2) != nullptr; }},
      {"Originate (already)", [&](BgpMesh& m) { return m.Originate(a, p1); },
       nullptr},
      {"WithdrawOrigin", [&](BgpMesh& m) { return m.WithdrawOrigin(a, p1); },
       [&](const BgpMesh& m) { return m.BestRoute(c, p1) == nullptr; }},
      {"WithdrawOrigin (not here)",
       [&](BgpMesh& m) { return m.WithdrawOrigin(b, p1); }, nullptr},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.mutator);
    BgpMesh mesh;
    mesh.AddSpeaker(100, "a");
    mesh.AddSpeaker(200, "b");
    mesh.AddSpeaker(300, "c");
    ASSERT_TRUE(mesh.AddSession(a, b).ok());
    ASSERT_TRUE(mesh.AddSession(b, c).ok());
    ASSERT_TRUE(mesh.Originate(a, p1).ok());
    mesh.Converge();
    ASSERT_TRUE(row.landed == nullptr || !row.landed(mesh));
    BgpMeshSnapshot snap = mesh.Checkpoint();
    mesh.BeginRestart();
    const uint64_t mutations = mesh.mutation_count();
    EXPECT_TRUE(row.mutate(mesh).ok());  // accepted, validated at replay
    EXPECT_TRUE(mesh.Checkpoint() == snap);
    EXPECT_EQ(mesh.mutation_count(), mutations);
    EXPECT_EQ(mesh.session_count(), 2u);
    EXPECT_EQ(mesh.pending_work(), 0u);
    EXPECT_EQ(mesh.ReconcileFromSnapshot(snap), 0u);
    ReconcileStats stats = mesh.EndRestartAndReplay();
    mesh.Converge();
    EXPECT_EQ(stats.replayed_mutations, 1u);
    EXPECT_EQ(stats.dropped_mutations, row.landed == nullptr ? 1u : 0u);
    if (row.landed != nullptr) {
      EXPECT_TRUE(row.landed(mesh));
    } else {
      EXPECT_TRUE(mesh.Checkpoint() == snap);
    }
  }
}

// ---------------------------------------------------------------------------
// Reachability across warm restart: every CanReach verdict — including its
// full stage trace — must be byte-identical before and after a quiet warm
// restart of the filter bank and the SIP load balancer, and the reach
// verifier must not recompute EIP pairs the restart provably left alone.
// ---------------------------------------------------------------------------

TEST(ReachRestartTest, QuietWarmRestartPreservesEveryVerdict) {
  TestWorld tw = BuildTestWorld();
  ConfigLedger ledger;
  DeclarativeCloud cloud(*tw.world, ledger);

  std::vector<InstanceId> vms;
  std::vector<IpAddress> eips;
  for (int i = 0; i < 4; ++i) {
    InstanceId id =
        *tw.world->LaunchInstance(tw.tenant, tw.provider, tw.east, 0);
    vms.push_back(id);
    eips.push_back(*cloud.RequestEip(id));
  }
  IpAddress sip = *cloud.RequestSip(tw.tenant, tw.provider);
  ASSERT_TRUE(cloud.Bind(eips[0], sip).ok());
  ASSERT_TRUE(cloud.Bind(eips[1], sip).ok());
  // A mixed permit matrix so the sweep holds both verdict polarities.
  for (size_t d = 0; d < eips.size(); ++d) {
    std::vector<PermitEntry> entries;
    if (d % 2 == 0) {
      PermitEntry e;
      e.source = IpPrefix::Host(eips[(d + 1) % eips.size()]);
      e.dst_ports = PortRange::Single(443);
      entries.push_back(e);
    }
    ASSERT_TRUE(cloud.SetPermitList(eips[d], entries).ok());
  }

  DeclarativeReachVerifier verifier(*tw.world, cloud);
  std::vector<DeclarativeReachVerifier::Pair> pairs;
  for (InstanceId src : vms) {
    for (const IpAddress& dst : eips) {
      pairs.push_back({src, dst, 443, Protocol::kTcp});
    }
    pairs.push_back({src, sip, 443, Protocol::kTcp});
  }
  verifier.SetPairs(pairs);
  ReachSweepStats initial = verifier.VerifyAll();
  EXPECT_EQ(initial.recomputed, pairs.size());
  const std::string before = verifier.Fingerprint();

  // Quiet warm restart of both control-plane components: checkpoint, an
  // outage with no buffered mutations, warm completion.
  EdgeFilterBank& bank = cloud.provider_filters(tw.provider);
  FilterBankSnapshot bank_snap = bank.Checkpoint();
  bank.BeginRestart();
  ReconcileStats bank_stats =
      bank.CompleteRestart(RestartMode::kWarm, bank_snap);
  EXPECT_EQ(bank_stats.deltas_applied, 0u);

  SipLbSnapshot lb_snap = cloud.sip_lb().Checkpoint();
  cloud.sip_lb().BeginRestart();
  (void)cloud.sip_lb().CompleteRestart(RestartMode::kWarm, lb_snap);

  // Identity: the incremental revalidation lands on the exact bytes of the
  // pre-restart sweep, and so does a from-scratch verifier.
  ReachSweepStats after = verifier.Revalidate();
  EXPECT_EQ(verifier.Fingerprint(), before);

  // Scoping: the quiet bank restart moved no verdict epoch, so every EIP
  // destination is reused; at most the SIP column recomputes (the load
  // balancer's restart path touches its config revision).
  const size_t sip_pairs = vms.size();
  EXPECT_LE(after.recomputed, sip_pairs);
  EXPECT_GE(after.reused, pairs.size() - sip_pairs);

  DeclarativeReachVerifier fresh(*tw.world, cloud);
  fresh.SetPairs(pairs);
  (void)fresh.VerifyAll();
  EXPECT_EQ(fresh.Fingerprint(), before);
}

// ---------------------------------------------------------------------------
// Routing plane: graceful restart + reconcile vs the full-rebuild oracle.
// ---------------------------------------------------------------------------

using TgwFib = std::vector<std::pair<IpPrefix, TgwRoute>>;

std::vector<std::map<IpPrefix, BgpRoute>> RibSnapshot(const BgpMesh& mesh) {
  std::vector<std::map<IpPrefix, BgpRoute>> out;
  for (size_t i = 1; i <= mesh.speaker_count(); ++i) {
    out.push_back(*mesh.LocRib(SpeakerId(i)));
  }
  return out;
}

void ExpectMatchesFullRebuild(BaselineNetwork& net, const std::string& at) {
  SCOPED_TRACE(at);
  auto reconciled_ribs = RibSnapshot(net.bgp());
  RoutingSnapshot reconciled = net.CheckpointRouting();

  (void)net.PropagateRoutesFull();
  auto full_ribs = RibSnapshot(net.bgp());
  RoutingSnapshot full = net.CheckpointRouting();

  ASSERT_EQ(reconciled_ribs.size(), full_ribs.size());
  for (size_t i = 0; i < reconciled_ribs.size(); ++i) {
    EXPECT_EQ(reconciled_ribs[i], full_ribs[i])
        << "Loc-RIB diverges at speaker " << (i + 1);
  }
  ASSERT_EQ(reconciled.fibs.size(), full.fibs.size());
  for (size_t i = 0; i < reconciled.fibs.size(); ++i) {
    EXPECT_TRUE(reconciled.fibs[i] == full.fibs[i])
        << "TGW FIB " << i << " diverges";
  }
}

TEST(RoutingRestartTest, MutationsBufferDuringOutageAndReplayOnComplete) {
  Fig1World fig = BuildFig1World();
  ConfigLedger ledger;
  BaselineNetwork net(*fig.world, ledger);
  Fig1Baseline handles = *BuildFig1Baseline(net, fig);
  (void)net.PropagateRoutes();
  (void)handles;

  RoutingSnapshot snap = net.CheckpointRouting();
  net.BeginRoutingRestart();
  EXPECT_TRUE(net.routing_in_restart());

  // A prefix originated mid-outage: accepted (buffered), not converged.
  SpeakerId origin(1);
  IpPrefix late = P("203.0.113.0/24");
  EXPECT_TRUE(net.bgp().Originate(origin, late).ok());
  auto stats = net.PropagateRoutes();  // no-op while down
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(net.bgp().BestRoute(origin, late), nullptr);

  ReconcileStats rs =
      net.CompleteRoutingRestart(RestartMode::kWarm, snap);
  EXPECT_FALSE(net.routing_in_restart());
  EXPECT_EQ(rs.replayed_mutations, 1u);
  EXPECT_NE(net.bgp().BestRoute(origin, late), nullptr);
  ExpectMatchesFullRebuild(net, "after warm completion with replay");
}

TEST(RoutingRestartTest, QuietWarmRestartTouchesNoFib) {
  Fig1World fig = BuildFig1World();
  ConfigLedger ledger;
  BaselineNetwork net(*fig.world, ledger);
  (void)BuildFig1Baseline(net, fig);
  (void)net.PropagateRoutes();

  RoutingSnapshot snap = net.CheckpointRouting();
  uint64_t epoch_before = net.config_epoch();
  uint64_t bgp_mutations_before = net.bgp().mutation_count();
  net.BeginRoutingRestart();
  ReconcileStats rs = net.CompleteRoutingRestart(RestartMode::kWarm, snap);
  EXPECT_GT(rs.checked, 0u);
  EXPECT_EQ(rs.deltas_applied, 0u);
  // No FIB write, no revision bump: baseline verdict caches survive.
  EXPECT_EQ(net.config_epoch(), epoch_before);
  EXPECT_EQ(net.bgp().mutation_count(), bgp_mutations_before);
  EXPECT_TRUE(net.CheckpointRouting() == snap);
}

// Satellite oracle: storm + session churn + control-plane restarts, then
// warm reconcile — the result must match a from-scratch rebuild exactly.
class RoutingRestartOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoutingRestartOracleTest, WarmReconcileMatchesFullRebuildAfterStorm) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE("TN_SEED=" + std::to_string(seed));

  Fig1World fig = BuildFig1World();
  CloudWorld& world = *fig.world;
  EventQueue queue;
  FlowSim sim(queue, world.topology());
  MetricRegistry metrics;
  ConfigLedger ledger;
  BaselineNetwork net(world, ledger);
  Fig1Baseline handles = *BuildFig1Baseline(net, fig);
  (void)net.PropagateRoutes();

  WarmRestartCoordinator coordinator(queue, metrics, RestartMode::kWarm);
  uint32_t routing =
      coordinator.Register(MakeRoutingComponent("routing", net));

  SpeakerId tgw_a_speaker = net.FindTgw(handles.tgw_a)->speaker();
  SpeakerId tgw_b_speaker = net.FindTgw(handles.tgw_b)->speaker();
  FaultHooks hooks;
  hooks.on_inject = [&](const FaultSpec& spec) {
    if (spec.kind == FaultKind::kGatewayRestart) {
      (void)net.bgp().RemoveSession(tgw_a_speaker, tgw_b_speaker);
    }
    (void)net.PropagateRoutes();  // no-op while the routing plane is down
  };
  hooks.on_recover = [&](const FaultSpec& spec) {
    if (spec.kind == FaultKind::kGatewayRestart) {
      (void)net.bgp().AddSession(tgw_a_speaker, tgw_b_speaker);
    }
    (void)net.PropagateRoutes();
  };
  coordinator.WireHooks(hooks);
  FaultInjector injector(queue, world.topology(), sim, &world, metrics,
                         std::move(hooks));

  StormParams params;
  params.event_count = static_cast<size_t>(test_env::ItersOverride(40));
  params.window = SimDuration::Seconds(10);
  const Topology& topo = world.topology();
  for (size_t i = 0; i < topo.link_count(); ++i) {
    LinkId id(i + 1);
    if (topo.link(id).cls == LinkClass::kBackbone) {
      params.links.push_back(id);
    }
  }
  params.gateways = {world.region(fig.a_us_east).edge_node,
                     world.region(fig.b_us_east).edge_node};
  params.restart_components = {routing};
  injector.Schedule(FaultSchedule::Storm(seed, params));
  queue.RunAll();

  EXPECT_GT(coordinator.restarts_begun(), 0u);
  EXPECT_EQ(coordinator.restarts_begun(), coordinator.restarts_completed());
  EXPECT_FALSE(net.routing_in_restart());

  (void)net.PropagateRoutes();  // drain whatever the last hook left pending
  ExpectMatchesFullRebuild(net, "after storm with warm restarts");
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingRestartOracleTest,
                         ::testing::ValuesIn(test_env::SeedList(
                             {7, 99, 4242})));

// ---------------------------------------------------------------------------
// FaultInjector + coordinator: idempotent overlapping restarts.
// ---------------------------------------------------------------------------

TEST(RestartFaultTest, OverlappingRestartsOfOneComponentReconcileOnce) {
  TestWorld tw = BuildTestWorld();
  Topology& topo = tw.world->topology();
  EventQueue queue;
  FlowSim sim(queue, topo);
  MetricRegistry metrics;

  EdgeFilterBank bank("p", &queue, 11);
  bank.AddEdge("e0");
  bank.SetPermitList(A("5.0.0.1"), {Permit("10.0.0.0/8")});
  queue.RunAll();

  WarmRestartCoordinator coordinator(queue, metrics, RestartMode::kWarm);
  uint32_t filters =
      coordinator.Register(MakeFilterBankComponent("filters", bank));

  FaultHooks hooks;
  coordinator.WireHooks(hooks);
  FaultInjector injector(queue, topo, sim, tw.world.get(), metrics,
                         std::move(hooks));

  FaultSpec first;
  first.kind = FaultKind::kControlPlaneRestart;
  first.component = filters;
  first.duration = SimDuration::Seconds(1);
  FaultSpec second = first;
  second.duration = SimDuration::Seconds(3);

  injector.InjectNow(first);
  injector.InjectNow(second);  // overlapping: same component, longer outage
  EXPECT_TRUE(coordinator.InRestart(filters));
  EXPECT_EQ(coordinator.restarts_begun(), 1u);

  // After the first recovery the component must still be down (the second
  // fault holds the ref); only the last recovery reconciles.
  queue.RunUntil(SimTime::Epoch() + SimDuration::Seconds(2));
  EXPECT_TRUE(coordinator.InRestart(filters));
  EXPECT_EQ(coordinator.restarts_completed(), 0u);

  queue.RunAll();
  EXPECT_FALSE(coordinator.InRestart(filters));
  EXPECT_EQ(coordinator.restarts_begun(), 1u);
  EXPECT_EQ(coordinator.restarts_completed(), 1u);
  EXPECT_TRUE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.1", 443)));
  EXPECT_EQ(coordinator.outage_ms(filters).count(), 1u);
}

TEST(RestartFaultTest, CoordinatorBeginAndCompleteAreIdempotent) {
  EventQueue queue;
  MetricRegistry metrics;
  SipLoadBalancer lb;
  ASSERT_TRUE(lb.AddSip(A("6.0.0.1")).ok());

  WarmRestartCoordinator coordinator(queue, metrics);
  uint32_t id = coordinator.Register(MakeSipLbComponent("lb", lb));
  coordinator.BeginRestart(id);
  coordinator.BeginRestart(id);  // second kill extends the same outage
  EXPECT_EQ(coordinator.restarts_begun(), 1u);
  EXPECT_TRUE(lb.in_restart());

  (void)coordinator.CompleteRestart(id);
  EXPECT_FALSE(lb.in_restart());
  ReconcileStats again = coordinator.CompleteRestart(id);  // no-op
  EXPECT_EQ(again.checked + again.deltas_applied + again.replayed_mutations,
            0u);
  EXPECT_EQ(coordinator.restarts_completed(), 1u);
}

TEST(RestartFaultTest, StormDrawsRestartKindDeterministically) {
  StormParams p;
  p.event_count = 50;
  p.restart_components = {0, 1, 2};
  FaultSchedule a = FaultSchedule::Storm(17, p);
  FaultSchedule b = FaultSchedule::Storm(17, p);
  ASSERT_EQ(a.events.size(), 50u);
  size_t restarts = 0;
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].component, b.events[i].component);
    if (a.events[i].kind == FaultKind::kControlPlaneRestart) {
      ++restarts;
      EXPECT_LT(a.events[i].component, 3u);
    }
  }
  EXPECT_GT(restarts, 0u);
}

}  // namespace
}  // namespace tenantnet
