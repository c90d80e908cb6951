// Tests for the replicated permit-list enforcement bank.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/core/edge_filter.h"

namespace tenantnet {
namespace {

FiveTuple Flow(const char* src, const char* dst, uint16_t dport,
               Protocol proto = Protocol::kTcp) {
  FiveTuple t;
  t.src = *IpAddress::Parse(src);
  t.dst = *IpAddress::Parse(dst);
  t.src_port = 40000;
  t.dst_port = dport;
  t.proto = proto;
  return t;
}

PermitEntry Permit(const char* source, PortRange ports = PortRange::Any(),
                   Protocol proto = Protocol::kAny) {
  PermitEntry e;
  e.source = *IpPrefix::Parse(source);
  e.dst_ports = ports;
  e.proto = proto;
  return e;
}

TEST(EdgeFilterTest, DefaultOffWithNoList) {
  EdgeFilterBank bank("p", nullptr, 1);
  bank.AddEdge("e0");
  EXPECT_FALSE(bank.Admits(0, Flow("1.1.1.1", "5.0.0.1", 443)));
  EXPECT_FALSE(bank.HasList(0, *IpAddress::Parse("5.0.0.1")));
}

TEST(EdgeFilterTest, EmptyListAdmitsNothing) {
  EdgeFilterBank bank("p", nullptr, 1);
  bank.AddEdge("e0");
  bank.SetPermitList(*IpAddress::Parse("5.0.0.1"), {});
  EXPECT_TRUE(bank.HasList(0, *IpAddress::Parse("5.0.0.1")));
  EXPECT_FALSE(bank.Admits(0, Flow("1.1.1.1", "5.0.0.1", 443)));
}

TEST(EdgeFilterTest, PermittedSourcePasses) {
  EdgeFilterBank bank("p", nullptr, 1);
  bank.AddEdge("e0");
  bank.AddEdge("e1");
  IpAddress endpoint = *IpAddress::Parse("5.0.0.1");
  bank.SetPermitList(endpoint, {Permit("10.0.0.0/8"),
                                Permit("20.1.0.0/16",
                                       PortRange::Single(443),
                                       Protocol::kTcp)});
  // Prefix entry admits any port.
  EXPECT_TRUE(bank.Admits(0, Flow("10.3.4.5", "5.0.0.1", 7077)));
  EXPECT_TRUE(bank.Admits(1, Flow("10.3.4.5", "5.0.0.1", 7077)));
  // Scoped entry: right source + port + proto only.
  EXPECT_TRUE(bank.Admits(0, Flow("20.1.9.9", "5.0.0.1", 443)));
  EXPECT_FALSE(bank.Admits(0, Flow("20.1.9.9", "5.0.0.1", 80)));
  EXPECT_FALSE(
      bank.Admits(0, Flow("20.1.9.9", "5.0.0.1", 443, Protocol::kUdp)));
  // Unlisted source.
  EXPECT_FALSE(bank.Admits(0, Flow("99.0.0.1", "5.0.0.1", 443)));
}

TEST(EdgeFilterTest, ListsAreScopedPerEndpoint) {
  EdgeFilterBank bank("p", nullptr, 1);
  bank.AddEdge("e0");
  bank.SetPermitList(*IpAddress::Parse("5.0.0.1"), {Permit("10.0.0.0/8")});
  // The same source toward a different endpoint: default-off.
  EXPECT_FALSE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.2", 443)));
}

TEST(EdgeFilterTest, RemoveReinstatesDefaultOff) {
  EdgeFilterBank bank("p", nullptr, 1);
  bank.AddEdge("e0");
  IpAddress endpoint = *IpAddress::Parse("5.0.0.1");
  bank.SetPermitList(endpoint, {Permit("10.0.0.0/8")});
  ASSERT_TRUE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.1", 443)));
  bank.RemovePermitList(endpoint);
  EXPECT_FALSE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.1", 443)));
  EXPECT_TRUE(bank.IsConverged(endpoint));  // gone everywhere
}

TEST(EdgeFilterTest, MemoryAndMessageAccounting) {
  EdgeFilterBank bank("p", nullptr, 1);
  bank.AddEdge("e0");
  bank.AddEdge("e1");
  bank.AddEdge("e2");
  IpAddress a = *IpAddress::Parse("5.0.0.1");
  IpAddress b = *IpAddress::Parse("5.0.0.2");
  bank.SetPermitList(a, {Permit("10.0.0.0/8"), Permit("11.0.0.0/8")});
  bank.SetPermitList(b, {Permit("10.0.0.0/8")});
  // Entries are replicated at every edge.
  EXPECT_EQ(bank.total_installed_entries(), 3u * 3u);
  EXPECT_EQ(bank.update_messages_sent(), 6u);  // 2 updates x 3 edges
  EXPECT_EQ(bank.endpoints_with_lists(), 2u);
  // Replacing a list swaps, not accumulates.
  bank.SetPermitList(a, {Permit("12.0.0.0/8")});
  EXPECT_EQ(bank.total_installed_entries(), 2u * 3u);
}

TEST(EdgeFilterTest, AsyncInstallConvergesAfterLatency) {
  EventQueue queue;
  EdgeFilterBank bank("p", &queue, 7);
  bank.AddEdge("e0");
  bank.AddEdge("e1");
  IpAddress endpoint = *IpAddress::Parse("5.0.0.1");
  SimTime last = bank.SetPermitList(endpoint, {Permit("10.0.0.0/8")});
  EXPECT_GT(last, queue.now());
  EXPECT_FALSE(bank.IsConverged(endpoint));
  // Before any install lands, the edge still defaults off.
  EXPECT_FALSE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.1", 443)));
  queue.RunUntil(last);
  EXPECT_TRUE(bank.IsConverged(endpoint));
  EXPECT_TRUE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.1", 443)));
  EXPECT_TRUE(bank.Admits(1, Flow("10.1.1.1", "5.0.0.1", 443)));
}

TEST(EdgeFilterTest, StaleUpdateNeverOverwritesNewer) {
  EventQueue queue;
  // Large jitter makes reordering overwhelmingly likely across versions.
  EdgeFilterParams params;
  params.install_base = SimDuration::Millis(1);
  params.install_extra_mean = SimDuration::Millis(50);
  EdgeFilterBank bank("p", &queue, 11, params);
  bank.AddEdge("e0");
  IpAddress endpoint = *IpAddress::Parse("5.0.0.1");
  for (int version = 0; version < 20; ++version) {
    bank.SetPermitList(
        endpoint,
        {Permit(version % 2 == 0 ? "10.0.0.0/8" : "11.0.0.0/8")});
  }
  queue.RunAll();
  EXPECT_TRUE(bank.IsConverged(endpoint));
  // Final version (index 19, odd) permits 11/8 and not 10/8.
  EXPECT_TRUE(bank.Admits(0, Flow("11.1.1.1", "5.0.0.1", 443)));
  EXPECT_FALSE(bank.Admits(0, Flow("10.1.1.1", "5.0.0.1", 443)));
}

// A removal outranks every install still in flight: the install lands after
// the removal and is discarded, so the list does not come back. An install
// sent after the removal still wins.
TEST(EdgeFilterTest, RemovalOutranksListInstallInFlight) {
  EventQueue queue;
  EdgeFilterBank bank("p", &queue, 7);
  bank.AddEdge("e0");
  bank.AddEdge("e1");
  IpAddress endpoint = *IpAddress::Parse("5.0.0.1");
  bank.SetPermitList(endpoint, {Permit("10.0.0.0/8")});
  bank.RemovePermitList(endpoint);  // before either install lands
  queue.RunAll();
  for (size_t edge : {0u, 1u}) {
    EXPECT_FALSE(bank.HasList(edge, endpoint));
    EXPECT_FALSE(bank.Admits(edge, Flow("10.1.1.1", "5.0.0.1", 443)));
  }
  EXPECT_TRUE(bank.IsConverged(endpoint));

  SimTime last = bank.SetPermitList(endpoint, {Permit("11.0.0.0/8")});
  EXPECT_FALSE(bank.IsConverged(endpoint));
  queue.RunUntil(last);
  EXPECT_TRUE(bank.IsConverged(endpoint));
  for (size_t edge : {0u, 1u}) {
    EXPECT_TRUE(bank.HasList(edge, endpoint));
    EXPECT_TRUE(bank.Admits(edge, Flow("11.1.1.1", "5.0.0.1", 443)));
  }
}

TEST(EdgeFilterTest, RemovalOutranksGroupInstallInFlight) {
  EventQueue queue;
  EdgeFilterBank bank("p", &queue, 7);
  bank.AddEdge("e0");
  bank.AddEdge("e1");
  EndpointGroupId web(1);
  PermitEntry by_group;
  by_group.source_group = web;
  bank.SetPermitList(*IpAddress::Parse("5.0.0.1"), {by_group});
  bank.SetGroup(web, {*IpAddress::Parse("10.1.0.1")});
  queue.RunAll();
  ASSERT_TRUE(bank.Admits(0, Flow("10.1.0.1", "5.0.0.1", 443)));

  bank.SetGroup(web, {*IpAddress::Parse("10.1.0.1"),
                      *IpAddress::Parse("10.1.0.2")});
  bank.RemoveGroup(web);  // before either new member set lands
  queue.RunAll();
  for (size_t edge : {0u, 1u}) {
    EXPECT_FALSE(bank.Admits(edge, Flow("10.1.0.1", "5.0.0.1", 443)));
    EXPECT_FALSE(bank.Admits(edge, Flow("10.1.0.2", "5.0.0.1", 443)));
  }
  EXPECT_EQ(bank.StateFingerprint().find("EG"), std::string::npos);

  bank.SetGroup(web, {*IpAddress::Parse("10.1.0.2")});
  queue.RunAll();
  for (size_t edge : {0u, 1u}) {
    EXPECT_TRUE(bank.Admits(edge, Flow("10.1.0.2", "5.0.0.1", 443)));
  }
}

// --- Verdict path ------------------------------------------------------------

TEST(EdgeFilterTest, ListsCompileOncePerDistinctListNotPerEdge) {
  EdgeFilterBank bank("p", nullptr, 1);
  for (int e = 0; e < 5; ++e) {
    bank.AddEdge("e" + std::to_string(e));
  }
  EXPECT_EQ(bank.permit_compiles(), 0u);
  bank.SetPermitList(*IpAddress::Parse("5.0.0.1"), {Permit("10.0.0.0/8")});
  EXPECT_EQ(bank.permit_compiles(), 1u);  // shared across all 5 edges
  EXPECT_EQ(bank.distinct_permit_sets(), 1u);
  // A byte-identical list for another endpoint interns to the same set and
  // reuses its matcher: no recompile, no extra storage.
  bank.SetPermitList(*IpAddress::Parse("5.0.0.2"), {Permit("10.0.0.0/8")});
  EXPECT_EQ(bank.permit_compiles(), 1u);
  EXPECT_EQ(bank.distinct_permit_sets(), 1u);
  // A different list is a new distinct set and compiles once.
  bank.SetPermitList(*IpAddress::Parse("5.0.0.3"), {Permit("11.0.0.0/8")});
  EXPECT_EQ(bank.permit_compiles(), 2u);
  EXPECT_EQ(bank.distinct_permit_sets(), 2u);
  // Dropping every holder of a distinct list frees its interned slot.
  bank.RemovePermitList(*IpAddress::Parse("5.0.0.3"));
  EXPECT_EQ(bank.distinct_permit_sets(), 1u);
}

// A verdict that flips moves the endpoint's epoch, which is what a kept
// verdict (the reach verifier's) is keyed on.
TEST(EdgeFilterTest, ListReplaceInvalidatesCachedVerdict) {
  EdgeFilterBank bank("p", nullptr, 1);
  bank.AddEdge("e0");
  IpAddress endpoint = *IpAddress::Parse("5.0.0.1");
  bank.SetPermitList(endpoint, {Permit("10.0.0.0/8")});
  FiveTuple flow = Flow("10.1.1.1", "5.0.0.1", 443);
  EXPECT_TRUE(bank.Admits(0, flow));
  uint64_t epoch = bank.EndpointVerdictEpoch(endpoint);
  bank.SetPermitList(endpoint, {Permit("20.0.0.0/8")});
  EXPECT_FALSE(bank.Admits(0, flow));
  EXPECT_GT(bank.EndpointVerdictEpoch(endpoint), epoch);
  epoch = bank.EndpointVerdictEpoch(endpoint);
  bank.RemovePermitList(endpoint);
  EXPECT_FALSE(bank.Admits(0, flow));
  EXPECT_GT(bank.EndpointVerdictEpoch(endpoint), epoch);
}

TEST(EdgeFilterTest, GroupUpdateInvalidatesCachedVerdict) {
  EdgeFilterBank bank("p", nullptr, 1);
  bank.AddEdge("e0");
  EndpointGroupId group(1);
  PermitEntry entry;
  entry.source_group = group;
  bank.SetPermitList(*IpAddress::Parse("5.0.0.1"), {entry});
  bank.SetGroup(group, {*IpAddress::Parse("10.1.1.1")});
  FiveTuple flow = Flow("10.1.1.1", "5.0.0.1", 443);
  EXPECT_TRUE(bank.Admits(0, flow));
  const uint64_t global = bank.global_verdict_epoch();
  bank.SetGroup(group, {*IpAddress::Parse("10.2.2.2")});  // member swapped
  EXPECT_FALSE(bank.Admits(0, flow));
  EXPECT_GT(bank.global_verdict_epoch(), global);
  bank.RemoveGroup(group);
  EXPECT_FALSE(bank.Admits(0, Flow("10.2.2.2", "5.0.0.1", 443)));
}

// The verdict path's member probe (for all-v4 sets, a binary search of the
// window the first and last member bound) agrees with AdmitsLinear's search
// of the whole set on runs of consecutive addresses with one hole, sparse
// sets and mixed-family sets.
TEST(EdgeFilterTest, GroupProbeAgreesWithReferenceSearch) {
  Rng rng(29);
  for (int shape = 0; shape < 3; ++shape) {  // run with a hole, sparse, mixed
    for (uint32_t size : {0, 1, 2, 3, 5, 8, 64, 300}) {
      SCOPED_TRACE("shape=" + std::to_string(shape) +
                   " size=" + std::to_string(size));
      auto random_addr = [&] {
        return shape == 2 && rng.NextBool(0.3)
                   ? IpAddress::V6(rng.NextU64(4), rng.NextU64(1024))
                   : IpAddress::V4(static_cast<uint32_t>(rng.NextU64(1024)));
      };
      std::vector<IpAddress> members;
      std::vector<IpAddress> probes;
      for (uint32_t i = 0; i < size; ++i) {
        if (shape != 0) {
          members.push_back(random_addr());
        } else if (i != size / 2 || size < 3) {
          members.push_back(IpAddress::V4(100 + i));
        }
      }
      for (uint32_t a = 98; a < 100 + size + 2; ++a) {
        probes.push_back(IpAddress::V4(a));
      }
      for (int i = 0; i < 200; ++i) {
        probes.push_back(random_addr());
      }
      EdgeFilterBank bank("p", nullptr, 1);
      bank.AddEdge("e0");
      EndpointGroupId group(1);
      PermitEntry entry;
      entry.source_group = group;
      const IpAddress dst = *IpAddress::Parse("5.0.0.1");
      bank.SetPermitList(dst, {entry});
      bank.SetGroup(group, members);
      auto flow_from = [&](IpAddress src) {
        FiveTuple t;
        t.src = src;
        t.dst = dst;
        t.dst_port = 443;
        t.proto = Protocol::kTcp;
        return t;
      };
      // The bank holds the set sorted and without duplicates.
      std::vector<IpAddress> canonical = members;
      std::sort(canonical.begin(), canonical.end());
      canonical.erase(std::unique(canonical.begin(), canonical.end()),
                      canonical.end());
      EXPECT_EQ(*bank.Checkpoint().groups.at(0).members, canonical);
      for (const IpAddress& member : members) {
        EXPECT_TRUE(bank.Admits(0, flow_from(member))) << member;
        EXPECT_TRUE(bank.AdmitsLinear(0, flow_from(member))) << member;
      }
      for (const IpAddress& probe : probes) {
        EXPECT_EQ(bank.Admits(0, flow_from(probe)),
                  bank.AdmitsLinear(0, flow_from(probe)))
            << probe;
      }
    }
  }
}

// The master and every edge replica of one group version share a single
// member vector, so the bank's footprint counts it once, not once per edge.
TEST(EdgeFilterTest, SharedGroupSnapshotIsCountedOnce) {
  std::vector<IpAddress> members;
  for (uint32_t i = 0; i < 100; ++i) {
    members.push_back(IpAddress::V4(0x0a000000u + i));
  }
  const MemberSnapshot snapshot = MakeMemberSnapshot(members);
  const size_t snapshot_bytes = snapshot->capacity() * sizeof(IpAddress);
  for (int edges : {1, 6}) {
    SCOPED_TRACE("edges=" + std::to_string(edges));
    EdgeFilterBank bank("p", nullptr, 1);
    for (int e = 0; e < edges; ++e) {
      bank.AddEdge("e" + std::to_string(e));
    }
    const size_t before = bank.ApproxBytes();
    bank.SetGroupSnapshot(EndpointGroupId(1), snapshot);
    EXPECT_EQ(bank.ApproxBytes() - before, snapshot_bytes);
    // A second group holding the same snapshot adds nothing either.
    bank.SetGroupSnapshot(EndpointGroupId(2), snapshot);
    EXPECT_EQ(bank.ApproxBytes() - before, snapshot_bytes);
  }
}

// Mutating endpoint .2 bumps only its own verdict epoch, so verdicts the
// reach verifier keeps for .1 (keyed on .1's epoch) stay valid.
TEST(EdgeFilterTest, UnrelatedListUpdateKeepsOtherVerdictsCached) {
  EdgeFilterBank bank("p", nullptr, 1);
  bank.AddEdge("e0");
  const IpAddress one = *IpAddress::Parse("5.0.0.1");
  const IpAddress two = *IpAddress::Parse("5.0.0.2");
  bank.SetPermitList(one, {Permit("10.0.0.0/8")});
  bank.SetPermitList(two, {Permit("10.0.0.0/8")});
  FiveTuple flow1 = Flow("10.1.1.1", "5.0.0.1", 443);
  EXPECT_TRUE(bank.Admits(0, flow1));
  const uint64_t epoch_one = bank.EndpointVerdictEpoch(one);
  const uint64_t epoch_two = bank.EndpointVerdictEpoch(two);
  const uint64_t global = bank.global_verdict_epoch();
  bank.SetPermitList(two, {Permit("30.0.0.0/8")});
  EXPECT_TRUE(bank.Admits(0, flow1));
  EXPECT_EQ(bank.EndpointVerdictEpoch(one), epoch_one);
  EXPECT_GT(bank.EndpointVerdictEpoch(two), epoch_two);
  EXPECT_EQ(bank.global_verdict_epoch(), global);
}

TEST(EdgeFilterTest, OverlappingPrefixesAdmitOnAnyCoveringScope) {
  // A /8 scoped to one port plus a /16 scoped to another: admission is
  // "any covering prefix with a matching scope", not longest-match-only.
  EdgeFilterBank bank("p", nullptr, 1);
  bank.AddEdge("e0");
  bank.SetPermitList(
      *IpAddress::Parse("5.0.0.1"),
      {Permit("10.0.0.0/8", PortRange::Single(443)),
       Permit("10.1.0.0/16", PortRange::Single(80))});
  EXPECT_TRUE(bank.Admits(0, Flow("10.1.2.3", "5.0.0.1", 443)));  // via /8
  EXPECT_TRUE(bank.Admits(0, Flow("10.1.2.3", "5.0.0.1", 80)));   // via /16
  EXPECT_FALSE(bank.Admits(0, Flow("10.2.2.2", "5.0.0.1", 80)));  // /8 only
  // The compiled walk and the linear reference agree on these.
  for (uint16_t port : {443, 80, 8080}) {
    FiveTuple f = Flow("10.1.2.3", "5.0.0.1", port);
    EXPECT_EQ(bank.Admits(0, f), bank.AdmitsLinear(0, f));
  }
}

}  // namespace
}  // namespace tenantnet
