// Differential fuzz for the arena-backed path-compressed LPM trie.
//
// The oracle is a deliberately naive std::map<IpPrefix, int> with linear
// longest-match scans: trivially correct, hopelessly slow, and structurally
// nothing like a Patricia arena — exactly what you want on the other side
// of a differential test. Random insert / overwrite / remove / lookup
// streams (v4 + v6, seeded, honoring TN_SEED / TN_ITERS) must agree on
// every observable: LongestMatch, LongestMatchEntry, ExactMatch,
// ForEachMatch cover sets, entry_count, and full ForEach enumeration.
//
// Prefixes are drawn from a small pool of base addresses so streams are
// dense in ancestors, siblings, and re-inserts — the cases that force edge
// splits, valueless branch nodes, and slot recycling in the arena.
//
// The second half churns the trie's production host EdgeFilterBank with
// random state and asserts the warm-restart fixed point
// Checkpoint -> RestoreFromSnapshot -> Checkpoint on the result, so the
// restart_test fingerprints keep holding under states no hand-written test
// enumerates.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/edge_filter.h"
#include "src/net/ip.h"
#include "src/routing/lpm_trie.h"
#include "tests/test_env.h"

namespace tenantnet {
namespace {

// ---------------------------------------------------------------------------
// Naive reference LPM: ordered map + linear scans. The oracle.
// ---------------------------------------------------------------------------

class RefLpm {
 public:
  bool Insert(const IpPrefix& prefix, int value) {
    return entries_.insert_or_assign(prefix, value).second;
  }
  bool Remove(const IpPrefix& prefix) { return entries_.erase(prefix) != 0; }

  const int* ExactMatch(const IpPrefix& prefix) const {
    auto it = entries_.find(prefix);
    return it == entries_.end() ? nullptr : &it->second;
  }

  std::optional<std::pair<IpPrefix, int>> LongestMatch(IpAddress ip) const {
    std::optional<std::pair<IpPrefix, int>> best;
    for (const auto& [prefix, value] : entries_) {
      if (prefix.family() != ip.family() || !prefix.Contains(ip)) {
        continue;
      }
      if (!best || prefix.length() > best->first.length()) {
        best = {prefix, value};
      }
    }
    return best;
  }

  // Values of every prefix covering ip, shortest first (ForEachMatch order).
  std::vector<int> Covers(IpAddress ip) const {
    std::vector<std::pair<int, int>> hits;  // (length, value)
    for (const auto& [prefix, value] : entries_) {
      if (prefix.family() == ip.family() && prefix.Contains(ip)) {
        hits.emplace_back(prefix.length(), value);
      }
    }
    std::sort(hits.begin(), hits.end());
    std::vector<int> out;
    for (const auto& [len, value] : hits) {
      out.push_back(value);
    }
    return out;
  }

  size_t size() const { return entries_.size(); }
  const std::map<IpPrefix, int>& entries() const { return entries_; }

 private:
  std::map<IpPrefix, int> entries_;
};

// ---------------------------------------------------------------------------
// Random prefix/address generation, biased for structural collisions.
// ---------------------------------------------------------------------------

constexpr size_t kBasePool = 12;

IpAddress RandomAddr(Rng& rng, bool v6, const std::vector<IpAddress>& pool) {
  // Half the draws perturb a pooled base (stays inside populated subtrees),
  // half are uniform (exercises miss paths and far branches).
  if (!pool.empty() && rng.NextBool(0.5)) {
    const IpAddress& base = pool[rng.NextU64(pool.size())];
    if (!v6) {
      return IpAddress::V4(base.v4_bits() ^
                           static_cast<uint32_t>(rng.NextU64(1u << 12)));
    }
    return IpAddress::V6(base.hi(), base.lo() ^ rng.NextU64(1ull << 20));
  }
  if (!v6) {
    return IpAddress::V4(static_cast<uint32_t>(rng.NextU64()));
  }
  return IpAddress::V6(rng.NextU64(), rng.NextU64());
}

IpPrefix RandomPrefix(Rng& rng, bool v6, const std::vector<IpAddress>& pool) {
  const int width = v6 ? 128 : 32;
  // Bias toward deep prefixes (host routes are the E10 workload) but keep
  // the whole range reachable, /0 included.
  int len;
  switch (rng.NextU64(4)) {
    case 0:
      len = static_cast<int>(rng.NextU64(width + 1));
      break;
    case 1:
      len = width;  // host route
      break;
    default:
      len = width / 2 + static_cast<int>(rng.NextU64(width / 2 + 1));
      break;
  }
  return *IpPrefix::Create(RandomAddr(rng, v6, pool), len);
}

std::vector<int> CoversViaTrie(const LpmTrie<int>& trie, IpAddress ip) {
  std::vector<int> out;
  trie.ForEachMatch(ip, [&](const int& value) {
    out.push_back(value);
    return true;
  });
  return out;
}

class LpmFuzzTest : public ::testing::TestWithParam<uint64_t> {};

// ---------------------------------------------------------------------------
// The differential stream.
// ---------------------------------------------------------------------------

TEST_P(LpmFuzzTest, ArenaTrieMatchesNaiveMapReference) {
  const int iters = static_cast<int>(test_env::ItersOverride(3000));
  SCOPED_TRACE("reproduce with TN_SEED=" + std::to_string(GetParam()) +
               " TN_ITERS=" + std::to_string(iters));
  Rng rng(GetParam());

  std::vector<IpAddress> pool_v4, pool_v6;
  for (size_t i = 0; i < kBasePool; ++i) {
    pool_v4.push_back(IpAddress::V4(static_cast<uint32_t>(rng.NextU64())));
    pool_v6.push_back(IpAddress::V6(rng.NextU64(), rng.NextU64()));
  }

  LpmTrie<int> trie;
  RefLpm ref;
  std::vector<IpPrefix> inserted;  // may contain already-removed prefixes
  int next_value = 0;

  for (int step = 0; step < iters; ++step) {
    const bool v6 = rng.NextBool(0.4);
    const auto& pool = v6 ? pool_v6 : pool_v4;
    switch (rng.NextU64(4)) {
      case 0:
      case 1: {  // insert or overwrite
        IpPrefix prefix = RandomPrefix(rng, v6, pool);
        const int value = next_value++;
        EXPECT_EQ(trie.Insert(prefix, value), ref.Insert(prefix, value));
        inserted.push_back(prefix);
        break;
      }
      case 2: {  // remove (random known prefix, or a fresh likely-miss)
        IpPrefix prefix = !inserted.empty() && rng.NextBool(0.8)
                              ? inserted[rng.NextU64(inserted.size())]
                              : RandomPrefix(rng, v6, pool);
        EXPECT_EQ(trie.Remove(prefix), ref.Remove(prefix));
        break;
      }
      default: {  // probe a batch of lookups
        for (int probe = 0; probe < 4; ++probe) {
          const bool pv6 = rng.NextBool(0.4);
          IpAddress ip = RandomAddr(rng, pv6, pv6 ? pool_v6 : pool_v4);
          auto want = ref.LongestMatch(ip);
          const int* got = trie.LongestMatch(ip);
          ASSERT_EQ(got != nullptr, want.has_value()) << ip.ToString();
          if (want) {
            EXPECT_EQ(*got, want->second) << ip.ToString();
            auto entry = trie.LongestMatchEntry(ip);
            ASSERT_TRUE(entry.has_value()) << ip.ToString();
            EXPECT_EQ(entry->first, want->first) << ip.ToString();
          }
          EXPECT_EQ(CoversViaTrie(trie, ip), ref.Covers(ip)) << ip.ToString();
        }
        if (!inserted.empty()) {
          const IpPrefix& prefix = inserted[rng.NextU64(inserted.size())];
          const int* got = trie.ExactMatch(prefix);
          const int* want = ref.ExactMatch(prefix);
          ASSERT_EQ(got != nullptr, want != nullptr) << prefix.ToString();
          if (want != nullptr) {
            EXPECT_EQ(*got, *want) << prefix.ToString();
          }
        }
        break;
      }
    }
    ASSERT_EQ(trie.entry_count(), ref.size());
  }

  // Full enumeration must agree entry-for-entry.
  std::map<IpPrefix, int> walked;
  trie.ForEach([&](const IpPrefix& prefix, const int& value) {
    EXPECT_TRUE(walked.emplace(prefix, value).second)
        << "duplicate " << prefix.ToString();
  });
  EXPECT_EQ(walked, ref.entries());
}

// ---------------------------------------------------------------------------
// Fixed point under random churn: the trie's production hosts.
// ---------------------------------------------------------------------------

TEST_P(LpmFuzzTest, FilterBankCheckpointFixedPointUnderRandomChurn) {
  const int iters = static_cast<int>(test_env::ItersOverride(3000)) / 10;
  SCOPED_TRACE("reproduce with TN_SEED=" + std::to_string(GetParam()));
  Rng rng(GetParam() ^ 0x9e3779b97f4a7c15ull);

  EdgeFilterBank bank("fuzz", nullptr, GetParam());
  bank.AddEdge("e0");
  bank.AddEdge("e1");

  std::vector<IpAddress> endpoints;
  for (int i = 0; i < 24; ++i) {
    endpoints.push_back(IpAddress::V4(0x05000000u + i));
  }
  std::vector<IpAddress> pool;
  for (size_t i = 0; i < kBasePool; ++i) {
    pool.push_back(IpAddress::V4(static_cast<uint32_t>(rng.NextU64())));
  }

  for (int step = 0; step < iters; ++step) {
    const IpAddress endpoint = endpoints[rng.NextU64(endpoints.size())];
    switch (rng.NextU64(4)) {
      case 0:
        bank.RemovePermitList(endpoint);
        break;
      case 1: {
        EndpointGroupId group(rng.NextU64(4) + 1);
        std::vector<IpAddress> members;
        for (uint64_t i = rng.NextU64(4); i > 0; --i) {
          members.push_back(RandomAddr(rng, false, pool));
        }
        bank.SetGroup(group, std::move(members));
        break;
      }
      default: {
        // Few distinct lists across many endpoints — the interning shape.
        Rng list_rng(rng.NextU64(6));
        std::vector<PermitEntry> entries;
        for (uint64_t i = list_rng.NextU64(5); i > 0; --i) {
          PermitEntry entry;
          entry.source = RandomPrefix(list_rng, false, {});
          if (list_rng.NextBool(0.25)) {
            entry.source_group = EndpointGroupId(list_rng.NextU64(4) + 1);
          }
          entries.push_back(entry);
        }
        bank.SetPermitList(endpoint, std::move(entries));
        break;
      }
    }
  }

  FilterBankSnapshot snap = bank.Checkpoint();
  bank.RestoreFromSnapshot(snap);
  EXPECT_TRUE(bank.Checkpoint() == snap);
  const std::string fingerprint = bank.StateFingerprint();
  bank.RestoreFromSnapshot(snap);
  EXPECT_EQ(bank.StateFingerprint(), fingerprint);
}

// TN_SEED narrows the sweep to one seed; nightly lanes can raise TN_ITERS.
INSTANTIATE_TEST_SUITE_P(Seeds, LpmFuzzTest,
                         ::testing::ValuesIn(test_env::SeedList(
                             {1, 2, 3, 5, 8, 13})));

}  // namespace
}  // namespace tenantnet
