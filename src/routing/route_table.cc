#include "src/routing/route_table.h"

#include <algorithm>
#include <set>

namespace tenantnet {

bool RouteTable::Install(const IpPrefix& prefix, RouteEntry entry) {
  const RouteEntry* existing = trie_.ExactMatch(prefix);
  if (existing != nullptr && *existing == entry) {
    return false;
  }
  trie_.Insert(prefix, std::move(entry));
  return true;
}

Status RouteTable::Withdraw(const IpPrefix& prefix) {
  if (!trie_.Remove(prefix)) {
    return NotFoundError("no route for " + prefix.ToString());
  }
  return Status::Ok();
}

const RouteEntry* RouteTable::Lookup(IpAddress dst) const {
  return trie_.LongestMatch(dst);
}

std::vector<IpPrefix> RouteTable::Prefixes() const {
  std::vector<IpPrefix> out;
  out.reserve(trie_.entry_count());
  trie_.ForEach([&out](const IpPrefix& p, const RouteEntry&) {
    out.push_back(p);
  });
  return out;
}

std::vector<IpPrefix> AggregatePrefixes(std::vector<IpPrefix> prefixes) {
  // 1) Drop exact duplicates and prefixes contained in another. Sorting by
  //    (base, length) puts a covering prefix immediately before everything
  //    it covers, so one sweep with the most recent keeper suffices.
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                 prefixes.end());
  std::vector<IpPrefix> kept;
  kept.reserve(prefixes.size());
  for (const IpPrefix& p : prefixes) {
    if (!kept.empty() && kept.back().Contains(p)) {
      continue;
    }
    kept.push_back(p);
  }

  // 2) Merge buddy pairs bottom-up: process lengths from longest to 1; a
  //    merged parent re-enters at its own (shorter) length and may merge
  //    again. One pass over each length bucket, O(n log n) total.
  int max_len = 0;
  std::vector<std::set<IpPrefix>> by_len(129);
  for (const IpPrefix& p : kept) {
    by_len[p.length()].insert(p);
    max_len = std::max(max_len, p.length());
  }
  for (int len = max_len; len >= 1; --len) {
    auto& bucket = by_len[len];
    for (auto it = bucket.begin(); it != bucket.end();) {
      auto parent = IpPrefix::Create(it->base(), len - 1);
      auto halves = parent->Split();
      const IpPrefix& buddy =
          (halves->first == *it) ? halves->second : halves->first;
      auto buddy_it = bucket.find(buddy);
      if (buddy_it != bucket.end()) {
        // Erase both (buddy is never the iterator position: sets are
        // ordered and *it comes first only if it is the left half, but
        // either way both are present and distinct).
        bucket.erase(buddy_it);
        it = bucket.erase(it);
        by_len[len - 1].insert(*parent);
      } else {
        ++it;
      }
    }
  }

  std::vector<IpPrefix> out;
  for (const auto& bucket : by_len) {
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool CoveredBy(const std::vector<IpPrefix>& prefixes, IpAddress addr) {
  for (const IpPrefix& p : prefixes) {
    if (p.Contains(addr)) {
      return true;
    }
  }
  return false;
}

}  // namespace tenantnet
