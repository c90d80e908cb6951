#include "src/core/edge_filter.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/telemetry/metrics.h"

namespace tenantnet {

namespace {

// Membership probe of the verdict path, run for each group entry a verdict
// reaches. Members are distinct and sorted. When all are v4 (v4 sorts first,
// and a v4 address is its low word: hi() is 0), member i lies between first + i
// and last - (n - 1 - i), so only slots key - last + n - 1 through key - first
// can hold the key. Lowest-first EIP pools hand a tier a run of consecutive
// addresses; for such a run the window is a slot or two wide. The window is
// what keeps the probe cheap: on E13's decl_steady workload, a binary search of
// the whole set cost the verdict path ~7% more.
bool SnapshotContains(const std::vector<IpAddress>& members, IpAddress addr) {
  auto from = members.begin();
  auto to = members.end();
  if (!members.empty() && addr.is_v4() && members.back().is_v4()) {
    const uint64_t key = addr.lo();
    const uint64_t first = members.front().lo();
    const uint64_t last = members.back().lo();
    if (key < first || key > last) {
      return false;
    }
    const uint64_t top = members.size() - 1;
    from += last - key >= top ? 0 : top - (last - key);
    to = members.begin() + std::min(top, key - first) + 1;
  }
  return std::binary_search(from, to, addr);
}

}  // namespace

MemberSnapshot MakeMemberSnapshot(std::vector<IpAddress> members) {
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  return std::make_shared<const std::vector<IpAddress>>(std::move(members));
}

void CompiledPermitList::ScopeSet::Add(Protocol proto, PortRange ports) {
  if (admit_all) {
    return;  // already admits every scope
  }
  if (proto == Protocol::kAny && ports.IsAny()) {
    admit_all = true;
    scopes.clear();
    scopes.shrink_to_fit();
    return;
  }
  for (const auto& [p, r] : scopes) {
    if (p == proto && r == ports) {
      return;  // exact duplicate scope
    }
  }
  scopes.emplace_back(proto, ports);
}

CompiledPermitList::CompiledPermitList(
    const std::vector<PermitEntry>& entries) {
  for (const PermitEntry& entry : entries) {
    if (entry.source_group.valid()) {
      ScopeSet* set = nullptr;
      for (auto& [group, scopes] : group_scopes_) {
        if (group == entry.source_group) {
          set = &scopes;
          break;
        }
      }
      if (set == nullptr) {
        set = &group_scopes_.emplace_back(entry.source_group, ScopeSet{})
                   .second;
      }
      set->Add(entry.proto, entry.dst_ports);
      continue;
    }
    ScopeSet* set = prefix_index_.ExactMatch(entry.source);
    if (set == nullptr) {
      prefix_index_.Insert(entry.source, ScopeSet{});
      set = prefix_index_.ExactMatch(entry.source);
    }
    set->Add(entry.proto, entry.dst_ports);
  }
}

size_t CompiledPermitList::ApproxBytes() const {
  size_t bytes =
      prefix_index_.ApproxBytes() +
      group_scopes_.capacity() * sizeof(group_scopes_[0]);
  prefix_index_.ForEach([&](const IpPrefix&, const ScopeSet& set) {
    bytes += set.scopes.capacity() * sizeof(std::pair<Protocol, PortRange>);
  });
  for (const auto& [group, set] : group_scopes_) {
    (void)group;
    bytes += set.scopes.capacity() * sizeof(std::pair<Protocol, PortRange>);
  }
  return bytes;
}

EdgeFilterBank::EdgeFilterBank(std::string domain, EventQueue* queue,
                               uint64_t rng_seed, EdgeFilterParams params)
    : domain_(std::move(domain)), queue_(queue), rng_(rng_seed),
      params_(params) {}

EdgeFilterBank::~EdgeFilterBank() = default;

size_t EdgeFilterBank::AddEdge(const std::string& name) {
  edges_.push_back(EdgeState{name, {}, {}, {}, {}, 0, 0});
  return edges_.size() - 1;
}

SimDuration EdgeFilterBank::SampleDeliveryLatency() {
  constexpr SimDuration kInstallBase = SimDuration::Millis(5);
  constexpr SimDuration kInstallExtraMean = SimDuration::Millis(10);
  constexpr SimDuration kDegradedRetransmit = SimDuration::Millis(50);
  constexpr SimDuration kDegradedExtra = SimDuration::Millis(20);
  SimDuration latency =
      kInstallBase + SimDuration::Seconds(rng_.NextExponential(
                         1.0 / kInstallExtraMean.ToSeconds()));
  if (!degraded_) {
    return latency;
  }
  // Each attempt (original and every retransmit) drops independently; the
  // loop resolves the whole retry chain now so the eventual apply time is a
  // pure function of RNG state at send time. The attempt cap keeps a
  // drop_prob of 1.0 finite (delivery after the worst-case chain).
  for (int attempt = 0;
       attempt < 64 && rng_.NextBool(params_.degraded_drop_prob); ++attempt) {
    ++messages_dropped_;
    ++messages_;  // the retransmit is one more control-plane message
    latency += kDegradedRetransmit;
  }
  return latency + kDegradedExtra;
}

uint32_t EdgeFilterBank::SlotFor(IpAddress endpoint) {
  uint32_t slot = slots_.Lookup(endpoint);
  if (slot != kNilId) {
    return slot;
  }
  slot = static_cast<uint32_t>(slots_.size());
  slots_.Insert(endpoint, slot);
  slot_epoch_.push_back(0);
  master_version_.push_back(0);
  master_set_.push_back(kNilId);
  return slot;
}

std::vector<IpAddress> EdgeFilterBank::SlotAddresses() const {
  std::vector<IpAddress> addrs(slots_.size());
  slots_.ForEach([&](IpAddress addr, uint32_t slot) { addrs[slot] = addr; });
  return addrs;
}

std::vector<std::pair<IpAddress, uint32_t>>
EdgeFilterBank::SortedMasterEndpoints() const {
  std::vector<std::pair<IpAddress, uint32_t>> out;
  slots_.ForEach([&](IpAddress addr, uint32_t slot) {
    if (master_set_[slot] != kNilId) {
      out.emplace_back(addr, slot);
    }
  });
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

const std::vector<PermitEntry>* EdgeFilterBank::MasterEntriesOf(
    IpAddress endpoint) const {
  const uint32_t slot = slots_.Lookup(endpoint);
  if (slot == kNilId || master_set_[slot] == kNilId) {
    return nullptr;
  }
  return &sets_.Get(master_set_[slot]).entries;
}

std::vector<IpAddress> EdgeFilterBank::MasterEndpoints() const {
  std::vector<IpAddress> out;
  for (const auto& [addr, slot] : SortedMasterEndpoints()) {
    out.push_back(addr);
  }
  return out;
}

void EdgeFilterBank::ClearMasterSet(uint32_t slot) {
  if (master_set_[slot] == kNilId) {
    return;
  }
  sets_.Release(master_set_[slot]);
  master_set_[slot] = kNilId;
  --master_lists_;
}

void EdgeFilterBank::AssignMasterSet(uint32_t slot, uint32_t set_id) {
  const uint32_t old = master_set_[slot];
  if (old == set_id) {
    sets_.Release(set_id);  // master already holds its reference
    return;
  }
  if (old == kNilId) {
    ++master_lists_;
  } else {
    sets_.Release(old);
  }
  master_set_[slot] = set_id;  // the caller's reference becomes the master's
}

void EdgeFilterBank::EnsureCompiled(uint32_t set_id) {
  PermitSet& set = sets_.GetMutable(set_id);
  if (set.compiled == nullptr) {
    set.compiled = std::make_shared<const CompiledPermitList>(set.entries);
    ++compiles_;
  }
}

SimTime EdgeFilterBank::UpdatePermitList(
    IpAddress endpoint, std::vector<PermitEntry> add,
    const std::vector<PermitEntry>& remove) {
  // The master copy is gone until CompleteRestart restores it, so the
  // merge must wait too: the whole call is logged.
  if (outage_.Defer(&EdgeFilterBank::UpdatePermitList, endpoint,
                    std::move(add), remove)) {
    return Now();
  }
  std::vector<PermitEntry> merged;
  const uint32_t slot = SlotOf(endpoint);
  if (slot != kNilId && master_set_[slot] != kNilId) {
    for (const PermitEntry& entry : sets_.Get(master_set_[slot]).entries) {
      if (std::find(remove.begin(), remove.end(), entry) == remove.end()) {
        merged.push_back(entry);
      }
    }
  }
  for (PermitEntry& entry : add) {
    if (std::find(merged.begin(), merged.end(), entry) == merged.end()) {
      merged.push_back(std::move(entry));
    }
  }
  return SetPermitList(endpoint, std::move(merged));
}

SimTime EdgeFilterBank::SetPermitList(IpAddress endpoint,
                                      std::vector<PermitEntry> entries) {
  if (outage_.Defer(&EdgeFilterBank::SetPermitList, endpoint,
                    std::move(entries))) {
    return Now();
  }
  const uint32_t set_id =
      sets_.Intern(PermitSet{std::move(entries), nullptr});
  return PushListTo(endpoint, set_id, AllEdgeIndices());
}

void EdgeFilterBank::CoverSlot(EdgeState& edge, uint32_t slot) const {
  if (edge.list_set.size() <= slot) {
    edge.list_version.resize(slot_epoch_.size(), 0);
    edge.list_set.resize(slot_epoch_.size(), kNilId);
  }
}

std::vector<size_t> EdgeFilterBank::AllEdgeIndices() const {
  std::vector<size_t> all(edges_.size());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  return all;
}

SimTime EdgeFilterBank::PushListTo(IpAddress endpoint, uint32_t set_id,
                                   const std::vector<size_t>& targets) {
  const uint32_t slot = SlotFor(endpoint);
  const uint64_t version = next_version_++;
  master_version_[slot] = version;
  AssignMasterSet(slot, set_id);  // consumes the caller's reference
  // Compile once per *distinct* list: interning means a byte-identical list
  // installed for another endpoint — or re-pushed for this one — reuses the
  // same immutable matcher, shared by every edge's apply.
  EnsureCompiled(set_id);
  SimTime last_applied = Now();

  for (size_t i : targets) {
    ++messages_;
    sets_.AddRef(set_id);  // in-flight reference, handed to the edge on apply
    auto apply = [this, i, slot, set_id, version]() {
      EdgeState& edge = edges_[i];
      CoverSlot(edge, slot);
      if (version < edge.flush_version || edge.list_version[slot] >= version) {
        sets_.Release(set_id);
        return;  // stale: a newer install, removal or flush got there first
      }
      if (edge.list_set[slot] != kNilId) {
        edge.entry_count -= sets_.Get(edge.list_set[slot]).entries.size();
        sets_.Release(edge.list_set[slot]);
      }
      edge.entry_count += sets_.Get(set_id).entries.size();
      edge.list_set[slot] = set_id;
      edge.list_version[slot] = version;
      BumpEndpointEpoch(slot);
    };
    if (queue_ == nullptr) {
      apply();
      continue;
    }
    SimTime when = queue_->now() + SampleDeliveryLatency();
    last_applied = std::max(last_applied, when);
    queue_->ScheduleAt(when, apply);
  }
  return last_applied;
}

void EdgeFilterBank::RemovePermitList(IpAddress endpoint) {
  if (outage_.Defer(&EdgeFilterBank::RemovePermitList, endpoint)) {
    return;
  }
  messages_ += edges_.size();
  const uint32_t slot = SlotOf(endpoint);
  if (slot == kNilId) {
    return;  // never installed: nothing to remove, nothing in flight
  }
  master_version_[slot] = 0;
  ClearMasterSet(slot);
  const uint64_t version = next_version_++;
  bool removed_any = false;
  for (EdgeState& edge : edges_) {
    CoverSlot(edge, slot);
    if (edge.list_set[slot] != kNilId) {
      edge.entry_count -= sets_.Get(edge.list_set[slot]).entries.size();
      sets_.Release(edge.list_set[slot]);
      edge.list_set[slot] = kNilId;
      removed_any = true;
    }
    edge.list_version[slot] = version;
  }
  if (removed_any) {
    BumpEndpointEpoch(slot);
  }
}

bool EdgeFilterBank::Admits(size_t edge_index, const FiveTuple& flow) const {
  const EdgeState& edge = edges_[edge_index];
  const uint32_t slot = slots_.Lookup(flow.dst);
  if (slot == kNilId || slot >= edge.list_set.size() ||
      edge.list_set[slot] == kNilId) {
    return false;  // default-off
  }
  const CompiledPermitList& compiled = *sets_.Get(edge.list_set[slot]).compiled;
  if (compiled.PrefixAdmits(flow)) {
    return true;
  }
  for (const auto& [group, scopes] : compiled.group_scopes()) {
    if (!scopes.Matches(flow)) {
      continue;
    }
    auto git = edge.groups.find(group);
    if (git != edge.groups.end() &&
        SnapshotContains(*git->second.members, flow.src)) {
      return true;
    }
  }
  return false;
}

bool EdgeFilterBank::AdmitsLinear(size_t edge_index,
                                  const FiveTuple& flow) const {
  const EdgeState& edge = edges_[edge_index];
  const uint32_t slot = slots_.Lookup(flow.dst);
  if (slot == kNilId || slot >= edge.list_set.size() ||
      edge.list_set[slot] == kNilId) {
    return false;  // default-off
  }
  for (const PermitEntry& entry : sets_.Get(edge.list_set[slot]).entries) {
    if (entry.source_group.valid()) {
      if (!entry.ScopeMatches(flow)) {
        continue;
      }
      auto git = edge.groups.find(entry.source_group);
      if (git != edge.groups.end() &&
          std::binary_search(git->second.members->begin(),
                             git->second.members->end(), flow.src)) {
        return true;
      }
      continue;
    }
    if (entry.Admits(flow)) {
      return true;
    }
  }
  return false;
}

SimTime EdgeFilterBank::SetGroup(EndpointGroupId group,
                                 std::vector<IpAddress> members) {
  return SetGroupSnapshot(group, MakeMemberSnapshot(std::move(members)));
}

SimTime EdgeFilterBank::SetGroupSnapshot(EndpointGroupId group,
                                         MemberSnapshot members) {
  if (outage_.Defer(&EdgeFilterBank::SetGroupSnapshot, group, members)) {
    return Now();
  }
  if (members == nullptr) {
    members = MakeMemberSnapshot({});
  }
  return PushGroupTo(group, members, AllEdgeIndices());
}

SimTime EdgeFilterBank::PushGroupTo(EndpointGroupId group,
                                    const MemberSnapshot& members,
                                    const std::vector<size_t>& targets) {
  uint64_t version = next_version_++;
  latest_groups_[group] = GroupVersion{version, members};
  SimTime last_applied = Now();
  for (size_t i : targets) {
    ++messages_;
    auto apply = [this, i, group, version, members]() {
      EdgeState& edge = edges_[i];
      auto removed = edge.group_removed_at.find(group);
      if (version < edge.flush_version ||
          (removed != edge.group_removed_at.end() &&
           removed->second >= version)) {
        return;  // stale: removed or flushed after it was sent
      }
      GroupVersion& held = edge.groups[group];
      if (held.members != nullptr && held.version >= version) {
        return;  // stale
      }
      held = GroupVersion{version, members};
      BumpGlobalEpoch();
    };
    if (queue_ == nullptr) {
      apply();
      continue;
    }
    SimTime when = queue_->now() + SampleDeliveryLatency();
    last_applied = std::max(last_applied, when);
    queue_->ScheduleAt(when, apply);
  }
  return last_applied;
}

void EdgeFilterBank::RemoveGroup(EndpointGroupId group) {
  if (outage_.Defer(&EdgeFilterBank::RemoveGroup, group)) {
    return;
  }
  latest_groups_.erase(group);
  const uint64_t version = next_version_++;
  bool removed_any = false;
  for (EdgeState& edge : edges_) {
    removed_any |= edge.groups.erase(group) > 0;
    edge.group_removed_at[group] = version;
    ++messages_;
  }
  if (removed_any) {
    BumpGlobalEpoch();
  }
}

bool EdgeFilterBank::HasList(size_t edge_index, IpAddress endpoint) const {
  const EdgeState& edge = edges_[edge_index];
  const uint32_t slot = slots_.Lookup(endpoint);
  return slot != kNilId && slot < edge.list_set.size() &&
         edge.list_set[slot] != kNilId;
}

bool EdgeFilterBank::IsConverged(IpAddress endpoint) const {
  const uint32_t slot = slots_.Lookup(endpoint);
  if (slot == kNilId) {
    return true;
  }
  // Interned set ids are canonical, so an id compare is a content compare.
  for (const EdgeState& edge : edges_) {
    const uint32_t held =
        slot < edge.list_set.size() ? edge.list_set[slot] : kNilId;
    if (held != master_set_[slot]) {
      return false;
    }
  }
  return true;
}

uint64_t EdgeFilterBank::total_installed_entries() const {
  uint64_t total = 0;
  for (const EdgeState& edge : edges_) {
    total += edge.entry_count;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Memory accounting (E10).
// ---------------------------------------------------------------------------

size_t EdgeFilterBank::ApproxBytes() const {
  size_t bytes = slots_.ApproxBytes() +
                 slot_epoch_.capacity() * sizeof(uint64_t) +
                 master_version_.capacity() * sizeof(uint64_t) +
                 master_set_.capacity() * sizeof(uint32_t);
  for (const EdgeState& edge : edges_) {
    bytes += edge.list_version.capacity() * sizeof(uint64_t) +
             edge.list_set.capacity() * sizeof(uint32_t);
  }
  bytes += sets_.ApproxBytes();
  sets_.ForEach([&](uint32_t, const PermitSet& set, uint32_t) {
    bytes += set.entries.capacity() * sizeof(PermitEntry);
    if (set.compiled != nullptr) {
      bytes += set.compiled->ApproxBytes();
    }
  });
  // Group member snapshots, each distinct one once: the master and every
  // edge replica of one version share a single vector.
  std::unordered_set<const std::vector<IpAddress>*> counted;
  auto count = [&](const GroupVersion& held) {
    if (counted.insert(held.members.get()).second) {
      bytes += held.members->capacity() * sizeof(IpAddress);
    }
  };
  for (const auto& [group, master] : latest_groups_) {
    count(master);
  }
  for (const EdgeState& edge : edges_) {
    for (const auto& [group, replica] : edge.groups) {
      count(replica);
    }
  }
  return bytes;
}

void EdgeFilterBank::ReserveEndpoints(size_t n) {
  slots_.Reserve(n);
  slot_epoch_.reserve(n);
  master_version_.reserve(n);
  master_set_.reserve(n);
}

void EdgeFilterBank::ShrinkToFit() {
  slot_epoch_.shrink_to_fit();
  master_version_.shrink_to_fit();
  master_set_.shrink_to_fit();
  for (EdgeState& edge : edges_) {
    edge.list_version.shrink_to_fit();
    edge.list_set.shrink_to_fit();
  }
}

void EdgeFilterBank::PublishMemoryGauges(MetricRegistry& metrics) const {
  metrics.GetGauge(domain_ + ".filter.approx_bytes")
      .Set(static_cast<double>(ApproxBytes()));
  metrics.GetGauge(domain_ + ".filter.endpoint_slots")
      .Set(static_cast<double>(slots_.size()));
  metrics.GetGauge(domain_ + ".filter.distinct_permit_sets")
      .Set(static_cast<double>(sets_.size()));
  metrics.GetGauge(domain_ + ".filter.installed_entries")
      .Set(static_cast<double>(total_installed_entries()));
}

// ---------------------------------------------------------------------------
// Warm restart.
// ---------------------------------------------------------------------------

FilterBankSnapshot EdgeFilterBank::Checkpoint() const {
  FilterBankSnapshot snap;
  snap.next_version = next_version_;
  const auto masters = SortedMasterEndpoints();
  snap.lists.reserve(masters.size());
  for (const auto& [endpoint, slot] : masters) {
    snap.lists.push_back(FilterBankSnapshot::List{
        endpoint, master_version_[slot], sets_.Get(master_set_[slot]).entries});
  }
  snap.groups.reserve(latest_groups_.size());
  for (const auto& [group, master] : latest_groups_) {
    snap.groups.push_back(
        FilterBankSnapshot::Group{group, master.version, master.members});
  }
  std::sort(snap.groups.begin(), snap.groups.end(),
            [](const auto& a, const auto& b) { return a.group < b.group; });
  return snap;
}

void EdgeFilterBank::RestoreFromSnapshot(const FilterBankSnapshot& snap) {
  for (uint32_t slot = 0; slot < master_set_.size(); ++slot) {
    master_version_[slot] = 0;
    ClearMasterSet(slot);
  }
  latest_groups_.clear();
  for (const FilterBankSnapshot::List& list : snap.lists) {
    const uint32_t slot = SlotFor(list.endpoint);
    AssignMasterSet(slot, sets_.Intern(PermitSet{list.entries, nullptr}));
    master_version_[slot] = list.version;
  }
  for (const FilterBankSnapshot::Group& group : snap.groups) {
    latest_groups_[group.group] = GroupVersion{
        group.version,
        group.members != nullptr ? group.members : MakeMemberSnapshot({})};
  }
  // Monotonic across incarnations: edges may hold versions newer than the
  // snapshot (mutations applied between checkpoint and crash), and a push
  // numbered below them would be discarded as stale.
  next_version_ = std::max(next_version_, snap.next_version);
}

void EdgeFilterBank::BeginRestart() {
  if (outage_.active()) {
    return;  // overlapping restarts extend the same outage
  }
  outage_.Begin();
  // The process is gone: volatile master state with it. Edge (data-plane)
  // state and in-flight applies survive; next_version_ models a monotonic
  // version fountain (provider-durable), see RestoreFromSnapshot.
  for (uint32_t slot = 0; slot < master_set_.size(); ++slot) {
    master_version_[slot] = 0;
    ClearMasterSet(slot);
  }
  latest_groups_.clear();
}

std::vector<EndpointGroupId> EdgeFilterBank::SortedMasterGroups() const {
  std::vector<EndpointGroupId> groups;
  groups.reserve(latest_groups_.size());
  for (const auto& [group, master] : latest_groups_) {
    groups.push_back(group);
  }
  std::sort(groups.begin(), groups.end());
  return groups;
}

ReconcileStats EdgeFilterBank::CompleteRestart(RestartMode mode,
                                               const FilterBankSnapshot& snap) {
  ReconcileStats stats;
  stats.converged_at = Now();

  if (mode == RestartMode::kCold) {
    // Fold the outage log into the intent through a bank with no edges and
    // no queue (its mutators touch only its master), adopt that intent,
    // then flush every edge and re-program the whole intent from scratch.
    // Between the flush and each re-install landing, default-off denies
    // everything — the cold-rebuild blackhole window E9b measures.
    EdgeFilterBank intent(domain_, nullptr, 0);
    intent.RestoreFromSnapshot(snap);
    outage_.Replay(intent, stats);
    RestoreFromSnapshot(intent.Checkpoint());
    // The flush takes a fresh version: an install sent before the crash
    // that lands afterwards is stale, so it cannot bring back state the
    // intent no longer has.
    const uint64_t flush_version = next_version_++;
    bool flushed_any = false;
    for (EdgeState& edge : edges_) {
      edge.flush_version = flush_version;
      for (uint32_t slot = 0; slot < edge.list_set.size(); ++slot) {
        if (edge.list_set[slot] == kNilId) {
          continue;
        }
        sets_.Release(edge.list_set[slot]);
        edge.list_set[slot] = kNilId;
        edge.list_version[slot] = 0;
        flushed_any = true;
      }
      flushed_any |= !edge.groups.empty();
      edge.groups.clear();
      edge.group_removed_at.clear();  // the flush version outranks them
      edge.entry_count = 0;
    }
    if (flushed_any) {
      BumpGlobalEpoch();  // any verdict may have changed
    }
    std::vector<size_t> all = AllEdgeIndices();
    for (const auto& [endpoint, slot] : SortedMasterEndpoints()) {
      stats.deltas_applied += all.size();
      sets_.AddRef(master_set_[slot]);  // PushListTo consumes one reference
      stats.converged_at = std::max(
          stats.converged_at, PushListTo(endpoint, master_set_[slot], all));
    }
    for (EndpointGroupId group : SortedMasterGroups()) {
      stats.deltas_applied += all.size();
      stats.converged_at = std::max(
          stats.converged_at,
          PushGroupTo(group, latest_groups_[group].members, all));
    }
    return stats;
  }

  // Warm: replay the outage log through the normal incremental paths (they
  // fan out exactly what changed during the outage). Every push the replay
  // makes takes a version at or above `replayed_from`...
  RestoreFromSnapshot(snap);
  const uint64_t replayed_from = next_version_;
  outage_.Replay(*this, stats);

  // ...so the diff of the restored intent against live edge state skips
  // those, and re-pushes only mismatches. Interned set ids are canonical, so
  // an id compare *is* a content compare. Edges already holding the
  // intended entries are left alone — no message, no epoch bump, so the
  // reach verifier's pairs through them stay verified.
  for (const auto& [endpoint, slot] : SortedMasterEndpoints()) {
    if (master_version_[slot] >= replayed_from) {
      continue;  // already converging via the replay above
    }
    const uint32_t want = master_set_[slot];
    std::vector<size_t> lagging;
    for (size_t i = 0; i < edges_.size(); ++i) {
      ++stats.checked;
      const EdgeState& edge = edges_[i];
      if (slot >= edge.list_set.size() || edge.list_set[slot] != want) {
        lagging.push_back(i);
      }
    }
    if (!lagging.empty()) {
      stats.deltas_applied += lagging.size();
      sets_.AddRef(want);  // PushListTo consumes one reference
      stats.converged_at =
          std::max(stats.converged_at, PushListTo(endpoint, want, lagging));
    }
  }
  for (EndpointGroupId group : SortedMasterGroups()) {
    const GroupVersion& master = latest_groups_[group];
    if (master.version >= replayed_from) {
      continue;
    }
    std::vector<size_t> lagging;
    for (size_t i = 0; i < edges_.size(); ++i) {
      ++stats.checked;
      // An edge that applied the checkpointed version shares its snapshot,
      // so the pointer compare settles it without reading the members.
      auto it = edges_[i].groups.find(group);
      if (it == edges_[i].groups.end() ||
          !SameMembers(it->second.members, master.members)) {
        lagging.push_back(i);
      }
    }
    if (!lagging.empty()) {
      stats.deltas_applied += lagging.size();
      stats.converged_at = std::max(
          stats.converged_at, PushGroupTo(group, master.members, lagging));
    }
  }

  // Orphan sweep: state still installed on edges with no master intent (the
  // snapshot predates its removal). The removal paths are the delta ops. A
  // removal the replay made has already cleared every edge.
  const std::vector<IpAddress> addr_of = SlotAddresses();
  std::vector<IpAddress> orphan_lists;
  std::vector<EndpointGroupId> orphan_groups;
  for (const EdgeState& edge : edges_) {
    for (uint32_t slot = 0; slot < edge.list_set.size(); ++slot) {
      if (edge.list_set[slot] == kNilId) {
        continue;
      }
      ++stats.checked;
      if (master_set_[slot] == kNilId) {
        orphan_lists.push_back(addr_of[slot]);
      }
    }
    for (const auto& [group, state] : edge.groups) {
      ++stats.checked;
      if (latest_groups_.find(group) == latest_groups_.end()) {
        orphan_groups.push_back(group);
      }
    }
  }
  std::sort(orphan_lists.begin(), orphan_lists.end());
  orphan_lists.erase(std::unique(orphan_lists.begin(), orphan_lists.end()),
                     orphan_lists.end());
  std::sort(orphan_groups.begin(), orphan_groups.end());
  orphan_groups.erase(std::unique(orphan_groups.begin(), orphan_groups.end()),
                      orphan_groups.end());
  for (IpAddress endpoint : orphan_lists) {
    RemovePermitList(endpoint);
    ++stats.deltas_applied;
  }
  for (EndpointGroupId group : orphan_groups) {
    RemoveGroup(group);
    ++stats.deltas_applied;
  }
  return stats;
}

std::string EdgeFilterBank::StateFingerprint() const {
  auto entry_fp = [](const PermitEntry& e) {
    return e.source.ToString() + "~g" + std::to_string(e.source_group.value()) +
           "~" + std::to_string(e.dst_ports.lo) + "-" +
           std::to_string(e.dst_ports.hi) + "~" +
           std::to_string(static_cast<int>(e.proto));
  };
  auto entries_fp = [&](const std::vector<PermitEntry>& entries) {
    std::string out = "[";
    for (const PermitEntry& e : entries) {
      out += entry_fp(e);
      out += ",";
    }
    out += "]";
    return out;
  };
  std::string out;
  for (const auto& [endpoint, slot] : SortedMasterEndpoints()) {
    out += "M " + endpoint.ToString() + " " +
           entries_fp(sets_.Get(master_set_[slot]).entries) + "\n";
  }
  for (EndpointGroupId group : SortedMasterGroups()) {
    out += "MG " + std::to_string(group.value()) + " [";
    for (IpAddress m : *latest_groups_.at(group).members) {
      out += m.ToString() + ",";
    }
    out += "]\n";
  }
  const std::vector<IpAddress> addr_of = SlotAddresses();
  for (size_t i = 0; i < edges_.size(); ++i) {
    const EdgeState& edge = edges_[i];
    std::vector<std::pair<IpAddress, uint32_t>> installed;
    for (uint32_t slot = 0; slot < edge.list_set.size(); ++slot) {
      if (edge.list_set[slot] != kNilId) {
        installed.emplace_back(addr_of[slot], edge.list_set[slot]);
      }
    }
    std::sort(installed.begin(), installed.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [endpoint, set_id] : installed) {
      out += "E" + std::to_string(i) + " " + endpoint.ToString() + " " +
             entries_fp(sets_.Get(set_id).entries) + "\n";
    }
    std::vector<EndpointGroupId> edge_groups;
    for (const auto& [group, state] : edge.groups) {
      edge_groups.push_back(group);
    }
    std::sort(edge_groups.begin(), edge_groups.end());
    for (EndpointGroupId group : edge_groups) {
      out += "EG" + std::to_string(i) + " " + std::to_string(group.value()) +
             " [";
      for (IpAddress m : *edge.groups.at(group).members) {
        out += m.ToString() + ",";
      }
      out += "]\n";
    }
  }
  return out;
}

}  // namespace tenantnet
