#include "src/routing/bgp.h"

#include <algorithm>
#include <utility>

namespace tenantnet {

SpeakerId BgpMesh::AddSpeaker(uint32_t asn, std::string name) {
  speakers_.push_back(Speaker{asn, std::move(name), {}, {}, {}, {}, {}});
  dirty_.emplace_back();
  pre_delta_.emplace_back();
  ++mutations_;
  return SpeakerId(speakers_.size());
}

Status BgpMesh::AddSession(SpeakerId a, SpeakerId b, SessionPolicy a_to_b,
                           SessionPolicy b_to_a) {
  if (outage_.Defer(&BgpMesh::AddSession, a, b, std::move(a_to_b),
                    std::move(b_to_a))) {
    return Status::Ok();  // accepted asynchronously; validated at replay
  }
  if (!Valid(a) || !Valid(b)) {
    return InvalidArgumentError("unknown speaker");
  }
  if (a == b) {
    return InvalidArgumentError("speaker cannot peer with itself");
  }
  if (Get(a).session_index.count(b.value()) > 0) {
    return AlreadyExistsError("session already exists");
  }
  Speaker& sa = Get(a);
  Speaker& sb = Get(b);
  sa.session_index[b.value()] = static_cast<uint32_t>(sa.sessions.size());
  sa.sessions.push_back(Session{b, std::move(a_to_b)});
  sb.session_index[a.value()] = static_cast<uint32_t>(sb.sessions.size());
  sb.sessions.push_back(Session{a, std::move(b_to_a)});
  ++session_count_;
  ++mutations_;
  // Sync current bests over the new session in both directions; the dirty
  // queue carries the consequences from there.
  ResyncSession(a, b);
  ResyncSession(b, a);
  return Status::Ok();
}

Status BgpMesh::RemoveSession(SpeakerId a, SpeakerId b) {
  if (outage_.Defer(&BgpMesh::RemoveSession, a, b)) {
    return Status::Ok();
  }
  if (!Valid(a) || !Valid(b)) {
    return InvalidArgumentError("unknown speaker");
  }
  Speaker& sa = Get(a);
  auto it = sa.session_index.find(b.value());
  if (it == sa.session_index.end()) {
    return NotFoundError("no session between these speakers");
  }
  auto drop = [](Speaker& s, SpeakerId peer) {
    uint32_t idx = s.session_index.at(peer.value());
    s.sessions.erase(s.sessions.begin() + idx);
    s.session_index.clear();
    for (uint32_t i = 0; i < s.sessions.size(); ++i) {
      s.session_index[s.sessions[i].peer.value()] = i;
    }
  };
  drop(sa, b);
  drop(Get(b), a);
  --session_count_;
  ++mutations_;
  // Everything each side learned from the other is implicitly withdrawn.
  FlushLearnedFrom(a, b);
  FlushLearnedFrom(b, a);
  return Status::Ok();
}

Status BgpMesh::SetSessionPolicy(SpeakerId speaker, SpeakerId peer,
                                 SessionPolicy policy) {
  if (outage_.Defer(&BgpMesh::SetSessionPolicy, speaker, peer,
                    std::move(policy))) {
    return Status::Ok();
  }
  if (!Valid(speaker) || !Valid(peer)) {
    return InvalidArgumentError("unknown speaker");
  }
  Speaker& s = Get(speaker);
  auto it = s.session_index.find(peer.value());
  if (it == s.session_index.end()) {
    return NotFoundError("no session between these speakers");
  }
  s.sessions[it->second].policy = std::move(policy);
  ++mutations_;
  // The policy governs `speaker`'s export to and import from `peer`:
  // re-send our bests under the new export filter, and have the peer's
  // bests re-imported under the new import policy.
  ResyncSession(speaker, peer);
  ResyncSession(peer, speaker);
  return Status::Ok();
}

Status BgpMesh::Originate(SpeakerId speaker, const IpPrefix& prefix) {
  if (outage_.Defer(&BgpMesh::Originate, speaker, prefix)) {
    return Status::Ok();
  }
  if (!Valid(speaker)) {
    return InvalidArgumentError("unknown speaker");
  }
  Speaker& s = Get(speaker);
  if (!s.originated.insert(prefix).second) {
    return AlreadyExistsError("already originated: " + prefix.ToString());
  }
  ++mutations_;
  MarkDirty(speaker.value() - 1, prefix);
  return Status::Ok();
}

Status BgpMesh::WithdrawOrigin(SpeakerId speaker, const IpPrefix& prefix) {
  if (outage_.Defer(&BgpMesh::WithdrawOrigin, speaker, prefix)) {
    return Status::Ok();
  }
  if (!Valid(speaker)) {
    return InvalidArgumentError("unknown speaker");
  }
  Speaker& s = Get(speaker);
  if (s.originated.erase(prefix) == 0) {
    return NotFoundError("not originated here: " + prefix.ToString());
  }
  ++mutations_;
  MarkDirty(speaker.value() - 1, prefix);
  return Status::Ok();
}

bool BgpMesh::Better(const BgpRoute& candidate,
                     const BgpRoute& incumbent) const {
  if (candidate.local_pref != incumbent.local_pref) {
    return candidate.local_pref > incumbent.local_pref;
  }
  if (candidate.as_path.size() != incumbent.as_path.size()) {
    return candidate.as_path.size() < incumbent.as_path.size();
  }
  // Tie-break: lowest neighbor ASN (locally originated wins outright via
  // the empty as_path above).
  auto neighbor_asn = [this](const BgpRoute& r) -> uint32_t {
    return r.learned_from.valid() ? Get(r.learned_from).asn : 0;
  };
  uint32_t ca = neighbor_asn(candidate);
  uint32_t ia = neighbor_asn(incumbent);
  if (ca != ia) {
    return ca < ia;
  }
  // Deterministic final tie-break (two peers may share an ASN): lowest
  // neighbor speaker id. Makes best-path selection a total order, so the
  // incremental fixed point matches the from-scratch rebuild byte-for-byte.
  return candidate.learned_from.value() < incumbent.learned_from.value();
}

bool BgpMesh::EntryBetter(const AdjEntry& a, const AdjEntry& b) const {
  if (a.local_pref != b.local_pref) {
    return a.local_pref > b.local_pref;
  }
  const size_t alen = paths_.Get(a.path_id).size();
  const size_t blen = paths_.Get(b.path_id).size();
  if (alen != blen) {
    return alen < blen;
  }
  const uint32_t aasn = Get(SpeakerId(a.peer)).asn;
  const uint32_t basn = Get(SpeakerId(b.peer)).asn;
  if (aasn != basn) {
    return aasn < basn;
  }
  return a.peer < b.peer;
}

std::optional<BgpRoute> BgpMesh::SelectBest(const Speaker& s,
                                            const IpPrefix& prefix) const {
  const AdjEntry* best = nullptr;
  auto it = s.adj_rib_in.find(prefix);
  if (it != s.adj_rib_in.end()) {
    for (const AdjEntry& entry : adj_slab_.Get(it->second)) {
      if (best == nullptr || EntryBetter(entry, *best)) {
        best = &entry;
      }
    }
  }
  if (s.originated.count(prefix) > 0) {
    // Local origination: local_pref 100, empty as_path. Every retained
    // advertisement has at least the sender's ASN on its path, so under
    // Better() the local route loses only to a higher local_pref.
    if (best == nullptr || best->local_pref <= 100) {
      BgpRoute local;
      local.prefix = prefix;
      local.local_pref = 100;
      return local;
    }
  }
  if (best == nullptr) {
    return std::nullopt;
  }
  return Materialize(prefix, *best);
}

void BgpMesh::MarkDirty(size_t speaker_index, const IpPrefix& prefix) {
  if (dirty_[speaker_index].insert(prefix).second) {
    ++pending_work_;
  }
}

void BgpMesh::RecordPreDelta(size_t speaker_index, const IpPrefix& prefix,
                             const std::optional<BgpRoute>& old_route) {
  pre_delta_[speaker_index].emplace(prefix, old_route);  // first touch wins
}

void BgpMesh::DeliverUpdate(size_t receiver_index, SpeakerId from,
                            BgpRoute route) {
  Speaker& receiver = speakers_[receiver_index];
  // Loop detection: a looped advertisement still implicitly withdraws
  // whatever this peer advertised before (it no longer holds that path).
  if (std::find(route.as_path.begin(), route.as_path.end(), receiver.asn) !=
      route.as_path.end()) {
    DeliverWithdraw(receiver_index, from, route.prefix);
    return;
  }
  // Import policy lives on the receiver's session record toward the sender.
  auto sit = receiver.session_index.find(from.value());
  if (sit != receiver.session_index.end()) {
    const SessionPolicy& policy = receiver.sessions[sit->second].policy;
    if (policy.import_filter && !policy.import_filter(route)) {
      DeliverWithdraw(receiver_index, from, route.prefix);
      return;
    }
    if (policy.import_local_pref != 0) {
      route.local_pref = policy.import_local_pref;
    }
  }
  const uint32_t path_id = paths_.Intern(std::move(route.as_path));
  auto [it, inserted] = receiver.adj_rib_in.try_emplace(route.prefix, kNilId);
  if (inserted) {
    it->second = adj_slab_.Alloc();
  }
  std::vector<AdjEntry>& entries = adj_slab_.Get(it->second);
  if (AdjEntry* existing = FindEntry(entries, from.value())) {
    if (existing->path_id == path_id &&
        existing->local_pref == route.local_pref) {
      paths_.Release(path_id);  // the Intern above double-counted it
      return;                   // unchanged: no re-selection needed
    }
    paths_.Release(existing->path_id);
    existing->path_id = path_id;
    existing->local_pref = route.local_pref;
  } else {
    entries.push_back(AdjEntry{from.value(), path_id, route.local_pref});
  }
  MarkDirty(receiver_index, route.prefix);
}

void BgpMesh::DeliverWithdraw(size_t receiver_index, SpeakerId from,
                              const IpPrefix& prefix) {
  Speaker& receiver = speakers_[receiver_index];
  auto it = receiver.adj_rib_in.find(prefix);
  if (it == receiver.adj_rib_in.end()) {
    return;
  }
  std::vector<AdjEntry>& entries = adj_slab_.Get(it->second);
  AdjEntry* entry = FindEntry(entries, from.value());
  if (entry == nullptr) {
    return;
  }
  paths_.Release(entry->path_id);
  *entry = entries.back();
  entries.pop_back();
  if (entries.empty()) {
    adj_slab_.Free(it->second);
    receiver.adj_rib_in.erase(it);
  }
  MarkDirty(receiver_index, prefix);
}

void BgpMesh::ResyncSession(SpeakerId from, SpeakerId to) {
  Speaker& sender = Get(from);
  const SessionPolicy& policy =
      sender.sessions[sender.session_index.at(to.value())].policy;
  size_t to_index = to.value() - 1;
  for (const auto& [prefix, best] : sender.loc_rib) {
    if (policy.export_filter && !policy.export_filter(best)) {
      // Not exported (any more): drop whatever the receiver retained.
      DeliverWithdraw(to_index, from, prefix);
      continue;
    }
    BgpRoute advert = best;
    advert.as_path.insert(advert.as_path.begin(), sender.asn);
    advert.learned_from = from;
    advert.local_pref = 100;  // local_pref is not transitive
    DeliverUpdate(to_index, from, std::move(advert));
  }
}

void BgpMesh::FlushLearnedFrom(SpeakerId at, SpeakerId peer) {
  Speaker& s = Get(at);
  size_t at_index = at.value() - 1;
  for (auto it = s.adj_rib_in.begin(); it != s.adj_rib_in.end();) {
    std::vector<AdjEntry>& entries = adj_slab_.Get(it->second);
    if (AdjEntry* entry = FindEntry(entries, peer.value())) {
      paths_.Release(entry->path_id);
      *entry = entries.back();
      entries.pop_back();
      MarkDirty(at_index, it->first);
    }
    if (entries.empty()) {
      adj_slab_.Free(it->second);
      it = s.adj_rib_in.erase(it);
    } else {
      ++it;
    }
  }
}

void BgpMesh::ClearAdjRib(Speaker& s) {
  for (const auto& [prefix, bucket] : s.adj_rib_in) {
    for (const AdjEntry& entry : adj_slab_.Get(bucket)) {
      paths_.Release(entry.path_id);
    }
    adj_slab_.Free(bucket);
  }
  s.adj_rib_in.clear();
}

BgpMesh::ConvergenceStats BgpMesh::Converge(uint64_t max_rounds) {
  ConvergenceStats stats;
  if (outage_.active()) {
    return stats;  // dead control plane: dirty work waits for the replay
  }
  bool changed_any = false;

  struct Outgoing {
    size_t to;
    SpeakerId from;
    bool withdraw;
    BgpRoute route;   // update only
    IpPrefix prefix;  // withdraw only
  };
  std::vector<Outgoing> deliveries;

  while (pending_work_ > 0 && stats.rounds < max_rounds) {
    ++stats.rounds;
    std::vector<std::set<IpPrefix>> current(speakers_.size());
    current.swap(dirty_);
    pending_work_ = 0;
    deliveries.clear();

    // Re-select best paths for every dirty (speaker, prefix) and queue the
    // resulting advertisements / withdraws; apply them all afterwards
    // (synchronous round semantics).
    for (size_t i = 0; i < speakers_.size(); ++i) {
      Speaker& s = speakers_[i];
      for (const IpPrefix& prefix : current[i]) {
        ++stats.prefixes_processed;
        std::optional<BgpRoute> new_best = SelectBest(s, prefix);
        auto rib_it = s.loc_rib.find(prefix);
        std::optional<BgpRoute> old_best;
        if (rib_it != s.loc_rib.end()) {
          old_best = rib_it->second;
        }
        if (old_best == new_best) {
          continue;  // e.g. a worse alternative arrived: best unchanged
        }
        RecordPreDelta(i, prefix, old_best);
        ++stats.best_path_changes;
        changed_any = true;
        if (new_best.has_value()) {
          s.loc_rib[prefix] = *new_best;
        } else {
          s.loc_rib.erase(rib_it);
        }

        for (const Session& session : s.sessions) {
          size_t to_index = session.peer.value() - 1;
          bool advertise_now =
              new_best.has_value() &&
              (!session.policy.export_filter ||
               session.policy.export_filter(*new_best));
          if (advertise_now) {
            BgpRoute advert = *new_best;
            advert.as_path.insert(advert.as_path.begin(), s.asn);
            advert.learned_from = SpeakerId(i + 1);
            advert.local_pref = 100;  // local_pref is not transitive
            ++stats.update_messages;
            deliveries.push_back(Outgoing{to_index, SpeakerId(i + 1), false,
                                          std::move(advert), prefix});
            continue;
          }
          bool advertised_before =
              old_best.has_value() &&
              (!session.policy.export_filter ||
               session.policy.export_filter(*old_best));
          if (advertised_before) {
            ++stats.withdraw_messages;
            deliveries.push_back(
                Outgoing{to_index, SpeakerId(i + 1), true, {}, prefix});
          }
        }
      }
    }

    for (Outgoing& d : deliveries) {
      if (d.withdraw) {
        DeliverWithdraw(d.to, d.from, d.prefix);
      } else {
        DeliverUpdate(d.to, d.from, std::move(d.route));
      }
    }
  }

  stats.converged = pending_work_ == 0;
  if (changed_any) {
    ++mutations_;  // RIBs actually changed: downstream verdicts may move
  }
  return stats;
}

BgpMesh::ConvergenceStats BgpMesh::ConvergeFull(uint64_t max_rounds) {
  if (outage_.active()) {
    return ConvergenceStats{};  // must not wipe surviving forwarding state
  }
  // Record pre-delta state for everything we are about to clear, so the
  // delta accumulator still reports net changes across the rebuild.
  for (size_t i = 0; i < speakers_.size(); ++i) {
    Speaker& s = speakers_[i];
    for (const auto& [prefix, route] : s.loc_rib) {
      RecordPreDelta(i, prefix, route);
    }
    s.loc_rib.clear();
    ClearAdjRib(s);
    dirty_[i].clear();
  }
  pending_work_ = 0;
  for (size_t i = 0; i < speakers_.size(); ++i) {
    for (const IpPrefix& prefix : speakers_[i].originated) {
      MarkDirty(i, prefix);
    }
  }
  ConvergenceStats stats = Converge(max_rounds);
  ++mutations_;  // full rebuild: conservatively invalidate downstream
  return stats;
}

const BgpRoute* BgpMesh::BestRoute(SpeakerId speaker,
                                   const IpPrefix& prefix) const {
  if (!Valid(speaker)) {
    return nullptr;
  }
  const Speaker& s = Get(speaker);
  auto it = s.loc_rib.find(prefix);
  return it == s.loc_rib.end() ? nullptr : &it->second;
}

const std::map<IpPrefix, BgpRoute>* BgpMesh::LocRib(SpeakerId speaker) const {
  if (!Valid(speaker)) {
    return nullptr;
  }
  return &Get(speaker).loc_rib;
}

size_t BgpMesh::TableSize(SpeakerId speaker) const {
  if (!Valid(speaker)) {
    return 0;
  }
  return Get(speaker).loc_rib.size();
}

size_t BgpMesh::TotalRibEntries() const {
  size_t total = 0;
  for (const Speaker& s : speakers_) {
    total += s.loc_rib.size();
  }
  return total;
}

size_t BgpMesh::TotalAdjRibInEntries() const {
  size_t total = 0;
  for (const Speaker& s : speakers_) {
    for (const auto& [prefix, bucket] : s.adj_rib_in) {
      total += adj_slab_.Get(bucket).size();
    }
  }
  return total;
}

size_t BgpMesh::ApproxBytes() const {
  // unordered_map node: hash-next pointer + key + mapped (+ bucket array).
  constexpr size_t kMapNodeBytes =
      sizeof(void*) + sizeof(IpPrefix) + sizeof(uint32_t) + sizeof(void*);
  size_t bytes = adj_slab_.ApproxBytes() + paths_.ApproxBytes();
  paths_.ForEach([&](uint32_t, const std::vector<uint32_t>& path, uint32_t) {
    bytes += path.capacity() * sizeof(uint32_t);
  });
  for (const Speaker& s : speakers_) {
    bytes += s.adj_rib_in.size() * kMapNodeBytes;
    for (const auto& [prefix, bucket] : s.adj_rib_in) {
      bytes += adj_slab_.Get(bucket).capacity() * sizeof(AdjEntry);
    }
    // std::map node: parent/left/right pointers + color + key + value.
    for (const auto& [prefix, route] : s.loc_rib) {
      bytes += 3 * sizeof(void*) + sizeof(size_t) + sizeof(IpPrefix) +
               sizeof(BgpRoute) + route.as_path.capacity() * sizeof(uint32_t);
    }
  }
  return bytes;
}

std::vector<std::vector<RibDelta>> BgpMesh::TakeDeltas() {
  std::vector<std::vector<RibDelta>> out(speakers_.size());
  for (size_t i = 0; i < speakers_.size(); ++i) {
    const Speaker& s = speakers_[i];
    for (const auto& [prefix, pre] : pre_delta_[i]) {
      auto it = s.loc_rib.find(prefix);
      std::optional<BgpRoute> cur;
      if (it != s.loc_rib.end()) {
        cur = it->second;
      }
      if (pre == cur) {
        continue;  // changed and changed back: net no-op
      }
      RibDeltaKind kind = !pre.has_value() ? RibDeltaKind::kInstalled
                          : cur.has_value() ? RibDeltaKind::kReplaced
                                            : RibDeltaKind::kWithdrawn;
      out[i].push_back(RibDelta{prefix, kind});
    }
    std::sort(out[i].begin(), out[i].end(),
              [](const RibDelta& a, const RibDelta& b) {
                return a.prefix < b.prefix;
              });
    pre_delta_[i].clear();
  }
  return out;
}

bool BgpMesh::HasPendingDeltas() const {
  for (size_t i = 0; i < speakers_.size(); ++i) {
    const Speaker& s = speakers_[i];
    for (const auto& [prefix, pre] : pre_delta_[i]) {
      auto it = s.loc_rib.find(prefix);
      std::optional<BgpRoute> cur;
      if (it != s.loc_rib.end()) {
        cur = it->second;
      }
      if (!(pre == cur)) {
        return true;
      }
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Warm restart.
// ---------------------------------------------------------------------------

BgpMeshSnapshot BgpMesh::Checkpoint() const {
  BgpMeshSnapshot snap;
  snap.speakers.resize(speakers_.size());
  for (size_t i = 0; i < speakers_.size(); ++i) {
    const Speaker& s = speakers_[i];
    BgpMeshSnapshot::SpeakerRibs& out = snap.speakers[i];
    out.adj_rib_in.reserve(s.adj_rib_in.size());
    for (const auto& [prefix, bucket] : s.adj_rib_in) {
      std::vector<std::pair<uint64_t, BgpRoute>> peers;
      for (const AdjEntry& entry : adj_slab_.Get(bucket)) {
        peers.emplace_back(entry.peer, Materialize(prefix, entry));
      }
      std::sort(peers.begin(), peers.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      out.adj_rib_in.emplace_back(prefix, std::move(peers));
    }
    std::sort(out.adj_rib_in.begin(), out.adj_rib_in.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    out.loc_rib.assign(s.loc_rib.begin(), s.loc_rib.end());
  }
  return snap;
}

void BgpMesh::RestoreFromSnapshot(const BgpMeshSnapshot& snap) {
  size_t n = std::min(snap.speakers.size(), speakers_.size());
  for (size_t i = 0; i < n; ++i) {
    Speaker& s = speakers_[i];
    const BgpMeshSnapshot::SpeakerRibs& in = snap.speakers[i];
    ClearAdjRib(s);
    for (const auto& [prefix, peers] : in.adj_rib_in) {
      std::vector<AdjEntry> entries;
      entries.reserve(peers.size());
      for (const auto& [peer, route] : peers) {
        entries.push_back(
            AdjEntry{peer, paths_.Intern(route.as_path), route.local_pref});
      }
      s.adj_rib_in.emplace(prefix, adj_slab_.Alloc(std::move(entries)));
    }
    s.loc_rib.clear();
    s.loc_rib.insert(in.loc_rib.begin(), in.loc_rib.end());
    // The restored image is the new delta baseline: stale dirtiness and
    // half-accumulated deltas refer to a world that no longer exists.
    pending_work_ -= dirty_[i].size();
    dirty_[i].clear();
    pre_delta_[i].clear();
  }
  ++mutations_;  // downstream verdicts must conservatively re-verify
}

uint64_t BgpMesh::ReconcileFromSnapshot(const BgpMeshSnapshot& snap) {
  uint64_t divergent = 0;
  for (size_t i = 0; i < speakers_.size(); ++i) {
    Speaker& s = speakers_[i];
    const BgpMeshSnapshot::SpeakerRibs* in =
        i < snap.speakers.size() ? &snap.speakers[i] : nullptr;
    std::set<IpPrefix> suspect;

    // Adj-RIB-In: any prefix whose retained per-peer advertisements differ
    // from the checkpoint gets re-selected. Live entries stay authoritative
    // (peers do not re-advertise unchanged prefixes, so adopting snapshot
    // entries the peer has since replaced would never self-correct).
    std::unordered_set<IpPrefix> snap_adj_seen;
    if (in != nullptr) {
      for (const auto& [prefix, peers] : in->adj_rib_in) {
        snap_adj_seen.insert(prefix);
        auto it = s.adj_rib_in.find(prefix);
        if (it == s.adj_rib_in.end()) {
          suspect.insert(prefix);
          continue;
        }
        std::vector<AdjEntry>& entries = adj_slab_.Get(it->second);
        if (entries.size() != peers.size()) {
          suspect.insert(prefix);
          continue;
        }
        for (const auto& [peer, route] : peers) {
          const AdjEntry* entry = FindEntry(entries, peer);
          if (entry == nullptr || !(Materialize(prefix, *entry) == route)) {
            suspect.insert(prefix);
            break;
          }
        }
      }
    }
    for (const auto& [prefix, bucket] : s.adj_rib_in) {
      if (snap_adj_seen.count(prefix) == 0) {
        suspect.insert(prefix);
      }
    }

    // Loc-RIB: divergent best routes are re-selected too (covers entries
    // whose adjacency matches but whose selection was interrupted).
    std::unordered_set<IpPrefix> snap_loc_seen;
    if (in != nullptr) {
      for (const auto& [prefix, route] : in->loc_rib) {
        snap_loc_seen.insert(prefix);
        auto it = s.loc_rib.find(prefix);
        if (it == s.loc_rib.end() || !(it->second == route)) {
          suspect.insert(prefix);
        }
      }
    }
    for (const auto& [prefix, route] : s.loc_rib) {
      if (snap_loc_seen.count(prefix) == 0) {
        suspect.insert(prefix);
      }
    }

    divergent += suspect.size();
    for (const IpPrefix& prefix : suspect) {
      MarkDirty(i, prefix);
    }
  }
  return divergent;
}

ReconcileStats BgpMesh::EndRestartAndReplay() {
  ReconcileStats stats;
  outage_.Replay(*this, stats);
  return stats;
}

}  // namespace tenantnet
