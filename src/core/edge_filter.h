// Provider-edge permit-list enforcement ("public but default-off").
//
// Every endpoint address is globally routable, but the provider's ingress
// edges drop any flow whose source is not on the destination endpoint's
// tenant-supplied permit list (§4 Security). The list is replicated at
// every ingress edge of the hosting domain — the paper's "distributed and
// redundant" enforcement — so an update is a fan-out: one control-plane
// message per edge, each applied after a sampled install latency.
//
// The bank tracks exactly what E4b asks about: total filter entries per
// edge (memory), update fan-out (messages), and install latency until the
// last edge converges.
//
// Data plane: each installed list is compiled once into a
// CompiledPermitList (prefix entries in an LPM trie whose nodes carry the
// port/protocol scopes, group entries deduped into per-group scope sets),
// and Admits() walks it; nothing memoizes verdicts. AdmitsLinear() is the
// original O(entries) reference kept for equivalence tests and as the
// bench baseline. List applies bump the endpoint's verdict epoch and group
// applies the bank-wide one, so a consumer that keeps verdicts (the
// reachability verifier) knows which ones a change can have flipped.
//
// Memory model: endpoints map to dense slots via an open-addressed
// AddrIndex, and everything per-endpoint is a struct-of-arrays column
// indexed by slot — the bank-wide verdict epoch and master version/set
// columns, and per edge a version column plus a 4-byte interned set id.
// Permit-entry lists themselves are refcounted and deduplicated in an
// InternPool: the master copy, every edge replica and every in-flight
// install of the same byte-identical list share one std::vector<PermitEntry>
// and one compiled matcher. Per endpoint per edge the steady-state cost is
// 12 bytes. Group memberships are shared the same way without interning:
// each version is one immutable sorted MemberSnapshot, built once by the
// caller and held by pointer by the master, every in-flight install and
// every edge replica, and probed with a binary search. ApproxBytes() feeds
// E10's bytes/endpoint records and the telemetry gauges.

#ifndef TENANTNET_SRC_CORE_EDGE_FILTER_H_
#define TENANTNET_SRC_CORE_EDGE_FILTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/reconcile.h"
#include "src/common/rng.h"
#include "src/common/slab.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/net/flow.h"
#include "src/routing/lpm_trie.h"
#include "src/sim/event_queue.h"

namespace tenantnet {

class MetricRegistry;

// Endpoint groups: the §4 extension replacing the VPC's role as a grouping
// mechanism. A permit entry may reference a group instead of a prefix; the
// group's membership is replicated to the edges once and every referencing
// permit list follows automatically.
using EndpointGroupId = TypedId<struct EndpointGroupIdTag>;

// One version of a group's membership: sorted by address, duplicate-free and
// immutable. A membership change builds the next version with one copy; the
// control plane's record, the bank's master, every in-flight install and
// every edge replica then share it by pointer.
using MemberSnapshot = std::shared_ptr<const std::vector<IpAddress>>;

// Sorts and deduplicates `members` into a snapshot.
MemberSnapshot MakeMemberSnapshot(std::vector<IpAddress> members);

// True if both snapshots hold the same members. A shared pointer settles it
// without reading either vector.
inline bool SameMembers(const MemberSnapshot& a, const MemberSnapshot& b) {
  return a == b || (a != nullptr && b != nullptr && *a == *b);
}

// One permitted source pattern for an endpoint: either a source prefix or
// an endpoint group (when `source_group` is valid, `source` is ignored).
struct PermitEntry {
  IpPrefix source;                       // who may talk to the endpoint
  EndpointGroupId source_group;          // ... or this group's members
  PortRange dst_ports = PortRange::Any();
  Protocol proto = Protocol::kAny;

  // Ports/protocol part of the match (the source part needs edge state for
  // group expansion; see EdgeFilterBank::Admits).
  bool ScopeMatches(const FiveTuple& flow) const {
    if (proto != Protocol::kAny && proto != flow.proto) {
      return false;
    }
    return dst_ports.Contains(flow.dst_port);
  }

  // Full match for prefix-based entries only.
  bool Admits(const FiveTuple& flow) const {
    return !source_group.valid() && ScopeMatches(flow) &&
           source.Contains(flow.src);
  }

  friend bool operator==(const PermitEntry& a, const PermitEntry& b) = default;
};

// A permit list compiled for the data plane. Prefix entries live in an LPM
// trie whose node values hold the port/protocol scopes attached to that
// source prefix; group entries are deduplicated into one scope set per
// referenced group. Evaluation is a trie walk over the covering prefixes of
// flow.src plus one binary search of the edge's member snapshot per distinct
// referenced group, instead of a linear scan of every entry.
class CompiledPermitList {
 public:
  // One (protocol, port-range) guard; `admit_all` short-circuits scope sets
  // that contain an unscoped entry (any proto, any port).
  struct ScopeSet {
    bool admit_all = false;
    std::vector<std::pair<Protocol, PortRange>> scopes;

    void Add(Protocol proto, PortRange ports);
    bool Matches(const FiveTuple& flow) const {
      if (admit_all) {
        return true;
      }
      for (const auto& [proto, ports] : scopes) {
        if ((proto == Protocol::kAny || proto == flow.proto) &&
            ports.Contains(flow.dst_port)) {
          return true;
        }
      }
      return false;
    }
  };

  explicit CompiledPermitList(const std::vector<PermitEntry>& entries);

  // True if any prefix entry covering flow.src has a matching scope.
  bool PrefixAdmits(const FiveTuple& flow) const {
    if (prefix_index_.entry_count() == 0) {
      return false;
    }
    return prefix_index_.ForEachMatch(
        flow.src, [&](const ScopeSet& set) { return !set.Matches(flow); });
  }

  // Distinct groups referenced by this list, with their merged scopes.
  const std::vector<std::pair<EndpointGroupId, ScopeSet>>& group_scopes()
      const {
    return group_scopes_;
  }

  size_t prefix_node_count() const { return prefix_index_.node_count(); }

  // Matcher footprint (trie arena + scope heap), for E10 accounting.
  size_t ApproxBytes() const;

 private:
  LpmTrie<ScopeSet> prefix_index_;
  std::vector<std::pair<EndpointGroupId, ScopeSet>> group_scopes_;
};

// The durable image of a filter bank's control-plane intent: the master
// permit lists and group memberships plus the version counter. Edge
// (data-plane) state is deliberately absent — it survives a control-plane
// restart and is reconciled against this, not restored from it. All vectors
// are sorted, so equality is the fixed-point property the snapshot tests
// assert. Group members are the bank's own snapshots, shared, not copied.
struct FilterBankSnapshot {
  struct List {
    IpAddress endpoint;
    uint64_t version = 0;
    std::vector<PermitEntry> entries;
    friend bool operator==(const List& a, const List& b) = default;
  };
  struct Group {
    EndpointGroupId group;
    uint64_t version = 0;
    MemberSnapshot members;
    friend bool operator==(const Group& a, const Group& b) {
      return a.group == b.group && a.version == b.version &&
             SameMembers(a.members, b.members);
    }
  };
  std::vector<List> lists;    // sorted by endpoint
  std::vector<Group> groups;  // sorted by group id
  uint64_t next_version = 1;

  friend bool operator==(const FilterBankSnapshot& a,
                         const FilterBankSnapshot& b) = default;
};

struct EdgeFilterParams {
  // Control-plane install latency per edge: base + Exp(1/mean_extra).
  SimDuration install_base = SimDuration::Millis(5);
  SimDuration install_extra_mean = SimDuration::Millis(10);

  // Degraded-replication model (control-plane faults). While degraded, each
  // replication message is independently dropped with `degraded_drop_prob`
  // and retransmitted after `degraded_retransmit` (a retransmit may drop
  // again); deliveries that do land also pay `degraded_extra`. Drop/retry
  // outcomes are drawn up front at send time from the bank's seeded RNG, so
  // a replayed schedule produces byte-identical apply times.
  double degraded_drop_prob = 0.35;
  SimDuration degraded_retransmit = SimDuration::Millis(50);
  SimDuration degraded_extra = SimDuration::Millis(20);
};

// The replicated filter state of one enforcement domain (a provider or an
// on-prem site). Edges are registered up front; permit lists are keyed by
// destination endpoint address.
class EdgeFilterBank {
 public:
  // `queue` may be null: updates then apply immediately (tests, and scale
  // benches that account latency analytically).
  EdgeFilterBank(std::string domain, EventQueue* queue, uint64_t rng_seed,
                 EdgeFilterParams params = {});
  ~EdgeFilterBank();

  // Registers an ingress edge; returns its index.
  size_t AddEdge(const std::string& name);
  size_t edge_count() const { return edges_.size(); }
  const std::string& edge_name(size_t edge_index) const {
    return edges_[edge_index].name;
  }

  // Replaces the permit list for `endpoint` on every edge. Returns the
  // simulated time at which the *last* edge has applied it (== now when no
  // queue is attached). The list is interned — identical lists anywhere in
  // the bank share storage and a single compiled matcher.
  SimTime SetPermitList(IpAddress endpoint, std::vector<PermitEntry> entries);

  // Incremental update (API extension): adds `add` and removes entries
  // equal to members of `remove` from the endpoint's latest list, then
  // re-propagates. Same convergence semantics as SetPermitList.
  SimTime UpdatePermitList(IpAddress endpoint, std::vector<PermitEntry> add,
                           const std::vector<PermitEntry>& remove);

  // Removes the endpoint's list everywhere (endpoint released). The removal
  // outranks every install still in flight: one that lands afterwards is
  // stale and cannot bring the list back.
  void RemovePermitList(IpAddress endpoint);

  // Replaces a group's member set on every edge (same fan-out/latency
  // semantics as permit lists). Permit entries referencing the group pick
  // the change up with no per-list updates. Returns last-edge apply time.
  // Every message carries the whole set, so an edge that applies a newer
  // version before an older one holds the newer set, never a mix.
  SimTime SetGroup(EndpointGroupId group, std::vector<IpAddress> members);
  // Same, for a set that is already a snapshot: the master, the in-flight
  // installs and the edges share it without copying. Null means empty.
  SimTime SetGroupSnapshot(EndpointGroupId group, MemberSnapshot members);
  // Removes the group everywhere; like RemovePermitList, it outranks every
  // install still in flight.
  void RemoveGroup(EndpointGroupId group);

  // Data plane: does edge `edge_index` admit this flow toward flow.dst?
  // Default-off: no installed list, or an empty list, admits nothing. A
  // walk of the list's compiled matcher; reads nothing but edge state.
  bool Admits(size_t edge_index, const FiveTuple& flow) const;

  // Same verdict via the original linear scan over the installed entries
  // (the pre-fast-path data plane). Reference implementation for the
  // equivalence property test and the bench speedup baseline.
  bool AdmitsLinear(size_t edge_index, const FiveTuple& flow) const;

  // True if the edge currently holds any list for `endpoint` (distinguishes
  // "default-off, nothing installed" from "installed but not permitted").
  bool HasList(size_t edge_index, IpAddress endpoint) const;

  // True if every edge holds the master's list for this endpoint, by
  // content; with no master list, if no edge holds one. Versions do not
  // count, so edges a warm restart left alone converge with the ones it
  // re-pushed. A property of the present moment: an older, different
  // install still in flight can make it false again until that install is
  // discarded as stale.
  bool IsConverged(IpAddress endpoint) const;

  // --- Fault injection ------------------------------------------------------
  // Toggles degraded replication (see EdgeFilterParams). Only affects
  // updates sent while degraded; in-flight messages keep their schedule.
  // Timing-only: does not bump any verdict epoch.
  void SetReplicationDegraded(bool degraded) { degraded_ = degraded; }
  bool replication_degraded() const { return degraded_; }

  // --- Warm restart (see src/common/reconcile.h for the protocol) -----------

  // Captures the control-plane intent (master lists/groups + version
  // counter). Edge state is not captured: it survives restarts.
  FilterBankSnapshot Checkpoint() const;

  // Reinstates exactly what Checkpoint() captured, touching no edge. The
  // version counter is restored to max(snapshot, live) so re-pushes issued
  // after a restore are never mistaken for stale updates by edges that
  // already hold newer versions.
  void RestoreFromSnapshot(const FilterBankSnapshot& snap);

  // The control plane dies: the master copy is wiped, and mutating calls
  // (Set/Update/RemovePermitList, Set/RemoveGroup) go to the outage log
  // instead of fanning out until CompleteRestart(). The data plane keeps
  // answering Admits() from the edges' last-programmed state. Idempotent.
  void BeginRestart();
  bool in_restart() const { return outage_.active(); }

  // The control plane comes back. Both modes restore `snap`, replay the
  // outage log, and leave the bank byte-identical (modulo version numbers)
  // to a from-scratch rebuild of the same intent; they differ in data-plane
  // churn:
  //   kWarm: the log replays into this bank through the normal incremental
  //     fan-out, then a reconcile sweep compares every (endpoint, edge) pair
  //     the replay did not push (version below the counter's value when
  //     replay began) against the master and re-pushes only mismatches —
  //     matching edges keep their verdict epochs, and traffic never sees a
  //     default-off window.
  //   kCold: the log replays into an edgeless, queueless scratch bank
  //     restored from `snap`, whose Checkpoint() becomes the intent; every
  //     edge is flushed (one global epoch bump: every verdict may change)
  //     and the full intent is re-fanned-out with install latency; until
  //     the re-installs land, default-off denies everything.
  ReconcileStats CompleteRestart(RestartMode mode,
                                 const FilterBankSnapshot& snap);

  // Version-free fingerprint of the semantic state (master + per-edge
  // installed lists and groups), for the warm-vs-cold differential oracle:
  // the two completion modes assign different version numbers but must land
  // on identical filtering behavior.
  std::string StateFingerprint() const;

  // --- Scale metrics --------------------------------------------------------
  uint64_t total_installed_entries() const;       // sum over edges
  uint64_t update_messages_sent() const { return messages_; }
  uint64_t endpoints_with_lists() const { return master_lists_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  uint64_t retransmissions() const { return retransmissions_; }

  // --- Memory accounting (E10) ---------------------------------------------
  // Resident footprint of the bank's endpoint-indexed state: slot index,
  // SoA columns (bank-wide and per edge), interned permit sets including
  // their compiled matchers, and the member snapshots the master and the
  // edges hold, each distinct snapshot once however many share it.
  // Capacity-based.
  size_t ApproxBytes() const;
  // Distinct interned permit lists alive (master + edges + in flight).
  size_t distinct_permit_sets() const { return sets_.size(); }
  size_t endpoint_slots() const { return slots_.size(); }
  // Pre-sizes the slot index and columns for `n` endpoints.
  void ReserveEndpoints(size_t n);
  // Drops growth slack in the index/columns before measuring.
  void ShrinkToFit();
  // Writes the bank's memory gauges ("<domain>.filter.approx_bytes",
  // ".endpoint_slots", ".distinct_permit_sets", ".installed_entries") into
  // a telemetry registry.
  void PublishMemoryGauges(MetricRegistry& metrics) const;

  // --- Revision hooks (reach-verifier keying; see src/reach) ----------------
  // Per-endpoint verdict epoch: bumped whenever an edge applies a permit-
  // list change for this endpoint. 0 for endpoints the bank has never seen.
  // The incremental reachability verifier keys its per-destination cache on
  // this, so permit churn dirties only the touched destination's pairs.
  uint64_t EndpointVerdictEpoch(IpAddress endpoint) const {
    return EndpointEpochOf(endpoint);
  }
  // Bank-wide epoch bumped by group applies/removals (a group change can
  // flip any verdict whose permit list references the group).
  uint64_t global_verdict_epoch() const { return global_epoch_; }
  // The installed master permit list for `endpoint` (nullptr when none):
  // what the control plane believes is deployed. Drift detection compares
  // declared intent against this.
  const std::vector<PermitEntry>* MasterEntriesOf(IpAddress endpoint) const;
  // Endpoints currently holding a master list, sorted by address.
  std::vector<IpAddress> MasterEndpoints() const;

  // --- Verdict path introspection -------------------------------------------
  // Distinct-list compilations performed. Interning dedupes: re-installing
  // a byte-identical list anywhere reuses the existing matcher for free.
  uint64_t permit_compiles() const { return compiles_; }
  // Total verdict-epoch bumps, endpoint and bank-wide (E9b counts them).
  uint64_t verdict_epoch() const { return gen_; }
  // Stubs over an all-zero value: the bank keeps no verdict cache. Only
  // perfbench/e2e/episode.cc still calls them; remove both once it stops.
  VerdictCacheStats verdict_cache_stats() const { return {}; }
  void ResetVerdictCacheStats() {}

 private:
  // An interned permit list. Equality/hash cover `entries` only; `compiled`
  // is a lazily built cache shared by every holder of the set.
  struct PermitSet {
    std::vector<PermitEntry> entries;
    std::shared_ptr<const CompiledPermitList> compiled;
    friend bool operator==(const PermitSet& a, const PermitSet& b) {
      return a.entries == b.entries;
    }
  };
  struct PermitSetHash {
    size_t operator()(const PermitSet& set) const {
      size_t h = 1469598103934665603ull;
      for (const PermitEntry& e : set.entries) {
        h = h * 1099511628211ull ^ std::hash<IpPrefix>{}(e.source);
        h = h * 1099511628211ull ^ e.source_group.value();
        h = h * 1099511628211ull ^
            (static_cast<size_t>(e.dst_ports.lo) << 16 | e.dst_ports.hi);
        h = h * 1099511628211ull ^ static_cast<size_t>(e.proto);
      }
      return h;
    }
  };

  // A group's membership at one version: the master's, or an edge's
  // replica. `members` is never null.
  struct GroupVersion {
    uint64_t version = 0;
    MemberSnapshot members;
  };
  // Every removal and every cold flush takes a fresh version, kept on the
  // edge, so an install sent earlier that lands afterwards is stale and
  // cannot bring back what was removed.
  struct EdgeState {
    std::string name;
    // Struct-of-arrays, indexed by endpoint slot (grown lazily): the version
    // of the last install or removal applied (0 = none) and the interned set
    // id (kNilId = none).
    std::vector<uint64_t> list_version;
    std::vector<uint32_t> list_set;
    std::unordered_map<EndpointGroupId, GroupVersion> groups;
    // Version of the last removal of each group applied here.
    std::unordered_map<EndpointGroupId, uint64_t> group_removed_at;
    uint64_t entry_count = 0;
    uint64_t flush_version = 0;  // installs numbered below it are stale
  };

  // One message's delivery delay, including any degraded-mode drop/retry
  // rounds. Advances the RNG; all draws happen here, at send time.
  SimDuration SampleDeliveryLatency();

  // Sends one list install to a subset of edges (the shared fan-out core of
  // SetPermitList and the warm reconcile sweep). Consumes one reference on
  // `set_id` (the caller's), assigns a fresh version to the master slot,
  // and takes per-message references for the in-flight applies. Returns
  // last apply time.
  SimTime PushListTo(IpAddress endpoint, uint32_t set_id,
                     const std::vector<size_t>& targets);
  SimTime PushGroupTo(EndpointGroupId group, const MemberSnapshot& members,
                      const std::vector<size_t>& targets);
  std::vector<size_t> AllEdgeIndices() const;
  // Grows an edge's columns to the slot count if they do not cover `slot`.
  void CoverSlot(EdgeState& edge, uint32_t slot) const;
  // Master groups, sorted by id (the deterministic sweep order).
  std::vector<EndpointGroupId> SortedMasterGroups() const;
  SimTime Now() const {
    return queue_ != nullptr ? queue_->now() : SimTime::Epoch();
  }

  // Dense slot for an endpoint address, creating it (and growing the
  // bank-wide columns) on first sight. Slots are never recycled: the
  // verdict epoch column must survive list removal and restarts.
  uint32_t SlotFor(IpAddress endpoint);
  uint32_t SlotOf(IpAddress endpoint) const { return slots_.Lookup(endpoint); }
  // slot -> address (transient, for the rare sorted sweeps/fingerprints).
  std::vector<IpAddress> SlotAddresses() const;
  // Master endpoints (slots holding a master set), sorted by address.
  std::vector<std::pair<IpAddress, uint32_t>> SortedMasterEndpoints() const;

  // Drops the master set reference for `slot`, if any.
  void ClearMasterSet(uint32_t slot);
  // Replaces the master set for `slot`, consuming the caller's reference.
  void AssignMasterSet(uint32_t slot, uint32_t set_id);
  // Compiles the set's matcher if this distinct list has never compiled.
  void EnsureCompiled(uint32_t set_id);

  // Epoch bumps, called at *apply* time (when edge state actually changes).
  void BumpEndpointEpoch(uint32_t slot) {
    ++slot_epoch_[slot];
    ++gen_;
  }
  void BumpGlobalEpoch() {
    ++global_epoch_;
    ++gen_;
  }
  uint64_t EndpointEpochOf(IpAddress endpoint) const {
    const uint32_t slot = slots_.Lookup(endpoint);
    return slot == kNilId ? 0 : slot_epoch_[slot];
  }

  std::string domain_;
  EventQueue* queue_;
  Rng rng_;
  EdgeFilterParams params_;
  bool degraded_ = false;
  uint64_t messages_dropped_ = 0;
  uint64_t retransmissions_ = 0;
  std::vector<EdgeState> edges_;

  // Endpoint slot index + bank-wide SoA columns (all sized to slot count).
  AddrIndex slots_;
  std::vector<uint64_t> slot_epoch_;      // verdict epoch; survives restarts
  std::vector<uint64_t> master_version_;  // control-plane master; 0 = none
  std::vector<uint32_t> master_set_;      // interned master list; kNilId = none
  uint64_t master_lists_ = 0;             // slots with master_version_ != 0

  // Interned permit lists shared by master, edges and in-flight applies.
  InternPool<PermitSet, PermitSetHash> sets_;

  std::unordered_map<EndpointGroupId, GroupVersion> latest_groups_;
  uint64_t next_version_ = 1;
  uint64_t messages_ = 0;

  // Mutations accepted while the control plane is down (see reconcile.h).
  OutageLog<EdgeFilterBank> outage_;

  // Scoped verdict epochs: list applies/removals bump the endpoint's
  // epoch, group applies/removals bump the bank-wide one, and gen_ counts
  // every bump of either kind.
  uint64_t global_epoch_ = 0;
  uint64_t gen_ = 0;
  uint64_t compiles_ = 0;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_CORE_EDGE_FILTER_H_
