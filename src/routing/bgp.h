// A compact path-vector (BGP-like) routing mesh with incremental,
// event-driven convergence.
//
// The paper's point is that tenants are forced to face inter-domain routing
// (Transit Gateways and VPN gateways speak BGP); the baseline world
// therefore really runs one of these meshes: speakers originate prefixes,
// advertise to sessions with export policies, import with loop detection,
// and select best paths (local-pref, then AS-path length, then lowest
// neighbor ASN, then lowest neighbor speaker id as the deterministic final
// tie-break).
//
// Convergence is delta-driven: every speaker retains an Adj-RIB-In (the
// last route each peer advertised for each prefix, post import policy), so
// a mutation — originate, withdraw, session add/remove, policy change —
// only enqueues the affected prefixes onto a dirty work queue. Converge()
// drains that queue in synchronous rounds: best paths are re-selected
// locally from the retained Adj-RIB-Ins (implicit withdraw: a peer's new
// advertisement replaces its previous one), and only *changed* best routes
// are re-advertised, with explicit withdraw messages sent when a best
// route disappears or stops passing an export filter. A convergence that
// changes nothing advertises nothing and leaves the mutation count, and so
// the downstream verdict generation, where it was.
//
// ConvergeFull() is the from-scratch reference: it clears every RIB and
// re-floods the whole mesh through the same engine. Differential tests
// assert that an incrementally maintained mesh is byte-identical to the
// full rebuild after arbitrary mutation sequences; benches measure the
// (orders-of-magnitude) gap between the two under single-route churn.
//
// Downstream consumers (BaselineNetwork::PropagateRoutes) read the per-
// speaker Loc-RIB delta set accumulated since the last TakeDeltas() call
// and apply it as install/withdraw deltas to their FIBs instead of
// rebuilding them.

#ifndef TENANTNET_SRC_ROUTING_BGP_H_
#define TENANTNET_SRC_ROUTING_BGP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/ids.h"
#include "src/common/reconcile.h"
#include "src/common/slab.h"
#include "src/common/status.h"
#include "src/net/ip.h"

namespace tenantnet {

using SpeakerId = TypedId<struct SpeakerIdTag>;

struct BgpRoute {
  IpPrefix prefix;
  std::vector<uint32_t> as_path;  // front = most recent hop
  uint32_t local_pref = 100;
  SpeakerId learned_from;  // invalid for locally originated

  bool OriginatedLocally() const { return !learned_from.valid(); }

  friend bool operator==(const BgpRoute& a, const BgpRoute& b) {
    return a.prefix == b.prefix && a.as_path == b.as_path &&
           a.local_pref == b.local_pref && a.learned_from == b.learned_from;
  }
};

// Per-session import/export policy.
struct SessionPolicy {
  // Applied to routes received on this session; routes failing the filter
  // are dropped. Default accepts everything.
  std::function<bool(const BgpRoute&)> import_filter;
  // local_pref assigned to imported routes (0 = keep sender's default 100).
  uint32_t import_local_pref = 0;
  // Applied before sending; routes failing are not exported.
  std::function<bool(const BgpRoute&)> export_filter;
};

// How one speaker's best route for one prefix changed across a delta epoch
// (between two TakeDeltas() calls). Changes are net: a route that changed
// and changed back reports nothing.
enum class RibDeltaKind : uint8_t {
  kInstalled,  // prefix gained a best route it did not have before
  kReplaced,   // best route swapped for a different one
  kWithdrawn,  // best route disappeared
};

struct RibDelta {
  IpPrefix prefix;
  RibDeltaKind kind = RibDeltaKind::kInstalled;
};

// Durable image of the mesh's *routing* state: Adj-RIB-In and Loc-RIB per
// speaker. Config (speakers, sessions, policies, origins) is durable tenant
// intent — it survives a control-plane restart by construction and is not
// captured. SessionPolicy holds std::function filters, so snapshots are
// structured in-memory values compared with operator==, never raw bytes.
struct BgpMeshSnapshot {
  struct SpeakerRibs {
    // Per prefix (sorted), the retained advertisement of each peer (sorted
    // by peer speaker value).
    std::vector<std::pair<IpPrefix, std::vector<std::pair<uint64_t, BgpRoute>>>>
        adj_rib_in;
    std::vector<std::pair<IpPrefix, BgpRoute>> loc_rib;  // sorted by prefix

    friend bool operator==(const SpeakerRibs& a,
                           const SpeakerRibs& b) = default;
  };
  std::vector<SpeakerRibs> speakers;

  friend bool operator==(const BgpMeshSnapshot& a,
                         const BgpMeshSnapshot& b) = default;
};

class BgpMesh {
 public:
  SpeakerId AddSpeaker(uint32_t asn, std::string name);

  // Bidirectional session with per-direction policies. At most one session
  // per speaker pair; the new session immediately syncs both speakers'
  // current best routes into each other's Adj-RIB-In (drain with
  // Converge()).
  Status AddSession(SpeakerId a, SpeakerId b, SessionPolicy a_to_b = {},
                    SessionPolicy b_to_a = {});

  // Tears the session down: both sides drop every route learned from the
  // other and re-select from their remaining Adj-RIB-Ins on Converge().
  Status RemoveSession(SpeakerId a, SpeakerId b);

  // Replaces the policy `speaker` applies on its session toward `peer`
  // (its import from and export to that peer). Both directions of the
  // session are re-synced under the new policy.
  Status SetSessionPolicy(SpeakerId speaker, SpeakerId peer,
                          SessionPolicy policy);

  // Originates `prefix` at `speaker` (it will advertise it everywhere its
  // export policies allow).
  Status Originate(SpeakerId speaker, const IpPrefix& prefix);

  Status WithdrawOrigin(SpeakerId speaker, const IpPrefix& prefix);

  // Drains the dirty-prefix queue in synchronous advertisement rounds
  // until no speaker changes its Loc-RIB, or `max_rounds` is hit. A call
  // with nothing pending does no work. Returns per-call stats.
  struct ConvergenceStats {
    uint64_t rounds = 0;
    uint64_t update_messages = 0;    // (route, session) advertisements sent
    uint64_t withdraw_messages = 0;  // explicit withdraws sent
    uint64_t prefixes_processed = 0; // dirty (speaker, prefix) work items
    uint64_t best_path_changes = 0;  // Loc-RIB writes (incl. transients)
    bool converged = false;
  };
  ConvergenceStats Converge(uint64_t max_rounds = 1000);

  // From-scratch reference: clears every Adj-RIB-In and Loc-RIB, re-seeds
  // origins, and re-floods the whole mesh through the same engine. The
  // result is the state Converge() maintains incrementally; the cost is
  // what every mutation used to pay.
  ConvergenceStats ConvergeFull(uint64_t max_rounds = 1000);

  // Best route at `speaker` for exactly `prefix` (post-convergence).
  const BgpRoute* BestRoute(SpeakerId speaker, const IpPrefix& prefix) const;

  // The whole Loc-RIB of a speaker (sorted by prefix), for differential
  // tests and FIB derivation sweeps.
  const std::map<IpPrefix, BgpRoute>* LocRib(SpeakerId speaker) const;

  // Loc-RIB size at a speaker.
  size_t TableSize(SpeakerId speaker) const;

  size_t speaker_count() const { return speakers_.size(); }
  size_t session_count() const { return session_count_; }

  // Total best-route entries across all speakers (global routing state).
  size_t TotalRibEntries() const;

  // Retained Adj-RIB-In entries across all speakers (the memory the
  // incremental engine pays for sound implicit withdraws).
  size_t TotalAdjRibInEntries() const;

  // Resident footprint of the mesh's routing state (E10): Adj-RIB-In
  // buckets + 16-byte compact entries, the interned AS-path pool, and the
  // Loc-RIBs. Capacity-based, feeds the telemetry gauges.
  size_t ApproxBytes() const;

  // Distinct AS paths alive in the mesh-wide intern pool. Most routes in a
  // realistic mesh share a handful of paths; this is the dedup win.
  size_t distinct_as_paths() const { return paths_.size(); }

  // --- Delta API -----------------------------------------------------------

  // Net per-speaker Loc-RIB changes since the previous TakeDeltas() call,
  // indexed by speaker.value() - 1 and sorted by prefix. Consuming resets
  // the accumulator. Downstream FIBs apply exactly these prefixes instead
  // of re-deriving every table.
  std::vector<std::vector<RibDelta>> TakeDeltas();

  // True if some Loc-RIB entry changed since the last TakeDeltas().
  bool HasPendingDeltas() const;

  // Dirty (speaker, prefix) work items queued for the next Converge().
  size_t pending_work() const { return pending_work_; }

  // Bumped by every config mutation (speakers, sessions, origins, policy)
  // and by every Converge()/ConvergeFull() that actually changed a Loc-RIB
  // entry. A convergence that changes nothing does NOT bump it, so a
  // verdict generation folding this counter in holds across no-op
  // re-propagation.
  uint64_t mutation_count() const { return mutations_; }

  // --- Warm restart (see src/common/reconcile.h for the protocol) -----------

  // Captures Adj-RIB-In + Loc-RIB for every speaker.
  BgpMeshSnapshot Checkpoint() const;

  // Wholesale restore of what Checkpoint() captured: RIBs are replaced, the
  // dirty queue and delta accumulator of restored speakers are cleared (the
  // restored image is the new delta baseline), and the mutation counter is
  // bumped (downstream verdicts must conservatively re-verify). The disaster
  // path — warm reconciliation goes through ReconcileFromSnapshot instead.
  void RestoreFromSnapshot(const BgpMeshSnapshot& snap);

  // The control plane dies. Graceful-restart semantics: the RIBs are
  // forwarding state and survive (peers keep forwarding), but no convergence
  // runs and config mutations (originate/withdraw, session add/remove,
  // policy changes) go to the outage log until EndRestartAndReplay().
  // Idempotent.
  void BeginRestart() { outage_.Begin(); }
  bool in_restart() const { return outage_.active(); }

  // Verification pass of the warm path: compares retained RIBs against the
  // checkpoint and marks every divergent (speaker, prefix) dirty so the next
  // Converge() re-selects it from live Adj-RIB-In + config (the live state
  // is authoritative — the snapshot only says where to look). Returns the
  // divergent entry count; zero when the checkpoint was taken at the kill.
  uint64_t ReconcileFromSnapshot(const BgpMeshSnapshot& snap);

  // Ends the outage and replays the logged config mutations into this mesh
  // through the normal incremental paths. Reports replayed and dropped
  // mutations — one drops when it became invalid during the outage (e.g.
  // originating a prefix an earlier logged call already originated).
  ReconcileStats EndRestartAndReplay();

 private:
  struct Session {
    SpeakerId peer;
    SessionPolicy policy;  // applied in the owner -> peer direction
  };
  // One retained advertisement, 16 bytes. The stored BgpRoute is implicit:
  // its prefix is the bucket key, its learned_from is SpeakerId(peer) (the
  // delivery paths always set them that way), and its as_path lives in the
  // mesh-wide intern pool — most routes share a handful of paths, so each
  // distinct path costs its bytes once.
  struct AdjEntry {
    uint64_t peer = 0;        // sender speaker value
    uint32_t path_id = 0;     // paths_ intern id (one reference held)
    uint32_t local_pref = 0;  // post import policy
  };
  struct PathHash {
    size_t operator()(const std::vector<uint32_t>& path) const {
      size_t h = 1469598103934665603ull;
      for (uint32_t hop : path) {
        h = (h ^ hop) * 1099511628211ull;
      }
      return h;
    }
  };
  struct Speaker {
    uint32_t asn;
    std::string name;
    std::vector<Session> sessions;
    // peer speaker value -> index into `sessions` (hashed lookup replacing
    // the old per-delivery linear scan).
    std::unordered_map<uint64_t, uint32_t> session_index;
    // Originated prefixes (hashed: Originate used to be O(n) per call).
    std::unordered_set<IpPrefix> originated;
    // Adj-RIB-In: per prefix, the adj_slab_ bucket holding the last route
    // each peer advertised (post import policy), in compact form.
    std::unordered_map<IpPrefix, uint32_t> adj_rib_in;
    // Loc-RIB: best route per prefix. Ordered so differential fingerprints
    // and FIB sweeps are deterministic, and node-stable so BestRoute() /
    // LocRib() can hand out long-lived pointers.
    std::map<IpPrefix, BgpRoute> loc_rib;
  };

  // True if `candidate` beats `incumbent` under BGP-ish selection
  // (deterministic total order; never ties for distinct candidates).
  bool Better(const BgpRoute& candidate, const BgpRoute& incumbent) const;

  Speaker& Get(SpeakerId id) { return speakers_[id.value() - 1]; }
  const Speaker& Get(SpeakerId id) const { return speakers_[id.value() - 1]; }
  bool Valid(SpeakerId id) const {
    return id.valid() && id.value() <= speakers_.size();
  }

  // Best candidate for `prefix` at `speaker`: local origination vs retained
  // Adj-RIB-In entries. nullopt = no route.
  std::optional<BgpRoute> SelectBest(const Speaker& s,
                                     const IpPrefix& prefix) const;

  // Better(), restated over compact entries without materializing routes.
  bool EntryBetter(const AdjEntry& a, const AdjEntry& b) const;

  // Reconstitutes the full route a compact entry stands for.
  BgpRoute Materialize(const IpPrefix& prefix, const AdjEntry& entry) const {
    BgpRoute route;
    route.prefix = prefix;
    route.as_path = paths_.Get(entry.path_id);
    route.local_pref = entry.local_pref;
    route.learned_from = SpeakerId(entry.peer);
    return route;
  }

  // Finds `peer`'s entry in a bucket (nullptr if absent).
  static AdjEntry* FindEntry(std::vector<AdjEntry>& entries, uint64_t peer) {
    for (AdjEntry& e : entries) {
      if (e.peer == peer) {
        return &e;
      }
    }
    return nullptr;
  }

  // Releases every path reference and bucket of a speaker's Adj-RIB-In.
  void ClearAdjRib(Speaker& s);

  // Marks (speaker, prefix) dirty for the next Converge() round.
  void MarkDirty(size_t speaker_index, const IpPrefix& prefix);

  // Records the pre-change value of (speaker, prefix) the first time it is
  // touched in the current delta epoch.
  void RecordPreDelta(size_t speaker_index, const IpPrefix& prefix,
                      const std::optional<BgpRoute>& old_route);

  // Applies one advertisement to `receiver`'s Adj-RIB-In (loop detection +
  // import policy; a looped or filtered advert implicitly withdraws the
  // peer's previous route). Marks the receiver dirty if the entry changed.
  void DeliverUpdate(size_t receiver_index, SpeakerId from, BgpRoute route);
  // Applies one explicit withdraw.
  void DeliverWithdraw(size_t receiver_index, SpeakerId from,
                       const IpPrefix& prefix);

  // Re-sends `from`'s current best routes to `to` under `from`'s current
  // export policy (session add / policy change), withdrawing retained
  // entries that no longer arrive.
  void ResyncSession(SpeakerId from, SpeakerId to);

  // Drops every Adj-RIB-In entry `at` learned from `peer`.
  void FlushLearnedFrom(SpeakerId at, SpeakerId peer);

  std::vector<Speaker> speakers_;
  // Adj-RIB-In buckets (shared slab: one allocation pool for the mesh) and
  // the mesh-wide deduplicated AS-path pool.
  Slab<std::vector<AdjEntry>> adj_slab_;
  InternPool<std::vector<uint32_t>, PathHash> paths_;
  size_t session_count_ = 0;
  uint64_t mutations_ = 0;
  // Config mutations accepted while the control plane is restarting.
  OutageLog<BgpMesh> outage_;

  // Dirty work queue: per speaker, the prefixes whose best path must be
  // re-selected. Ordered sets keep round processing deterministic.
  std::vector<std::set<IpPrefix>> dirty_;
  size_t pending_work_ = 0;

  // Delta accumulator: per speaker, prefix -> Loc-RIB value before the
  // first change of the current epoch (nullopt = absent).
  std::vector<std::unordered_map<IpPrefix, std::optional<BgpRoute>>>
      pre_delta_;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_ROUTING_BGP_H_
