// tn_reach: the reachability verifier ("can src reach dst, through which
// stages, and is that what I intended?").
//
// The data planes answer single-flow verdicts; this layer answers the
// tenant-level question on top of them, over *both* worlds. In each world
// it runs the data plane's own walk, so a reach verdict agrees with what
// traffic gets by construction:
//
//  * DeclarativeReachEngine asks DeclarativeCloud::QuerySource, the walk's
//    own source step, expands a SIP destination to its healthy bindings
//    (Bindings(), not the pick: no pick counter advances) and runs
//    DeclarativeCloud::Query, Evaluate's walk minus the pick, toward each
//    concrete endpoint. SIP destinations resolve
//    existentially (`reachable` = some healthy backend admits the flow) with
//    a universal bound (`all_backends`); EIP destinations are exact.
//  * BaselineReachEngine runs BaselineNetwork::Query, the fabric's staged
//    walk through route tables, SG/ACL/DPI stages and TGW FIBs; a DPI
//    firewall on the path counts nothing.
//
// Both return a ReachVerdict whose stage trace reuses the interned
// via/deny-stage labels (RouteLabels() / DenyStages()), and both name a
// denial's fix from the walk's drop stage alone (an unknown, stopped or
// address-less end is one of those stages too): one RemediationFor lookup
// in a table with a row per stage either walk drops at.
//
// One ReachVerifier<Engine> keeps a pair set verified incrementally,
// recomputing a pair only when its engine's KeyFor moves. The declarative
// key holds the destination endpoint epoch
// (EdgeFilterBank::EndpointVerdictEpoch), domain group epoch, SIP config
// revision, endpoint-allocation revision and instance epoch, so permit
// churn re-verifies only the touched destinations. The baseline key is the
// fabric's coarse verdict_generation() for every pair, deliberately
// all-or-nothing: the factorization asymmetry E12 measures.

#ifndef TENANTNET_SRC_REACH_REACH_H_
#define TENANTNET_SRC_REACH_REACH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/api.h"
#include "src/vnet/fabric.h"

namespace tenantnet {

// The answer to one CanReach(src, dst, proto, port) query.
struct ReachVerdict {
  bool reachable = false;
  // Ordered stage trace, interned in RouteLabels() (the PR-8 via labels).
  // For denied pairs the trace ends at the denying stage.
  std::vector<uint32_t> stages;
  // DenyStages() id of the denying stage; 0 when reachable.
  uint32_t deny_stage = 0;
  // SIP destinations: `reachable` is existential over healthy backends,
  // `all_backends` universal. Equal to `reachable` for EIP destinations.
  bool all_backends = false;
  // The fix for the deny stage, phrased in Table-2 verbs or the baseline's
  // SG/ACL/route/gateway equivalent: a view into a static table with one
  // row per stage either walk drops at. Empty when reachable.
  std::string_view remediation;

  friend bool operator==(const ReachVerdict& a,
                         const ReachVerdict& b) = default;

  // "sip-lb -> edge-filter@aws:us-east [DENY edge-filter]" — stage names
  // resolved through the interners, for repro lines and fingerprints.
  std::string ToString() const;
};

// One question a verifier keeps: can `src` reach `dst` on this port?
template <typename Dst>
struct ReachPair {
  InstanceId src;
  Dst dst;
  uint16_t dst_port = 0;
  Protocol proto = Protocol::kTcp;
};

// --- Query engines ---------------------------------------------------------
// Each engine answers CanReach and supplies what ReachVerifier keys on: its
// Pair, its Key and KeyFor(pair), cheap counters that move whenever
// anything the pair's verdict reads may have changed.

class DeclarativeReachEngine {
 public:
  using Pair = ReachPair<IpAddress>;
  // Epoch/revision lookups only, no matcher walks: this must stay far
  // cheaper than a verify, or the incremental sweep has no headroom to win.
  struct Key {
    uint64_t endpoint_rev = 0;   // cloud endpoint allocation revision
    uint64_t instance_epoch = 0; // world instance liveness
    uint64_t sip_rev = 0;        // SIP binding/health (SIP dsts only)
    uint64_t dst_epoch = 0;      // Σ endpoint epochs of concrete dst EIPs
    uint64_t group_epoch = 0;    // Σ group epochs of involved banks

    friend bool operator==(const Key& a, const Key& b) = default;
  };

  // Holds references; both must outlive the engine. Queries only read
  // `cloud`: no tenant-visible state changes, no data-plane counter moves,
  // and no enforcement domain is created.
  DeclarativeReachEngine(CloudWorld& world, DeclarativeCloud& cloud)
      : world_(&world), cloud_(&cloud) {}

  ReachVerdict CanReach(InstanceId src, IpAddress dst, uint16_t dst_port,
                        Protocol proto) const;
  Key KeyFor(const Pair& pair) const;

 private:
  CloudWorld* world_;
  DeclarativeCloud* cloud_;
};

class BaselineReachEngine {
 public:
  using Pair = ReachPair<InstanceId>;
  // The fabric's coarse verdict generation, the same for every pair: any
  // config, instance or BGP change re-verifies every pair (deliberately:
  // the baseline verdict is too entangled to factorize, which is the
  // contrast E12 reports).
  using Key = uint64_t;

  explicit BaselineReachEngine(BaselineNetwork& net) : net_(&net) {}

  ReachVerdict CanReach(InstanceId src, InstanceId dst, uint16_t dst_port,
                        Protocol proto) const;
  Key KeyFor(const Pair&) const { return net_->verdict_generation(); }

 private:
  BaselineNetwork* net_;
};

// --- The incremental verifier ----------------------------------------------

// Stats for one verification sweep.
struct ReachSweepStats {
  size_t pairs = 0;
  size_t recomputed = 0;
  size_t reused = 0;
};

// Keeps a set of pairs verified over one world's engine. VerifyAll()
// recomputes everything; Revalidate() recomputes only the pairs whose key
// moved, and must land on results byte-identical to a from-scratch verify:
// the differential property the reach tests assert and E12 times.
template <typename Engine>
class ReachVerifier {
 public:
  using Pair = typename Engine::Pair;

  // Takes the engine's constructor arguments.
  template <typename... World>
  explicit ReachVerifier(World&... world) : engine_(world...) {}

  // Replaces the pair set; all pairs start dirty.
  void SetPairs(std::vector<Pair> pairs);
  const std::vector<Pair>& pairs() const { return pairs_; }

  ReachSweepStats VerifyAll();
  ReachSweepStats Revalidate();

  // Verdicts aligned with pairs(); valid after a sweep.
  const std::vector<ReachVerdict>& verdicts() const { return verdicts_; }

  // Canonical serialization of (pair, verdict) rows with stage labels
  // resolved to names — the byte-identity oracle between Revalidate() and a
  // from-scratch VerifyAll().
  std::string Fingerprint() const;

 private:
  Engine engine_;
  std::vector<Pair> pairs_;
  std::vector<ReachVerdict> verdicts_;
  // Each pair's key when it was last recomputed; empty while dirty.
  std::vector<std::optional<typename Engine::Key>> keys_;
};

using DeclarativeReachVerifier = ReachVerifier<DeclarativeReachEngine>;
using BaselineReachVerifier = ReachVerifier<BaselineReachEngine>;
extern template class ReachVerifier<DeclarativeReachEngine>;
extern template class ReachVerifier<BaselineReachEngine>;

}  // namespace tenantnet

#endif  // TENANTNET_SRC_REACH_REACH_H_
