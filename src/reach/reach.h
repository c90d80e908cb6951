// tn_reach: the reachability verifier ("can src reach dst, through which
// stages, and is that what I intended?").
//
// The data planes answer single-flow verdicts; this layer answers the
// tenant-level question on top of them, over *both* worlds:
//
//  * DeclarativeReachEngine walks the Table-2 state directly — EIP/SIP
//    bindings, instance liveness, and the compiled permit-list matchers at
//    the destination's enforcement edge — without evaluating traffic: no
//    SIP pick counter advances and no inspection counters move. SIP
//    destinations resolve existentially (`reachable` = some healthy
//    backend admits the flow) with a universal bound (`all_backends`);
//    EIP destinations are exact.
//  * BaselineReachEngine composes route tables, SG/ACL/DPI stages and TGW
//    FIBs by driving the fabric's staged evaluator — the verdict and
//    ordered stage trace are the walk the baseline data plane performs.
//
// Both return a ReachVerdict whose stage trace reuses the interned
// via/deny-stage labels (RouteLabels() / DenyStages()), and both triage
// denials through a decision-tree evaluation (BasicDecisionNode over
// ReachFacts) into a remediation recommendation.
//
// The verifiers keep a pair set verified incrementally, keyed off the
// verdict epochs and revision hooks: the declarative side dirties only pairs
// whose destination endpoint epoch (EdgeFilterBank::EndpointVerdictEpoch),
// domain group epoch, SIP config revision, endpoint-allocation revision or
// instance epoch moved, so permit churn re-verifies only the touched
// destinations; the baseline side keys on the fabric's coarse
// verdict_generation() and is deliberately all-or-nothing — the
// factorization asymmetry E12 measures.

#ifndef TENANTNET_SRC_REACH_REACH_H_
#define TENANTNET_SRC_REACH_REACH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/api.h"
#include "src/vnet/decision_tree.h"
#include "src/vnet/fabric.h"

namespace tenantnet {

// Facts a query engine collects while walking a pair; the triage decision
// tree maps them to a remediation recommendation when the pair is denied.
struct ReachFacts {
  bool src_usable = false;      // src exists, is running, and has an address
  bool dst_known = false;       // dst address is owned by some endpoint
  bool dst_is_sip = false;
  bool sip_has_healthy_backend = false;
  bool dst_running = false;
  bool filtered = false;        // denied by permit list / SG / ACL / firewall
  // Routing delivered the flow as far as the filters. Defaults true: flat
  // EIPs route unconditionally; only the baseline's route/gateway stages can
  // clear it.
  bool routed = true;
};

using ReachTriageNode = BasicDecisionNode<ReachFacts>;

// The deny-triage tree: the reach layer's use of the decision-tree
// evaluator. Leaves are remediation recommendations ("set_permit_list on
// the destination", "bind a healthy backend", ...).
std::unique_ptr<ReachTriageNode> BuildReachTriageTree();

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
  // Triage-tree recommendation (empty when reachable).
  std::string remediation;

  friend bool operator==(const ReachVerdict& a,
                         const ReachVerdict& b) = default;

  // "sip-lb -> edge-filter@aws:us-east [DENY edge-filter]" — stage names
  // resolved through the interners, for repro lines and fingerprints.
  std::string ToString() const;
};

// --- Query engines ---------------------------------------------------------

class DeclarativeReachEngine {
 public:
  // Holds references; both must outlive the engine. Queries only read
  // `cloud`: no tenant-visible state changes, no data-plane counter moves,
  // and no enforcement domain is created.
  DeclarativeReachEngine(CloudWorld& world, DeclarativeCloud& cloud)
      : world_(&world), cloud_(&cloud) {}

  ReachVerdict CanReach(InstanceId src, IpAddress dst, uint16_t dst_port,
                        Protocol proto) const;

 private:
  // Tail of the walk once dst is a concrete EIP. Appends to `verdict`.
  void ReachConcrete(IpAddress src_eip, IpAddress dst, uint16_t dst_port,
                     Protocol proto, ReachVerdict& verdict,
                     ReachFacts& facts) const;

  CloudWorld* world_;
  DeclarativeCloud* cloud_;
};

class BaselineReachEngine {
 public:
  explicit BaselineReachEngine(BaselineNetwork& net) : net_(&net) {}

  ReachVerdict CanReach(InstanceId src, InstanceId dst, uint16_t dst_port,
                        Protocol proto) const;

 private:
  BaselineNetwork* net_;
};

// --- Incremental verifiers --------------------------------------------------

// Stats for one verification sweep.
struct ReachSweepStats {
  size_t pairs = 0;
  size_t recomputed = 0;
  size_t reused = 0;
};

// Keeps a set of declarative (src instance, dst address) pairs verified.
// VerifyAll() recomputes everything; Revalidate() recomputes only pairs
// whose dependency key moved (see file comment) and must land on results
// byte-identical to a from-scratch verify — the differential property the
// reach tests assert and E12 times.
class DeclarativeReachVerifier {
 public:
  struct Pair {
    InstanceId src;
    IpAddress dst;
    uint16_t dst_port = 0;
    Protocol proto = Protocol::kTcp;
  };

  DeclarativeReachVerifier(CloudWorld& world, DeclarativeCloud& cloud)
      : world_(&world), cloud_(&cloud), engine_(world, cloud) {}

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
  // Cheap dependency key per pair: epoch/revision lookups only, no matcher
  // walks. Monotone counters, so equality means "nothing it depends on
  // changed".
  struct DepKey {
    uint64_t endpoint_rev = 0;   // cloud endpoint allocation revision
    uint64_t instance_epoch = 0; // world instance liveness
    uint64_t sip_rev = 0;        // SIP binding/health (SIP dsts only)
    uint64_t dst_epoch = 0;      // Σ endpoint epochs of concrete dst EIPs
    uint64_t group_epoch = 0;    // Σ group epochs of involved banks
    bool valid = false;

    friend bool operator==(const DepKey& a, const DepKey& b) = default;
  };
  DepKey KeyFor(const Pair& pair) const;

  CloudWorld* world_;
  DeclarativeCloud* cloud_;
  DeclarativeReachEngine engine_;
  std::vector<Pair> pairs_;
  std::vector<ReachVerdict> verdicts_;
  std::vector<DepKey> keys_;
};

// The baseline counterpart over (src, dst) instance pairs. Its dependency
// scope is the fabric's coarse verdict generation: any config/instance/BGP
// change re-verifies every pair (deliberately — the baseline verdict is too
// entangled to factorize, which is the contrast E12 reports).
class BaselineReachVerifier {
 public:
  struct Pair {
    InstanceId src;
    InstanceId dst;
    uint16_t dst_port = 0;
    Protocol proto = Protocol::kTcp;
  };

  explicit BaselineReachVerifier(BaselineNetwork& net)
      : net_(&net), engine_(net) {}

  void SetPairs(std::vector<Pair> pairs);
  const std::vector<Pair>& pairs() const { return pairs_; }

  ReachSweepStats VerifyAll();
  ReachSweepStats Revalidate();

  const std::vector<ReachVerdict>& verdicts() const { return verdicts_; }
  std::string Fingerprint() const;

 private:
  BaselineNetwork* net_;
  BaselineReachEngine engine_;
  std::vector<Pair> pairs_;
  std::vector<ReachVerdict> verdicts_;
  uint64_t verified_gen_ = 0;
  bool verified_once_ = false;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_REACH_REACH_H_
