#include "src/reach/reach.h"

#include <algorithm>
#include <sstream>

#include "src/app/workload.h"
#include "src/routing/route_table.h"

namespace tenantnet {

namespace {

std::unique_ptr<ReachTriageNode> Leaf(std::string recommendation) {
  return std::make_unique<ReachTriageNode>(std::move(recommendation));
}

std::unique_ptr<ReachTriageNode> Ask(std::string question,
                                     ReachTriageNode::Predicate predicate,
                                     std::unique_ptr<ReachTriageNode> yes,
                                     std::unique_ptr<ReachTriageNode> no) {
  return std::make_unique<ReachTriageNode>(std::move(question),
                                           std::move(predicate),
                                           std::move(yes), std::move(no));
}

// The questions once we know the destination is a concrete, allocated
// endpoint (directly, or the SIP's representative backend). Shared by both
// the SIP and EIP branches, so it is built twice.
std::unique_ptr<ReachTriageNode> DeliveryTail() {
  return Ask(
      "Is the destination instance running?",
      [](const ReachFacts& f) { return f.dst_running; },
      Ask("Did a filtering stage (permit list / SG / ACL / DPI) deny the "
          "flow?",
          [](const ReachFacts& f) { return f.filtered; },
          Leaf("add the source to the destination's permit list "
               "(set_permit_list / update_permit_list, or the baseline's "
               "SG/ACL rules)"),
          Ask("Did routing carry the flow to the destination?",
              [](const ReachFacts& f) { return f.routed; },
              Leaf("no denying mechanism recorded — re-run the query"),
              Leaf("install a route toward the destination (route tables, "
                   "IGW/NAT, peering or a TGW attachment)"))),
      Leaf("start the destination instance (the provider's "
           "NotifyInstanceUp restores SIP health automatically)"));
}

const ReachTriageNode& TriageTree() {
  static const ReachTriageNode* tree = BuildReachTriageTree().release();
  return *tree;
}

uint32_t Via(std::string_view label) { return RouteLabels().Intern(label); }

// Marks the verdict denied at `stage`: the trace ends there, and the deny
// stage id comes from the same interner the workload counters use.
void Deny(ReachVerdict& verdict, std::string_view stage) {
  verdict.reachable = false;
  verdict.all_backends = false;
  verdict.deny_stage = DenyStage(stage);
  verdict.stages.push_back(Via(stage));
}

void FinishTriage(ReachVerdict& verdict, const ReachFacts& facts) {
  if (!verdict.reachable) {
    verdict.remediation = TriageTree().Decide(facts).recommendation;
  }
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

// Maps a walk's drop stage ("" when delivered) onto the triage facts. One
// vocabulary covers both worlds: the four world-state stages both walks
// share (src-down, no-eip, no-such-endpoint, instance-down), the
// declarative edge-filter, and the fabric's filtering and routing stages.
void FactsFromDrop(std::string_view stage, ReachFacts& facts) {
  facts.src_usable = stage != "src-down" && stage != "no-eip";
  facts.dst_known = stage != "no-such-endpoint";
  facts.dst_running = facts.dst_known && stage != "instance-down";
  if (StartsWith(stage, "sg") || StartsWith(stage, "acl") ||
      StartsWith(stage, "dpi") || StartsWith(stage, "firewall") ||
      StartsWith(stage, "edge-filter")) {
    facts.filtered = true;
  } else if (StartsWith(stage, "route") || StartsWith(stage, "tgw") ||
             StartsWith(stage, "peering") || StartsWith(stage, "igw") ||
             StartsWith(stage, "nat") || StartsWith(stage, "no-")) {
    facts.routed = false;
  }
}

// Appends one data-plane walk to `verdict`: its hops, then "deliver" or
// the denying stage ("denied" when the walk names none), whose name alone
// sets the triage facts.
template <typename Delivery, typename Hops>
void AppendWalk(const Delivery& d, const Hops& hops, ReachVerdict& verdict,
                ReachFacts& facts) {
  verdict.stages.insert(verdict.stages.end(), hops.begin(), hops.end());
  FactsFromDrop(d.drop_stage, facts);
  if (d.delivered) {
    verdict.reachable = true;
    verdict.stages.push_back(Via("deliver"));
  } else {
    Deny(verdict, d.drop_stage.empty() ? "denied" : d.drop_stage);
  }
}

// A pair's destination as fingerprints print it.
std::string DstText(IpAddress dst) { return dst.ToString(); }
std::string DstText(InstanceId dst) { return std::to_string(dst.value()); }

}  // namespace

std::unique_ptr<ReachTriageNode> BuildReachTriageTree() {
  return Ask(
      "Is the source usable (running, with an EIP)?",
      [](const ReachFacts& f) { return f.src_usable; },
      Ask("Does any endpoint own the destination address?",
          [](const ReachFacts& f) { return f.dst_known; },
          Ask("Is the destination a SIP?",
              [](const ReachFacts& f) { return f.dst_is_sip; },
              Ask("Does the SIP have a healthy backend?",
                  [](const ReachFacts& f) { return f.sip_has_healthy_backend; },
                  DeliveryTail(),
                  Leaf("bind a healthy backend to the SIP (bind, or "
                       "NotifyInstanceUp for one that died)")),
              DeliveryTail()),
          Leaf("the destination address is unallocated — request_eip / "
               "request_sip it first")),
      Leaf("start the source instance and request_eip for it"));
}

std::string ReachVerdict::ToString() const {
  std::ostringstream out;
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) {
      out << " -> ";
    }
    out << RouteLabels().Name(stages[i]);
  }
  if (reachable) {
    out << (all_backends ? " [OK all-backends]" : " [OK some-backends]");
  } else {
    out << " [DENY " << DenyStages().Name(deny_stage) << "]";
    if (!remediation.empty()) {
      out << " fix: " << remediation;
    }
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Declarative engine.
// ---------------------------------------------------------------------------

ReachVerdict DeclarativeReachEngine::CanReach(InstanceId src, IpAddress dst,
                                              uint16_t dst_port,
                                              Protocol proto) const {
  ReachVerdict verdict;
  ReachFacts facts;

  // The source step the data plane runs first, asked before a SIP expands
  // so that a refused source is named ahead of any backend.
  const DeclarativeDelivery source = cloud_->QuerySource(src);
  if (!source.drop_stage.empty()) {
    AppendWalk(source, source.provider_hops, verdict, facts);
    FinishTriage(verdict, facts);
    return verdict;
  }
  facts.src_usable = true;
  verdict.stages.push_back(Via("src-eip"));

  // The data plane's walk toward one concrete endpoint, appended to `walk`.
  // Query's one error is a SIP, and `endpoint` never is one.
  auto run_walk = [&](IpAddress endpoint, ReachVerdict& walk,
                      ReachFacts& walk_facts) {
    const DeclarativeDelivery d =
        cloud_->Query(src, endpoint, dst_port, proto).value();
    AppendWalk(d, d.provider_hops, walk, walk_facts);
  };

  if (!cloud_->IsSip(dst)) {
    run_walk(dst, verdict, facts);
    verdict.all_backends = verdict.reachable;
    FinishTriage(verdict, facts);
    return verdict;
  }

  facts.dst_is_sip = true;
  facts.dst_known = true;
  verdict.stages.push_back(Via("sip-lb"));

  // Side-effect-free enumeration: Bindings(), not the pick — the data
  // plane's pick counter must not move because someone asked a question.
  Result<std::vector<SipLoadBalancer::Binding>> bindings =
      cloud_->sip_lb().Bindings(dst);
  std::vector<IpAddress> healthy;
  if (bindings.ok()) {
    for (const SipLoadBalancer::Binding& b : *bindings) {
      if (b.healthy) {
        healthy.push_back(b.eip);
      }
    }
  }
  if (healthy.empty()) {
    facts.sip_has_healthy_backend = false;
    Deny(verdict, "sip");
    FinishTriage(verdict, facts);
    return verdict;
  }
  facts.sip_has_healthy_backend = true;

  // ∃-semantics with a ∀-bound: walk every healthy backend. The reported
  // trace is the first reachable backend's walk (or the first backend's,
  // when none reach) — deterministic in binding order.
  size_t reached = 0;
  bool have_repr = false;
  ReachVerdict repr;
  ReachFacts repr_facts;
  for (const IpAddress& backend : healthy) {
    ReachVerdict walk = verdict;   // shared prefix: src-eip -> sip-lb
    ReachFacts walk_facts = facts;
    run_walk(backend, walk, walk_facts);
    if (walk.reachable) {
      ++reached;
    }
    if (!have_repr || (walk.reachable && !repr.reachable)) {
      repr = std::move(walk);
      repr_facts = walk_facts;
      have_repr = true;
    }
  }
  verdict = std::move(repr);
  verdict.all_backends = reached == healthy.size();
  FinishTriage(verdict, repr_facts);
  return verdict;
}

DeclarativeReachEngine::Key DeclarativeReachEngine::KeyFor(
    const Pair& pair) const {
  Key key;
  key.endpoint_rev = cloud_->endpoint_revision();
  key.instance_epoch = world_->instance_state_epoch();

  auto fold_dst = [&](IpAddress addr) {
    Result<DeclarativeCloud::DestinationEdge> edge =
        cloud_->DestinationEdgeOf(addr);
    if (edge.ok()) {
      key.dst_epoch += edge->bank->EndpointVerdictEpoch(addr);
      key.group_epoch += edge->bank->global_verdict_epoch();
    }
  };
  if (cloud_->IsSip(pair.dst)) {
    // Coarser on purpose: the balancer's revision covers binding/health
    // churn on *any* SIP. Permit churn — the common mutation — still keys
    // per destination endpoint below.
    key.sip_rev = cloud_->sip_lb().config_revision();
    Result<std::vector<SipLoadBalancer::Binding>> bindings =
        cloud_->sip_lb().Bindings(pair.dst);
    if (bindings.ok()) {
      for (const SipLoadBalancer::Binding& b : *bindings) {
        fold_dst(b.eip);
      }
    }
  } else {
    fold_dst(pair.dst);
  }
  return key;
}

// ---------------------------------------------------------------------------
// Baseline engine.
// ---------------------------------------------------------------------------

ReachVerdict BaselineReachEngine::CanReach(InstanceId src, InstanceId dst,
                                           uint16_t dst_port,
                                           Protocol proto) const {
  ReachVerdict verdict;
  ReachFacts facts;
  // The fabric drops whatever its state refuses; Query never errors.
  const BaselineDelivery d = net_->Query(src, dst, dst_port, proto).value();
  AppendWalk(d, d.logical_hops, verdict, facts);
  verdict.all_backends = verdict.reachable;  // instance destinations are exact
  FinishTriage(verdict, facts);
  return verdict;
}

// ---------------------------------------------------------------------------
// The incremental verifier.
// ---------------------------------------------------------------------------

template <typename Engine>
void ReachVerifier<Engine>::SetPairs(std::vector<Pair> pairs) {
  pairs_ = std::move(pairs);
  verdicts_.assign(pairs_.size(), ReachVerdict{});
  keys_.assign(pairs_.size(), std::nullopt);
}

template <typename Engine>
ReachSweepStats ReachVerifier<Engine>::VerifyAll() {
  keys_.assign(pairs_.size(), std::nullopt);
  return Revalidate();
}

template <typename Engine>
ReachSweepStats ReachVerifier<Engine>::Revalidate() {
  ReachSweepStats stats;
  stats.pairs = pairs_.size();
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const Pair& p = pairs_[i];
    typename Engine::Key key = engine_.KeyFor(p);
    if (keys_[i] == key) {
      ++stats.reused;
      continue;
    }
    keys_[i] = key;
    verdicts_[i] = engine_.CanReach(p.src, p.dst, p.dst_port, p.proto);
    ++stats.recomputed;
  }
  return stats;
}

template <typename Engine>
std::string ReachVerifier<Engine>::Fingerprint() const {
  std::ostringstream out;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const Pair& p = pairs_[i];
    out << "src=" << p.src.value() << " dst=" << DstText(p.dst)
        << " port=" << p.dst_port << " proto=" << static_cast<int>(p.proto)
        << " :: " << verdicts_[i].ToString() << "\n";
  }
  return out.str();
}

template class ReachVerifier<DeclarativeReachEngine>;
template class ReachVerifier<BaselineReachEngine>;

}  // namespace tenantnet
