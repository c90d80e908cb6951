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

uint32_t Via(const std::string& label) { return RouteLabels().Intern(label); }

// Marks the verdict denied at `stage`: the trace ends there, and the deny
// stage id comes from the same interner the workload counters use.
void Deny(ReachVerdict& verdict, const std::string& stage) {
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

void DeclarativeReachEngine::ReachConcrete(IpAddress src_eip, IpAddress dst,
                                           uint16_t dst_port, Protocol proto,
                                           ReachVerdict& verdict,
                                           ReachFacts& facts) const {
  const EipRecord* record = cloud_->FindEip(dst);
  if (record == nullptr) {
    facts.dst_known = false;
    Deny(verdict, "no-such-endpoint");
    return;
  }
  facts.dst_known = true;

  const Instance* dst_inst = world_->FindInstance(record->instance);
  if (dst_inst == nullptr || !dst_inst->running) {
    facts.dst_running = false;
    Deny(verdict, "instance-down");
    return;
  }
  facts.dst_running = true;

  Result<DeclarativeCloud::DestinationEdge> edge =
      cloud_->DestinationEdgeOf(dst);
  if (!edge.ok()) {
    Deny(verdict, "no-such-endpoint");
    return;
  }
  verdict.stages.push_back(Via("edge-filter@" + edge->where));

  // The same admission question the data plane asks, minus the traffic: the
  // compiled matcher at the destination's enforcement edge. Admits reads
  // edge state only, so the query leaves no data-plane trace. src_port is
  // irrelevant to permit matching.
  FiveTuple flow;
  flow.src = src_eip;
  flow.dst = dst;
  flow.dst_port = dst_port;
  flow.proto = proto;
  if (!edge->bank->Admits(edge->edge_index, flow)) {
    facts.filtered = true;
    Deny(verdict, "edge-filter");
    return;
  }
  verdict.reachable = true;
  verdict.stages.push_back(Via("deliver"));
}

ReachVerdict DeclarativeReachEngine::CanReach(InstanceId src, IpAddress dst,
                                              uint16_t dst_port,
                                              Protocol proto) const {
  ReachVerdict verdict;
  ReachFacts facts;

  const Instance* src_inst = world_->FindInstance(src);
  if (src_inst == nullptr || !src_inst->running) {
    Deny(verdict, "src-down");
    FinishTriage(verdict, facts);
    return verdict;
  }
  std::optional<IpAddress> src_eip = cloud_->EipOf(src);
  if (!src_eip.has_value()) {
    Deny(verdict, "no-eip");
    FinishTriage(verdict, facts);
    return verdict;
  }
  facts.src_usable = true;
  verdict.stages.push_back(Via("src-eip"));

  if (cloud_->IsSip(dst)) {
    facts.dst_is_sip = true;
    facts.dst_known = true;
    verdict.stages.push_back(Via("sip-lb"));

    // Side-effect-free enumeration: Bindings(), not Resolve() — the data
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
      ReachConcrete(*src_eip, backend, dst_port, proto, walk, walk_facts);
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
    facts = repr_facts;
    verdict.reachable = reached > 0;
    verdict.all_backends = reached == healthy.size();
    if (!verdict.reachable) {
      // The representative walk already recorded its deny stage.
      verdict.all_backends = false;
    }
    FinishTriage(verdict, facts);
    return verdict;
  }

  ReachConcrete(*src_eip, dst, dst_port, proto, verdict, facts);
  verdict.all_backends = verdict.reachable;
  FinishTriage(verdict, facts);
  return verdict;
}

// ---------------------------------------------------------------------------
// Baseline engine.
// ---------------------------------------------------------------------------

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Maps the fabric's drop-stage vocabulary onto the triage facts.
void BaselineFactsFromDrop(const std::string& stage, ReachFacts& facts) {
  if (StartsWith(stage, "sg") || StartsWith(stage, "acl") ||
      StartsWith(stage, "dpi") || StartsWith(stage, "firewall")) {
    facts.filtered = true;
  } else if (StartsWith(stage, "route") || StartsWith(stage, "tgw") ||
             StartsWith(stage, "peering") || StartsWith(stage, "igw") ||
             StartsWith(stage, "nat") || StartsWith(stage, "no-")) {
    facts.routed = false;
  }
}

}  // namespace

ReachVerdict BaselineReachEngine::CanReach(InstanceId src, InstanceId dst,
                                           uint16_t dst_port,
                                           Protocol proto) const {
  ReachVerdict verdict;
  ReachFacts facts;
  facts.dst_known = true;  // instance-addressed query

  Result<BaselineDelivery> result = net_->Evaluate(src, dst, dst_port, proto);
  if (!result.ok()) {
    // The fabric refuses up front when either instance is unknown or down;
    // the message distinguishes the two.
    const std::string& msg = result.status().message();
    if (msg.find("unknown") != std::string::npos) {
      facts.dst_known = false;
      Deny(verdict, "no-such-endpoint");
    } else {
      facts.dst_running = false;
      facts.src_usable = true;
      Deny(verdict, "instance-down");
    }
    FinishTriage(verdict, facts);
    return verdict;
  }
  facts.src_usable = true;
  facts.dst_running = true;

  const BaselineDelivery& d = *result;
  verdict.stages.assign(d.logical_hops.begin(), d.logical_hops.end());
  if (d.delivered) {
    verdict.reachable = true;
    verdict.all_backends = true;  // instance destinations are exact
    verdict.stages.push_back(Via("deliver"));
    return verdict;
  }
  const std::string stage(d.drop_stage.empty() ? "denied" : d.drop_stage);
  BaselineFactsFromDrop(stage, facts);
  Deny(verdict, stage);
  FinishTriage(verdict, facts);
  return verdict;
}

// ---------------------------------------------------------------------------
// Declarative incremental verifier.
// ---------------------------------------------------------------------------

void DeclarativeReachVerifier::SetPairs(std::vector<Pair> pairs) {
  pairs_ = std::move(pairs);
  verdicts_.assign(pairs_.size(), ReachVerdict{});
  keys_.assign(pairs_.size(), DepKey{});
}

DeclarativeReachVerifier::DepKey DeclarativeReachVerifier::KeyFor(
    const Pair& pair) const {
  DepKey key;
  key.valid = true;
  key.endpoint_rev = cloud_->endpoint_revision();
  key.instance_epoch = world_->instance_state_epoch();

  // Hash lookups only — this must stay far cheaper than a verify, or the
  // incremental sweep has no headroom to win.
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

ReachSweepStats DeclarativeReachVerifier::VerifyAll() {
  ReachSweepStats stats;
  stats.pairs = pairs_.size();
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const Pair& p = pairs_[i];
    keys_[i] = KeyFor(p);
    verdicts_[i] = engine_.CanReach(p.src, p.dst, p.dst_port, p.proto);
    ++stats.recomputed;
  }
  return stats;
}

ReachSweepStats DeclarativeReachVerifier::Revalidate() {
  ReachSweepStats stats;
  stats.pairs = pairs_.size();
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const Pair& p = pairs_[i];
    DepKey key = KeyFor(p);
    if (keys_[i].valid && key == keys_[i]) {
      ++stats.reused;
      continue;
    }
    keys_[i] = key;
    verdicts_[i] = engine_.CanReach(p.src, p.dst, p.dst_port, p.proto);
    ++stats.recomputed;
  }
  return stats;
}

std::string DeclarativeReachVerifier::Fingerprint() const {
  std::ostringstream out;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const Pair& p = pairs_[i];
    out << "src=" << p.src.value() << " dst=" << p.dst.ToString()
        << " port=" << p.dst_port << " proto=" << static_cast<int>(p.proto)
        << " :: " << verdicts_[i].ToString() << "\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Baseline incremental verifier.
// ---------------------------------------------------------------------------

void BaselineReachVerifier::SetPairs(std::vector<Pair> pairs) {
  pairs_ = std::move(pairs);
  verdicts_.assign(pairs_.size(), ReachVerdict{});
  verified_once_ = false;
  verified_gen_ = 0;
}

ReachSweepStats BaselineReachVerifier::VerifyAll() {
  ReachSweepStats stats;
  stats.pairs = pairs_.size();
  verified_gen_ = net_->verdict_generation();
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const Pair& p = pairs_[i];
    verdicts_[i] = engine_.CanReach(p.src, p.dst, p.dst_port, p.proto);
    ++stats.recomputed;
  }
  verified_once_ = true;
  return stats;
}

ReachSweepStats BaselineReachVerifier::Revalidate() {
  const uint64_t gen = net_->verdict_generation();
  if (verified_once_ && gen == verified_gen_) {
    ReachSweepStats stats;
    stats.pairs = pairs_.size();
    stats.reused = pairs_.size();
    return stats;
  }
  // Any change anywhere re-verifies everything: the baseline verdict
  // entangles route tables, SG/ACL state, gateway wiring and BGP state with
  // no per-pair scoping to key on.
  return VerifyAll();
}

std::string BaselineReachVerifier::Fingerprint() const {
  std::ostringstream out;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    const Pair& p = pairs_[i];
    out << "src=" << p.src.value() << " dst=" << p.dst.value()
        << " port=" << p.dst_port << " proto=" << static_cast<int>(p.proto)
        << " :: " << verdicts_[i].ToString() << "\n";
  }
  return out.str();
}

}  // namespace tenantnet
