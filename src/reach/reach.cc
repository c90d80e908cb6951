#include "src/reach/reach.h"

#include <algorithm>
#include <sstream>

#include "src/app/workload.h"
#include "src/routing/route_table.h"

namespace tenantnet {

namespace {

constexpr std::string_view kUnknownFix =
    "no denying mechanism recorded — re-run the query";
constexpr std::string_view kSourceFix =
    "start the source instance and request_eip for it";
constexpr std::string_view kPermitFix =
    "add the source to the destination's permit list (set_permit_list / "
    "update_permit_list, or the baseline's SG/ACL rules)";
constexpr std::string_view kRouteFix =
    "install a route toward the destination (route tables, IGW/NAT, "
    "peering or a TGW attachment)";
constexpr std::string_view kBgpFix =
    "advertise the destination's prefix over that gateway's BGP session "
    "(PropagateRoutes)";

// Each stage either world's walk drops at, with the fix that lifts it.
struct StageFix {
  std::string_view stage;
  std::string_view fix;
};
constexpr StageFix kFixes[] = {
    // World state, the same four stages in both worlds.
    {"src-down", kSourceFix},
    {"no-eip", kSourceFix},
    {"no-such-endpoint",
     "the destination address is unallocated — request_eip / "
     "request_sip it first"},
    {"instance-down",
     "start the destination instance (the provider's NotifyInstanceUp "
     "restores SIP health automatically)"},
    // Declarative: the SIP balancer and the destination's edge.
    {"sip",
     "bind a healthy backend to the SIP (bind, or NotifyInstanceUp for one "
     "that died)"},
    {"edge-filter", kPermitFix},
    // Baseline filters.
    {"sg-egress", kPermitFix},
    {"sg-ingress", kPermitFix},
    {"acl-egress", kPermitFix},
    {"acl-ingress", kPermitFix},
    {"acl-return", kPermitFix},
    {"firewall", kPermitFix},
    // Baseline routing.
    {"route", kRouteFix},
    {"igw", kRouteFix},
    {"nat", kRouteFix},
    {"peering", kRouteFix},
    {"tgw", kRouteFix},
    {"tgw-route", kRouteFix},
    {"return-route",
     "install the return route toward the source in the destination VPC's "
     "route table"},
    {"local",
     "attach the destination in the VPC whose local route covers its "
     "address, or renumber the overlapping VPC"},
    {"loop",
     "break the routing loop: a route table or TGW route points the flow "
     "back through gateways it already crossed"},
    {"bgp", kBgpFix},
    {"vpn", kBgpFix},
    {"dx",
     "route the circuit's far side to the destination VPC through one "
     "transit-gateway attachment"},
    {"internet",
     "give the destination a public address behind its VPC's internet "
     "gateway, or reach it over a private path (peering, TGW, VPN)"},
    {"on-prem",
     "address a host inside the on-prem site's space, or route the prefix "
     "to the site that holds it"},
};

// The fix for a denial at `stage`; a stage with no row (the unnamed
// "denied") gets the fallback, which names no fix.
std::string_view RemediationFor(std::string_view stage) {
  for (const StageFix& row : kFixes) {
    if (row.stage == stage) {
      return row.fix;
    }
  }
  return kUnknownFix;
}

uint32_t Via(std::string_view label) { return RouteLabels().Intern(label); }

// Marks the verdict denied at `stage`: the trace ends there, the deny
// stage id comes from the same interner the workload counters use, and the
// stage alone names the fix.
void Deny(ReachVerdict& verdict, std::string_view stage) {
  verdict.reachable = false;
  verdict.all_backends = false;
  verdict.deny_stage = DenyStage(stage);
  verdict.stages.push_back(Via(stage));
  verdict.remediation = RemediationFor(stage);
}

// Appends one data-plane walk to `verdict`: its hops, then "deliver" or
// the denying stage ("denied" when the walk names none).
template <typename Delivery, typename Hops>
void AppendWalk(const Delivery& d, const Hops& hops, ReachVerdict& verdict) {
  verdict.stages.insert(verdict.stages.end(), hops.begin(), hops.end());
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

  // The source step the data plane runs first, asked before a SIP expands
  // so that a refused source is named ahead of any backend.
  const DeclarativeDelivery source = cloud_->QuerySource(src);
  if (!source.drop_stage.empty()) {
    AppendWalk(source, source.provider_hops, verdict);
    return verdict;
  }
  verdict.stages.push_back(Via("src-eip"));

  // The data plane's walk toward one concrete endpoint, appended to `walk`.
  // Query's one error is a SIP, and `endpoint` never is one.
  auto run_walk = [&](IpAddress endpoint, ReachVerdict& walk) {
    const DeclarativeDelivery d =
        cloud_->Query(src, endpoint, dst_port, proto).value();
    AppendWalk(d, d.provider_hops, walk);
  };

  if (!cloud_->IsSip(dst)) {
    run_walk(dst, verdict);
    verdict.all_backends = verdict.reachable;
    return verdict;
  }

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
    Deny(verdict, "sip");
    return verdict;
  }

  // ∃-semantics with a ∀-bound: walk every healthy backend. The reported
  // trace is the first reachable backend's walk (or the first backend's,
  // when none reach) — deterministic in binding order.
  size_t reached = 0;
  bool have_repr = false;
  ReachVerdict repr;
  for (const IpAddress& backend : healthy) {
    ReachVerdict walk = verdict;   // shared prefix: src-eip -> sip-lb
    run_walk(backend, walk);
    if (walk.reachable) {
      ++reached;
    }
    if (!have_repr || (walk.reachable && !repr.reachable)) {
      repr = std::move(walk);
      have_repr = true;
    }
  }
  verdict = std::move(repr);
  verdict.all_backends = reached == healthy.size();
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
  // The fabric drops whatever its state refuses; Query never errors.
  const BaselineDelivery d = net_->Query(src, dst, dst_port, proto).value();
  AppendWalk(d, d.logical_hops, verdict);
  verdict.all_backends = verdict.reachable;  // instance destinations are exact
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
