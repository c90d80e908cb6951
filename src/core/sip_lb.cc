#include "src/core/sip_lb.h"

#include <algorithm>
#include <cmath>

#include "src/routing/verdict.h"

namespace tenantnet {

Status SipLoadBalancer::AddSip(IpAddress sip) {
  if (outage_.Defer(&SipLoadBalancer::AddSip, sip)) {
    return Status::Ok();  // accepted asynchronously; validated at replay
  }
  auto [it, inserted] = bindings_.try_emplace(sip);
  if (!inserted) {
    return AlreadyExistsError("SIP already registered: " + sip.ToString());
  }
  ++config_revision_;
  return Status::Ok();
}

Status SipLoadBalancer::RemoveSip(IpAddress sip) {
  if (outage_.Defer(&SipLoadBalancer::RemoveSip, sip)) {
    return Status::Ok();
  }
  if (bindings_.erase(sip) == 0) {
    return NotFoundError("no such SIP: " + sip.ToString());
  }
  ++config_revision_;
  return Status::Ok();
}

Status SipLoadBalancer::Bind(IpAddress eip, IpAddress sip, double weight) {
  if (outage_.Defer(&SipLoadBalancer::Bind, eip, sip, weight)) {
    return Status::Ok();
  }
  auto it = bindings_.find(sip);
  if (it == bindings_.end()) {
    return NotFoundError("no such SIP: " + sip.ToString());
  }
  // A NaN or infinite weight would leave every pick on the last healthy
  // backend.
  if (!std::isfinite(weight) || weight <= 0) {
    return InvalidArgumentError("weight must be positive and finite");
  }
  for (Binding& b : it->second) {
    if (b.eip == eip) {
      b.weight = weight;  // re-bind adjusts the weight
      ++config_revision_;
      return Status::Ok();
    }
  }
  it->second.push_back(Binding{eip, weight, true});
  ++config_revision_;
  return Status::Ok();
}

Status SipLoadBalancer::Unbind(IpAddress eip, IpAddress sip) {
  if (outage_.Defer(&SipLoadBalancer::Unbind, eip, sip)) {
    return Status::Ok();
  }
  auto it = bindings_.find(sip);
  if (it == bindings_.end()) {
    return NotFoundError("no such SIP: " + sip.ToString());
  }
  auto& vec = it->second;
  auto bit = std::find_if(vec.begin(), vec.end(),
                          [eip](const Binding& b) { return b.eip == eip; });
  if (bit == vec.end()) {
    return NotFoundError("EIP not bound to this SIP");
  }
  vec.erase(bit);
  ++config_revision_;
  return Status::Ok();
}

void SipLoadBalancer::UnbindEverywhere(IpAddress eip) {
  if (outage_.Defer(&SipLoadBalancer::UnbindEverywhere, eip)) {
    return;
  }
  for (auto& [sip, vec] : bindings_) {
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [eip](const Binding& b) { return b.eip == eip; }),
              vec.end());
  }
  ++config_revision_;
}

void SipLoadBalancer::SetHealth(IpAddress eip, bool healthy) {
  // The health prober writes into the (dead) control plane; the live
  // table keeps its stale verdicts until reconcile — the stale-backend
  // window the restart tests measure.
  if (outage_.Defer(&SipLoadBalancer::SetHealth, eip, healthy)) {
    return;
  }
  for (auto& [sip, vec] : bindings_) {
    for (Binding& b : vec) {
      if (b.eip == eip) {
        b.healthy = healthy;
      }
    }
  }
  ++config_revision_;
}

SipLoadBalancer::Pick SipLoadBalancer::PickBackend(IpAddress sip) {
  auto it = bindings_.find(sip);
  if (it == bindings_.end()) {
    return {{}, "no such SIP: {ip}", StatusCode::kNotFound};
  }
  double total = 0;
  for (const Binding& b : it->second) {
    if (b.healthy) {
      total += b.weight;
    }
  }
  if (total <= 0) {
    return {{}, "SIP {ip} has no healthy backends",
            StatusCode::kResourceExhausted};
  }
  double point = std::fmod(static_cast<double>(pick_seq_++) *
                           0.6180339887498949, 1.0) * total;
  for (const Binding& b : it->second) {
    if (!b.healthy) {
      continue;
    }
    if (point < b.weight) {
      return {b.eip};
    }
    point -= b.weight;
  }
  for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
    if (rit->healthy) {
      return {rit->eip};
    }
  }
  return {{}, "no healthy backends", StatusCode::kResourceExhausted};
}

Result<IpAddress> SipLoadBalancer::Resolve(IpAddress sip) {
  Pick pick = PickBackend(sip);
  if (pick.refusal != nullptr) {
    return Status(pick.code, RenderReason({pick.refusal, sip}));
  }
  return pick.backend;
}

Result<std::vector<SipLoadBalancer::Binding>> SipLoadBalancer::Bindings(
    IpAddress sip) const {
  auto it = bindings_.find(sip);
  if (it == bindings_.end()) {
    return NotFoundError("no such SIP: " + sip.ToString());
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Warm restart.
// ---------------------------------------------------------------------------

SipLbSnapshot SipLoadBalancer::Checkpoint() const {
  SipLbSnapshot snap;
  snap.pick_seq = pick_seq_;
  snap.sips.reserve(bindings_.size());
  for (const auto& [sip, vec] : bindings_) {
    snap.sips.push_back(SipLbSnapshot::Sip{sip, vec});
  }
  std::sort(snap.sips.begin(), snap.sips.end(),
            [](const auto& a, const auto& b) { return a.sip < b.sip; });
  return snap;
}

void SipLoadBalancer::RestoreFromSnapshot(const SipLbSnapshot& snap) {
  bindings_.clear();
  for (const SipLbSnapshot::Sip& sip : snap.sips) {
    bindings_[sip.sip] = sip.bindings;
  }
  pick_seq_ = snap.pick_seq;
  ++config_revision_;
}

ReconcileStats SipLoadBalancer::CompleteRestart(RestartMode mode,
                                                const SipLbSnapshot& snap) {
  // Rebuild the intended state out of line: the outage log replayed into a
  // scratch balancer restored from the snapshot. The live table is the
  // programmed data plane; it stays frozen until the rewrite below.
  ReconcileStats stats;
  SipLoadBalancer intended;
  intended.RestoreFromSnapshot(snap);
  outage_.Replay(intended, stats);

  if (mode == RestartMode::kCold) {
    // Rewrite the whole table (pick counter survives: it is data-plane
    // state, and replaying the resolution sequence would double-send).
    stats.deltas_applied = 0;
    for (const auto& [sip, vec] : intended.bindings_) {
      stats.deltas_applied += std::max<size_t>(1, vec.size());
    }
    bindings_ = std::move(intended.bindings_);
    ++config_revision_;
    return stats;
  }

  // Warm: rewrite only the SIPs whose intended bindings differ from the
  // live (frozen) table, and drop the ones that no longer exist.
  std::vector<IpAddress> doomed;
  for (const auto& [sip, vec] : bindings_) {
    ++stats.checked;
    if (intended.bindings_.find(sip) == intended.bindings_.end()) {
      doomed.push_back(sip);
    }
  }
  for (IpAddress sip : doomed) {
    bindings_.erase(sip);
    ++stats.deltas_applied;
  }
  for (auto& [sip, vec] : intended.bindings_) {
    ++stats.checked;
    auto it = bindings_.find(sip);
    if (it == bindings_.end()) {
      bindings_[sip] = std::move(vec);
      ++stats.deltas_applied;
    } else if (it->second != vec) {
      it->second = std::move(vec);
      ++stats.deltas_applied;
    }
  }
  ++config_revision_;
  return stats;
}

}  // namespace tenantnet
