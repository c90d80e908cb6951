// Provider-managed service-IP load balancing (§4 Availability).
//
// The tenant requests a SIP, binds EIPs to it with optional weights, and is
// done: health checking, rebalancing and failover are the provider's
// problem. Contrast with the baseline's four load-balancer families, target
// groups, listeners and health-check knobs — the tenant-visible surface
// here is exactly bind/unbind.

#ifndef TENANTNET_SRC_CORE_SIP_LB_H_
#define TENANTNET_SRC_CORE_SIP_LB_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/reconcile.h"
#include "src/common/status.h"
#include "src/net/ip.h"

namespace tenantnet {

// Durable image of the LB control plane: every SIP with its bindings (in
// binding order — Resolve's weighted spread walks the vector) plus the pick
// counter, so a restored balancer resolves the same sequence.
struct SipLbSnapshot;

class SipLoadBalancer {
 public:
  struct Binding {
    IpAddress eip;
    double weight = 1.0;
    bool healthy = true;  // maintained by the provider, not the tenant

    friend bool operator==(const Binding& a, const Binding& b) = default;
  };

  // Registers a SIP (called by the control plane on request_sip).
  Status AddSip(IpAddress sip);
  Status RemoveSip(IpAddress sip);
  bool IsSip(IpAddress addr) const { return bindings_.count(addr) > 0; }

  // bind(eip, sip): adds or reweights a backend. The weight must be
  // positive and finite (InvalidArgument otherwise).
  Status Bind(IpAddress eip, IpAddress sip, double weight = 1.0);
  Status Unbind(IpAddress eip, IpAddress sip);

  // Removes the EIP from every SIP it is bound to (endpoint released).
  void UnbindEverywhere(IpAddress eip);

  // Provider-side health signal (instance died / recovered).
  void SetHealth(IpAddress eip, bool healthy);

  // Picks a backend EIP for a new flow to `sip`. Deterministic smooth
  // weighted spreading over healthy backends via the pick counter. Builds
  // no text: a refusal is a DropReason template (src/routing/verdict.h) in
  // which "{ip}" stands for the SIP, with its status code.
  struct Pick {
    IpAddress backend;
    const char* refusal = nullptr;  // null: `backend` is the pick
    StatusCode code = StatusCode::kOk;
  };
  Pick PickBackend(IpAddress sip);
  // The same pick as a Result, the refusal rendered into its Status.
  Result<IpAddress> Resolve(IpAddress sip);

  // All bindings of a SIP (healthy or not).
  Result<std::vector<Binding>> Bindings(IpAddress sip) const;

  uint64_t resolutions() const { return pick_seq_; }

  // Revision hook (reach-verifier keying): bumped by every mutation that can
  // change what a SIP resolves to — bind/unbind, health flips, SIP
  // add/remove, restores and restart completions. Resolve() itself does not
  // move it (the pick counter is data-plane state).
  uint64_t config_revision() const { return config_revision_; }

  // --- Warm restart (see src/common/reconcile.h for the protocol) -----------

  SipLbSnapshot Checkpoint() const;
  // Reinstates exactly what Checkpoint() captured (bindings + pick counter).
  void RestoreFromSnapshot(const SipLbSnapshot& snap);

  // The control plane dies: every mutator (AddSip, RemoveSip, Bind, Unbind,
  // UnbindEverywhere, SetHealth) goes to the outage log (accepted
  // asynchronously, validated at replay) until CompleteRestart(). The
  // binding table doubles as the programmed data plane, so Resolve() keeps
  // serving the frozen state — including stale health for backends that
  // died during the outage. Idempotent.
  void BeginRestart() { outage_.Begin(); }
  bool in_restart() const { return outage_.active(); }

  // Builds the intended state (the log replayed into a scratch balancer
  // restored from the snapshot), then
  //   kWarm: diffs it against the live table per SIP, rewriting only the
  //     SIPs whose bindings actually changed;
  //   kCold: rewrites the whole table.
  // The pick counter is data-plane state and survives either way (restart
  // must not replay the resolution sequence).
  ReconcileStats CompleteRestart(RestartMode mode, const SipLbSnapshot& snap);

 private:
  std::unordered_map<IpAddress, std::vector<Binding>> bindings_;
  uint64_t pick_seq_ = 0;
  uint64_t config_revision_ = 0;
  OutageLog<SipLoadBalancer> outage_;
};

struct SipLbSnapshot {
  struct Sip {
    IpAddress sip;
    std::vector<SipLoadBalancer::Binding> bindings;  // binding order preserved
    friend bool operator==(const Sip& a, const Sip& b) = default;
  };
  std::vector<Sip> sips;  // sorted by sip
  uint64_t pick_seq = 0;

  friend bool operator==(const SipLbSnapshot& a,
                         const SipLbSnapshot& b) = default;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_CORE_SIP_LB_H_
