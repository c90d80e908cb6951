// QoS: per-tenant regional egress bandwidth quotas (§4 QoS).
//
// set_qos(region, bandwidth) promises a tenant an aggregate egress rate for
// a region. The provider enforces it with *distributed* rate limiting, in
// the spirit of the work the paper cites (Raghavan et al. DRL, EyeQ, BwE):
// a token bucket per enforcement point (one per zone), with a periodic
// coordination epoch that re-divides the regional quota across points
// proportionally to an EWMA of each point's recent demand. A point with no
// demand keeps a small floor share so new traffic can start before the next
// epoch.
//
// E4c reads the knobs this exposes: enforcement accuracy (admitted vs
// quota), convergence epochs after a demand shift, and coordination
// message counts versus the number of points and tenants.

#ifndef TENANTNET_SRC_CORE_QOS_H_
#define TENANTNET_SRC_CORE_QOS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/cloud/world.h"
#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/common/time.h"
#include "src/net/flow.h"
#include "src/sim/flow_surface.h"

namespace tenantnet {

// Classic token bucket over simulated time.
class TokenBucket {
 public:
  TokenBucket(double rate_bps, double burst_bits)
      : rate_bps_(rate_bps), burst_bits_(burst_bits), tokens_(burst_bits) {}

  // Changing the rate keeps accumulated tokens (clamped to the burst).
  void SetRate(double rate_bps, SimTime now);
  double rate_bps() const { return rate_bps_; }

  void SetBurst(double burst_bits) {
    burst_bits_ = burst_bits;
    tokens_ = std::min(tokens_, burst_bits_);
  }

  // Consumes `bits` if available after refill; all-or-nothing.
  bool TryConsume(double bits, SimTime now);

  double AvailableBits(SimTime now);

 private:
  void Refill(SimTime now);

  double rate_bps_;
  double burst_bits_;
  double tokens_;
  SimTime last_refill_;
};

// Which portion of a tenant's egress consumes the reserved bandwidth —
// the extension the §4 QoS footnote anticipates ("allow the tenant to
// indicate what portions of their traffic should consume this reserved
// bandwidth"). Default-constructed selector matches everything.
struct QosSelector {
  IpPrefix dst_prefix = IpPrefix::Any(IpFamily::kIpv4);
  PortRange dst_ports = PortRange::Any();
  Protocol proto = Protocol::kAny;

  bool Matches(const FiveTuple& flow) const {
    if (proto != Protocol::kAny && proto != flow.proto) {
      return false;
    }
    return dst_prefix.Contains(flow.dst) && dst_ports.Contains(flow.dst_port);
  }
};

struct QuotaParams {
  double ewma_alpha = 0.3;       // demand smoothing per epoch
};

class EgressQuotaManager {
 public:
  explicit EgressQuotaManager(QuotaParams params = {});

  // Registers an enforcement point for a region; returns its index within
  // the region. Typically one per zone.
  size_t RegisterPoint(RegionId region, std::string name);
  size_t PointCount(RegionId region) const;

  // set_qos: the tenant's regional egress allowance; a negative or NaN one
  // is refused (InvalidArgument). The optional selector scopes which traffic
  // the reservation applies to (extension).
  Status SetQuota(TenantId tenant, RegionId region, double bps, SimTime now,
                  std::optional<QosSelector> selector = std::nullopt);
  Result<double> Quota(TenantId tenant, RegionId region) const;

  // Data path at one enforcement point: admit `bits` of egress?
  // Also accumulates offered demand for the next epoch's re-division.
  bool TryConsume(TenantId tenant, RegionId region, size_t point,
                  double bits, SimTime now);

  // Flow-aware variant: traffic outside the quota's selector neither
  // consumes nor is limited by the reservation (it competes best-effort).
  bool TryConsumeFlow(TenantId tenant, RegionId region, size_t point,
                      const FiveTuple& flow, double bits, SimTime now);
  // True if the flow falls under the (tenant, region) reservation.
  bool IsReserved(TenantId tenant, RegionId region,
                  const FiveTuple& flow) const;

  // Current share (bps) a point holds for a tenant's quota.
  Result<double> ShareOf(TenantId tenant, RegionId region, size_t point) const;

  // Runs one coordination epoch across all quotas: converts accumulated
  // offered bits to demand rates, EWMA-smooths, re-divides every quota.
  // With a FlowSim attached, every registered flow's rate cap is updated
  // from its point's new share inside ONE batched reallocation (see
  // FlowSim::Batch) instead of one water-filling pass per flow.
  void RunEpoch(SimTime now);

  // --- Data-plane coupling (optional) ---------------------------------------
  // Attaches the fluid simulator so re-division acts on live flows. The
  // FlowSim must outlive this manager (or be detached with nullptr).
  void AttachFlowSim(FlowControlSurface* sim) { flow_sim_ = sim; }

  // Registers a live flow under (tenant, region, point). The point's share
  // is split equally across its registered flows and applied as FlowSim
  // rate caps — immediately on (un)registration and again at every epoch.
  // Unregistering lifts the departing flow's cap (it returns to unmanaged
  // max-min sharing). Flows that completed or were cancelled are pruned
  // automatically.
  Status RegisterFlow(TenantId tenant, RegionId region, size_t point,
                      FlowId flow);
  Status UnregisterFlow(TenantId tenant, RegionId region, size_t point,
                        FlowId flow);

  // --- Metrics ---------------------------------------------------------------
  uint64_t coordination_messages() const { return messages_; }
  uint64_t epochs_run() const { return epochs_; }
  // Bits admitted for a tenant+region since SetQuota (accuracy numerator).
  double AdmittedBits(TenantId tenant, RegionId region) const;
  double OfferedBits(TenantId tenant, RegionId region) const;

 private:
  struct PointState {
    std::string name;
    TokenBucket bucket{0, 0};
    double ewma_demand_bps = 0;
    double offered_bits_epoch = 0;  // since last epoch
    double admitted_bits = 0;
    double offered_bits = 0;
    std::vector<FlowId> flows;  // live flows capped by this point's share
  };
  struct QuotaState {
    double quota_bps = 0;
    std::vector<PointState> points;
    SimTime created;
    std::optional<QosSelector> selector;
  };

  using Key = std::pair<uint64_t, uint64_t>;  // (tenant, region)
  static Key MakeKey(TenantId tenant, RegionId region) {
    return {tenant.value(), region.value()};
  }

  void Redivide(QuotaState& state, SimTime now, SimDuration elapsed);

  // Prunes dead flows and re-applies the point's share as equal-split rate
  // caps. Caller is responsible for holding a FlowSim batch scope.
  void ApplyPointCaps(PointState& point);

  QuotaParams params_;
  FlowControlSurface* flow_sim_ = nullptr;
  std::map<RegionId, std::vector<std::string>> region_points_;
  std::map<Key, QuotaState> quotas_;
  SimTime last_epoch_;
  uint64_t messages_ = 0;
  uint64_t epochs_ = 0;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_CORE_QOS_H_
