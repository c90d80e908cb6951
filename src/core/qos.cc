#include "src/core/qos.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace tenantnet {
namespace {

constexpr SimDuration kEpoch = SimDuration::Millis(100);  // coordination period
constexpr double kMinShareFraction = 0.02;  // floor share per idle point
constexpr double kBurstSeconds = 0.05;  // bucket depth, as seconds of share rate

}  // namespace

void TokenBucket::Refill(SimTime now) {
  if (now <= last_refill_) {
    return;
  }
  double elapsed = (now - last_refill_).ToSeconds();
  tokens_ = std::min(burst_bits_, tokens_ + rate_bps_ * elapsed);
  last_refill_ = now;
}

void TokenBucket::SetRate(double rate_bps, SimTime now) {
  Refill(now);
  rate_bps_ = rate_bps;
}

bool TokenBucket::TryConsume(double bits, SimTime now) {
  Refill(now);
  if (tokens_ >= bits) {
    tokens_ -= bits;
    return true;
  }
  return false;
}

double TokenBucket::AvailableBits(SimTime now) {
  Refill(now);
  return tokens_;
}

EgressQuotaManager::EgressQuotaManager(QuotaParams params)
    : params_(params) {}

size_t EgressQuotaManager::RegisterPoint(RegionId region, std::string name) {
  auto& points = region_points_[region];
  points.push_back(std::move(name));
  // Existing quotas in this region grow a new point with zero demand.
  for (auto& [key, state] : quotas_) {
    if (RegionId(key.second) == region) {
      state.points.push_back(PointState{points.back(), TokenBucket{0, 0},
                                        0, 0, 0, 0, {}});
    }
  }
  return points.size() - 1;
}

size_t EgressQuotaManager::PointCount(RegionId region) const {
  auto it = region_points_.find(region);
  return it == region_points_.end() ? 0 : it->second.size();
}

Status EgressQuotaManager::SetQuota(TenantId tenant, RegionId region,
                                    double bps, SimTime now,
                                    std::optional<QosSelector> selector) {
  if (!(bps >= 0)) {  // refuses NaN too
    return InvalidArgumentError("quota must be non-negative");
  }
  auto rit = region_points_.find(region);
  if (rit == region_points_.end() || rit->second.empty()) {
    return FailedPreconditionError(
        "region has no registered enforcement points");
  }
  QuotaState& state = quotas_[MakeKey(tenant, region)];
  state.quota_bps = bps;
  state.created = now;
  state.selector = std::move(selector);
  if (state.points.empty()) {
    for (const std::string& name : rit->second) {
      state.points.push_back(
          PointState{name, TokenBucket{0, 0}, 0, 0, 0, 0, {}});
    }
  }
  // Initial division: equal shares (no demand signal yet).
  double share = bps / static_cast<double>(state.points.size());
  for (PointState& p : state.points) {
    p.bucket = TokenBucket{share, share * kBurstSeconds};
    messages_ += 1;  // coordinator -> point
  }
  return Status::Ok();
}

Result<double> EgressQuotaManager::Quota(TenantId tenant,
                                         RegionId region) const {
  auto it = quotas_.find(MakeKey(tenant, region));
  if (it == quotas_.end()) {
    return NotFoundError("no quota configured");
  }
  return it->second.quota_bps;
}

bool EgressQuotaManager::TryConsume(TenantId tenant, RegionId region,
                                    size_t point, double bits, SimTime now) {
  auto it = quotas_.find(MakeKey(tenant, region));
  if (it == quotas_.end()) {
    // No quota configured: nothing to enforce; the caller's traffic is
    // bounded elsewhere (VM caps, link capacities).
    return true;
  }
  QuotaState& state = it->second;
  if (point >= state.points.size()) {
    return false;
  }
  PointState& p = state.points[point];
  p.offered_bits_epoch += bits;
  p.offered_bits += bits;
  if (p.bucket.TryConsume(bits, now)) {
    p.admitted_bits += bits;
    return true;
  }
  return false;
}

bool EgressQuotaManager::IsReserved(TenantId tenant, RegionId region,
                                    const FiveTuple& flow) const {
  auto it = quotas_.find(MakeKey(tenant, region));
  if (it == quotas_.end()) {
    return false;
  }
  return !it->second.selector.has_value() ||
         it->second.selector->Matches(flow);
}

bool EgressQuotaManager::TryConsumeFlow(TenantId tenant, RegionId region,
                                        size_t point, const FiveTuple& flow,
                                        double bits, SimTime now) {
  auto it = quotas_.find(MakeKey(tenant, region));
  if (it == quotas_.end()) {
    return true;  // nothing reserved, nothing enforced
  }
  if (it->second.selector.has_value() &&
      !it->second.selector->Matches(flow)) {
    return true;  // outside the reservation: best-effort, unconstrained here
  }
  return TryConsume(tenant, region, point, bits, now);
}

Result<double> EgressQuotaManager::ShareOf(TenantId tenant, RegionId region,
                                           size_t point) const {
  auto it = quotas_.find(MakeKey(tenant, region));
  if (it == quotas_.end()) {
    return NotFoundError("no quota configured");
  }
  if (point >= it->second.points.size()) {
    return InvalidArgumentError("bad enforcement point");
  }
  return it->second.points[point].bucket.rate_bps();
}

void EgressQuotaManager::ApplyPointCaps(PointState& point) {
  if (flow_sim_ == nullptr || point.flows.empty()) {
    return;
  }
  // Prune flows that completed or were cancelled since the last epoch.
  point.flows.erase(
      std::remove_if(point.flows.begin(), point.flows.end(),
                     [this](FlowId f) {
                       return flow_sim_->FindFlow(f) == nullptr;
                     }),
      point.flows.end());
  if (point.flows.empty()) {
    return;
  }
  double cap = point.bucket.rate_bps() /
               static_cast<double>(point.flows.size());
  for (FlowId f : point.flows) {
    (void)flow_sim_->SetRateCap(f, cap);
  }
}

Status EgressQuotaManager::RegisterFlow(TenantId tenant, RegionId region,
                                        size_t point, FlowId flow) {
  auto it = quotas_.find(MakeKey(tenant, region));
  if (it == quotas_.end()) {
    return NotFoundError("no quota configured");
  }
  if (point >= it->second.points.size()) {
    return InvalidArgumentError("bad enforcement point");
  }
  PointState& p = it->second.points[point];
  p.flows.push_back(flow);
  if (flow_sim_ != nullptr) {
    FlowControlSurface::BatchScope batch = flow_sim_->Batch();
    ApplyPointCaps(p);
  }
  return Status::Ok();
}

Status EgressQuotaManager::UnregisterFlow(TenantId tenant, RegionId region,
                                          size_t point, FlowId flow) {
  auto it = quotas_.find(MakeKey(tenant, region));
  if (it == quotas_.end()) {
    return NotFoundError("no quota configured");
  }
  if (point >= it->second.points.size()) {
    return InvalidArgumentError("bad enforcement point");
  }
  PointState& p = it->second.points[point];
  auto fit = std::find(p.flows.begin(), p.flows.end(), flow);
  if (fit == p.flows.end()) {
    return NotFoundError("flow not registered at this point");
  }
  p.flows.erase(fit);
  if (flow_sim_ != nullptr) {
    FlowControlSurface::BatchScope batch = flow_sim_->Batch();
    // The departing flow is no longer quota-managed: lift its cap so it
    // returns to plain max-min sharing.
    if (flow_sim_->FindFlow(flow) != nullptr) {
      (void)flow_sim_->SetRateCap(flow,
                                  std::numeric_limits<double>::infinity());
    }
    ApplyPointCaps(p);
  }
  return Status::Ok();
}

void EgressQuotaManager::Redivide(QuotaState& state, SimTime now,
                                  SimDuration elapsed) {
  double seconds = std::max(1e-9, elapsed.ToSeconds());
  // Update demand estimates from this epoch's offered bits.
  double weight_sum = 0;
  for (PointState& p : state.points) {
    double rate = p.offered_bits_epoch / seconds;
    p.ewma_demand_bps = params_.ewma_alpha * rate +
                        (1 - params_.ewma_alpha) * p.ewma_demand_bps;
    p.offered_bits_epoch = 0;
    weight_sum += p.ewma_demand_bps;
    messages_ += 1;  // point -> coordinator demand report
  }
  // Proportional shares with an idle floor.
  double floor =
      state.quota_bps * kMinShareFraction /
      static_cast<double>(state.points.size());
  double distributable =
      state.quota_bps - floor * static_cast<double>(state.points.size());
  if (distributable < 0) {
    distributable = 0;
  }
  for (PointState& p : state.points) {
    double share = floor;
    if (weight_sum > 0) {
      share += distributable * (p.ewma_demand_bps / weight_sum);
    } else {
      share += distributable / static_cast<double>(state.points.size());
    }
    p.bucket.SetRate(share, now);
    p.bucket.SetBurst(share * kBurstSeconds);
    messages_ += 1;  // coordinator -> point new share
    ApplyPointCaps(p);
  }
}

void EgressQuotaManager::RunEpoch(SimTime now) {
  SimDuration elapsed =
      epochs_ == 0 ? kEpoch : (now - last_epoch_);
  if (elapsed <= SimDuration::Zero()) {
    elapsed = kEpoch;
  }
  // With a FlowSim attached, the whole epoch's cap updates — every quota,
  // every point, every registered flow — coalesce into one reallocation.
  std::optional<FlowControlSurface::BatchScope> batch;
  if (flow_sim_ != nullptr) {
    batch.emplace(*flow_sim_);
  }
  for (auto& [key, state] : quotas_) {
    Redivide(state, now, elapsed);
  }
  last_epoch_ = now;
  ++epochs_;
}

double EgressQuotaManager::AdmittedBits(TenantId tenant,
                                        RegionId region) const {
  auto it = quotas_.find(MakeKey(tenant, region));
  if (it == quotas_.end()) {
    return 0;
  }
  double total = 0;
  for (const PointState& p : it->second.points) {
    total += p.admitted_bits;
  }
  return total;
}

double EgressQuotaManager::OfferedBits(TenantId tenant,
                                       RegionId region) const {
  auto it = quotas_.find(MakeKey(tenant, region));
  if (it == quotas_.end()) {
    return 0;
  }
  double total = 0;
  for (const PointState& p : it->second.points) {
    total += p.offered_bits;
  }
  return total;
}

}  // namespace tenantnet
