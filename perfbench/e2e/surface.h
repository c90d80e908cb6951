// The benchmark's FlowControlSurface decorator.
//
// RequestWorkload, the fault injector and the egress-quota manager all
// drive the data plane through this object, which forwards every call to
// the FlowSim. On the way it
//   * records sim.flow spans around the calls the run makes (traced runs);
//   * registers each response flow that leaves the quota region with
//     EgressQuotaManager::RegisterFlow (without that, set_qos never touches
//     the data plane), feeding the point's demand signal with TryConsume;
//   * reads each transaction's simulated latency from outside: the
//     workload's completion callback records one sample into its pattern
//     histogram, and the decorator takes the exact sample as the change in
//     the histograms' sums across that callback;
//   * counts quota re-caps and tracks the peak number of active flows.

#ifndef TENANTNET_PERFBENCH_E2E_SURFACE_H_
#define TENANTNET_PERFBENCH_E2E_SURFACE_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "perfbench/e2e/ledger.h"
#include "src/app/workload.h"
#include "src/core/qos.h"
#include "src/sim/flow_sim.h"

namespace e2e {

using tenantnet::FlowId;
using tenantnet::LinkId;
using tenantnet::SimDuration;

// Response flows whose first hop leaves one of these host nodes are charged
// to the quota point of that node's zone.
struct QuotaBinding {
  tenantnet::EgressQuotaManager* qos = nullptr;
  tenantnet::TenantId tenant;
  tenantnet::RegionId region;
  std::vector<std::pair<tenantnet::NodeId, size_t>> points;  // node -> point
};

class TracedSurface final : public tenantnet::FlowControlSurface {
 public:
  TracedSurface(tenantnet::FlowSim& sim, tenantnet::EventQueue& queue,
                const tenantnet::Topology& topology, Ledger* ledger)
      : sim_(sim), queue_(queue), topology_(topology), ledger_(ledger) {}

  void BindQuota(QuotaBinding binding) { quota_ = std::move(binding); }
  // The workload whose pattern histograms the latency probe reads.
  void set_workload(const tenantnet::RequestWorkload* workload) {
    workload_ = workload;
  }

  FlowId StartFlow(std::vector<LinkId> path, double bytes,
                   CompletionFn on_complete, double weight, double rate_cap_bps,
                   AbortFn on_abort) override {
    const tenantnet::NodeId first_hop =
        path.empty() ? tenantnet::NodeId() : topology_.link(path[0]).src;
    CompletionFn complete = [this, cb = std::move(on_complete)](
                                FlowId id, tenantnet::SimTime finish) {
      SpanScope span(ledger_, Span::kAppCallback);
      const double before = LatencySum();
      cb(id, finish);
      latencies_ms_.push_back(LatencySum() - before);
    };
    if (ledger_ != nullptr && on_abort) {
      on_abort = [this, cb = std::move(on_abort)](FlowId id,
                                                   tenantnet::SimTime when) {
        SpanScope span(ledger_, Span::kAppCallback);
        cb(id, when);
      };
    }
    FlowId id;
    {
      ReallocProbe probe(*this);
      SpanScope span(ledger_, Span::kFlowStart);
      id = sim_.StartFlow(std::move(path), bytes, std::move(complete), weight,
                          rate_cap_bps, std::move(on_abort));
    }
    peak_active_ = std::max(peak_active_, sim_.active_flow_count());
    if (quota_.qos != nullptr && first_hop.valid()) {
      for (const auto& [node, point] : quota_.points) {
        if (node != first_hop) {
          continue;
        }
        SpanScope span(ledger_, Span::kQosRegister);
        quota_.qos->TryConsume(quota_.tenant, quota_.region, point, bytes * 8,
                               queue_.now());
        if (!quota_.qos->RegisterFlow(quota_.tenant, quota_.region, point, id)
                 .ok()) {
          ++quota_errors_;
        }
        break;
      }
    }
    return id;
  }

  FlowId StartPersistentFlow(std::vector<LinkId> path, double weight,
                             double rate_cap_bps, AbortFn on_abort) override {
    return sim_.StartPersistentFlow(std::move(path), weight, rate_cap_bps,
                                    std::move(on_abort));
  }

  tenantnet::Status CancelFlow(FlowId id) override {
    ReallocProbe probe(*this);
    SpanScope span(ledger_, Span::kFlowOther);
    return sim_.CancelFlow(id);
  }

  // Only the quota manager re-caps flows here; inside its batch this is
  // bookkeeping, and the reallocation lands in the timed EndBatch.
  tenantnet::Status SetRateCap(FlowId id, double rate_cap_bps) override {
    ++recaps_;
    return sim_.SetRateCap(id, rate_cap_bps);
  }

  tenantnet::Result<double> CurrentRate(FlowId id) const override {
    return sim_.CurrentRate(id);
  }
  const tenantnet::FlowState* FindFlow(FlowId id) const override {
    return sim_.FindFlow(id);
  }

  tenantnet::Status SetLinkUp(LinkId link, bool up) override {
    ReallocProbe probe(*this);
    SpanScope span(ledger_, Span::kFlowOther);
    return sim_.SetLinkUp(link, up);
  }
  bool IsLinkUp(LinkId link) const override { return sim_.IsLinkUp(link); }
  size_t stalled_flow_count() const override {
    return sim_.stalled_flow_count();
  }
  uint64_t flows_aborted() const override { return sim_.flows_aborted(); }
  uint64_t flows_blackholed() const override {
    return sim_.flows_blackholed();
  }
  double bytes_blackholed() const override { return sim_.bytes_blackholed(); }

  double LinkUtilization(LinkId link) const override {
    return sim_.LinkUtilization(link);
  }

  // RequestWorkload::Attempt calls this right after resolving both paths,
  // so it closes the open cloud.path span (two ResolvePath calls).
  SimDuration QueuePenalty(const std::vector<LinkId>& path,
                           SimDuration per_link_base,
                           SimDuration per_link_cap) const override {
    if (ledger_ == nullptr) {
      return sim_.QueuePenalty(path, per_link_base, per_link_cap);
    }
    ledger_->ClosePath(2);
    SpanScope span(ledger_, Span::kFlowOther);
    return sim_.QueuePenalty(path, per_link_base, per_link_cap);
  }

  size_t active_flow_count() const override {
    return sim_.active_flow_count();
  }
  double total_bytes_delivered() const override {
    return sim_.total_bytes_delivered();
  }
  uint64_t reallocation_count() const override {
    return sim_.reallocation_count();
  }
  uint64_t flows_rescheduled() const override {
    return sim_.flows_rescheduled();
  }

  void BeginBatch() override { sim_.BeginBatch(); }
  void EndBatch() override {
    ReallocProbe probe(*this);
    SpanScope span(ledger_, Span::kFlowOther);
    sim_.EndBatch();
  }

  // --- What the benchmark reads back ---------------------------------------
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  uint64_t recaps() const { return recaps_; }
  size_t peak_active() const { return peak_active_; }
  uint64_t quota_errors() const { return quota_errors_; }
  // Reallocation wall time spent inside sim.flow spans (traced runs). The
  // rest of FlowSim::realloc_micros_histogram().sum() ran inside FlowSim's
  // own completion events, which the ledger books under sim.event_queue.
  double realloc_in_spans_us() const { return realloc_in_spans_us_; }

 private:
  // Traced runs only: charges the FlowSim reallocation time that elapsed
  // across a timed call to the sim.flow spans.
  class ReallocProbe {
   public:
    explicit ReallocProbe(TracedSurface& surface)
        : surface_(surface),
          before_(surface.ledger_ != nullptr
                      ? surface.sim_.realloc_micros_histogram().sum()
                      : 0) {}
    ~ReallocProbe() {
      if (surface_.ledger_ != nullptr) {
        surface_.realloc_in_spans_us_ +=
            surface_.sim_.realloc_micros_histogram().sum() - before_;
      }
    }
    ReallocProbe(const ReallocProbe&) = delete;
    ReallocProbe& operator=(const ReallocProbe&) = delete;

   private:
    TracedSurface& surface_;
    double before_;
  };

  double LatencySum() const {
    double sum = 0;
    for (size_t p = 0; p < workload_->pattern_count(); ++p) {
      sum += workload_->stats(p).latency_ms.sum();
    }
    return sum;
  }

  tenantnet::FlowSim& sim_;
  tenantnet::EventQueue& queue_;
  const tenantnet::Topology& topology_;
  Ledger* ledger_;
  const tenantnet::RequestWorkload* workload_ = nullptr;
  QuotaBinding quota_;

  std::vector<double> latencies_ms_;
  uint64_t recaps_ = 0;
  size_t peak_active_ = 0;
  uint64_t quota_errors_ = 0;
  double realloc_in_spans_us_ = 0;
};

}  // namespace e2e

#endif  // TENANTNET_PERFBENCH_E2E_SURFACE_H_
