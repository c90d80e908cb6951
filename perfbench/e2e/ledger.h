// The per-layer cost ledger of the E13 benchmark.
//
// Spans are recorded by the benchmark itself, around its own calls into
// each layer's public functions (the connector wrapper, the flow-surface
// decorator, the fault/restart hooks, the quota-epoch event and the event
// loop). Nothing inside the library is instrumented. Spans nest on a small
// stack: a span's self time is its duration minus the part its child spans
// cover, so the self times of every span add up to the time the outermost
// spans cover.
//
// The outermost span is one EventQueue::Step. Its own time (the event body
// outside every child span, plus dispatch) goes to the layer that owns the
// event, told from outside by the first span the event opens: the
// connector or a flow start marks a RequestWorkload event (arrival,
// attempt, retry, response start), the completion callback marks a FlowSim
// completion event. The event loop may also claim an event that opens no
// span (ClaimEvent), from a public counter the event moved. An event no
// layer owns keeps its own time under the event loop; that remainder is
// what the ledger cannot attribute, and coverage is everything else.
//
// A disabled ledger is a null pointer: SpanScope then costs one branch.

#ifndef TENANTNET_PERFBENCH_E2E_LEDGER_H_
#define TENANTNET_PERFBENCH_E2E_LEDGER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// What a span measures. The names are the src/ module that owns the call.
enum class Span : uint8_t {
  kEventQueue,   // sim.event_queue: own time of events no layer claims
  kAppEvent,     // app: own time of RequestWorkload events
  kFlowEvent,    // sim.flow: own time of FlowSim completion events
  kInstall,      // core.edge_filter: own time of edge-install events
  kEvaluate,     // core.evaluate / vnet.evaluate: the connector verdict
  kPath,         // cloud.path: connector return -> QueuePenalty (see below)
  kFlowStart,    // sim.flow: FlowControlSurface::StartFlow
  kFlowOther,    // sim.flow: EndBatch, CancelFlow, SetLinkUp, QueuePenalty
  kQosRegister,  // core.qos: TryConsume + RegisterFlow for one response flow
  kQosEpoch,     // core.qos: EgressQuotaManager::RunEpoch
  kApiWrite,     // core.api: measured-phase permit/group writes
  kPropagate,    // routing: BaselineNetwork::PropagateRoutes from a hook
  kFaultHook,    // faults: the injector's world-specific hook, minus routing
  kRestart,      // restart: WarmRestartCoordinator begin/complete hooks
  kAppCallback,  // app: the workload's completion/abort callbacks
  kCheck,        // bench: reach oracle and link-utilization checks
  kCount,
};

// Log-linear histogram over nanosecond durations: exact below 32 ns, then
// 32 sub-buckets per power of two (~3% resolution). Recording is a shift
// and an increment, cheap enough to sit on every span.
class DurationHistogram {
 public:
  void Record(uint64_t ns) {
    ++buckets_[Index(ns)];
    ++count_;
  }
  void Merge(const DurationHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
  }
  uint64_t count() const { return count_; }

  // Midpoint of the bucket holding the ceil(q * count)-th sample; 0 when
  // empty.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0;
    }
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
    if (rank < 1) {
      rank = 1;
    }
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= rank) {
        return Midpoint(i);
      }
    }
    return Midpoint(kBuckets - 1);
  }

 private:
  static constexpr size_t kBuckets = 32 * 60;

  static size_t Index(uint64_t v) {
    if (v < 32) {
      return static_cast<size_t>(v);
    }
    const int e = 63 - __builtin_clzll(v);  // >= 5
    const uint64_t mantissa = v >> (e - 5);  // in [32, 63]
    return static_cast<size_t>(32 * (e - 4)) +
           static_cast<size_t>(mantissa - 32);
  }
  static double Midpoint(size_t index) {
    if (index < 32) {
      return static_cast<double>(index);
    }
    const int e = static_cast<int>(index / 32) + 4;
    const uint64_t mantissa = index % 32 + 32;
    const double width = static_cast<double>(uint64_t{1} << (e - 5));
    return static_cast<double>(mantissa << (e - 5)) + width / 2;
  }

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
};

struct SpanStats {
  int64_t self_ns = 0;
  DurationHistogram duration;  // inclusive duration per call

  void Merge(const SpanStats& other) {
    self_ns += other.self_ns;
    duration.Merge(other.duration);
  }
};

class Ledger {
 public:
  void Open(Span kind) {
    if (depth_ == kMaxDepth) {
      std::fprintf(stderr, "ledger: span stack overflow\n");
      std::abort();
    }
    ClaimEvent(kind);
    frames_[depth_++] = Frame{kind, NowNs(), 0, Span::kCount};
  }
  void Close() { CloseAt(NowNs()); }
  // Closes the open event span and opens the next one at the same instant:
  // back-to-back events share one clock read, and the loop's own time
  // between them is booked to the next event.
  void NextEvent() {
    const int64_t now = NowNs();
    CloseAt(now);
    frames_[depth_++] = Frame{Span::kEventQueue, now, 0, Span::kCount};
  }
  // Records `owner` as the open span's first child unless one is recorded;
  // for an event span that names the event's owner (see EventOwner).
  void ClaimEvent(Span owner) {
    if (depth_ > 0 && frames_[depth_ - 1].first_child == Span::kCount) {
      frames_[depth_ - 1].first_child = owner;
    }
  }

  // The path span cannot be bracketed by one call: RequestWorkload::Attempt
  // resolves the forward and reverse paths (and samples the path delay)
  // between the connector's return and its QueuePenalty call on the flow
  // surface. The connector wrapper marks the start; QueuePenalty, or the
  // end of the event when resolution failed, closes it.
  void MarkPathStart() {
    path_start_ = NowNs();
    path_open_ = true;
  }
  // Records the open path span, if any, crediting `resolves` ResolvePath
  // calls to it (2 when the attempt reached QueuePenalty, 1 when the
  // forward resolution failed).
  void ClosePath(uint64_t resolves) {
    if (!path_open_) {
      return;
    }
    path_open_ = false;
    path_resolves_ += resolves;
    Account(Span::kPath, NowNs() - path_start_, 0);
  }

  const SpanStats& stats(Span kind) const {
    return stats_[static_cast<size_t>(kind)];
  }
  // Time covered by outermost spans (events): the sum of every span's self
  // time, the event loop's unattributed remainder included.
  int64_t covered_ns() const { return covered_ns_; }
  uint64_t path_resolves() const { return path_resolves_; }

  void Merge(const Ledger& other) {
    for (size_t i = 0; i < stats_.size(); ++i) {
      stats_[i].Merge(other.stats_[i]);
    }
    covered_ns_ += other.covered_ns_;
    path_resolves_ += other.path_resolves_;
  }

 private:
  struct Frame {
    Span kind;
    int64_t start;
    int64_t child_ns;
    Span first_child;  // kCount until a child span opens
  };
  static constexpr int kMaxDepth = 32;

  void CloseAt(int64_t now) {
    const Frame frame = frames_[--depth_];
    const Span kind = frame.kind == Span::kEventQueue
                          ? EventOwner(frame.first_child)
                          : frame.kind;
    Account(kind, now - frame.start, frame.child_ns);
  }

  static Span EventOwner(Span first_child) {
    switch (first_child) {
      case Span::kEvaluate:
      case Span::kFlowStart:
        return Span::kAppEvent;
      case Span::kAppCallback:
        return Span::kFlowEvent;
      case Span::kInstall:
        return Span::kInstall;
      default:
        return Span::kEventQueue;
    }
  }

  void Account(Span kind, int64_t duration, int64_t child_ns) {
    SpanStats& s = stats_[static_cast<size_t>(kind)];
    s.self_ns += duration - child_ns;
    s.duration.Record(static_cast<uint64_t>(duration > 0 ? duration : 0));
    if (depth_ > 0) {
      frames_[depth_ - 1].child_ns += duration;
    } else {
      covered_ns_ += duration;
    }
  }

  std::array<Frame, kMaxDepth> frames_{};
  int depth_ = 0;
  std::array<SpanStats, static_cast<size_t>(Span::kCount)> stats_{};
  int64_t covered_ns_ = 0;
  int64_t path_start_ = 0;
  bool path_open_ = false;
  uint64_t path_resolves_ = 0;
};

// RAII span; a null ledger (untraced run) records nothing.
class SpanScope {
 public:
  SpanScope(Ledger* ledger, Span kind) : ledger_(ledger) {
    if (ledger_ != nullptr) {
      ledger_->Open(kind);
    }
  }
  ~SpanScope() {
    if (ledger_ != nullptr) {
      ledger_->Close();
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Ledger* ledger_;
};

}  // namespace e2e

#endif  // TENANTNET_PERFBENCH_E2E_LEDGER_H_
