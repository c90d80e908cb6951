// Metrics: counters, gauges, and streaming histograms.
//
// Experiments report latency percentiles, goodput, table sizes etc.; these
// types are how modules expose them. Histogram uses exponential buckets
// (configurable base) so p50/p95/p99 queries are O(#buckets) with bounded
// relative error, which is the right trade for million-sample benchmark
// runs. Exact min/max/mean are tracked on the side.
//
// Thread safety: Counter and Gauge are lock-free atomics; Histogram guards
// its bucket state with a mutex. Concurrent recording from shard-executor
// worker threads is safe and loses no samples (totals are exact; only the
// Welford mean/M2 interleaving is order-dependent, which matters to no
// consumer). Registry lookups (GetCounter etc.) are NOT synchronized —
// create metrics before spawning recorders, which is what every module
// here does.

#ifndef TENANTNET_SRC_TELEMETRY_METRICS_H_
#define TENANTNET_SRC_TELEMETRY_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace tenantnet {

// Monotonic event count. Lock-free; safe to increment from any thread.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : value_(other.value()) {}
  Counter& operator=(const Counter& other) {
    value_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }

  void Increment(uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time level (table sizes, active flows, queue depths).
// Lock-free; safe to Set/Add from any thread.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge& other) : value_(other.value()) {}
  Gauge& operator=(const Gauge& other) {
    value_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    // C++20 atomic<double>::fetch_add: no sample ever lost to a torn
    // read-modify-write, so concurrent Add()s sum exactly.
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

// Streaming histogram over non-negative samples. Mutex-guarded: concurrent
// Record()s never lose samples and readers see consistent snapshots.
// Buckets grow by 5% each, so quantiles carry ~5% relative error.
class Histogram {
 public:
  Histogram() = default;

  // Copyable so it can live by value in registries/maps; copies snapshot
  // the source under its lock.
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  void Record(double sample);

  uint64_t count() const;
  double min() const;
  double max() const;
  double mean() const;
  double sum() const;

  // Value at quantile q in [0, 1]; approximate (bucket upper bound).
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

  // Population standard deviation (Welford).
  double StdDev() const;

  void Reset();

  // "n=... mean=... p50=... p95=... p99=... max=..." for bench output.
  std::string Summary() const;

 private:
  // Bucket index for a sample (0 reserved for samples <= smallest bound).
  size_t BucketFor(double sample) const;
  double QuantileLocked(double q) const;

  mutable std::mutex mu_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  double mean_run_ = 0;   // Welford running mean
  double m2_run_ = 0;     // Welford running M2
};

// Records wall-clock microseconds elapsed over its scope into a Histogram.
// For instrumenting hot paths (e.g. FlowSim reallocation cost): wall time is
// observability only and never feeds back into simulated time, so runs stay
// deterministic.
class ScopedTimerUs {
 public:
  explicit ScopedTimerUs(Histogram& hist)
      : hist_(hist), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimerUs() {
    auto elapsed = std::chrono::steady_clock::now() - start_;
    hist_.Record(
        std::chrono::duration<double, std::micro>(elapsed).count());
  }
  ScopedTimerUs(const ScopedTimerUs&) = delete;
  ScopedTimerUs& operator=(const ScopedTimerUs&) = delete;

 private:
  Histogram& hist_;
  std::chrono::steady_clock::time_point start_;
};

// Named metric registry so an experiment can dump everything it touched.
// Lookups mutate the maps and are main-thread-only; the metric objects
// handed out stay valid (std::map nodes are stable) and are themselves
// safe to record into from any thread.
class MetricRegistry {
 public:
  Counter& GetCounter(const std::string& name) { return counters_[name]; }
  Gauge& GetGauge(const std::string& name) { return gauges_[name]; }
  Histogram& GetHistogram(const std::string& name) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.try_emplace(name).first;
    }
    return it->second;
  }

  // Multi-line human-readable dump, sorted by name.
  std::string Report() const;

  void Reset();

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_TELEMETRY_METRICS_H_
