#include "src/telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace tenantnet {

namespace {
// Smallest representable bucket bound; samples at or below land in bucket 0.
constexpr double kFloor = 1e-9;
// Bucket width ratio.
constexpr double kGrowth = 1.05;
const double kLogGrowth = std::log(kGrowth);
}  // namespace

Histogram::Histogram(const Histogram& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  buckets_ = other.buckets_;
  count_ = other.count_;
  sum_ = other.sum_;
  min_ = other.min_;
  max_ = other.max_;
  mean_run_ = other.mean_run_;
  m2_run_ = other.m2_run_;
}

Histogram& Histogram::operator=(const Histogram& other) {
  if (this == &other) {
    return *this;
  }
  // Consistent order (lock the source first after a snapshot copy) is
  // unnecessary here: assignment between histograms under concurrent
  // recording is not a supported pattern; this exists for setup-time
  // copies. Take a snapshot, then install it.
  Histogram snapshot(other);
  std::lock_guard<std::mutex> lock(mu_);
  buckets_ = std::move(snapshot.buckets_);
  count_ = snapshot.count_;
  sum_ = snapshot.sum_;
  min_ = snapshot.min_;
  max_ = snapshot.max_;
  mean_run_ = snapshot.mean_run_;
  m2_run_ = snapshot.m2_run_;
  return *this;
}

size_t Histogram::BucketFor(double sample) const {
  if (sample <= kFloor) {
    return 0;
  }
  double idx = std::log(sample / kFloor) / kLogGrowth;
  return static_cast<size_t>(idx) + 1;
}

void Histogram::Record(double sample) {
  if (sample < 0) {
    sample = 0;
  }
  size_t idx = BucketFor(sample);
  std::lock_guard<std::mutex> lock(mu_);
  if (idx >= buckets_.size()) {
    buckets_.resize(idx + 1, 0);
  }
  ++buckets_[idx];
  if (count_ == 0) {
    min_ = max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  sum_ += sample;
  // Welford update.
  double delta = sample - mean_run_;
  mean_run_ += delta / static_cast<double>(count_);
  m2_run_ += delta * (sample - mean_run_);
}

uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ ? min_ : 0;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ ? max_ : 0;
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ ? sum_ / static_cast<double>(count_) : 0;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::QuantileLocked(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen > target) {
      if (i == 0) {
        return min_;
      }
      // Upper bound of bucket i, clamped to the observed extrema.
      double bound = kFloor * std::pow(kGrowth, static_cast<double>(i));
      return std::clamp(bound, min_, max_);
    }
  }
  return max_;
}

double Histogram::Quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  return QuantileLocked(q);
}

double Histogram::StdDev() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ < 2) {
    return 0;
  }
  return std::sqrt(m2_run_ / static_cast<double>(count_));
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  buckets_.clear();
  count_ = 0;
  sum_ = 0;
  min_ = max_ = 0;
  mean_run_ = 0;
  m2_run_ = 0;
}

std::string Histogram::Summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os.precision(4);
  double mean = count_ ? sum_ / static_cast<double>(count_) : 0;
  double max = count_ ? max_ : 0;
  os << "n=" << count_ << " mean=" << mean
     << " p50=" << QuantileLocked(0.50) << " p95=" << QuantileLocked(0.95)
     << " p99=" << QuantileLocked(0.99) << " max=" << max;
  return os.str();
}

std::string MetricRegistry::Report() const {
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << name << " = " << c.value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << name << " = " << g.value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << name << " : " << h.Summary() << "\n";
  }
  return os.str();
}

void MetricRegistry::Reset() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace tenantnet
