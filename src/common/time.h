// Simulated time.
//
// All of tenantnet runs on virtual time: SimTime is a count of nanoseconds
// since simulation start, SimDuration a signed difference. Wall-clock time is
// never consulted inside the simulator, which keeps runs deterministic and
// lets benchmarks compress months of tenant churn into milliseconds.

#ifndef TENANTNET_SRC_COMMON_TIME_H_
#define TENANTNET_SRC_COMMON_TIME_H_

#include <cstdint>
#include <ostream>

namespace tenantnet {

// Signed span of simulated time, in nanoseconds.
class SimDuration {
 public:
  constexpr SimDuration() = default;

  static constexpr SimDuration Nanos(int64_t n) { return SimDuration(n); }
  static constexpr SimDuration Micros(int64_t n) { return SimDuration(n * 1000); }
  static constexpr SimDuration Millis(int64_t n) { return SimDuration(n * 1000000); }
  static constexpr SimDuration Seconds(double s) {
    return SimDuration(static_cast<int64_t>(s * 1e9));
  }
  static constexpr SimDuration Zero() { return SimDuration(0); }
  static constexpr SimDuration Infinite() { return SimDuration(INT64_MAX); }

  constexpr int64_t nanos() const { return ns_; }
  constexpr double ToSeconds() const { return static_cast<double>(ns_) / 1e9; }
  constexpr double ToMillis() const { return static_cast<double>(ns_) / 1e6; }

  friend constexpr SimDuration operator+(SimDuration a, SimDuration b) {
    return SimDuration(a.ns_ + b.ns_);
  }
  friend constexpr SimDuration operator-(SimDuration a, SimDuration b) {
    return SimDuration(a.ns_ - b.ns_);
  }
  friend constexpr SimDuration operator*(SimDuration a, double k) {
    return SimDuration(static_cast<int64_t>(static_cast<double>(a.ns_) * k));
  }
  friend constexpr SimDuration operator*(double k, SimDuration a) { return a * k; }
  friend constexpr SimDuration operator/(SimDuration a, double k) {
    return SimDuration(static_cast<int64_t>(static_cast<double>(a.ns_) / k));
  }
  friend constexpr double operator/(SimDuration a, SimDuration b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }
  constexpr SimDuration& operator+=(SimDuration d) {
    ns_ += d.ns_;
    return *this;
  }
  constexpr SimDuration& operator-=(SimDuration d) {
    ns_ -= d.ns_;
    return *this;
  }
  friend constexpr auto operator<=>(SimDuration a, SimDuration b) = default;

 private:
  constexpr explicit SimDuration(int64_t ns) : ns_(ns) {}
  int64_t ns_ = 0;
};

// Absolute simulated time (nanoseconds since simulation epoch).
class SimTime {
 public:
  constexpr SimTime() = default;

  static constexpr SimTime FromSeconds(double s) {
    return SimTime(static_cast<int64_t>(s * 1e9));
  }
  static constexpr SimTime Epoch() { return SimTime(0); }
  static constexpr SimTime Infinite() { return SimTime(INT64_MAX); }

  constexpr int64_t nanos() const { return ns_; }
  constexpr double ToSeconds() const { return static_cast<double>(ns_) / 1e9; }

  friend constexpr SimTime operator+(SimTime t, SimDuration d) {
    return SimTime(t.ns_ + d.nanos());
  }
  friend constexpr SimTime operator-(SimTime t, SimDuration d) {
    return SimTime(t.ns_ - d.nanos());
  }
  friend constexpr SimDuration operator-(SimTime a, SimTime b) {
    return SimDuration::Nanos(a.ns_ - b.ns_);
  }
  constexpr SimTime& operator+=(SimDuration d) {
    ns_ += d.nanos();
    return *this;
  }
  friend constexpr auto operator<=>(SimTime a, SimTime b) = default;

 private:
  constexpr explicit SimTime(int64_t ns) : ns_(ns) {}
  int64_t ns_ = 0;
};

inline std::ostream& operator<<(std::ostream& os, SimDuration d) {
  return os << d.ToSeconds() << "s";
}
inline std::ostream& operator<<(std::ostream& os, SimTime t) {
  return os << "t=" << t.ToSeconds() << "s";
}

}  // namespace tenantnet

#endif  // TENANTNET_SRC_COMMON_TIME_H_
