// A fixed reference workload that tells how fast the host runs right now.
//
// On a shared VM the simulator's speed drifts by up to 1.6x, in spells that
// last from seconds to minutes, while steal time stays near 2%. The drift
// does not reach a chain of dependent arithmetic or a pointer chase over a
// large array; it does reach code that keeps the core's execution ports
// and private caches busy, which points at a co-runner on the same physical
// core. A spell that covers a whole run moves every episode of it alike,
// so no statistic over one run's episodes removes it.
//
// The kernel below is built from the three probes (of six tried) whose time
// tracked the simulator's best across such spells: wide independent integer
// arithmetic, hash-map churn with allocation, and a binary-heap event
// queue. The simulator slows more than the kernel does: over 26 runs of the
// three workloads, its episode time moved as the kernel's time to a power
// of 1.1-1.3. Timing the kernel between episodes and scaling each episode's
// time by (reference / kernel)^1.2 gives the time at the reference host's
// speed. Interquartile range over median of the per-run medians, raw /
// scaled by the kernel / scaled by its 1.2th power: 0.27 / 0.055 / 0.032 on
// baseline_storm (ten runs of one seed), 0.36 / 0.083 / 0.057 on
// decl_steady and 0.27 / 0.065 / 0.037 on quota_trunk (eight seeds each).
// The kernel's code does not depend on the program under test.

#ifndef TENANTNET_PERFBENCH_E2E_CALIBRATE_H_
#define TENANTNET_PERFBENCH_E2E_CALIBRATE_H_

#include <cmath>
#include <cstdint>
#include <queue>
#include <unordered_map>

#include "perfbench/e2e/ledger.h"

namespace e2e {

// The kernel's time on a quiet host (4-vCPU Xeon VM at 2.1 GHz), and the
// power of the kernel's slowdown that the simulator's slowdown follows.
constexpr double kReferenceKernelS = 0.105;
constexpr double kSlowdownExponent = 1.2;

// `seconds` measured while the kernel took `kernel_s`, as seconds on the
// reference host.
inline double AtReferenceSpeed(double seconds, double kernel_s) {
  return seconds * std::pow(kReferenceKernelS / kernel_s, kSlowdownExponent);
}

class Calibrator {
 public:
  // Seconds one pass of the kernel takes now.
  double Measure() {
    const int64_t t0 = NowNs();
    uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
    for (uint32_t i = 0; i < (1u << 23); ++i) {
      a = a * 0x9e3779b97f4a7c15ull + b;
      b ^= c >> 3;
      c = c * 31 + d;
      d ^= e << 5;
      e = e * 7 + f;
      f ^= g >> 11;
      g = g * 13 + h;
      h ^= a >> 17;
    }
    sink_ += a + b + c + d + e + f + g + h;

    std::unordered_map<uint64_t, uint64_t> map;
    uint64_t x = 1;
    for (uint32_t i = 0; i < (1u << 19); ++i) {
      x = Next(x);
      auto [it, inserted] = map.try_emplace(x % (1u << 18), x);
      if (!inserted) {
        map.erase(it);
      }
    }
    sink_ += map.size();

    std::priority_queue<uint64_t> heap;
    for (uint32_t i = 0; i < (1u << 16); ++i) {
      x = Next(x);
      heap.push(x);
    }
    for (uint32_t i = 0; i < (1u << 19); ++i) {
      x = Next(x);
      const uint64_t top = heap.top();
      heap.pop();
      heap.push(top / 2 + (x >> 2));
    }
    sink_ += heap.top();
    return static_cast<double>(NowNs() - t0) / 1e9;
  }

  // Depends on every result, so the compiler keeps all of the work.
  uint64_t sink() const { return sink_; }

 private:
  static uint64_t Next(uint64_t x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  uint64_t sink_ = 0;
};

}  // namespace e2e

#endif  // TENANTNET_PERFBENCH_E2E_CALIBRATE_H_
