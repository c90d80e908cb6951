// Shared vocabulary for control-plane restart and state reconciliation.
//
// Every restartable control-plane component (EdgeFilterBank, SipLoadBalancer,
// BgpMesh + TGW FIBs via BaselineNetwork) speaks the same protocol:
//
//   snap = Checkpoint()            — capture the durable state image
//   BeginRestart()                 — the process dies: volatile state is
//                                    gone, mutations arriving during the
//                                    outage go to the component's
//                                    OutageLog (the provider's config store
//                                    keeps accepting writes), and the data
//                                    plane keeps forwarding from its
//                                    last-programmed state
//   CompleteRestart(mode, snap)    — the process comes back:
//     kWarm: restore the snapshot, replay the logged mutations through
//            the normal incremental paths, then diff intent against live
//            data-plane state and apply only the differences
//     kCold: rebuild everything from scratch — flush the data plane and
//            re-program it in full (the pre-warm-restart behavior, kept as
//            the disruption baseline and the differential-oracle reference)
//
// The outage log is one mechanism for every component: a logged mutation is
// the component's own mutator call with its arguments bound, and replay runs
// it against whichever instance the component chooses:
//   - itself: BgpMesh, and the filter bank's warm path, whose diff then
//     skips everything the replay pushed (anything versioned at or above
//     the version counter's value when replay began);
//   - a scratch instance restored from the snapshot, which folds the log
//     into intent without touching the data plane: the SIP balancer, and
//     the filter bank's cold path, whose scratch bank has no edges and no
//     queue and hands its Checkpoint() back as the intent to re-push.
//
// Both modes land on byte-identical state (asserted by the oracle tests);
// they differ in how much of the data plane they churn getting there, which
// is exactly what E9b measures.

#ifndef TENANTNET_SRC_COMMON_RECONCILE_H_
#define TENANTNET_SRC_COMMON_RECONCILE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/time.h"

namespace tenantnet {

enum class RestartMode : uint8_t {
  kWarm,  // restore snapshot + replay outage log + diff-reconcile deltas
  kCold,  // flush and rebuild the data plane in full
};

inline const char* RestartModeName(RestartMode mode) {
  return mode == RestartMode::kWarm ? "warm" : "cold";
}

// What one CompleteRestart() did. `checked` counts state entries examined
// by the reconcile diff; `deltas_applied` counts the ones that actually
// had to be (re)programmed — the data-plane churn. A warm restart after a
// quiet outage checks everything and applies nothing.
struct ReconcileStats {
  uint64_t checked = 0;
  uint64_t deltas_applied = 0;
  uint64_t replayed_mutations = 0;  // logged mutations replayed at completion
  uint64_t dropped_mutations = 0;   // logged mutations invalid at replay time
  // Simulated time at which the last reconcile-driven install lands on the
  // slowest edge (== completion time for components with no install
  // latency). Restart-to-converged latency is measured against this.
  SimTime converged_at = SimTime::Epoch();

  void Merge(const ReconcileStats& other) {
    checked += other.checked;
    deltas_applied += other.deltas_applied;
    replayed_mutations += other.replayed_mutations;
    dropped_mutations += other.dropped_mutations;
    if (other.converged_at > converged_at) {
      converged_at = other.converged_at;
    }
  }
};

// The outage buffer of one restartable component. Each mutator starts with
//
//   if (outage_.Defer(&Component::Mutator, args...)) return <accepted>;
//
// which, while an outage is active, stores the call with its arguments
// bound and tells the mutator to return without applying anything; with no
// outage active it captures nothing and the mutator applies as usual.
// Replay() ends the outage and runs the stored calls in order against a
// target of the component's choosing.
template <typename Component>
class OutageLog {
 public:
  // Starts an outage. Idempotent: a second kill extends the same outage.
  void Begin() { active_ = true; }
  bool active() const { return active_; }

  template <typename Mutator, typename... Args>
  [[nodiscard]] bool Defer(Mutator mutator, Args&&... args) {
    if (!active_) {
      return false;
    }
    calls_.push_back([mutator, ... bound = std::forward<Args>(args)](
                         Component& target, ReconcileStats& stats) mutable {
      auto call = [&] {
        return std::invoke(mutator, target, std::move(bound)...);
      };
      using R = decltype(call());
      if constexpr (std::is_same_v<R, Status>) {
        // Invalid by now (e.g. a bind to a SIP removed earlier in the same
        // outage): it would have failed synchronously outside the outage.
        if (!call().ok()) {
          ++stats.dropped_mutations;
        }
      } else if constexpr (std::is_same_v<R, SimTime>) {
        // The mutator returned when its last install lands.
        stats.converged_at = std::max(stats.converged_at, call());
      } else {
        call();
      }
    });
    return true;
  }

  // Ends the outage and runs every stored call, in order, against `target`:
  // each counts as replayed, an error counts as dropped, and a landing time
  // extends converged_at.
  void Replay(Component& target, ReconcileStats& stats) {
    active_ = false;
    std::vector<Call> calls;
    calls.swap(calls_);
    stats.replayed_mutations += calls.size();
    for (Call& call : calls) {
      call(target, stats);
    }
  }

 private:
  using Call = std::function<void(Component&, ReconcileStats&)>;
  bool active_ = false;
  std::vector<Call> calls_;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_COMMON_RECONCILE_H_
