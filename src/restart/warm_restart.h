// Control-plane warm restart coordination (the tentpole of the restart
// subsystem; protocol in src/common/reconcile.h).
//
// The paper's abstractions only hold up if the provider can restart the
// software that implements them without the tenant noticing. This module
// makes every control-plane component restartable behind one type-erased
// interface and measures what a restart costs in both worlds:
//
//   * A RestartableComponent wraps a component's Checkpoint / BeginRestart /
//     CompleteRestart triple in closures, with the snapshot held inside the
//     adapter (components stay snapshot-format agnostic to each other).
//   * The WarmRestartCoordinator owns the registered components, drives the
//     kill/reconcile cycle (by hand in tests, or wired into FaultInjector's
//     kControlPlaneRestart hooks for storms), and lands every restart in the
//     shared MetricRegistry: outage wall-clock, restart-to-converged sim
//     time, reconcile delta counts, replayed/dropped buffered mutations.
//
// The interesting contrast is the mode. kWarm restores the checkpoint and
// applies only the diffs the outage produced — unchanged edge state, FIB
// entries and verdict epochs survive. kCold flushes and rebuilds from
// scratch — the measurable blackhole/default-off window E9b quantifies.

#ifndef TENANTNET_SRC_RESTART_WARM_RESTART_H_
#define TENANTNET_SRC_RESTART_WARM_RESTART_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/reconcile.h"
#include "src/common/time.h"
#include "src/faults/fault_injector.h"
#include "src/sim/event_queue.h"
#include "src/telemetry/metrics.h"

namespace tenantnet {

class EdgeFilterBank;
class SipLoadBalancer;
class BaselineNetwork;

// One restartable control-plane component, type-erased. The adapter owns
// the snapshot: `checkpoint` refreshes it at every kill, `complete`
// reconciles against it.
struct RestartableComponent {
  std::string name;
  std::function<void()> checkpoint;
  std::function<void()> begin;  // kill the control plane (idempotent)
  std::function<ReconcileStats(RestartMode)> complete;
};

// Adapters for the repo's control planes. References must outlive the
// returned component.
RestartableComponent MakeFilterBankComponent(std::string name,
                                             EdgeFilterBank& bank);
RestartableComponent MakeSipLbComponent(std::string name, SipLoadBalancer& lb);
RestartableComponent MakeRoutingComponent(std::string name,
                                          BaselineNetwork& net);

class WarmRestartCoordinator {
 public:
  // Metrics land under "restart.*". Every completion runs under `mode`.
  WarmRestartCoordinator(EventQueue& queue, MetricRegistry& metrics,
                         RestartMode mode = RestartMode::kWarm);

  // Registers a component and returns its id (also valid as
  // FaultSpec::component / StormParams::restart_components entries).
  uint32_t Register(RestartableComponent component);

  // Checkpoints the component, then kills its control plane (it crashed
  // with a current snapshot on disk). Idempotent per component: a second
  // Begin before the matching Complete extends the same outage.
  void BeginRestart(uint32_t id);
  bool InRestart(uint32_t id) const;

  // Replays + reconciles under the coordinator's mode. No-op (empty stats)
  // unless the component is in restart.
  ReconcileStats CompleteRestart(uint32_t id);

  // Routes FaultInjector's kControlPlaneRestart edges into Begin/Complete.
  // Overwrites hooks.on_restart_begin / hooks.on_restart_complete.
  void WireHooks(FaultHooks& hooks);

  // --- Telemetry ------------------------------------------------------------
  uint64_t restarts_begun() const { return restarts_begun_; }
  uint64_t restarts_completed() const { return restarts_completed_; }
  // Merged stats across every completed restart.
  const ReconcileStats& total() const { return total_; }
  // Sim time from BeginRestart to CompleteRestart, per component.
  const Histogram& outage_ms(uint32_t id) const;
  // Sim time from BeginRestart until the reconciled state finished
  // converging (includes in-flight edge pushes past the completion call).
  const Histogram& to_converged_ms(uint32_t id) const;

 private:
  struct Entry {
    RestartableComponent component;
    bool in_restart = false;
    SimTime began_at = SimTime::Epoch();
    Histogram* outage_ms = nullptr;
    Histogram* to_converged_ms = nullptr;
  };
  Entry& Get(uint32_t id);
  const Entry& Get(uint32_t id) const;

  EventQueue& queue_;
  RestartMode mode_;
  std::vector<Entry> components_;

  uint64_t restarts_begun_ = 0;
  uint64_t restarts_completed_ = 0;
  ReconcileStats total_;

  MetricRegistry* metrics_;
  Counter* begun_counter_;
  Counter* completed_counter_;
  Counter* reconcile_deltas_counter_;
  Counter* replayed_counter_;
  Counter* dropped_counter_;
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_RESTART_WARM_RESTART_H_
