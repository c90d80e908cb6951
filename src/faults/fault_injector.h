// Deterministic fault injection.
//
// The resilience experiments (E8b) ask a single question of both worlds:
// when links die, instances crash, gateways restart and the control plane
// degrades, how much of the workload still completes, and how much traffic
// falls into the hole meanwhile? This module supplies the machinery: a
// seeded fault-schedule generator (identical schedules replay byte-for-byte
// on any world) and an injector that applies each fault's world-agnostic
// part — Topology/FlowSim link state, CloudWorld instance state — then lets
// world-specific hooks react (LB health checks and BGP withdrawal in the
// baseline, NotifyInstanceDown/Up in the declarative API).
//
// Determinism guarantees:
//   * A schedule is a pure function of (seed, StormParams). Replaying it
//     against the same world yields identical event sequences; the injector
//     draws no randomness of its own.
//   * Overlapping faults reference-count shared state (two faults downing
//     the same link — directly and via a gateway restart — must not restore
//     it at the first recovery).
//   * A fault ends when it recovers: its state is restored, the hooks run
//     and it counts as recovered. How the world copes in between shows in
//     the workload's own counters (retries, give-ups, aborted flows).

#ifndef TENANTNET_SRC_FAULTS_FAULT_INJECTOR_H_
#define TENANTNET_SRC_FAULTS_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/cloud/world.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/sim/event_queue.h"
#include "src/sim/flow_surface.h"
#include "src/sim/topology.h"
#include "src/telemetry/metrics.h"

namespace tenantnet {

enum class FaultKind : uint8_t {
  kLinkDown,             // one link loses capacity and leaves path selection
  kInstanceCrash,        // an instance stops running (and later restarts)
  kGatewayRestart,       // a node restarts: every incident link goes down
  kControlPlaneDegrade,  // filter replication drops/delays messages
  kControlPlaneRestart,  // a control-plane component dies and reconciles
};

std::string_view FaultKindName(FaultKind kind);

// One failure + its recovery. `at` is relative to the Schedule() call.
struct FaultSpec {
  FaultKind kind = FaultKind::kLinkDown;
  SimDuration at = SimDuration::Zero();
  SimDuration duration = SimDuration::Millis(500);
  LinkId link;           // kLinkDown
  InstanceId instance;   // kInstanceCrash
  NodeId node;           // kGatewayRestart
  // kControlPlaneRestart: which component dies (an opaque id the restart
  // coordinator registered — filter bank, LB, routing plane, ...).
  uint32_t component = 0;
};

// Knobs for the seeded storm generator. Kinds with no candidate targets
// (and control-plane faults when disabled) are simply never drawn.
struct StormParams {
  size_t event_count = 100;
  SimDuration window = SimDuration::Seconds(30);    // injection times
  SimDuration min_duration = SimDuration::Millis(100);
  SimDuration max_duration = SimDuration::Seconds(2);
  std::vector<LinkId> links;
  std::vector<InstanceId> instances;
  std::vector<NodeId> gateways;
  bool include_control_plane = true;
  // Component ids eligible for kControlPlaneRestart (empty = never drawn).
  std::vector<uint32_t> restart_components;
};

struct FaultSchedule {
  std::vector<FaultSpec> events;  // sorted by `at`

  // Deterministic storm: a pure function of (seed, params).
  static FaultSchedule Storm(uint64_t seed, const StormParams& params);
};

// World-specific reactions. All optional.
struct FaultHooks {
  // Runs right after the injector applies a fault's world-agnostic part
  // (links downed / instance stopped). Baseline: nothing — health probes
  // discover the crash. Declarative: NotifyInstanceDown, etc.
  std::function<void(const FaultSpec&)> on_inject;
  // Runs right after the injector restores state at recovery time.
  std::function<void(const FaultSpec&)> on_recover;
  // Toggled at the first/last overlapping kControlPlaneDegrade fault.
  std::function<void(bool degraded)> set_control_degraded;
  // Edge-triggered per component (ref-counted like overlapping link faults):
  // on_restart_begin fires when a component's first outstanding restart
  // lands (kill + checkpoint-if-needed); on_restart_complete when its last
  // one recovers (replay + reconcile — its wall-clock cost is recorded as
  // the kind's control_repair_ms). A second restart of the same component
  // before the first completes extends the same outage; neither hook refires.
  std::function<void(const FaultSpec&)> on_restart_begin;
  std::function<void(const FaultSpec&)> on_restart_complete;
};

class FaultInjector {
 public:
  // All references must outlive the injector. `world` may be null when the
  // schedule contains no instance faults. Metrics land in `metrics` under
  // "faults.*" names.
  FaultInjector(EventQueue& queue, Topology& topology, FlowControlSurface& flow_sim,
                CloudWorld* world, MetricRegistry& metrics, FaultHooks hooks);

  // Schedules every event of `schedule` relative to now. May be called
  // more than once (schedules accumulate). InvalidArgument, with nothing
  // scheduled, if any link-down spec names a link the topology lacks.
  Status Schedule(const FaultSchedule& schedule);

  // Injects one fault immediately (tests drive single faults this way).
  // Refuses an unknown link like Schedule, injecting nothing.
  Status InjectNow(const FaultSpec& spec);

  // --- Telemetry ------------------------------------------------------------
  uint64_t faults_injected() const { return faults_injected_; }
  // True once every injected fault has recovered.
  bool AllRecovered() const { return faults_recovered_ == faults_injected_; }

  // Wall-clock cost of the world-specific control-plane reaction (the
  // on_inject/on_recover hooks), per kind. This is where incremental route
  // propagation shows up: a baseline hook that re-propagates routes pays
  // delta cost instead of a full reconvergence per fault.
  const Histogram& control_repair_ms(FaultKind kind) const {
    return *control_repair_ms_[static_cast<size_t>(kind)];
  }

 private:
  Status Validate(const FaultSpec& spec) const;
  void Inject(const FaultSpec& spec);
  void Recover(const FaultSpec& spec);

  void DownLink(LinkId link);
  void RestoreLink(LinkId link);

  EventQueue& queue_;
  Topology& topology_;
  FlowControlSurface& flow_sim_;
  CloudWorld* world_;
  FaultHooks hooks_;

  // Overlap reference counts.
  std::vector<int> link_refs_;                       // dense link index
  std::unordered_map<InstanceId, int> instance_refs_;
  int degrade_refs_ = 0;
  std::unordered_map<uint32_t, int> restart_refs_;   // per component

  uint64_t faults_injected_ = 0;
  uint64_t faults_recovered_ = 0;
  // Runs a hook (if set) and records its wall-clock cost for `kind`.
  void RunHookTimed(const std::function<void(const FaultSpec&)>& hook,
                    const FaultSpec& spec);

  Counter* injected_counter_;
  Histogram* control_repair_ms_[5];
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_FAULTS_FAULT_INJECTOR_H_
