// One E13 episode: build a world for one workload, drive one batch of
// simulated tenant transactions through the whole stack, drain, and check
// the outcome from outside.

#ifndef TENANTNET_PERFBENCH_E2E_EPISODE_H_
#define TENANTNET_PERFBENCH_E2E_EPISODE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/e2e/ledger.h"

namespace e2e {

enum class Workload { kDeclSteady, kBaselineStorm, kQuotaTrunk };

// Parses a workload name; false if unknown.
bool ParseWorkload(const std::string& name, Workload* out);
bool IsDeclarative(Workload workload);

struct EpisodeResult {
  // --- End to end ------------------------------------------------------------
  double setup_s = 0;     // world build + deployment + install drain
  double measured_s = 0;  // first arrival .. drained queue
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t denied = 0;
  uint64_t gave_up = 0;
  uint64_t retries = 0;
  uint64_t left_inflight = 0;
  uint64_t oracle_checks = 0;
  uint64_t oracle_disagreements = 0;
  // Transactions neither completed nor policy-denied: gave up, left in
  // flight, or carried a verdict the reach oracle disagreed with.
  uint64_t failed = 0;
  std::map<std::string, uint64_t> deny_by_stage;
  double sim_latency_p50_ms = 0;  // exact, over every completed transaction
  double sim_latency_p99_ms = 0;
  // Hash of the outcome (counts, bytes, latency quantiles as raw bits) and
  // the text it hashes.
  uint64_t fingerprint = 0;
  std::string fingerprint_text;
  // Every correctness check that failed, one line each.
  std::vector<std::string> errors;

  // --- Per layer (meaningful for traced episodes) ------------------------------
  Ledger ledger;  // measured-phase spans
  std::map<std::string, DurationHistogram> setup_verbs;  // core.api.<verb>
  double vnet_build_s = 0;
  uint64_t events = 0;
  uint64_t reallocs = 0;
  uint64_t reschedules = 0;
  uint64_t full_fills = 0;
  double touched_mean = 0;
  size_t peak_active = 0;
  double realloc_total_us = 0;
  double realloc_in_spans_us = 0;
  uint64_t recaps = 0;
  uint64_t filter_lookups = 0;
  uint64_t filter_hits = 0;
  uint64_t fabric_lookups = 0;
  uint64_t fabric_hits = 0;
  uint64_t faults_injected = 0;
  uint64_t flows_aborted = 0;
  double bytes_blackholed = 0;
  double restart_complete_ns = 0;
  uint64_t restart_deltas = 0;
  double max_link_utilization = 0;
};

// Runs one episode. A traced episode records spans and the setup-verb
// ledger; an untraced one runs the same simulation with no timers on the
// transaction path. Both produce the same fingerprint for the same seed.
EpisodeResult RunEpisode(Workload workload, uint64_t seed, bool traced);

}  // namespace e2e

#endif  // TENANTNET_PERFBENCH_E2E_EPISODE_H_
