// E13: end-to-end tenant-transaction benchmark with a per-layer ledger.
//
//   e2e_bench --workload <decl_steady|baseline_storm|quota_trunk>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Repeats one episode (world build, deployment, a batch of simulated tenant
// transactions, drain, checks) with the same seed until `--seconds` of wall
// time have passed and at least kMinEpisodes episodes ran. Every episode of
// a run must produce the same outcome fingerprint.
//
// With --trace 0 the last stdout line carries the end-to-end metrics, taken
// as medians over the episodes, with times scaled to a reference host's
// speed by a calibration kernel timed between episodes (e2e/calibrate.h). With --trace 1 each episode runs
// twice, once untraced and once traced, and the line carries the per-layer
// ledger from the traced runs plus the tracing overhead. Progress and a
// human-readable ledger go to stderr.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "perfbench/e2e/calibrate.h"
#include "perfbench/e2e/episode.h"

namespace e2e {
namespace {

// Episodes per run at the least, however short --seconds is, so the
// fingerprint is always compared across episodes of one seed.
constexpr size_t kMinEpisodes = 3;

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Report {
 public:
  void Add(std::string name, double value, const char* unit) {
    metrics_.push_back(Metric{std::move(name), value, unit});
  }
  // "<prefix>ns_p50", "<prefix>ns_p99" and "<prefix>calls" (per episode).
  void AddTiming(const std::string& prefix, const DurationHistogram& hist,
                 double episodes) {
    Add(prefix + "ns_p50", hist.Quantile(0.50), "ns");
    Add(prefix + "ns_p99", hist.Quantile(0.99), "ns");
    Add(prefix + "calls", static_cast<double>(hist.count()) / episodes,
        "count");
  }

  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                  ", \"metrics\": {",
                  attempted, failed);
    line += buf;
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    metrics_[i].value);
      line += buf;
      line += "\"unit\": \"";
      line += metrics_[i].unit;
      line += "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
  }

  void PrintHuman() const {
    for (const Metric& m : metrics_) {
      std::fprintf(stderr, "  %-44s %14.6g %s\n", m.name.c_str(), m.value,
                   m.unit);
    }
  }

 private:
  std::vector<Metric> metrics_;
};

// The denial stages reported per workload; anything else lands in "other".
const char* const kDenyStages[] = {"edge-filter",      "sip", "instance-down",
                                   "no-physical-path", "sg-ingress"};
// Setup verbs timed into core.api.<verb>.
const char* const kSetupVerbs[] = {
    "request_eip",           "request_sip",     "bind",
    "create_endpoint_group", "add_to_endpoint_group",
    "set_permit_list",       "set_qos"};

// `kernel_s[i]`: the calibration kernel's time around episode i. Both times
// are medians over episodes at the reference host's speed.
void AddEndToEnd(Report& report, const std::vector<EpisodeResult>& runs,
                 const std::vector<double>& kernel_s, double peak_rss_mib) {
  std::vector<double> tx_per_s;
  std::vector<double> setup_s;
  for (size_t i = 0; i < runs.size(); ++i) {
    tx_per_s.push_back(
        Ratio(static_cast<double>(runs[i].attempted),
              AtReferenceSpeed(runs[i].measured_s, kernel_s[i])));
    setup_s.push_back(AtReferenceSpeed(runs[i].setup_s, kernel_s[i]));
  }
  const EpisodeResult& first = runs.front();
  report.Add("tx_per_s", Median(tx_per_s), "tx/s");
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("peak_rss_mb", peak_rss_mib, "MiB");
  // Add-one smoothed so the share is never exactly 0; the raw count is the
  // result line's "failed" field. Every episode of a run simulates the same
  // transactions, so the first one stands for all.
  report.Add("tx_failed_frac",
             static_cast<double>(first.failed + 1) /
                 static_cast<double>(first.attempted + 1),
             "ratio");
  report.Add("sim_latency_p50_ms", first.sim_latency_p50_ms, "ms");
  report.Add("sim_latency_p99_ms", first.sim_latency_p99_ms, "ms");
}

void AddPerLayer(Report& report, Workload workload,
                 const std::vector<EpisodeResult>& plain,
                 const std::vector<EpisodeResult>& traced) {
  Ledger ledger;
  double wall_ns = 0;
  double attempted = 0;
  double retries = 0;
  double denied = 0;
  double events = 0;
  double reallocs = 0;
  double reschedules = 0;
  double recaps = 0;
  double realloc_outside_ns = 0;
  double filter_lookups = 0, filter_hits = 0;
  double fabric_lookups = 0, fabric_hits = 0;
  double touched = 0, full_fills = 0, peak_active = 0;
  std::map<std::string, DurationHistogram> verbs;
  std::map<std::string, double> deny;
  std::vector<double> build_s, restart_ns, traced_cost, plain_cost;
  for (const EpisodeResult& r : traced) {
    ledger.Merge(r.ledger);
    wall_ns += r.measured_s * 1e9;
    attempted += static_cast<double>(r.attempted);
    retries += static_cast<double>(r.retries);
    denied += static_cast<double>(r.denied);
    events += static_cast<double>(r.events);
    reallocs += static_cast<double>(r.reallocs);
    reschedules += static_cast<double>(r.reschedules);
    recaps += static_cast<double>(r.recaps);
    realloc_outside_ns += (r.realloc_total_us - r.realloc_in_spans_us) * 1e3;
    filter_lookups += static_cast<double>(r.filter_lookups);
    filter_hits += static_cast<double>(r.filter_hits);
    fabric_lookups += static_cast<double>(r.fabric_lookups);
    fabric_hits += static_cast<double>(r.fabric_hits);
    touched += r.touched_mean;
    full_fills += static_cast<double>(r.full_fills);
    peak_active = std::max(peak_active, static_cast<double>(r.peak_active));
    for (const auto& [verb, hist] : r.setup_verbs) {
      verbs[verb].Merge(hist);
    }
    for (const auto& [stage, count] : r.deny_by_stage) {
      deny[stage] += static_cast<double>(count);
    }
    restart_ns.push_back(r.restart_complete_ns);
    traced_cost.push_back(r.measured_s / static_cast<double>(r.attempted));
  }
  for (const EpisodeResult& r : plain) {
    plain_cost.push_back(r.measured_s / static_cast<double>(r.attempted));
  }
  for (const auto* runs : {&plain, &traced}) {
    for (const EpisodeResult& r : *runs) {
      build_s.push_back(r.vnet_build_s);
    }
  }
  const double episodes = static_cast<double>(traced.size());
  const EpisodeResult& first = traced.front();
  auto share = [&](Span kind) {
    return Ratio(static_cast<double>(ledger.stats(kind).self_ns), wall_ns);
  };
  auto per_tx = [&](double count) { return Ratio(count, attempted); };

  // app: the workload mix.
  report.Add("app.workload.attempts", static_cast<double>(first.attempted),
             "count");
  report.Add("app.workload.retries_per_tx", per_tx(retries), "1/tx");
  report.Add("app.workload.deny_frac", per_tx(denied), "ratio");
  double listed = 0;
  for (const char* stage : kDenyStages) {
    listed += deny[stage];
    report.Add(std::string("app.workload.deny.") + stage, per_tx(deny[stage]),
               "ratio");
  }
  report.Add("app.workload.deny.other", per_tx(denied - listed), "ratio");
  report.Add("app.event.share", share(Span::kAppEvent), "ratio");
  report.Add("app.callback.share", share(Span::kAppCallback), "ratio");

  // core / vnet: the connector verdict, split by world.
  const DurationHistogram none;
  const bool decl = IsDeclarative(workload);
  const DurationHistogram& evaluate = ledger.stats(Span::kEvaluate).duration;
  report.AddTiming("core.evaluate.", decl ? evaluate : none, episodes);
  report.Add("core.evaluate.share", decl ? share(Span::kEvaluate) : 0,
             "ratio");
  report.Add("core.edge_filter.hit_rate", Ratio(filter_hits, filter_lookups),
             "ratio");
  report.Add("core.edge_filter.install_share", share(Span::kInstall),
             "ratio");
  report.AddTiming("vnet.evaluate.", decl ? none : evaluate, episodes);
  report.Add("vnet.evaluate.share", decl ? 0 : share(Span::kEvaluate),
             "ratio");
  report.Add("vnet.fabric.hit_rate", Ratio(fabric_hits, fabric_lookups),
             "ratio");
  report.Add("vnet.build_s", Median(build_s), "s");

  // core.qos: flow registration and quota epochs.
  report.AddTiming("core.qos.register_",
                   ledger.stats(Span::kQosRegister).duration, episodes);
  report.AddTiming("core.qos.epoch_", ledger.stats(Span::kQosEpoch).duration,
                   episodes);
  report.Add("core.qos.share",
             share(Span::kQosRegister) + share(Span::kQosEpoch), "ratio");
  report.Add("core.qos.recaps_per_tx", per_tx(recaps), "1/tx");

  // core.api: setup verbs, and the measured-phase writes.
  for (const char* verb : kSetupVerbs) {
    report.AddTiming(std::string("core.api.") + verb + ".", verbs[verb],
                     episodes);
  }
  report.Add("core.api.write.share", share(Span::kApiWrite), "ratio");

  // cloud: path resolution between the connector and QueuePenalty.
  const SpanStats& path = ledger.stats(Span::kPath);
  report.Add("cloud.path.ns_p50", path.duration.Quantile(0.50), "ns");
  report.Add("cloud.path.ns_p99", path.duration.Quantile(0.99), "ns");
  report.Add("cloud.path.share", share(Span::kPath), "ratio");
  report.Add("cloud.path.calls_per_tx",
             per_tx(static_cast<double>(ledger.path_resolves())), "1/tx");

  // sim.flow: FlowSim through the decorator, plus FlowSim's own completion
  // events. Those hold the reallocations FlowSim ran outside the decorator's
  // spans (read from its realloc histogram); completion_share is the rest
  // of their own time.
  report.AddTiming("sim.flow.start_", ledger.stats(Span::kFlowStart).duration,
                   episodes);
  report.Add("sim.flow.share",
             share(Span::kFlowStart) + share(Span::kFlowOther) +
                 share(Span::kFlowEvent),
             "ratio");
  report.Add("sim.flow.completion_share",
             share(Span::kFlowEvent) - Ratio(realloc_outside_ns, wall_ns),
             "ratio");
  double realloc_ns = 0;
  for (const EpisodeResult& r : traced) {
    realloc_ns += r.realloc_total_us * 1e3;
  }
  report.Add("sim.flow.realloc_share", Ratio(realloc_ns, wall_ns), "ratio");
  report.Add("sim.flow.reallocs_per_tx", per_tx(reallocs), "1/tx");
  report.Add("sim.flow.reschedules_per_tx", per_tx(reschedules), "1/tx");
  report.Add("sim.flow.touched_mean", touched / episodes, "count");
  report.Add("sim.flow.full_fills", full_fills / episodes, "count");
  report.Add("sim.flow.peak_active", peak_active, "count");

  // sim.event_queue: the own time of events no layer owns (rejected arrival
  // candidates, stale edge installs, and the fault, epoch and write timers
  // outside their hooks). Dispatch of an owned event is booked to its owner.
  report.Add("sim.event_queue.events_per_tx", per_tx(events), "1/tx");
  report.Add("sim.event_queue.self_share", share(Span::kEventQueue),
             "ratio");

  // routing, faults, restart: baseline_storm only.
  report.AddTiming("routing.propagate.",
                   ledger.stats(Span::kPropagate).duration, episodes);
  report.Add("routing.propagate.share", share(Span::kPropagate), "ratio");
  report.Add("faults.injected", static_cast<double>(first.faults_injected),
             "count");
  report.Add("faults.flows_aborted", static_cast<double>(first.flows_aborted),
             "count");
  report.Add("faults.bytes_blackholed", first.bytes_blackholed, "bytes");
  report.Add("faults.hook_share", share(Span::kFaultHook), "ratio");
  report.Add("restart.complete_ns", Median(restart_ns), "ns");
  report.Add("restart.deltas_applied",
             static_cast<double>(first.restart_deltas), "count");
  report.Add("restart.share", share(Span::kRestart), "ratio");

  // The ledger's own rows. coverage: measured wall time attributed to a
  // layer, i.e. all of it but the own time of events no layer owns.
  // call_coverage: the part covered by spans around calls alone (and
  // FlowSim's timed reallocations), leaving out the own time of events.
  const double covered = static_cast<double>(ledger.covered_ns()) -
                         static_cast<double>(
                             ledger.stats(Span::kEventQueue).self_ns);
  report.Add("bench.ledger.coverage", Ratio(covered, wall_ns), "ratio");
  report.Add("bench.ledger.call_coverage",
             Ratio(covered, wall_ns) - share(Span::kAppEvent) -
                 share(Span::kFlowEvent) - share(Span::kInstall) +
                 Ratio(realloc_outside_ns, wall_ns),
             "ratio");
  report.Add("bench.trace.overhead_frac",
             Median(traced_cost) / Median(plain_cost) - 1, "ratio");
  report.Add("bench.check.share", share(Span::kCheck), "ratio");
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload <decl_steady|baseline_storm|"
               "quota_trunk> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
      if (!trace && std::strcmp(value, "0") != 0) {
        return Usage();
      }
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') {
      return Usage();
    }
  }
  Workload workload;
  if (!ParseWorkload(workload_name, &workload)) {
    return Usage();
  }

  std::vector<EpisodeResult> plain;
  std::vector<EpisodeResult> traced;
  const int64_t started = NowNs();
  // Process high-water RSS once the first episode is done: later episodes
  // repeat the same work, and allocator reuse across them only adds noise.
  double peak_rss_mib = 0;
  // Untraced runs time the calibration kernel after each episode; an
  // episode's figure is the mean of the two around it. None runs before the
  // first episode, whose figure is the one after it, so the kernel's own
  // allocations stay out of peak_rss_mb.
  Calibrator calibrator;
  std::vector<double> kernel_s;
  double kernel_before = 0;
  while (true) {
    plain.push_back(RunEpisode(workload, seed, /*traced=*/false));
    if (plain.size() == 1) {
      peak_rss_mib =
          static_cast<double>(tenantnet::PeakRssBytes()) / (1024.0 * 1024.0);
    }
    if (trace) {
      traced.push_back(RunEpisode(workload, seed, /*traced=*/true));
    } else {
      const double kernel_after = calibrator.Measure();
      kernel_s.push_back(plain.size() == 1
                             ? kernel_after
                             : (kernel_before + kernel_after) / 2);
      kernel_before = kernel_after;
    }
    const EpisodeResult& r = trace ? traced.back() : plain.back();
    std::fprintf(stderr,
                 "episode %zu: setup %.3f s, measured %.3f s, kernel %.4f "
                 "s, %" PRIu64
                 " tx, max link utilization %.3f, fingerprint %016" PRIx64
                 "\n",
                 plain.size(), plain.back().setup_s, r.measured_s,
                 trace ? 0.0 : kernel_s.back(), r.attempted,
                 r.max_link_utilization, r.fingerprint);
    const double elapsed = static_cast<double>(NowNs() - started) / 1e9;
    if (plain.size() >= kMinEpisodes && elapsed >= seconds) {
      break;
    }
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const EpisodeResult& reference = plain.front();
  for (const auto* runs : {&plain, &traced}) {
    for (const EpisodeResult& r : *runs) {
      attempted += r.attempted;
      failed += r.failed;
      for (const std::string& error : r.errors) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
        correct = false;
      }
      if (r.fingerprint_text != reference.fingerprint_text) {
        std::fprintf(stderr,
                     "CHECK FAILED: fingerprint differs between episodes of "
                     "one seed:\n  %s\n  %s\n",
                     reference.fingerprint_text.c_str(),
                     r.fingerprint_text.c_str());
        correct = false;
      }
      // A declarative workload fails no transaction: no faults run there.
      if (IsDeclarative(workload) && r.failed != 0) {
        std::fprintf(stderr, "CHECK FAILED: %" PRIu64 " failed transactions\n",
                     r.failed);
        correct = false;
      }
    }
  }
  std::fprintf(stderr, "fingerprint %016" PRIx64 " %s\n",
               reference.fingerprint, reference.fingerprint_text.c_str());
  std::fprintf(stderr, "calibration checksum %016" PRIx64 "\n",
               calibrator.sink());

  Report report;
  if (trace) {
    AddPerLayer(report, workload, plain, traced);
  } else {
    AddEndToEnd(report, plain, kernel_s, peak_rss_mib);
  }
  report.PrintHuman();
  report.Print(correct, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
