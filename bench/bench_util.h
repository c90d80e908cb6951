// Shared helpers for the experiment binaries: fixed-width table printing so
// every bench emits the paper-style rows EXPERIMENTS.md records, plus the
// standard machine-readable artifact every JSON-emitting bench writes.

#ifndef TENANTNET_BENCH_BENCH_UTIL_H_
#define TENANTNET_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

namespace tenantnet {

// High-water resident set of this process, in bytes (Linux ru_maxrss is
// KiB). Monotone over the process lifetime, so sweeps that want per-stage
// deltas must record it incrementally. 0 if the kernel refuses.
inline size_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<size_t>(usage.ru_maxrss) * 1024;
}

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<int> widths) : widths_(std::move(widths)) {}

  void Row(std::initializer_list<std::string> cells) const {
    size_t i = 0;
    std::string line;
    for (const std::string& cell : cells) {
      int width = i < widths_.size() ? widths_[i] : 16;
      std::string padded = cell;
      if (static_cast<int>(padded.size()) < width) {
        padded.resize(static_cast<size_t>(width), ' ');
      }
      line += padded;
      line += "  ";
      ++i;
    }
    std::printf("%s\n", line.c_str());
  }

  void Rule() const {
    int total = 0;
    for (int w : widths_) {
      total += w + 2;
    }
    std::printf("%s\n", std::string(static_cast<size_t>(total), '-').c_str());
  }

 private:
  std::vector<int> widths_;
};

inline std::string FmtInt(uint64_t v) { return std::to_string(v); }

inline std::string FmtF(double v, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

// The command line every bench takes. `--smoke` selects the quick sizes CI
// runs (benches without a sweep to shrink run as usual); `--json_out=<path>`
// moves the JSON artifact. Any other argument prints usage and exits 2, so a
// typo cannot silently run the full sweep.
struct BenchArgs {
  bool smoke = false;
  std::string json_out;
};

inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strncmp(argv[i], "--json_out=", 11) == 0) {
      args.json_out = argv[i] + 11;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n"
                   "usage: %s [--smoke] [--json_out=<path>]\n",
                   argv[0], argv[i], argv[0]);
      std::exit(2);
    }
  }
  return args;
}

// Standard bench JSON artifact. Each Record()ed line is one JSON object:
// it is printed to stdout (the JSONL stream EXPERIMENTS.md greps) and
// buffered; the destructor writes all lines as a JSON array to
// BENCH_<name>.json in the working directory (run_experiments.sh runs from
// the repo root) or to `args.json_out`. CI uploads these artifacts and
// checks them against bench/baselines/smoke_gates.json.
class BenchJsonWriter {
 public:
  BenchJsonWriter(const std::string& name, const BenchArgs& args)
      : path_(args.json_out.empty() ? "BENCH_" + name + ".json"
                                    : args.json_out) {}

  ~BenchJsonWriter() {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return;
    }
    std::fputs("[\n", f);
    for (size_t i = 0; i < lines_.size(); ++i) {
      std::fprintf(f, "  %s%s\n", lines_[i].c_str(),
                   i + 1 < lines_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
  }

  // `json_object` must be one complete JSON object, no trailing newline.
  void Record(std::string json_object) {
    std::printf("%s\n", json_object.c_str());
    lines_.push_back(std::move(json_object));
  }

  // printf-style convenience for the existing inline-JSON benches.
  void Recordf(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    char buf[4096];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    Record(buf);
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::vector<std::string> lines_;
};

inline void Banner(const char* experiment, const char* title) {
  std::printf("\n==============================================================\n");
  std::printf("%s  %s\n", experiment, title);
  std::printf("==============================================================\n");
}

}  // namespace tenantnet

#endif  // TENANTNET_BENCH_BENCH_UTIL_H_
