// Shared pieces of the end-to-end week benchmark: the world it analyses,
// the span tracer, sample statistics, and the run record every workload
// fills in. See weekbench/README.md for what each workload measures.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "classify/https_prober.hpp"
#include "core/vantage_point.hpp"
#include "gen/internet.hpp"
#include "gen/workload.hpp"
#include "net/as_graph.hpp"

namespace weekbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Returns the heap's free memory to the kernel (glibc). Called before every
/// timed pass, so that each pass starts the way a fresh `ixpscope` process
/// does, faulting in all the memory it uses, instead of inheriting whatever
/// the passes before it left in the heap, which made pass times depend on
/// their order and widened the run-to-run spread.
void trim_heap();

/// Repetitions of a workload's unit in a run of `seconds`, given how long
/// one repetition takes at the default scale on the reference machine
/// (4 vCPU at 2.0 GHz). The count depends on `seconds` alone, so two
/// builds compared at the same run length do the same work.
[[nodiscard]] inline int repetitions(double seconds, double nominal_seconds) {
  return std::max(1, static_cast<int>(seconds / nominal_seconds + 0.5));
}

/// The week every single-week workload analyses (the paper's Table 1 week).
inline constexpr int kWeek = 45;

/// Samples per work unit, as the parallel engine and `ixpscope weeks`
/// batch a week.
inline constexpr std::size_t kBatch = 512;

// ---- world -----------------------------------------------------------------

/// Everything `ixpscope` builds before it touches a trace: the synthetic
/// Internet, the traffic workload, the member locality classification and
/// the vantage point over them.
struct World {
  std::unique_ptr<ixp::gen::InternetModel> model;
  std::unique_ptr<ixp::gen::Workload> workload;
  /// Heap-held so the vantage point's reference to it survives moves.
  std::unique_ptr<std::unordered_map<ixp::net::Asn, ixp::net::Locality>>
      locality;
  std::unique_ptr<ixp::core::VantagePoint> vantage;

  [[nodiscard]] ixp::classify::ChainFetcher fetcher(int week) const;
};

// ---- tracing -----------------------------------------------------------------

/// One timed call into the library: name (layer-prefixed, e.g.
/// "classify.observe"), start/end in ns since the tracer's origin, the span
/// that was open when it began, and the week or epoch it belongs to.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t group = -1;
};

/// In-memory span recorder. Disabled, it records nothing and costs one
/// branch per scope. Single-threaded: spans are opened from the driving
/// thread only (worker threads are the library's own).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer* tracer, int id) : tracer_(tracer), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(id_);
    }

   private:
    Tracer* tracer_;
    int id_;
  };

  /// Opens a span that closes when the returned scope ends.
  [[nodiscard]] Scope scope(std::string name, std::int64_t group = -1) {
    if (!enabled_) return Scope{nullptr, -1};
    return Scope{this, open(std::move(name), group)};
  }

  /// Records an already-measured interval as a child of the open span.
  void record(std::string name, Clock::time_point start, Clock::time_point end,
              std::int64_t group = -1);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Sum of the durations (s) of every span with this exact name.
  [[nodiscard]] double total(const std::string& name) const;
  /// Self time (s) per layer: each span's duration minus the part its
  /// direct children cover, summed by the name's layer prefix.
  [[nodiscard]] std::map<std::string, double> self_by_layer() const;

  /// Writes one JSON object per span to `path`.
  bool write(const std::string& path) const;

 private:
  int open(std::string name, std::int64_t group);
  void close(int id);
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span ids
};

// ---- statistics --------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);

/// Prints "label: median M s of N [v1 v2 ...]" on stdout.
void print_samples(const std::string& label, const std::vector<double>& values);

/// The highest of p50/p90/p95/p99/p99.9 that has at least ten samples
/// above it (p50 when the sample is too small for any of them).
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;
};
[[nodiscard]] Tail supported_tail(std::vector<double> values);

/// FNV-1a of the report's SnapshotCodec::encode_report bytes: two reports
/// hash equal exactly when they encode to the same bytes (up to hash
/// collisions).
[[nodiscard]] std::uint64_t report_hash(const ixp::core::WeeklyReport& report);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mib();

// ---- the run record ------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): metrics by name plus the counts
/// behind the `correct`/`attempted`/`failed` fields of the result line.
struct RunRecord {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts `units` attempted items; when `ok` is false they all failed
  /// and `what` is kept for the report.
  void check(bool ok, std::uint64_t units, const std::string& what);
};

/// Everything a workload needs from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string work_dir;   ///< scratch files (trace, snapshot store)
  std::string trace_dir;  ///< span files of traced runs
};

/// Writes week `week` of `world` as an ixpscope trace at `path` (what
/// `ixpscope generate` does). Returns {samples, datagrams}.
struct TraceFile {
  std::string path;
  std::uint64_t samples = 0;
  std::uint64_t datagrams = 0;
};
[[nodiscard]] TraceFile write_trace(const World& world, int week,
                                    const std::string& path, Tracer& tracer);

/// Builds the world five times (once in a traced run) and keeps the last
/// one; sets setup_s, the median build time, on `record`.
[[nodiscard]] World timed_setup(const RunConfig& config, Tracer& tracer,
                                RunRecord& record);

void run_week_trace(const RunConfig& config, Tracer& tracer,
                    RunRecord& record);
void run_weeks_range(const RunConfig& config, Tracer& tracer,
                     RunRecord& record);
void run_serve_stream(const RunConfig& config, Tracer& tracer,
                      RunRecord& record);

/// The traced layer pass shared by every workload's traced run: times one
/// public call per per-layer metric over week kWeek and sets them on
/// `record`.
void run_layer_pass(const RunConfig& config, const World& world,
                    const TraceFile& trace, Tracer& tracer, RunRecord& record);

}  // namespace weekbench
