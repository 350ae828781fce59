// weekbench — end-to-end benchmark of one analysed ixpscope week.
//
//   weekbench --workload week-trace|weeks-range|serve-stream --seed N
//             --seconds S --trace 0|1 [--quick] [--work-dir D] [--trace-dir D]
//
// Builds its inputs from the seed, runs as many repetitions of the named
// workload as take about S seconds on the reference machine, checks every
// output it produced, and prints one JSON result line last: the end-to-end metrics untraced (--trace 0), the per-layer
// metrics traced (--trace 1). --quick runs the test-scale model (the smoke
// mode the benchmark's own tests use). weekbench/README.md describes the
// workloads and metrics.
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <set>
#include <sstream>

#include "bench.hpp"

namespace {

using namespace weekbench;

// The metric sets BENCHMARK.json declares; every workload reports all of
// the set its mode asks for.
const std::set<std::string> kEndToEnd = {"setup_s", "week_s", "week_alt_s",
                                         "peak_rss_mb"};

const std::set<std::string> kPerLayer = {
    "gen.model_s", "net.routing_build_s", "gen.generate_week_s",
    "ingest.pull_s", "ingest.mapped_pull_s", "sflow.records",
    "classify.observe_s", "classify.ns_per_sample", "classify.kept_share",
    "classify.activity_ips", "classify.https_candidates", "core.reduce_s",
    "core.absorb_s", "core.shard_merge_s", "core.finish_week_s",
    "core.finish_self_s", "net.routes_of_s", "geo.countries_of_s",
    "probe.https_sweep_s", "probe.metadata_s", "probe.engine_issued",
    "probe.resolver_hit_rate", "core.snapshot_s", "core.drain_s",
    "sflow.backlog_max", "serve.gen_late_p50_ms", "serve.gen_late_max_ms",
    "serve.max_dps", "serve.fresh_p50_ms", "serve.fresh_tail_ms",
    "serve.week_1w_s", "serve.week_2w_s", "store.encode_s", "store.commit_s",
    "store.snapshot_bytes", "store.load_s", "analysis.longitudinal_s",
    "trace.overhead_s", "week.unaccounted_s", "self.gen_s", "self.fabric_s",
    "self.net_s", "self.geo_s", "self.sflow_s", "self.ingest_s",
    "self.classify_s", "self.core_s", "self.probe_s", "self.store_s",
    "self.analysis_s"};

int usage(const std::string& why) {
  std::cerr << "weekbench: " << why << "\n"
            << "usage: weekbench --workload week-trace|weeks-range|"
               "serve-stream --seed N --seconds S --trace 0|1 [--quick]\n"
               "                 [--work-dir DIR] [--trace-dir DIR]\n";
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream out;
  out << std::setprecision(12) << value;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      config.quick = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-dir") {
      config.trace_dir = value;
    } else if (!parse_u64(value, number)) {
      return usage("invalid number for " + flag + ": '" + value + "'");
    } else if (flag == "--seed") {
      config.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (number == 0) return usage("--seconds must be at least 1");
      config.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (number > 1) return usage("--trace takes 0 or 1");
      config.trace = number == 1;
      have_trace = true;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds and --trace are required");

  void (*run)(const RunConfig&, Tracer&, RunRecord&) = nullptr;
  if (config.workload == "week-trace") run = run_week_trace;
  if (config.workload == "weeks-range") run = run_weeks_range;
  if (config.workload == "serve-stream") run = run_serve_stream;
  if (run == nullptr) return usage("unknown workload '" + config.workload + "'");

  if (config.work_dir.empty()) {
    config.work_dir = ".bench_work/" + config.workload + "-" +
                      std::to_string(config.seed) + "-" +
                      std::to_string(::getpid());
  }
  if (config.trace_dir.empty()) config.trace_dir = ".bench_trace";
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return usage("cannot create work dir " + config.work_dir);

  Tracer tracer{config.trace};
  RunRecord record;
  run(config, tracer, record);
  std::filesystem::remove_all(config.work_dir, ec);

  if (config.trace) {
    for (const auto& [layer, seconds] : tracer.self_by_layer()) {
      std::cout << "self time " << layer << ": " << seconds << " s\n";
      record.set("self." + layer + "_s", seconds, "s");
    }
    std::filesystem::create_directories(config.trace_dir, ec);
    const std::string path = config.trace_dir + "/" + config.workload +
                             "-seed" + std::to_string(config.seed) +
                             ".spans.jsonl";
    if (tracer.write(path))
      std::cout << "wrote " << tracer.spans().size() << " spans to " << path
                << "\n";
  } else {
    record.set("peak_rss_mb", peak_rss_mib(), "MiB");
  }

  const std::set<std::string>& wanted = config.trace ? kPerLayer : kEndToEnd;
  for (const std::string& name : wanted) {
    if (record.metrics.count(name) == 0) {
      std::cerr << "weekbench: workload did not measure " << name << "\n";
      return 1;
    }
  }
  for (const std::string& failure : record.failures)
    std::cerr << "weekbench: check failed: " << failure << "\n";

  const bool correct = record.failed == 0 && record.attempted > 0;
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << record.attempted
       << ", \"failed\": " << record.failed << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : wanted) {
    const Metric& m = record.metrics[name];
    line << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}
