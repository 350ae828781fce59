// week-trace: the week-45 trace analysed the two ways the CLI offers —
// streamed with one worker (`ixpscope analyze`) and mapped with two
// workers (`ixpscope analyze --mmap --threads 2`), repeated. Every report
// must encode to the same bytes.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

#include "bench.hpp"
#include "core/parallel_analyzer.hpp"
#include "ingest/ingest_source.hpp"
#include "sflow/mapped_trace.hpp"

namespace weekbench {

using namespace ixp;

namespace {

/// One repetition (a streamed and a mapped analysis) on the reference
/// machine.
constexpr double kRepSeconds = 4.5;

struct Analysis {
  double seconds = 0.0;
  std::uint64_t hash = 0;
  sflow::ReaderStats stats;
  std::uint64_t filtered_samples = 0;
  bool source_ok = false;
};

Analysis analyze_streamed(const World& world, const TraceFile& trace,
                          Tracer& tracer) {
  Analysis out;
  trim_heap();
  const auto start = Clock::now();
  auto span = tracer.scope("bench.week_streamed", kWeek);
  std::ifstream in{trace.path, std::ios::binary};
  sflow::TraceReader reader{in};
  ingest::ReaderSource source{reader};
  core::ParallelAnalyzer analyzer{*world.vantage, core::ParallelOptions{}};
  core::WeeklyReport report;
  {
    auto analyze = tracer.scope("core.analyze", kWeek);
    report = analyzer.analyze(kWeek, source, world.fetcher(kWeek));
  }
  out.seconds = seconds_since(start);
  out.hash = report_hash(report);
  out.stats = source.stats();
  out.source_ok = reader.ok() && source.ok();
  out.filtered_samples = report.filters.total_samples();
  return out;
}

Analysis analyze_mapped(const World& world, const TraceFile& trace,
                        unsigned threads, Tracer& tracer) {
  Analysis out;
  trim_heap();
  const auto start = Clock::now();
  auto span = tracer.scope("bench.week_mapped", kWeek);
  sflow::MappedTrace mapped;
  {
    auto open = tracer.scope("sflow.map_trace", kWeek);
    mapped = sflow::MappedTrace::open(trace.path);
  }
  ingest::MappedSource source{mapped};
  core::ParallelOptions options;
  options.threads = threads;
  core::ParallelAnalyzer analyzer{*world.vantage, options};
  core::WeeklyReport report;
  {
    auto analyze = tracer.scope("core.analyze", kWeek);
    report = analyzer.analyze(kWeek, source, world.fetcher(kWeek));
  }
  out.seconds = seconds_since(start);
  out.hash = report_hash(report);
  out.stats = source.stats();
  out.source_ok = mapped.ok() && source.ok();
  out.filtered_samples = report.filters.total_samples();
  return out;
}

}  // namespace

void run_week_trace(const RunConfig& config, Tracer& tracer,
                    RunRecord& record) {
  World world = timed_setup(config, tracer, record);
  const TraceFile trace = write_trace(
      world, kWeek, config.work_dir + "/week45.trace", tracer);
  record.check(trace.datagrams > 0, 1, "trace file could not be written");
  if (trace.datagrams == 0) return;

  std::optional<std::uint64_t> reference;
  const auto verify = [&](const Analysis& a, const char* mode) {
    if (!reference) reference = a.hash;
    // Each record is one attempted unit; a decode error fails its record,
    // and any mismatch fails every record of the analysis.
    const bool complete = a.source_ok && a.stats.errors() == 0 &&
                          a.stats.datagrams == trace.datagrams &&
                          a.stats.samples == trace.samples &&
                          a.filtered_samples == trace.samples;
    record.check(complete && a.hash == *reference, trace.datagrams,
                 std::string{mode} + " report differs from the first report"
                                     " or lost records");
  };

  std::vector<double> streamed;
  std::vector<double> mapped;
  const int reps = config.trace ? 1 : repetitions(config.seconds, kRepSeconds);
  for (int rep = 0; rep < reps; ++rep) {
    const Analysis s = analyze_streamed(world, trace, tracer);
    verify(s, "streamed");
    streamed.push_back(s.seconds);
    const Analysis m = analyze_mapped(world, trace, 2, tracer);
    verify(m, "mapped");
    mapped.push_back(m.seconds);
  }

  record.set("week_s", median(streamed), "s");
  record.set("week_alt_s", median(mapped), "s");
  std::cout << "week-trace: " << trace.samples << " samples in "
            << trace.datagrams << " datagrams\n";
  print_samples("streamed, 1 worker", streamed);
  print_samples("mapped, 2 workers", mapped);

  if (config.trace) {
    // Tracing overhead: the same streamed unit again with spans off.
    Tracer off{false};
    const Analysis untraced = analyze_streamed(world, trace, off);
    verify(untraced, "streamed (untraced)");
    record.set("trace.overhead_s", streamed.front() - untraced.seconds, "s");
    run_layer_pass(config, world, trace, tracer, record);
  }
  std::filesystem::remove(trace.path);
}

}  // namespace weekbench
