// weeks-range: consecutive weeks through store::WeeksRunner, as
// `ixpscope weeks --from A --to B --dir D` runs them with one worker and no
// --jobs fork. Each repetition computes the range into a fresh store
// (cold), then re-runs it over the warm store (resume), which must decode
// every report back to the cold pass's bytes.
#include <filesystem>
#include <iostream>

#include "bench.hpp"
#include "core/parallel_analyzer.hpp"
#include "ingest/ingest_source.hpp"
#include "store/weeks_runner.hpp"
#include "util/fnv.hpp"

namespace weekbench {

using namespace ixp;

namespace {

constexpr int kFromWeek = 44;
constexpr int kToWeek = 45;
constexpr int kWeeks = kToWeek - kFromWeek + 1;
/// Resume passes per cold pass: the warm pass is cheap, so it is repeated
/// to give its median more samples.
constexpr int kResumesPerCold = 5;
/// One repetition (a cold pass and its resume passes) on the reference
/// machine.
constexpr double kRepSeconds = 12.0;

/// One generated week held in memory, batched like a trace: what the
/// `ixpscope weeks` feeds the parallel engine.
class GeneratedWeekSource final : public ingest::IngestSource {
 public:
  explicit GeneratedWeekSource(std::vector<sflow::FlowSample> samples)
      : samples_(std::move(samples)), span_(samples_, kBatch) {}

  ingest::SourceStatus next_batch(ingest::SampleBatch& out) override {
    return span_.next_batch(out);
  }
  [[nodiscard]] sflow::ReaderStats stats() const override {
    return span_.stats();
  }
  std::vector<std::unique_ptr<ingest::IngestSource>> split(
      std::size_t want) override {
    return span_.split(want);
  }

 private:
  std::vector<sflow::FlowSample> samples_;
  ingest::SpanSource span_;
};

struct Pass {
  double seconds = 0.0;
  store::WeeksResult result;
  std::vector<std::uint64_t> hashes;  ///< per week, ascending
};

}  // namespace

void run_weeks_range(const RunConfig& config, Tracer& tracer,
                     RunRecord& record) {
  World world = timed_setup(config, tracer, record);
  core::ParallelAnalyzer analyzer{*world.vantage, core::ParallelOptions{}};

  store::WeeksOptions options;
  options.from_week = kFromWeek;
  options.to_week = kToWeek;
  options.model_fingerprint = world.model->config().fingerprint();
  util::Fnv1a policy;
  policy.mix(std::string_view{"weekbench-generated-week"});
  policy.mix(std::uint64_t{kBatch});
  options.ingest_fingerprint = policy.value();

  Tracer* pass_tracer = &tracer;  // the tracer of the pass in progress
  const auto make_source =
      [&](int week) -> std::unique_ptr<ingest::IngestSource> {
    auto span = pass_tracer->scope("gen.generate_week", week);
    std::vector<sflow::FlowSample> samples;
    world.workload->generate_week(
        week, [&](const sflow::FlowSample& s) { samples.push_back(s); });
    return std::make_unique<GeneratedWeekSource>(std::move(samples));
  };
  const auto fetcher_for = [&](int week) { return world.fetcher(week); };

  const std::string dir = config.work_dir + "/store";
  const auto run_pass = [&](Tracer& t, const char* name) {
    Pass pass;
    pass_tracer = &t;
    trim_heap();
    const auto start = Clock::now();
    {
      auto span = t.scope(name);
      store::WeeksRunner runner{*world.vantage, analyzer,
                                store::SnapshotStore{dir}};
      pass.result = runner.run(options, make_source, fetcher_for);
    }
    pass.seconds = seconds_since(start);
    for (const store::WeekOutcome& outcome : pass.result.weeks)
      pass.hashes.push_back(report_hash(outcome.report));
    return pass;
  };
  const auto cold_pass = [&](Tracer& t) {
    std::filesystem::remove_all(dir);
    Pass cold = run_pass(t, "store.weeks_cold");
    const auto& r = cold.result;
    record.check(r.ok && r.weeks_computed == kWeeks && r.weeks_resumed == 0 &&
                     cold.hashes.size() == kWeeks,
                 kWeeks, "cold pass did not compute every week: " + r.error);
    return cold;
  };

  std::vector<double> cold_s;
  std::vector<double> resume_s;
  const int reps = config.trace ? 1 : repetitions(config.seconds, kRepSeconds);
  for (int rep = 0; rep < reps; ++rep) {
    const Pass cold = cold_pass(tracer);
    cold_s.push_back(cold.seconds / kWeeks);
    for (int i = 0; i < kResumesPerCold; ++i) {
      const Pass warm = run_pass(tracer, "store.weeks_resume");
      const auto& r = warm.result;
      for (int w = 0; w < kWeeks; ++w) {
        const bool same = r.ok && r.weeks_resumed == kWeeks &&
                          warm.hashes.size() == kWeeks &&
                          warm.hashes[w] == cold.hashes[w];
        record.check(same, 1,
                     "resumed week " + std::to_string(kFromWeek + w) +
                         " differs from its cold report");
      }
      resume_s.push_back(warm.seconds / kWeeks);
    }
  }

  record.set("week_s", median(cold_s), "s");
  record.set("week_alt_s", median(resume_s), "s");
  std::cout << "weeks-range " << kFromWeek << ".." << kToWeek << "\n";
  print_samples("cold pass, per week", cold_s);
  print_samples("resume pass, per week", resume_s);

  if (config.trace) {
    Tracer off{false};
    const Pass untraced = cold_pass(off);
    record.set("trace.overhead_s",
               cold_s.front() - untraced.seconds / kWeeks, "s");
    const TraceFile trace = write_trace(
        world, kWeek, config.work_dir + "/week45.trace", tracer);
    run_layer_pass(config, world, trace, tracer, record);
    std::filesystem::remove(trace.path);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace weekbench
