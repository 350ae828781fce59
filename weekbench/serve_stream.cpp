// serve-stream: the week-45 trace replayed into core::ServeService the way
// `ixpscope replay --agents 16` feeds `ixpscope serve`: every record framed
// with its original offset, agents rewritten round-robin over 16 senders.
//
//  - burst passes (week_s, week_alt_s): the whole week offered at once into
//    a cumulative (window 0) service with 1 and then 2 pump workers, timed
//    from the first offer to the drained report, which must encode to the
//    bytes of the offline analysis of the same trace;
//  - the open-loop pass: one generator thread offers on a fixed schedule —
//    the reference rate for the whole week, then a ladder of rising rates —
//    while a publisher thread snapshots a K-epoch window periodically.
//    Freshness is timed from each datagram's due time, never its send time.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.hpp"
#include "core/parallel_analyzer.hpp"
#include "core/serve_service.hpp"
#include "ingest/ingest_source.hpp"
#include "serve_stream.hpp"
#include "sflow/mapped_trace.hpp"
#include "sflow/trace_segment.hpp"

namespace weekbench {

using namespace ixp;

namespace {

constexpr int kAgents = 16;
constexpr unsigned kPumpWorkers = 2;

/// The open-loop schedule: the reference rate over one pass of the week,
/// then ladder steps of kStepSeconds each at doubling rates, stopped at the
/// first step the service does not sustain.
constexpr double kReferenceRate = 5000.0;  // datagrams/s
/// The reference step covers the whole week, and at least this long (a
/// test-scale week is shorter than one publication period).
constexpr double kMinReferenceSeconds = 1.0;
constexpr double kLadderRates[] = {2500.0, 5000.0, 10000.0, 20000.0,
                                   40000.0, 80000.0, 160000.0};
constexpr double kStepSeconds = 0.4;
constexpr auto kPublishPeriod = std::chrono::milliseconds(100);
constexpr std::size_t kWindowEpochs = 4;
/// The generator is behind its own schedule — and the pass invalid — when
/// any offer at the reference rate is later than this past its due time.
/// An invalid pass is run again, up to kOpenLoopAttempts times in all.
constexpr double kMaxLateMs = 50.0;
constexpr int kOpenLoopAttempts = 2;

std::uint64_t accounting_violations(const core::ServeAccounting& a) {
  const auto totals = a.intake.totals();
  std::uint64_t bad = 0;
  if (totals.received != totals.taken + totals.dropped) ++bad;
  if (totals.taken != a.collector.datagrams + a.decode_errors) ++bad;
  for (const auto& row : a.intake.rows) {
    if (row.counters.received != row.counters.taken + row.counters.dropped)
      ++bad;
  }
  return bad;
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct StepResult {
  double rate = 0.0;      ///< scheduled datagrams/s
  double achieved = 0.0;  ///< datagrams/s actually offered (send times)
  std::size_t offered = 0;
  std::uint64_t dropped = 0;
  std::size_t backlog_max = 0;  ///< queued datagrams (received - taken)
  double late_max_ms = 0.0;     ///< generator lateness
  bool sustained = false;
};

struct OpenLoopResult {
  StepResult reference;
  std::vector<StepResult> ladder;
  double max_dps = 0.0;
  std::size_t offered = 0;
  std::size_t snapshots = 0;
  double snapshot_p50_ms = 0.0;
  std::size_t fresh_samples = 0;
  double fresh_p50_ms = 0.0;
  Tail fresh_tail;
  double gen_late_p50_ms = 0.0;
  double gen_late_max_ms = 0.0;
  double drain_s = 0.0;
  std::uint64_t violations = 0;
  core::ServeAccounting accounting;
};

OpenLoopResult serve_open_loop(const World& world, const Replay& replay,
                               Tracer& tracer) {
  OpenLoopResult out;
  const std::size_t n = replay.records.size();
  if (n == 0) return out;

  core::ServeOptions options;
  options.week = kWeek;
  options.threads = kPumpWorkers;
  options.window_epochs = kWindowEpochs;
  core::ServeService service{*world.vantage, world.fetcher(kWeek), options};
  service.start();

  // Generator → publisher hand-off: the due time (ns since `origin`) of
  // the last datagram offered, stored after the offer.
  const auto origin = Clock::now();
  std::atomic<std::int64_t> last_due_ns{-1};
  std::atomic<bool> in_reference{true};
  const auto to_ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };

  std::vector<std::pair<Clock::time_point, Clock::time_point>> snapshots;
  std::vector<double> fresh_ms;
  // A jthread: an exception on the generator side still stops and joins
  // the publisher before the data it reads goes away.
  std::jthread publisher([&](std::stop_token stop) {
    auto next = Clock::now() + kPublishPeriod;
    while (!stop.stop_requested()) {
      std::this_thread::sleep_until(next);
      next += kPublishPeriod;
      const std::int64_t due_ns = last_due_ns.load(std::memory_order_acquire);
      const bool reference = in_reference.load(std::memory_order_acquire);
      if (due_ns < 0 || stop.stop_requested()) continue;
      const auto call = Clock::now();
      (void)service.snapshot();
      const auto ret = Clock::now();
      snapshots.emplace_back(call, ret);
      if (reference)
        fresh_ms.push_back(static_cast<double>(to_ns(ret) - due_ns) * 1e-6);
      if (ret > next) next = ret;  // never queue up missed publications
    }
  });

  // One schedule step: `count` datagrams at `rate`, due times measured from
  // the step start; fills `step` with its drops, lateness and backlog.
  std::size_t cursor = 0;
  std::vector<double> late_ms;
  const auto run_step = [&](double rate, std::size_t count, StepResult& step) {
    step.rate = rate;
    const auto dropped_before = service.queues().stats().totals().dropped;
    const auto step_start = Clock::now();
    std::size_t backlog_half = 0;
    std::size_t backlog_end = 0;
    Clock::time_point last_sent = step_start;
    for (std::size_t k = 0; k < count; ++k) {
      const auto due = step_start + std::chrono::nanoseconds(static_cast<
                                        std::int64_t>(1e9 * k / rate));
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      sflow::DatagramEnvelope copy = replay.records[cursor++ % n];
      (void)service.offer(std::move(copy));
      const auto sent = Clock::now();
      last_sent = sent;
      last_due_ns.store(to_ns(due), std::memory_order_release);
      const double late = ms_between(due, sent);
      step.late_max_ms = std::max(step.late_max_ms, late);
      late_ms.push_back(late);
      if (k % 64 == 0 || k + 1 == count) {
        const std::size_t backlog = service.queues().queued();
        step.backlog_max = std::max(step.backlog_max, backlog);
        if (k < count / 2) backlog_half = std::max(backlog_half, backlog);
        backlog_end = backlog;
      }
    }
    step.offered = count;
    const double span_s =
        std::chrono::duration<double>(last_sent - step_start).count();
    step.achieved = count > 1 && span_s > 0.0
                        ? static_cast<double>(count - 1) / span_s
                        : rate;
    step.dropped =
        service.queues().stats().totals().dropped - dropped_before;
    // Sustained: nothing shed, the generator kept its schedule, and the
    // backlog at the end is no larger than the first half's peak plus a
    // few milliseconds' worth of arrivals.
    const auto slack = static_cast<std::size_t>(rate * 0.005) + 8;
    step.sustained = step.dropped == 0 && step.late_max_ms <= kMaxLateMs &&
                     backlog_end <= backlog_half + slack;
  };
  const auto wait_idle = [&] {
    while (service.queues().queued() != 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };

  {
    auto span = tracer.scope("bench.serve_reference", kWeek);
    run_step(kReferenceRate,
             std::max(n, static_cast<std::size_t>(kReferenceRate *
                                                  kMinReferenceSeconds)),
             out.reference);
    out.gen_late_p50_ms = median(late_ms);
    out.gen_late_max_ms = out.reference.late_max_ms;
  }
  in_reference.store(false, std::memory_order_release);
  wait_idle();
  {
    auto span = tracer.scope("bench.serve_ladder", kWeek);
    for (const double rate : kLadderRates) {
      StepResult step;
      run_step(rate, static_cast<std::size_t>(rate * kStepSeconds), step);
      out.ladder.push_back(step);
      if (!step.sustained) break;
      out.max_dps = step.achieved;
      wait_idle();
    }
  }
  publisher.request_stop();
  publisher.join();

  std::shared_ptr<const core::ServeSnapshot> final_snapshot;
  {
    auto drain = tracer.scope("core.drain", kWeek);
    const auto start = Clock::now();
    final_snapshot = service.drain();
    out.drain_s = seconds_since(start);
  }
  out.accounting = final_snapshot->accounting;
  out.violations = accounting_violations(out.accounting);
  out.offered = cursor;
  std::vector<double> snapshot_ms;
  for (const auto& [call, ret] : snapshots) {
    snapshot_ms.push_back(ms_between(call, ret));
    tracer.record("core.snapshot", call, ret, kWeek);
  }
  out.snapshots = snapshot_ms.size();
  out.snapshot_p50_ms = median(snapshot_ms);
  out.fresh_samples = fresh_ms.size();
  out.fresh_p50_ms = median(fresh_ms);
  out.fresh_tail = supported_tail(fresh_ms);
  return out;
}

void report_open_loop(const OpenLoopResult& r, RunRecord& record) {
  std::cout << "serve open loop (" << kPumpWorkers << " pump workers, window "
            << kWindowEpochs << " epochs, publish every "
            << kPublishPeriod.count() << " ms): reference "
            << kReferenceRate << " datagrams/s, " << r.snapshots
            << " snapshots (p50 " << r.snapshot_p50_ms << " ms), freshness p50 "
            << r.fresh_p50_ms << " ms, p" << r.fresh_tail.percentile << " "
            << r.fresh_tail.value << " ms (" << r.fresh_samples
            << " samples, " << r.fresh_tail.beyond << " beyond); generator "
            << "late p50 " << r.gen_late_p50_ms << " ms, max "
            << r.gen_late_max_ms << " ms\n";
  for (const StepResult& step : r.ladder) {
    std::cout << "  ladder " << step.rate << " datagrams/s (offered at "
              << step.achieved << "): " << step.offered
              << " offered, " << step.dropped << " dropped, backlog max "
              << step.backlog_max << ", late max " << step.late_max_ms
              << " ms -> " << (step.sustained ? "sustained" : "not sustained")
              << "\n";
  }
  std::cout << "  serve max " << r.max_dps << " datagrams/s; drain "
            << r.drain_s << " s\n";

  // The reference pass is the measured one: every datagram offered there
  // is attempted, and a drop, a late generator or a broken identity fails
  // it. Ladder steps are allowed to shed — that is how they end.
  const bool valid = r.reference.late_max_ms <= kMaxLateMs;
  record.check(valid, r.reference.offered,
               "generator fell behind its schedule at the reference rate "
               "on every attempt (run invalid)");
  if (valid) {
    record.check(r.reference.dropped == 0, r.reference.offered,
                 "datagrams dropped at the reference rate");
  }
  record.check(r.violations == 0 && r.accounting.decode_errors == 0,
               r.offered, "open-loop intake accounting does not balance");
  record.check(r.fresh_samples > 0, 1, "no snapshot at the reference rate");

  record.set("core.snapshot_s", r.snapshot_p50_ms * 1e-3, "s");
  record.set("core.drain_s", r.drain_s, "s");
  record.set("sflow.backlog_max",
             static_cast<double>(r.reference.backlog_max), "count");
  record.set("serve.gen_late_p50_ms", r.gen_late_p50_ms, "ms");
  record.set("serve.gen_late_max_ms", r.gen_late_max_ms, "ms");
  record.set("serve.max_dps", r.max_dps, "datagrams/s");
  record.set("serve.fresh_p50_ms", r.fresh_p50_ms, "ms");
  record.set("serve.fresh_tail_ms", r.fresh_tail.value, "ms");
}

}  // namespace

Replay load_replay(const std::string& path) {
  Replay replay;
  const sflow::MappedTrace trace = sflow::MappedTrace::open(path);
  if (!trace.ok()) return replay;
  for (const auto& segment : sflow::TraceSegmenter::split(trace.bytes(), 1)) {
    sflow::TraceCursor cursor{trace.bytes(), segment,
                              sflow::ReadPolicy::strict()};
    std::uint64_t seq_base = 0;
    for (auto batch = cursor.read_record(seq_base); !batch.empty();
         batch = cursor.read_record(seq_base)) {
      sflow::DatagramEnvelope envelope;
      const auto agent = static_cast<std::uint32_t>(
          net::Ipv4Addr{10, 99, 0, 0}.value() +
          replay.records.size() % kAgents);
      envelope.agent = net::Ipv4Addr{agent};
      envelope.offset = cursor.record_offset();
      const auto payload = cursor.record_bytes();
      envelope.payload.assign(payload.begin(), payload.end());
      // The sFlow agent field (payload bytes 4..8), as `replay --agents`.
      envelope.payload[4] = static_cast<std::byte>(agent >> 24);
      envelope.payload[5] = static_cast<std::byte>(agent >> 16);
      envelope.payload[6] = static_cast<std::byte>(agent >> 8);
      envelope.payload[7] = static_cast<std::byte>(agent);
      replay.records.push_back(std::move(envelope));
    }
  }
  return replay;
}

BurstResult serve_burst(const World& world, const Replay& replay,
                        unsigned workers, Tracer& tracer) {
  BurstResult out;
  core::ServeOptions options;
  options.week = kWeek;
  options.threads = workers;
  // Room for the whole week: a burst measures throughput, not shedding.
  options.queue_capacity = replay.records.size() / kAgents + 64;
  core::ServeService service{*world.vantage, world.fetcher(kWeek), options};
  service.start();

  const auto start = Clock::now();
  auto span = tracer.scope("bench.serve_burst", kWeek);
  {
    auto offer = tracer.scope("sflow.offer", kWeek);
    for (const auto& record : replay.records) {
      sflow::DatagramEnvelope copy = record;
      (void)service.offer(std::move(copy));  // a refusal counts as dropped
    }
  }
  std::shared_ptr<const core::ServeSnapshot> final_snapshot;
  {
    auto drain = tracer.scope("core.drain", kWeek);
    final_snapshot = service.drain();
  }
  out.seconds = seconds_since(start);
  out.hash = report_hash(final_snapshot->report);
  out.accounting = final_snapshot->accounting;
  out.violations = accounting_violations(out.accounting);
  return out;
}

ServeTimes run_serve_passes(const World& world, const Replay& replay,
                            std::uint64_t reference, Tracer& tracer,
                            RunRecord& record) {
  const auto verify = [&](const BurstResult& b, unsigned workers) {
    const auto totals = b.accounting.intake.totals();
    const bool ok = b.hash == reference && b.violations == 0 &&
                    totals.dropped == 0 &&
                    totals.received == replay.records.size() &&
                    b.accounting.decode_errors == 0;
    record.check(ok, replay.records.size(),
                 "cumulative serve with " + std::to_string(workers) +
                     " pump workers did not drain to the offline report");
    return b.seconds;
  };
  ServeTimes times;
  times.serial_s = verify(serve_burst(world, replay, 1, tracer), 1);
  times.parallel_s =
      verify(serve_burst(world, replay, kPumpWorkers, tracer), kPumpWorkers);
  std::cout << "serve burst (whole week, cumulative): 1 pump worker "
            << times.serial_s << " s, " << kPumpWorkers << " pump workers "
            << times.parallel_s << " s\n";
  record.set("serve.week_1w_s", times.serial_s, "s");
  record.set("serve.week_2w_s", times.parallel_s, "s");
  OpenLoopResult open = serve_open_loop(world, replay, tracer);
  for (int attempt = 1; attempt < kOpenLoopAttempts &&
                        open.reference.late_max_ms > kMaxLateMs;
       ++attempt) {
    std::cout << "serve open loop attempt " << attempt
              << " invalid: the generator ran " << open.reference.late_max_ms
              << " ms behind its schedule; running it again\n";
    open = serve_open_loop(world, replay, tracer);
  }
  report_open_loop(open, record);
  return times;
}

void run_serve_stream(const RunConfig& config, Tracer& tracer,
                      RunRecord& record) {
  World world = timed_setup(config, tracer, record);
  const TraceFile trace = write_trace(
      world, kWeek, config.work_dir + "/week45.trace", tracer);
  record.check(trace.datagrams > 0, 1, "trace file could not be written");
  if (trace.datagrams == 0) return;
  const Replay replay = load_replay(trace.path);
  record.check(replay.records.size() == trace.datagrams, 1,
               "replay does not cover every trace record");

  // The oracle: the offline streamed analysis of the same trace.
  std::uint64_t reference = 0;
  {
    auto span = tracer.scope("bench.offline_reference", kWeek);
    std::ifstream in{trace.path, std::ios::binary};
    sflow::TraceReader reader{in};
    ingest::ReaderSource source{reader};
    core::ParallelAnalyzer analyzer{*world.vantage, core::ParallelOptions{}};
    const auto report = analyzer.analyze(kWeek, source, world.fetcher(kWeek));
    reference = report_hash(report);
  }

  // One repetition: the 2-worker burst alone takes most of a run.
  const ServeTimes times =
      run_serve_passes(world, replay, reference, tracer, record);
  record.set("week_s", times.serial_s, "s");
  record.set("week_alt_s", times.parallel_s, "s");

  if (config.trace) {
    Tracer off{false};
    const BurstResult untraced = serve_burst(world, replay, 1, off);
    record.set("trace.overhead_s", times.serial_s - untraced.seconds, "s");
    run_layer_pass(config, world, trace, tracer, record);
  }
  std::filesystem::remove(trace.path);
}

}  // namespace weekbench
