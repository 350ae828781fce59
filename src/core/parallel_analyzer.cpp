#include "core/parallel_analyzer.hpp"

#include <atomic>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "util/threads.hpp"

namespace ixp::core {

namespace {

/// Stamps the failure-containment outcome onto a finished report.
/// worker_errors is attached only when batches were actually dropped, so
/// a clean run's report stays byte-identical across thread counts.
WeeklyReport finish_flagged(WeekSession& session,
                            const classify::ChainFetcher& fetch,
                            std::vector<std::uint64_t>&& worker_errors) {
  WeeklyReport report = session.finish(fetch);
  const std::uint64_t dropped = std::accumulate(
      worker_errors.begin(), worker_errors.end(), std::uint64_t{0});
  if (dropped > 0) {
    report.degraded = true;
    report.worker_errors = std::move(worker_errors);
  }
  return report;
}

}  // namespace

ParallelAnalyzer::ParallelAnalyzer(VantagePoint& vantage,
                                   ParallelOptions options)
    : vantage_(&vantage),
      options_(std::move(options)),
      threads_(util::resolve_threads(options_.threads)) {}

WeeklyReport ParallelAnalyzer::analyze(int week, ingest::IngestSource& source,
                                       const classify::ChainFetcher& fetch) {
  WeekSession session = vantage_->open_week(week);
  std::vector<std::uint64_t> errors;
  WeekShard shard = reduce(session, source, &errors);
  session.absorb(std::move(shard));
  return finish_flagged(session, fetch, std::move(errors));
}

WeekShard ParallelAnalyzer::reduce(WeekSession& session,
                                   ingest::IngestSource& source,
                                   std::vector<std::uint64_t>* worker_errors) {
  const bool lenient = options_.lenient_workers;
  const auto& hook = options_.worker_hook;

  // Ask the source for a parallel plan. 2× over-partitioning keeps
  // workers busy when part costs are uneven (resync scans in corrupted
  // segments); exactly one part when single-threaded makes the walk
  // literally the serial one.
  const std::size_t want = threads_ <= 1 ? 1 : std::size_t{threads_} * 2;
  const std::vector<std::unique_ptr<ingest::IngestSource>> parts =
      source.split(want);

  std::vector<WeekShard> shards;
  shards.reserve(threads_);
  for (unsigned t = 0; t < threads_; ++t) shards.push_back(session.make_shard());
  std::vector<std::uint64_t> errors(threads_, 0);
  std::atomic<std::size_t> next_part{0};
  std::atomic<bool> aborted{false};
  std::mutex serial_mutex;

  // The one worker body. A batch that fails in the hook or the classifier
  // is dropped (lenient) or ends the week (strict); a failed pull always
  // ends it. Either way the worker raises `aborted` so the others stop at
  // their next batch boundary, and run_workers rethrows on this thread
  // once every worker has joined.
  util::run_workers(threads_, [&](unsigned t) {
    WeekShard& shard = shards[t];
    ingest::IngestSource* part = nullptr;
    std::vector<sflow::FlowSample> copy;
    ingest::SampleBatch batch;

    // Next batch for this worker: from the part it is draining, claiming
    // the next part when that one runs dry; or, for a serial source, from
    // the source itself under the lock — copied into the worker's own
    // buffer when other workers share the source, since the view dies on
    // their next pull.
    const auto pull = [&] {
      if (parts.empty()) {
        std::lock_guard lock{serial_mutex};
        if (source.next_batch(batch) != ingest::SourceStatus::kBatch)
          return false;
        if (threads_ > 1) {
          copy.assign(batch.samples.begin(), batch.samples.end());
          batch.samples = copy;
        }
        return true;
      }
      while (true) {
        if (part == nullptr) {
          const std::size_t p = next_part.fetch_add(1);
          if (p >= parts.size()) return false;
          part = parts[p].get();
        }
        if (part->next_batch(batch) == ingest::SourceStatus::kBatch)
          return true;
        part = nullptr;
      }
    };

    try {
      while (!aborted.load(std::memory_order_relaxed) && pull()) {
        try {
          if (hook) hook(batch.samples, batch.first_seq);
          shard.observe_batch(batch.samples, batch.first_seq);
        } catch (...) {
          ++errors[t];
          if (!lenient) throw;
        }
      }
    } catch (...) {
      aborted.store(true, std::memory_order_relaxed);
      throw;
    }
  });

  // Ordered reduce: shard 0, then 1, ... Merge is commutative anyway,
  // but a fixed order keeps the reduce itself schedule-independent.
  for (std::size_t t = 1; t < shards.size(); ++t)
    shards[0].merge(std::move(shards[t]));
  if (worker_errors != nullptr) *worker_errors = std::move(errors);
  return std::move(shards[0]);
}

}  // namespace ixp::core
