// Ingest A/B: streamed-serial trace replay vs mapped-parallel segment
// decode, the bottleneck ISSUE 4 kills. One binary emits the whole
// comparison as an ixpscope-bench-v1 JSON trajectory:
//
//   build/bench/micro_ingest --json BENCH_ingest.json
//
// Cases:
//   streamed_legacy_alloc  pre-optimization replica: fresh payload vector
//                          + allocating decode() per datagram (the shape
//                          of the reader before the scratch-buffer rework)
//   streamed_serial        the production TraceReader (the record walk
//                          over a forward-only window of an istream,
//                          read_batch) — serial by nature
//   mapped_serial          one TraceCursor walking the whole mapped body;
//                          steady-state expectation: 0 allocs/sample
//   mapped_parallel_N      TraceSegmenter splits the span 2N ways and N
//                          threads claim and decode segments concurrently
//
// The parallel cases report wall-clock samples/sec, so on a single-core
// machine they collapse to mapped_serial plus thread overhead — the
// scaling claim needs real cores, the per-core decode advantage and the
// zero-allocation claim do not.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "sflow/datagram.hpp"
#include "sflow/mapped_trace.hpp"
#include "sflow/trace.hpp"
#include "sflow/trace_segment.hpp"
#include "util/rng.hpp"

namespace {

using namespace ixp;

constexpr std::size_t kPoolSamples = 65536;

/// One week's worth of shape without the generator: random capture sizes
/// across the real 60..128 range so decode cost matches production.
std::string build_trace() {
  util::Rng rng{0x16e5700d};
  std::ostringstream raw;
  sflow::TraceWriter writer{raw, net::Ipv4Addr{172, 16, 0, 1}, 128};
  sflow::FlowSample sample;
  for (std::size_t i = 0; i < kPoolSamples; ++i) {
    sample.sequence = static_cast<std::uint32_t>(i);
    sample.source_port = static_cast<std::uint32_t>(rng.next_below(512));
    sample.sampling_rate = 16384;
    sample.frame.frame_length = static_cast<std::uint16_t>(600);
    sample.frame.captured =
        static_cast<std::uint16_t>(60 + rng.next_below(69));  // 60..128
    for (std::size_t b = 0; b < sample.frame.captured; ++b)
      sample.frame.data[b] = static_cast<std::byte>(rng.next_below(256));
    writer.write(sample);
  }
  writer.flush();
  return raw.str();
}

/// Pre-optimization streamed reader replica: the byte-for-byte record
/// walk TraceReader used before the scratch-buffer rework — a fresh
/// payload vector and an allocating decode() per datagram, samples
/// handed out one optional at a time. Kept as the fixed A/B baseline so
/// the numbers measure the ingest rework, not a strawman.
std::uint64_t legacy_replay(const std::string& trace) {
  std::istringstream in{trace, std::ios::binary};
  char header[12];
  in.read(header, sizeof header);
  std::uint64_t delivered = 0;
  while (true) {
    char len_bytes[4];
    if (!in.read(len_bytes, sizeof len_bytes)) break;
    const std::uint32_t length =
        (static_cast<std::uint32_t>(static_cast<unsigned char>(len_bytes[0]))
         << 24) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(len_bytes[1]))
         << 16) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(len_bytes[2]))
         << 8) |
        static_cast<std::uint32_t>(static_cast<unsigned char>(len_bytes[3]));
    std::vector<std::byte> payload(length);
    if (!in.read(reinterpret_cast<char*>(payload.data()),
                 static_cast<std::streamsize>(length)))
      break;
    const auto datagram = sflow::decode(payload);
    if (!datagram) break;
    for (const auto& sample : datagram->samples) {
      bench::keep(sample.sampling_rate);
      ++delivered;
    }
  }
  return delivered;
}

std::uint64_t mapped_parallel_pass(const sflow::MappedTrace& trace,
                                   unsigned threads) {
  const auto segments =
      sflow::TraceSegmenter::split(trace.bytes(), std::size_t{threads} * 2);
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      std::uint64_t delivered = 0;
      sflow::TraceCursor cursor{trace.bytes(), {}};
      for (std::size_t s = next.fetch_add(1); s < segments.size();
           s = next.fetch_add(1)) {
        cursor.reset(trace.bytes(), segments[s]);
        std::uint64_t seq_base = 0;
        for (auto batch = cursor.read_record(seq_base); !batch.empty();
             batch = cursor.read_record(seq_base)) {
          for (const auto& sample : batch) bench::keep(sample.sampling_rate);
          delivered += batch.size();
        }
      }
      total.fetch_add(delivered);
    });
  }
  for (auto& worker : workers) worker.join();
  return total.load();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::Suite suite{"ingest", args};

  const std::string trace = build_trace();

  // The mapped cases run against a real mmap when the filesystem allows
  // it (a temp file round-trip), falling back to the adopted in-memory
  // image — the decode path is identical either way.
  sflow::MappedTrace mapped;
  const auto tmp =
      std::filesystem::temp_directory_path() / "ixpscope_micro_ingest.trace";
  {
    std::ofstream out{tmp, std::ios::binary};
    if (out) {
      out.write(trace.data(), static_cast<std::streamsize>(trace.size()));
    }
  }
  mapped = sflow::MappedTrace::open(tmp.string());
  if (!mapped.ok()) {
    std::vector<std::byte> bytes(trace.size());
    std::memcpy(bytes.data(), trace.data(), bytes.size());
    mapped = sflow::MappedTrace::adopt(std::move(bytes));
  }

  suite.run_case("streamed_legacy_alloc", 30, [&](std::uint64_t iters, int) {
    std::uint64_t delivered = 0;
    for (std::uint64_t it = 0; it < iters; ++it)
      delivered += legacy_replay(trace);
    return delivered;
  });

  {
    std::istringstream in{trace, std::ios::binary};
    sflow::TraceReader reader{in};
    std::vector<sflow::FlowSample> batch;
    suite.run_case("streamed_serial", 30, [&](std::uint64_t iters, int) {
      std::uint64_t delivered = 0;
      for (std::uint64_t it = 0; it < iters; ++it) {
        in.clear();
        in.seekg(0);
        reader.reset(in);
        std::size_t n;
        while ((n = reader.read_batch(batch, 512)) > 0) {
          for (const auto& sample : batch) bench::keep(sample.sampling_rate);
          delivered += n;
        }
      }
      return delivered;
    });
  }

  {
    sflow::TraceCursor cursor{mapped.bytes(), {}};
    const sflow::TraceSegment whole{sflow::kTraceHeaderBytes, mapped.size()};
    suite.run_case("mapped_serial", 30, [&](std::uint64_t iters, int) {
      std::uint64_t delivered = 0;
      for (std::uint64_t it = 0; it < iters; ++it) {
        cursor.reset(mapped.bytes(), whole);
        std::uint64_t seq_base = 0;
        for (auto batch = cursor.read_record(seq_base); !batch.empty();
             batch = cursor.read_record(seq_base)) {
          for (const auto& sample : batch) bench::keep(sample.sampling_rate);
          delivered += batch.size();
        }
      }
      return delivered;
    });
  }

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    suite.run_case("mapped_parallel_" + std::to_string(threads), 30,
                   [&](std::uint64_t iters, int) {
                     std::uint64_t delivered = 0;
                     for (std::uint64_t it = 0; it < iters; ++it)
                       delivered += mapped_parallel_pass(mapped, threads);
                     return delivered;
                   });
  }

  std::error_code ec;
  std::filesystem::remove(tmp, ec);

  const auto& results = suite.results();
  const double streamed = results[1].items_per_sec();
  const double mapped_serial = results[2].items_per_sec();
  const double mapped_par8 = results.back().items_per_sec();
  if (streamed > 0.0) {
    std::printf(
        "mapped_serial vs streamed_serial: %.2fx  "
        "(mapped allocs/item: %.4f)\n",
        mapped_serial / streamed, results[2].allocs_per_item());
    std::printf(
        "mapped_parallel_8 vs streamed_serial: %.2fx  "
        "(hardware threads available: %u)\n",
        mapped_par8 / streamed, std::thread::hardware_concurrency());
  }
  return 0;
}
