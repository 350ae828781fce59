// Trace recording and replay.
//
// The paper's measurement setup stores the collector's sFlow stream and
// replays it through analysis pipelines. TraceWriter batches FlowSamples
// into length-prefixed sFlow datagrams on any std::ostream; TraceReader
// streams them back. This is what makes the pipeline usable on recorded
// data: generate once, analyze many times — or ingest a real collector
// dump converted to this framing.
//
// File layout: magic "IXPSCOPE" + u32 version, then repeated
// [u32 datagram length][datagram bytes] until EOF.
//
// Real traces get damaged: bits flip on disk, transfers truncate, a
// crashed collector leaves a half-written record. Reading therefore
// carries a failure model (DESIGN.md §8): every corrupt record is
// classified into an error taxonomy (ReaderStats), and — budget
// permitting (ReadPolicy) — the walk resynchronizes by scanning forward
// for the next plausible length-prefixed datagram instead of halting.
// Every byte of the input is accounted for: it is either the 12-byte
// header, part of a delivered record, or counted in `bytes_skipped`.
// TraceCursor is the one implementation of that walk; TraceReader runs
// it over a forward-only window of an istream, the mapped ingest path
// (trace_segment.hpp) over segments of a mapped file.
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <vector>

#include "sflow/datagram.hpp"

namespace ixp::sflow {

inline constexpr char kTraceMagic[8] = {'I', 'X', 'P', 'S', 'C', 'O', 'P', 'E'};
inline constexpr std::uint32_t kTraceVersion = 1;

/// Smallest encodable datagram: five header u32s plus the counter count.
inline constexpr std::uint32_t kMinDatagramBytes = 24;
/// Upper bound on a plausible record; anything larger is a bad length.
/// (The writer's 128-sample batches are ~20 KiB; 1 MiB leaves headroom.)
inline constexpr std::uint32_t kMaxDatagramBytes = 1u << 20;
/// Bytes of trace header: the magic plus the u32 version.
inline constexpr std::uint64_t kTraceHeaderBytes = sizeof kTraceMagic + 4;

/// Stream-position key of sample `index` inside the record whose length
/// prefix starts at byte `offset`. Strictly increasing along the stream
/// (records are ≥ 28 bytes apart and a ≤1 MiB payload holds < 2^16
/// samples), so it totally orders samples the same way a running sample
/// counter would — which is all the analysis pipeline's order statistics
/// consume. Unlike a counter, it is computable for any record in
/// isolation: the property that lets mapped-trace segments be decoded and
/// analyzed in parallel with no sequence handoff between workers.
/// (Offsets stay below 2^48 — 256 TiB per trace file — by construction.)
[[nodiscard]] constexpr std::uint64_t stream_seq_key(std::uint64_t offset,
                                                     std::size_t index) noexcept {
  return (offset << 16) | static_cast<std::uint64_t>(index);
}

/// Buffers samples and writes them as datagrams of up to `batch` samples.
/// Flushes on destruction; call flush() to force a partial batch out.
class TraceWriter {
 public:
  /// Writes the trace header immediately. `agent` identifies the
  /// exporting switch in every datagram.
  TraceWriter(std::ostream& out, net::Ipv4Addr agent, std::size_t batch = 64);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void write(const FlowSample& sample);
  void flush();

  [[nodiscard]] std::uint64_t samples_written() const noexcept {
    return samples_written_;
  }
  [[nodiscard]] std::uint32_t datagrams_written() const noexcept {
    return sequence_;
  }

 private:
  std::ostream* out_;
  net::Ipv4Addr agent_;
  std::size_t batch_;
  Datagram pending_;
  std::uint32_t sequence_ = 0;
  std::uint64_t samples_written_ = 0;
};

/// How a TraceReader responds to corruption. `max_errors` is the number
/// of corrupt records tolerated (each one resynchronized past) before the
/// reader gives up and clears ok(). strict() tolerates none — the first
/// corrupt record halts the read, which is the historical behavior and
/// the default.
struct ReadPolicy {
  std::uint64_t max_errors = 0;

  [[nodiscard]] static constexpr ReadPolicy strict() noexcept { return {0}; }
  [[nodiscard]] static constexpr ReadPolicy lenient(
      std::uint64_t budget =
          std::numeric_limits<std::uint64_t>::max()) noexcept {
    return {budget};
  }
};

/// Error taxonomy and byte accounting for one TraceReader. The invariant
/// (tested by the corruption matrix) is exact accounting once the reader
/// reaches end-of-input:
///   input_size == 12 (header) + bytes_delivered + bytes_skipped
struct ReaderStats {
  // Delivery side.
  std::uint64_t datagrams = 0;        ///< records decoded and delivered
  std::uint64_t samples = 0;          ///< flow samples delivered
  std::uint64_t bytes_delivered = 0;  ///< length prefix + payload of each

  // Error taxonomy.
  std::uint64_t bad_magic = 0;     ///< header magic/version rejected
  std::uint64_t bad_length = 0;    ///< length prefix of 0 or > kMaxDatagramBytes
  std::uint64_t truncated = 0;     ///< EOF inside a length prefix or payload
  std::uint64_t decode_errors = 0; ///< payload failed Datagram decode

  // Recovery.
  std::uint64_t resyncs = 0;        ///< successful scans to a later record
  std::uint64_t bytes_skipped = 0;  ///< every byte not header / delivered

  [[nodiscard]] std::uint64_t errors() const noexcept {
    return bad_magic + bad_length + truncated + decode_errors;
  }
  [[nodiscard]] bool degraded() const noexcept { return errors() > 0; }

  /// Field-wise sum — what rolls per-segment cursor stats up into the
  /// whole-file taxonomy (segments partition the byte accounting).
  ReaderStats& operator+=(const ReaderStats& other) noexcept {
    datagrams += other.datagrams;
    samples += other.samples;
    bytes_delivered += other.bytes_delivered;
    bad_magic += other.bad_magic;
    bad_length += other.bad_length;
    truncated += other.truncated;
    decode_errors += other.decode_errors;
    resyncs += other.resyncs;
    bytes_skipped += other.bytes_skipped;
    return *this;
  }

  friend bool operator==(const ReaderStats&, const ReaderStats&) = default;
};

/// Half-open byte range [begin, end) of one walk over a trace: one
/// worker's slice of a mapped trace, or the whole of a streamed one.
struct TraceSegment {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  [[nodiscard]] std::uint64_t size() const noexcept { return end - begin; }
  friend bool operator==(const TraceSegment&, const TraceSegment&) = default;
};

/// The record walk — the one implementation of the failure model
/// (DESIGN.md §8): refill, resync scan, error budget, byte accounting.
/// It decodes the records of one TraceSegment straight out of a byte
/// span, with zero steady-state allocations: the decoded Datagram and the
/// resync probe are reused across records, and read_record() hands out a
/// span into the cursor's own buffer (valid until the next call).
///
/// Over a mapped trace the span is the whole file. Under a TraceReader
/// the span is a sliding window over an istream that only ever reads
/// forward: before every decision about offset X the window holds at
/// least 4 + kMaxDatagramBytes bytes from X (the most any decision can
/// look at) or everything up to the true end of input, so each decision
/// is the one the same walk makes over the mapped file.
class TraceCursor {
 public:
  TraceCursor(std::span<const std::byte> trace, TraceSegment seg,
              ReadPolicy policy = ReadPolicy::lenient());

  /// Re-targets the cursor at another segment, clearing stats and
  /// position but keeping every internal buffer's capacity.
  void reset(std::span<const std::byte> trace, TraceSegment seg,
             ReadPolicy policy = ReadPolicy::lenient());

  /// True until the error budget is exceeded (or, for a streamed walk,
  /// the trace header is rejected).
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] const ReaderStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const TraceSegment& segment() const noexcept { return seg_; }

  /// Decodes the next record of the segment and returns its flow samples
  /// (a view into the cursor's reused buffer — consume before the next
  /// call). Sets `seq_base` to the stream_seq_key of the first sample.
  /// Empty at the end of the segment or once the budget clears ok().
  std::span<const FlowSample> read_record(std::uint64_t& seq_base);

  /// Absolute trace offset of the last delivered record's length prefix.
  /// Meaningful only after a non-empty read_record().
  [[nodiscard]] std::uint64_t record_offset() const noexcept {
    return current_offset_;
  }

  /// Raw encoded payload of the last delivered record (length prefix
  /// stripped) — what a live agent would have sent as one datagram. The
  /// replayer pairs this with record_offset() to re-send a trace through
  /// the collector service with its original stream keys intact.
  [[nodiscard]] std::span<const std::byte> record_bytes() const noexcept {
    return trace_.subspan(current_offset_ + 4 - base_,
                          pos_ - current_offset_ - 4);
  }

 private:
  friend class TraceReader;

  /// Streamed form, used by TraceReader: validates the trace header at
  /// the current position of `in`, then walks records to end of input.
  TraceCursor() = default;
  void reset(std::istream& in, ReadPolicy policy);

  /// Keeps the window invariant for a decision about offset `at`.
  void ensure(std::uint64_t at) {
    if (in_ != nullptr && at + 4 + kMaxDatagramBytes > end()) slide(at);
  }
  /// Drops the window's bytes before `at` and reads forward until the
  /// window is full or the stream ends.
  void slide(std::uint64_t at);
  /// Absolute offset one past the last byte the walk can see.
  [[nodiscard]] std::uint64_t end() const noexcept {
    return base_ + trace_.size();
  }
  [[nodiscard]] const std::byte* byte_at(std::uint64_t offset) const noexcept {
    return trace_.data() + (offset - base_);
  }

  bool refill();
  bool resync(std::uint64_t bad_record_start);
  [[nodiscard]] bool spend_error();

  std::span<const std::byte> trace_;  ///< bytes [base_, end()) of the trace
  std::uint64_t base_ = 0;            ///< absolute offset of trace_[0]
  TraceSegment seg_{};
  ReadPolicy policy_;
  ReaderStats stats_;
  bool ok_ = false;
  std::uint64_t pos_ = 0;  ///< absolute offset of the next unread byte
  Datagram current_;       ///< decoded record, reused across read_record()
  Datagram probe_;         ///< resync decode probe, reused
  std::uint64_t current_offset_ = 0;  ///< record start of current_
  // Streamed walks only: the stream still feeding the window (null once
  // it has reached end of input) and the window's storage.
  std::istream* in_ = nullptr;
  std::unique_ptr<std::byte[]> window_;
};

/// Streams samples back out of a recorded trace.
///
/// read_record() is the primitive: one record's samples with their
/// offset-derived stream key, which is what the ingest layer feeds the
/// analysis engine with. read_batch(), next() and for_each() are
/// conveniences built on top of it; all four can be interleaved freely.
///
/// The reader is a TraceCursor over a forward-only window of the stream,
/// so corruption is handled exactly as on a mapped trace: under the
/// default strict policy the first corrupt record clears ok() and ends
/// the read; under a lenient policy the walk scans past the damage to the
/// next plausible record and keeps going until the error budget is spent.
/// Nothing is ever sought, so pipes and other non-seekable streams
/// resynchronize like files. stats() tells you exactly what was lost
/// either way.
class TraceReader {
 public:
  /// Batch size used by for_each()'s internal pulls.
  static constexpr std::size_t kDefaultBatch = 256;
  /// Bytes of the stream held in memory at once. The window refills
  /// (moving its unread tail to the front and reading forward) when a
  /// decision would need more lookahead than it holds, so it refills
  /// about every kWindowBytes - 4 - kMaxDatagramBytes bytes and at most
  /// one maximal record is moved each time.
  static constexpr std::size_t kWindowBytes =
      4 * std::size_t{kMaxDatagramBytes};

  /// Validates the header; `ok()` is false on a bad magic/version.
  explicit TraceReader(std::istream& in,
                       ReadPolicy policy = ReadPolicy::strict());

  /// Re-targets the reader at `in` (which the caller has positioned at the
  /// start of a trace), clearing stats and position but keeping every
  /// internal buffer's capacity. A replay loop that seeks one stream back
  /// to 0 and reset()s runs allocation-free after the first pass.
  void reset(std::istream& in, ReadPolicy policy = ReadPolicy::strict());

  /// True until the header is rejected or the error budget is exceeded.
  /// A lenient reader that resynchronized past damage stays ok(); check
  /// stats().degraded() to see whether anything was lost.
  [[nodiscard]] bool ok() const noexcept { return walk_.ok(); }

  [[nodiscard]] const ReaderStats& stats() const noexcept {
    return walk_.stats();
  }
  [[nodiscard]] const ReadPolicy& policy() const noexcept {
    return walk_.policy_;
  }

  /// Clears `out` and refills it with up to `max` samples in stream
  /// order; returns the number delivered (0 at end-of-trace or once the
  /// error budget clears ok()).
  std::size_t read_batch(std::vector<FlowSample>& out, std::size_t max);

  /// The (remaining) samples of exactly one delivered record — a view
  /// valid until the next read — with `seq_base` set to the
  /// stream_seq_key of the first one. Empty at end-of-trace.
  /// Record-granular batches carry position-derived keys, which is what
  /// keeps a streamed analysis byte-identical to a mapped-parallel one
  /// over the same trace.
  std::span<const FlowSample> read_record(std::uint64_t& seq_base);

  /// Invokes `sink` for every sample in order; returns the number of
  /// samples delivered.
  std::uint64_t for_each(const std::function<void(const FlowSample&)>& sink);

  /// Pulls the next sample, or nullopt at end-of-trace / on failure.
  [[nodiscard]] std::optional<FlowSample> next();

 private:
  /// Moves on to the next record once the current one is drained.
  bool advance();

  TraceCursor walk_;
  std::span<const FlowSample> record_;  ///< current record's samples
  std::size_t next_ = 0;                ///< next undelivered sample in record_
  std::uint64_t record_key_ = 0;        ///< stream key of record_[0]
};

}  // namespace ixp::sflow
