// Parallel segmentation of a mapped trace.
//
// A MappedTrace is one flat span of bytes; to decode it on N threads the
// span has to be cut into byte ranges that each start exactly on a record
// boundary. TraceSegmenter does that: it picks N evenly spaced raw
// offsets and slides each one forward to the first *plausible* record
// start — the same plausibility test the record walk's resync scan
// applies (length prefix in bounds, payload fits, sFlow version word,
// full clean decode). One TraceCursor (trace.hpp) per segment then runs
// the same code a streamed TraceReader runs, so that:
//
//   * per-segment ReaderStats sum exactly to the whole-file streamed
//     taxonomy (every byte is header, delivered, or skipped — in exactly
//     one segment), and
//   * the set of delivered records is identical to a streamed lenient
//     read, which is what keeps an N-thread mapped analysis byte-
//     identical to the 1-thread streamed report.
//
// The boundary argument: a segment start chosen by the scanner is a
// plausible record offset, so the global walk — which only ever stops at
// record starts or resync landings, and whose resync scan applies the
// *same* plausibility test — visits it too. Each cursor therefore
// retraces exactly the slice of the global walk between its segment's
// endpoints: a cursor stops when its position reaches the segment end,
// and a resync that scans up to the boundary lands on it (the boundary
// is plausible by construction) instead of crossing into the next
// worker's bytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sflow/trace.hpp"

namespace ixp::sflow {

/// True when a plausible length-prefixed record starts at byte `at` of
/// `trace`: length prefix in [kMinDatagramBytes, kMaxDatagramBytes], the
/// payload fits in the remaining bytes, starts with the sFlow version
/// word, and decodes cleanly into `probe` (reused across calls to keep
/// the scan allocation-free). The record walk's resync test.
[[nodiscard]] bool plausible_record_at(std::span<const std::byte> trace,
                                       std::uint64_t at, Datagram& probe);

/// First offset >= `from` where a plausible record starts, or
/// trace.size() when none exists.
[[nodiscard]] std::uint64_t scan_for_record(std::span<const std::byte> trace,
                                            std::uint64_t from,
                                            Datagram& probe);

/// Splits a trace image (header included) into up to `want` contiguous
/// segments that cover [kTraceHeaderBytes, size) exactly: the first
/// segment starts right after the header, every later segment starts on
/// a plausible record boundary, and each segment's end is the next
/// segment's begin (the last ends at the trace size). Fewer than `want`
/// segments come back when the trace is too small to cut that many ways.
class TraceSegmenter {
 public:
  [[nodiscard]] static std::vector<TraceSegment> split(
      std::span<const std::byte> trace, std::size_t want);
};

}  // namespace ixp::sflow
