#include "sflow/trace_segment.hpp"

namespace ixp::sflow {

bool plausible_record_at(std::span<const std::byte> trace, std::uint64_t at,
                         Datagram& probe) {
  const std::uint64_t size = trace.size();
  if (at + 8 > size) return false;
  const std::byte* const p = trace.data() + at;
  const std::uint32_t length = load_be32(p);
  if (length < kMinDatagramBytes || length > kMaxDatagramBytes) return false;
  if (at + 4 + length > size) return false;
  if (load_be32(p + 4) != Datagram::kVersion) return false;
  return decode_into({p + 4, length}, probe);
}

std::uint64_t scan_for_record(std::span<const std::byte> trace,
                              std::uint64_t from, Datagram& probe) {
  const std::uint64_t size = trace.size();
  for (std::uint64_t candidate = from; candidate + 8 <= size; ++candidate) {
    if (plausible_record_at(trace, candidate, probe)) return candidate;
  }
  return size;
}

std::vector<TraceSegment> TraceSegmenter::split(std::span<const std::byte> trace,
                                                std::size_t want) {
  std::vector<TraceSegment> segments;
  const std::uint64_t size = trace.size();
  if (want == 0 || size <= kTraceHeaderBytes) return segments;

  // Segment 0 always starts right after the header — exactly where the
  // streamed reader starts, plausible record there or not (corruption at
  // the very first record is the walk's problem). Later starts slide
  // forward to a plausible boundary.
  std::vector<std::uint64_t> starts{kTraceHeaderBytes};
  const std::uint64_t body = size - kTraceHeaderBytes;
  Datagram probe;
  for (std::size_t k = 1; k < want; ++k) {
    const std::uint64_t boundary = kTraceHeaderBytes + body * k / want;
    const std::uint64_t start = scan_for_record(trace, boundary, probe);
    if (start >= size) break;  // nothing decodable at or past the boundary
    if (start > starts.back()) starts.push_back(start);
  }
  segments.reserve(starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const std::uint64_t end = i + 1 < starts.size() ? starts[i + 1] : size;
    segments.push_back({starts[i], end});
  }
  return segments;
}

}  // namespace ixp::sflow
