#include "sflow/trace.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "sflow/trace_segment.hpp"

namespace ixp::sflow {

namespace {

void put_u32(std::ostream& out, std::uint32_t v) {
  const std::array<char, 4> bytes{
      static_cast<char>(v >> 24), static_cast<char>((v >> 16) & 0xff),
      static_cast<char>((v >> 8) & 0xff), static_cast<char>(v & 0xff)};
  out.write(bytes.data(), bytes.size());
}

}  // namespace

TraceWriter::TraceWriter(std::ostream& out, net::Ipv4Addr agent,
                         std::size_t batch)
    : out_(&out), agent_(agent), batch_(batch == 0 ? 1 : batch) {
  out_->write(kTraceMagic, sizeof kTraceMagic);
  put_u32(*out_, kTraceVersion);
  pending_.agent = agent_;
}

TraceWriter::~TraceWriter() { flush(); }

void TraceWriter::write(const FlowSample& sample) {
  pending_.samples.push_back(sample);
  ++samples_written_;
  if (pending_.samples.size() >= batch_) flush();
}

void TraceWriter::flush() {
  if (pending_.samples.empty()) return;
  pending_.sequence = sequence_++;
  pending_.uptime_ms = sequence_ * 1000;
  const std::vector<std::byte> bytes = encode(pending_);
  put_u32(*out_, static_cast<std::uint32_t>(bytes.size()));
  out_->write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  pending_.samples.clear();
}

TraceCursor::TraceCursor(std::span<const std::byte> trace, TraceSegment seg,
                         ReadPolicy policy) {
  reset(trace, seg, policy);
}

void TraceCursor::reset(std::span<const std::byte> trace, TraceSegment seg,
                        ReadPolicy policy) {
  trace_ = trace;
  base_ = 0;
  in_ = nullptr;
  seg_ = seg;
  policy_ = policy;
  stats_ = ReaderStats{};
  ok_ = true;
  pos_ = seg.begin;
  current_.samples.clear();
  current_.counters.clear();
  current_offset_ = seg.begin;
}

void TraceCursor::reset(std::istream& in, ReadPolicy policy) {
  // The segment stays open-ended until the window meets end of input.
  reset({}, {0, std::numeric_limits<std::uint64_t>::max()}, policy);
  ok_ = false;
  in_ = &in;
  ensure(0);
  if (end() < kTraceHeaderBytes ||
      std::memcmp(trace_.data(), kTraceMagic, sizeof kTraceMagic) != 0 ||
      load_be32(trace_.data() + sizeof kTraceMagic) != kTraceVersion) {
    ++stats_.bad_magic;
    return;
  }
  ok_ = true;
  pos_ = seg_.begin = current_offset_ = kTraceHeaderBytes;
}

void TraceCursor::slide(std::uint64_t at) {
  if (!window_) window_.reset(new std::byte[TraceReader::kWindowBytes]);
  const auto keep = static_cast<std::size_t>(end() - at);
  if (at != base_)
    std::memmove(window_.get(), trace_.data() + (at - base_), keep);
  in_->read(reinterpret_cast<char*>(window_.get() + keep),
            static_cast<std::streamsize>(TraceReader::kWindowBytes - keep));
  const std::size_t filled = keep + static_cast<std::size_t>(in_->gcount());
  base_ = at;
  trace_ = {window_.get(), filled};
  if (filled < TraceReader::kWindowBytes) {
    // The stream ended: the window now holds all the input there is.
    in_ = nullptr;
    seg_.end = std::min(seg_.end, end());
  }
}

bool TraceCursor::spend_error() {
  if (stats_.errors() > policy_.max_errors) {
    ok_ = false;
    return false;
  }
  return true;
}

// Scans forward from the byte after `bad_record_start` for the next
// offset where a plausible record begins (plausible_record_at). On
// success the skipped gap is charged and the cursor is repositioned at
// the plausible record; when fewer than 8 bytes remain anywhere ahead,
// everything from the bad record to the end of the trace is skipped
// without counting a resync. For a non-final segment the scan can never
// cross seg_.end: the segment end is itself a plausible record start
// (the segmenter chose it with this very test), so the scan lands there
// at the latest and the refill loop then ends the segment cleanly.
bool TraceCursor::resync(std::uint64_t bad_record_start) {
  for (std::uint64_t candidate = bad_record_start + 1;; ++candidate) {
    ensure(candidate);
    if (candidate + 8 > end()) break;
    if (plausible_record_at(trace_, candidate - base_, probe_)) {
      stats_.bytes_skipped += candidate - bad_record_start;
      ++stats_.resyncs;
      pos_ = candidate;
      return true;
    }
  }
  stats_.bytes_skipped += end() - bad_record_start;
  pos_ = end();
  return false;
}

bool TraceCursor::refill() {
  while (ok_) {
    ensure(pos_);
    if (pos_ >= seg_.end) return false;  // clean end of segment
    const std::uint64_t record_start = pos_;
    const std::uint64_t size = end();

    if (size - record_start < 4) {
      pos_ = size;
      ++stats_.truncated;  // end of trace inside the length prefix
    } else {
      const std::uint32_t length = load_be32(byte_at(record_start));
      if (length < kMinDatagramBytes || length > kMaxDatagramBytes) {
        pos_ = record_start + 4;
        ++stats_.bad_length;
      } else if (size - record_start - 4 < length) {
        pos_ = size;
        ++stats_.truncated;  // end of trace inside the payload
      } else if (decode_into({byte_at(record_start) + 4, length}, current_)) {
        pos_ = record_start + 4 + length;
        current_offset_ = record_start;
        ++stats_.datagrams;
        stats_.samples += current_.samples.size();
        stats_.bytes_delivered += 4 + length;
        if (current_.samples.empty()) continue;  // valid, nothing to deliver
        return true;
      } else {
        pos_ = record_start + 4 + length;
        ++stats_.decode_errors;
      }
    }

    // A corrupt record starts at record_start. Give up if the budget is
    // spent (strict mode: immediately), otherwise scan past the damage.
    if (!spend_error()) return false;
    if (!resync(record_start)) return false;  // scanned to end of input
  }
  return false;
}

std::span<const FlowSample> TraceCursor::read_record(std::uint64_t& seq_base) {
  if (!refill()) return {};
  seq_base = stream_seq_key(current_offset_, 0);
  return current_.samples;
}

TraceReader::TraceReader(std::istream& in, ReadPolicy policy) {
  reset(in, policy);
}

void TraceReader::reset(std::istream& in, ReadPolicy policy) {
  walk_.reset(in, policy);
  record_ = {};
  next_ = 0;
  record_key_ = 0;
}

bool TraceReader::advance() {
  record_ = walk_.read_record(record_key_);
  next_ = 0;
  return !record_.empty();
}

std::size_t TraceReader::read_batch(std::vector<FlowSample>& out,
                                    std::size_t max) {
  out.clear();
  while (out.size() < max) {
    if (next_ >= record_.size() && !advance()) break;
    const std::size_t n = std::min(max - out.size(), record_.size() - next_);
    const auto first = record_.begin() + static_cast<std::ptrdiff_t>(next_);
    out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(n));
    next_ += n;
  }
  return out.size();
}

std::span<const FlowSample> TraceReader::read_record(std::uint64_t& seq_base) {
  if (next_ >= record_.size() && !advance()) return {};
  seq_base = record_key_ + next_;  // stream_seq_key(offset, next_)
  const auto rest = record_.subspan(next_);
  next_ = record_.size();
  return rest;
}

std::optional<FlowSample> TraceReader::next() {
  if (next_ >= record_.size() && !advance()) return std::nullopt;
  return record_[next_++];
}

std::uint64_t TraceReader::for_each(
    const std::function<void(const FlowSample&)>& sink) {
  std::uint64_t delivered = 0;
  while (next_ < record_.size() || advance()) {
    for (; next_ < record_.size(); ++next_) {
      sink(record_[next_]);
      ++delivered;
    }
  }
  return delivered;
}

}  // namespace ixp::sflow
