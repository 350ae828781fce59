// Little-endian wire primitives for the snapshot codec.
//
// Every multi-byte value in a snapshot file is little-endian regardless
// of host byte order, doubles travel as their IEEE-754 bit patterns, and
// strings are u32-length-prefixed — a fixed, portable byte layout is what
// makes "byte-identical round trip" a testable property rather than an
// accident of the compiler. The Reader never reads past its span: any
// underrun latches ok() false and every subsequent read returns zero, so
// codec decoders can run a straight-line field list and check ok() once
// at the end (truncated or trailing bytes both fail).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

namespace ixp::store::wire {

class Writer {
 public:
  /// Pre-sizes the buffer. Encoders that can total their output up front
  /// (the snapshot image can, exactly) write with zero reallocation.
  void reserve(std::size_t n) { out_.reserve(n); }

  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    bytes(std::as_bytes(std::span<const char>{v.data(), v.size()}));
  }
  void bytes(std::span<const std::byte> v) {
    out_.insert(out_.end(), v.begin(), v.end());
  }

  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(out_); }

 private:
  std::vector<std::byte> out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() { return load<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t u16() { return load<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return load<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return load<std::uint64_t>(); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  /// A u32-length-prefixed string as a view into the span: no copy, valid
  /// as long as the bytes the Reader was built over.
  [[nodiscard]] std::string_view view() {
    const std::uint32_t n = u32();
    if (!need(n)) return {};
    const std::string_view out{
        reinterpret_cast<const char*>(bytes_.data() + at_), n};
    at_ += n;
    return out;
  }

  /// True while every read so far stayed inside the span.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// True when the whole span was consumed (trailing garbage is damage).
  [[nodiscard]] bool at_end() const noexcept {
    return ok_ && at_ == bytes_.size();
  }
  /// A count field turned into a safe reserve hint: no more entries than
  /// the unread bytes could hold at `min_entry_bytes` each. A count is
  /// untrusted input (the CRC is no MAC), so it must never size an
  /// allocation on its own; the decode loop still runs to `count` and
  /// fails on the underrun.
  [[nodiscard]] std::size_t reserve_hint(std::uint32_t count,
                                         std::size_t min_entry_bytes) const
      noexcept {
    const std::size_t unread = ok_ ? bytes_.size() - at_ : 0;
    return std::min<std::size_t>(count, unread / min_entry_bytes);
  }

 private:
  template <typename T>
  [[nodiscard]] T load() {
    if (!need(sizeof(T))) return 0;
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, bytes_.data() + at_, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(std::to_integer<T>(bytes_[at_ + i]) << (8 * i));
    }
    at_ += sizeof(T);
    return v;
  }

  [[nodiscard]] bool need(std::size_t n) {
    if (!ok_ || bytes_.size() - at_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::byte> bytes_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

}  // namespace ixp::store::wire
