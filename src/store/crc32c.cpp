#include "store/crc32c.hpp"

#include <array>

#include "util/cpu_features.hpp"

namespace ixp::store {

namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u;  // 0x1EDC6F41 reflected

/// Four slicing tables: table[0] is the classic byte-at-a-time table,
/// table[k][b] extends a CRC whose low byte is b across k+1 zero bytes.
constexpr std::array<std::array<std::uint32_t, 256>, 4> build_tables() {
  std::array<std::array<std::uint32_t, 256>, 4> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    tables[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tables[0][i];
    for (std::size_t t = 1; t < 4; ++t) {
      crc = tables[0][crc & 0xffu] ^ (crc >> 8);
      tables[t][i] = crc;
    }
  }
  return tables;
}

constexpr auto kTables = build_tables();

using Kernel = std::uint32_t (*)(std::span<const std::byte>,
                                 std::uint32_t) noexcept;

Kernel choose_kernel() noexcept {
  if (util::CpuFeatures::detect().sse42 &&
      util::CpuFeatures::active() != util::SimdLevel::kScalar)
    return detail::crc32c_sse42;
  return detail::crc32c_table;
}

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> data,
                     std::uint32_t crc) noexcept {
  static const Kernel kernel = choose_kernel();
  return kernel(data, crc);
}

namespace detail {

std::uint32_t crc32c_table(std::span<const std::byte> data,
                           std::uint32_t crc) noexcept {
  crc = ~crc;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  while (n >= 4) {
    crc ^= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[0])) |
           (static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[1]))
            << 8) |
           (static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[2]))
            << 16) |
           (static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[3]))
            << 24);
    crc = kTables[3][crc & 0xffu] ^ kTables[2][(crc >> 8) & 0xffu] ^
          kTables[1][(crc >> 16) & 0xffu] ^ kTables[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = kTables[0][(crc ^ std::to_integer<std::uint8_t>(*p++)) & 0xffu] ^
          (crc >> 8);
  }
  return ~crc;
}

}  // namespace detail

}  // namespace ixp::store
