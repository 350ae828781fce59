// The SSE4.2 CRC-32C tier. This TU is compiled with -msse4.2 (see
// src/store/CMakeLists.txt) so the `crc32` instruction inlines; crc32c
// only routes here after util::CpuFeatures reported SSE4.2. The
// instruction computes exactly the reflected Castagnoli CRC the table
// walk does, so the two tiers agree bit for bit. If the toolchain builds
// this file without SSE4.2 on x86-64 (non-x86, or a compiler without
// -msse4.2), crc32c_sse42 degrades to the table walk so the symbol
// always links.
#include "store/crc32c.hpp"

#if defined(__SSE4_2__) && defined(__x86_64__)

#include <nmmintrin.h>

#include <cstring>

namespace ixp::store::detail {

std::uint32_t crc32c_sse42(std::span<const std::byte> data,
                           std::uint32_t crc) noexcept {
  const std::byte* p = data.data();
  std::size_t n = data.size();
  // One dependent chain of 8-byte steps: the instruction's latency bounds
  // it near 2.7 bytes/cycle, ~6x the table walk.
  std::uint64_t state = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);  // x86 is little-endian
    state = _mm_crc32_u64(state, word);
  }
  auto tail = static_cast<std::uint32_t>(state);
  for (; n > 0; ++p, --n)
    tail = _mm_crc32_u8(tail, std::to_integer<std::uint8_t>(*p));
  return ~tail;
}

}  // namespace ixp::store::detail

#else  // !(__SSE4_2__ && __x86_64__)

namespace ixp::store::detail {

std::uint32_t crc32c_sse42(std::span<const std::byte> data,
                           std::uint32_t crc) noexcept {
  return crc32c_table(data, crc);
}

}  // namespace ixp::store::detail

#endif
