// CRC-32C (Castagnoli) — the per-section checksum of the snapshot store.
//
// The snapshot format (snapshot_store.hpp) seals every section payload
// with a CRC so a single flipped bit anywhere in the file is caught at
// open time, before any decoding runs. CRC-32C is the iSCSI/ext4
// polynomial (0x1EDC6F41, reflected 0x82F63B78): better error-detection
// spectrum than CRC-32/zlib at the same cost, and the value every
// storage-layer tool agrees on.
//
// Two tiers compute it, chosen once per process (DESIGN.md §14): the
// SSE4.2 `crc32` instruction over 8-byte words, and a portable
// slicing-by-four table walk. The hardware tier runs when CPUID reports
// SSE4.2 and util::CpuFeatures::active() is not kScalar, so
// IXPSCOPE_DISABLE_SIMD and IXPSCOPE_SIMD=scalar pin the table walk.
// Both tiers return identical values for every input — determinism is
// part of the format contract — and the differential suite
// (tests/store/snapshot_store_test.cpp, Crc32cDifferential) holds the
// hardware tier to the table walk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ixp::store {

/// CRC-32C over `data`, continuing from `crc` (pass the previous return
/// value to checksum a buffer in pieces; 0 starts a fresh checksum).
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data,
                                   std::uint32_t crc = 0) noexcept;

namespace detail {

/// The tiers behind crc32c, exposed so the differential suite and
/// micro_store can pin each one directly. crc32c_table is the portable
/// oracle. crc32c_sse42 lives in its own TU, compiled with -msse4.2; on
/// builds without it (non-x86, or a compiler without the flag) it
/// degrades to the table walk so the symbol always links. Callers of the
/// SSE4.2 form must still gate on util::CpuFeatures::detect().sse42.
[[nodiscard]] std::uint32_t crc32c_table(std::span<const std::byte> data,
                                         std::uint32_t crc) noexcept;

[[nodiscard]] std::uint32_t crc32c_sse42(std::span<const std::byte> data,
                                         std::uint32_t crc) noexcept;

}  // namespace detail

}  // namespace ixp::store
