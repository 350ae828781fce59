// Runtime CPU-feature detection and the SIMD dispatch policy.
//
// The vectorized hot paths (classify::HttpMatcher token matching, the
// sflow lane decoder) each ship several implementations: a portable
// SWAR/scalar fallback, an SSE2 form, and an AVX2 form. Which one runs
// is decided once per process from CPUID — never per call site — and
// every caller routes through SimdLevel so a bench run, a test run, and
// production all agree on what executed (the bench JSON stamps it).
// The snapshot store's CRC-32C (store/crc32c.hpp) has a single hardware
// tier: it runs the SSE4.2 `crc32` form when detect().sse42 holds and
// active() is above kScalar.
//
// Two kill switches force the fallback paths:
//   - compile time: -DIXPSCOPE_DISABLE_SIMD=ON (the CI no-SIMD job)
//     pins active() to kScalar, so sanitizer runs cover the SWAR code;
//   - run time: the IXPSCOPE_SIMD environment variable ("scalar",
//     "sse2", "avx2") clamps the detected level downward — differential
//     tests and A/B profiling use it without a rebuild. It can never
//     raise the level above what CPUID reports.
#pragma once

#include <cstdint>
#include <string_view>

namespace ixp::util {

/// Instruction-set tiers the dispatched kernels are written against,
/// ordered: a level implies every level below it.
enum class SimdLevel : std::uint8_t {
  kScalar = 0,  ///< portable SWAR only — no vector instructions
  kSse2 = 1,    ///< 16-byte integer vectors (x86-64 baseline)
  kAvx2 = 2,    ///< 32-byte integer vectors
};

struct CpuFeatures {
  bool sse2 = false;
  bool sse42 = false;
  bool avx2 = false;

  /// What the hardware supports (CPUID; cached after the first call).
  [[nodiscard]] static const CpuFeatures& detect() noexcept;

  /// The level the dispatched kernels actually run at: hardware support,
  /// clamped by IXPSCOPE_DISABLE_SIMD and the IXPSCOPE_SIMD environment
  /// variable. Cached after the first call; safe from any thread.
  [[nodiscard]] static SimdLevel active() noexcept;

  [[nodiscard]] static std::string_view name(SimdLevel level) noexcept;

  /// Comma-joined hardware flag list ("sse2,sse4.2,avx2" or "none") —
  /// the string the bench harness stamps into ixpscope-bench-v1 JSON so
  /// bench_diff can refuse to gate unlike hardware against each other.
  [[nodiscard]] static std::string_view flags_string() noexcept;
};

}  // namespace ixp::util
