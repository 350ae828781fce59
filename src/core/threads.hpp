// Worker-count resolution shared by every thread pool in core/.
#pragma once

#include <thread>

namespace ixp::core {

/// The worker count a pool actually starts: `requested`, or one per
/// hardware thread when it is 0 (at least one if the count is unknown).
[[nodiscard]] inline unsigned resolve_threads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace ixp::core
