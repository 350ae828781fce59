// Worker-count resolution and the one fork-join helper.
//
// Every short-lived pool in the library (the analyzer's reduce, the
// metadata pass) is the same shape: N copies of one body, the first on
// the calling thread, all joined before the caller continues. run_workers
// is that shape, written once, so no caller can leak a joinable thread
// past an exception (which would terminate the process).
#pragma once

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ixp::util {

/// The worker count a pool actually starts: `requested`, or one per
/// hardware thread when it is 0 (at least one if the count is unknown).
[[nodiscard]] inline unsigned resolve_threads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Runs body(0) on the calling thread and body(1) … body(n - 1) on their
/// own threads, and returns once every one has finished. An exception
/// escaping any body (or a failure to start a thread) is rethrown here
/// after every started thread has been joined; when several bodies
/// throw, the first one captured wins. n == 0 runs nothing.
template <typename Body>
void run_workers(unsigned n, Body&& body) {
  std::mutex mutex;
  std::exception_ptr first;
  const auto run = [&](unsigned t) noexcept {
    try {
      body(t);
    } catch (...) {
      std::lock_guard lock{mutex};
      if (!first) first = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  if (n > 1) {
    threads.reserve(n - 1);
    try {
      for (unsigned t = 1; t < n; ++t) threads.emplace_back(run, t);
    } catch (...) {
      std::lock_guard lock{mutex};
      if (!first) first = std::current_exception();
    }
  }
  if (n > 0) run(0);
  for (std::thread& thread : threads) thread.join();
  if (first) std::rethrow_exception(first);
}

}  // namespace ixp::util
