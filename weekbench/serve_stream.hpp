// The serve passes, shared by the serve-stream workload and the traced
// layer pass of every other workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/serve_service.hpp"
#include "sflow/socket_intake.hpp"

namespace weekbench {

/// Every record of a trace as the datagram `ixpscope replay --agents 16`
/// would send: framed with its original offset, agent rewritten.
struct Replay {
  std::vector<ixp::sflow::DatagramEnvelope> records;
};
[[nodiscard]] Replay load_replay(const std::string& path);

struct BurstResult {
  double seconds = 0.0;  ///< first offer -> drained report
  std::uint64_t hash = 0;
  std::uint64_t violations = 0;  ///< accounting identities that failed
  ixp::core::ServeAccounting accounting;
};

/// The whole replay offered at once into a cumulative service with
/// `workers` pump workers, then drained.
[[nodiscard]] BurstResult serve_burst(const World& world, const Replay& replay,
                                      unsigned workers, Tracer& tracer);

/// The two burst passes' times.
struct ServeTimes {
  double serial_s = 0.0;    ///< 1 pump worker, first offer -> report
  double parallel_s = 0.0;  ///< 2 pump workers, the same
};

/// The serve passes: both burst passes (1 and 2 pump workers), each
/// checked against `reference`, the hash of the offline report of the same
/// trace; then the open-loop pass. Checks go to `record`, together with the
/// serve per-layer metrics (serve.*, core.snapshot_s, core.drain_s,
/// sflow.backlog_max).
[[nodiscard]] ServeTimes run_serve_passes(const World& world,
                                          const Replay& replay,
                                          std::uint64_t reference,
                                          Tracer& tracer, RunRecord& record);

}  // namespace weekbench
