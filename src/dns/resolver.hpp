// Open DNS resolver population (paper §2.3).
//
// The paper starts from the top ~280K recursive resolvers seen by a large
// CDN, then eliminates those "that cannot be used for active measurements
// (i.e., those that are not open, delegate DNS resolutions to other
// resolvers, or provide incorrect answers)", ending with ~25K usable
// resolvers across ~12K ASes. ResolverPopulation models the candidate set
// with these behaviours; `usable_resolvers` performs the same filtering by
// probing each candidate with a known query. Every shipped caller runs
// that filter as probe::ResolverSweep; this synchronous form is its
// oracle in the probe differential suite and in micro_probe.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dns/zone_db.hpp"
#include "net/ipv4.hpp"
#include "util/rng.hpp"

namespace ixp::dns {

/// How a candidate resolver responds to probes.
enum class ResolverBehavior : std::uint8_t {
  kOpen,        // answers correctly from the authoritative data
  kClosed,      // refuses queries from outside its network
  kDelegating,  // forwards to another resolver (answer source unusable)
  kLying,       // returns wrong answers (e.g. NXDOMAIN redirection)
};

struct Resolver {
  net::Ipv4Addr address;
  net::Asn asn;
  ResolverBehavior behavior = ResolverBehavior::kOpen;
};

/// Outcome of probing one resolver with a query whose answer is known.
struct ProbeResult {
  bool answered = false;
  bool answer_correct = false;
  bool delegated = false;
};

class ResolverPopulation {
 public:
  void add(Resolver resolver) { resolvers_.push_back(resolver); }

  [[nodiscard]] const std::vector<Resolver>& all() const noexcept {
    return resolvers_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return resolvers_.size(); }

  /// Simulates one probe of `resolver` for `name` against the ground-truth
  /// `db`. A lying resolver returns an address not in the authoritative
  /// answer set; a delegating resolver answers but flags third-party
  /// sourcing (in reality detected via the answering IP).
  [[nodiscard]] static ProbeResult probe(const Resolver& resolver,
                                         const ZoneDatabase& db,
                                         const DnsName& name);

  /// The paper's filtering: keeps only resolvers that answer, answer
  /// correctly, and do not delegate. `probe_name` must resolve in `db`.
  [[nodiscard]] std::vector<Resolver> usable_resolvers(
      const ZoneDatabase& db, const DnsName& probe_name) const;

  /// Resolves `name` through `resolver` (as an active measurement would):
  /// open resolvers return the authoritative A set, everything else
  /// returns empty/garbage.
  [[nodiscard]] static std::vector<net::Ipv4Addr> query(
      const Resolver& resolver, const ZoneDatabase& db, const DnsName& name);

  /// Number of distinct ASes hosting the given resolvers.
  [[nodiscard]] static std::size_t distinct_ases(
      const std::vector<Resolver>& resolvers);

 private:
  std::vector<Resolver> resolvers_;
};

}  // namespace ixp::dns
