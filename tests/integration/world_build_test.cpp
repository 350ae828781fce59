// Bench-scale world build: the model at the CLI's default scale
// (ScaleConfig::bench(1/256), model seed offset 0) and at the model seed
// weekbench derives from `--seed 33`, whose dense ASes exhaust their 64
// random address draws and fall back to the resumable scan.
//
// - Server addresses are pinned: FNV-1a 64 over every server's address in
//   allocation order, the values the rescan-from-the-first-prefix
//   allocator produced before the scan became resumable.
// - The bulk-built routing and geo tables equal tables rebuilt by
//   announcing/assigning model.prefixes() one at a time, in order, at
//   every /24 (the model allocates nothing longer than /24), in scalar and
//   batched form, and in routes().
// - The prefix allocator wraps past 223.255.255.255 back to 1.0.0.0, so
//   about 2% of prefixes are allocated twice. The later AS takes the
//   route and the country. That is pinned here as the present behaviour:
//   changing it changes every report.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gen/internet.hpp"
#include "util/fnv.hpp"

namespace ixp {
namespace {

struct WorldCase {
  std::uint64_t seed;  // weekbench --seed
  std::size_t servers;
  std::uint64_t server_hash;
  std::size_t prefixes;
  std::size_t distinct_prefixes;
};

void PrintTo(const WorldCase& c, std::ostream* os) { *os << "seed " << c.seed; }

gen::ScaleConfig scale_for(std::uint64_t seed) {
  gen::ScaleConfig cfg = gen::ScaleConfig::bench(1.0 / 256.0);
  cfg.seed += seed * 0x9E37'79B9'7F4A'7C15ULL;
  return cfg;
}

class WorldBuild : public ::testing::TestWithParam<WorldCase> {};

TEST_P(WorldBuild, ServersTablesAndRepeatedPrefixes) {
  const WorldCase& expect = GetParam();
  const gen::InternetModel model{scale_for(expect.seed)};
  const auto& prefixes = model.prefixes();
  const auto& ases = model.ases();

  // ---- server addresses, pinned ----------------------------------------
  util::Fnv1a servers;
  for (const gen::ServerRecord& server : model.servers())
    servers.mix(server.addr.value());
  EXPECT_EQ(model.servers().size(), expect.servers);
  EXPECT_EQ(servers.value(), expect.server_hash);

  // ---- bulk tables against per-prefix inserts --------------------------
  net::RoutingTable routing;
  geo::GeoDatabase geo;
  for (const gen::PrefixRecord& record : prefixes) {
    routing.announce(record.prefix, ases[record.as_index].asn);
    geo.assign(record.prefix, ases[record.as_index].country);
  }
  ASSERT_EQ(model.routing().prefix_count(), routing.prefix_count());
  ASSERT_EQ(model.geo_db().prefix_count(), geo.prefix_count());

  constexpr std::uint32_t kChunk = 1u << 16;  // /24 slots per batch
  std::vector<net::Ipv4Addr> addrs(kChunk);
  std::vector<const net::Route*> bulk_routes(kChunk);
  std::vector<const net::Route*> routes(kChunk);
  std::vector<const geo::CountryCode*> bulk_countries(kChunk);
  std::vector<const geo::CountryCode*> countries(kChunk);
  std::size_t mismatches = 0;
  for (std::uint32_t first = 0; first < (1u << 24); first += kChunk) {
    for (std::uint32_t i = 0; i < kChunk; ++i)
      addrs[i] = net::Ipv4Addr{(first + i) << 8};
    model.routing().routes_of(addrs, bulk_routes);
    routing.routes_of(addrs, routes);
    model.geo_db().countries_of(addrs, bulk_countries);
    geo.countries_of(addrs, countries);
    for (std::uint32_t i = 0; i < kChunk; ++i) {
      const net::Route* a = bulk_routes[i];
      const net::Route* b = routes[i];
      const bool same_route =
          (a == nullptr) == (b == nullptr) &&
          (a == nullptr || (a->prefix == b->prefix && a->origin == b->origin));
      const geo::CountryCode* c = bulk_countries[i];
      const geo::CountryCode* d = countries[i];
      const bool same_country =
          (c == nullptr) == (d == nullptr) && (c == nullptr || *c == *d);
      const bool scalar_agrees =
          a == model.routing().route_ptr(addrs[i]) &&
          c == model.geo_db().country_ptr(addrs[i]);
      if (!same_route || !same_country || !scalar_agrees) {
        if (++mismatches <= 5)
          ADD_FAILURE() << "tables differ at " << addrs[i].to_string();
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);

  const auto bulk_list = model.routing().routes();
  const auto list = routing.routes();
  ASSERT_EQ(bulk_list.size(), list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    ASSERT_EQ(bulk_list[i].prefix, list[i].prefix) << "route " << i;
    ASSERT_EQ(bulk_list[i].origin, list[i].origin) << "route " << i;
  }

  // ---- repeated prefixes: the later AS wins ----------------------------
  std::unordered_map<net::Ipv4Prefix, std::uint32_t> first_as;
  std::unordered_map<net::Ipv4Prefix, std::uint32_t> last_as;
  for (const gen::PrefixRecord& record : prefixes) {
    first_as.try_emplace(record.prefix, record.as_index);
    last_as[record.prefix] = record.as_index;
  }
  EXPECT_EQ(prefixes.size(), expect.prefixes);
  EXPECT_EQ(last_as.size(), expect.distinct_prefixes);
  EXPECT_EQ(model.routing().prefix_count(), expect.distinct_prefixes);
  std::size_t retaken = 0;
  for (const auto& [prefix, as_index] : last_as) {
    const std::uint32_t first = first_as.at(prefix);
    if (first == as_index) continue;
    ++retaken;
    const net::Ipv4Addr addr = prefix.network();
    ASSERT_EQ(model.routing().origin_of(addr), ases[as_index].asn);
    ASSERT_EQ(model.routing().prefix_of(addr), prefix);
    ASSERT_EQ(model.geo_db().country_of(addr), ases[as_index].country);
  }
  EXPECT_EQ(retaken, expect.prefixes - expect.distinct_prefixes);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, WorldBuild,
    ::testing::Values(
        WorldCase{0, 54'052, 0x72282728fb1140e2ULL, 460'598, 450'789},
        WorldCase{33, 54'012, 0x838810978e88fcc1ULL, 460'706, 450'822}),
    [](const ::testing::TestParamInfo<WorldCase>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace ixp
