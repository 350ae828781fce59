#include "net/routing_table.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace ixp::net {
namespace {

TEST(RoutingTable, EmptyHasNoRoutes) {
  RoutingTable table;
  EXPECT_EQ(table.prefix_count(), 0u);
  EXPECT_FALSE(table.origin_of(Ipv4Addr{8, 8, 8, 8}).has_value());
  EXPECT_FALSE(table.prefix_of(Ipv4Addr{8, 8, 8, 8}).has_value());
  EXPECT_FALSE(table.route_of(Ipv4Addr{8, 8, 8, 8}).has_value());
}

TEST(RoutingTable, LongestPrefixWins) {
  RoutingTable table;
  table.announce(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, Asn{100});
  table.announce(Ipv4Prefix{Ipv4Addr{10, 20, 0, 0}, 16}, Asn{200});

  EXPECT_EQ(table.origin_of(Ipv4Addr(10, 20, 1, 1)), Asn{200});
  EXPECT_EQ(table.origin_of(Ipv4Addr(10, 21, 1, 1)), Asn{100});
  EXPECT_EQ(table.prefix_of(Ipv4Addr(10, 20, 1, 1)),
            (Ipv4Prefix{Ipv4Addr{10, 20, 0, 0}, 16}));
}

TEST(RoutingTable, RouteOfBundlesPrefixAndOrigin) {
  RoutingTable table;
  table.announce(Ipv4Prefix{Ipv4Addr{192, 0, 2, 0}, 24}, Asn{64500});
  const auto route = table.route_of(Ipv4Addr{192, 0, 2, 55});
  ASSERT_TRUE(route);
  EXPECT_EQ(route->prefix, (Ipv4Prefix{Ipv4Addr{192, 0, 2, 0}, 24}));
  EXPECT_EQ(route->origin, Asn{64500});
}

TEST(RoutingTable, ReannouncementOverwritesOrigin) {
  RoutingTable table;
  const Ipv4Prefix p{Ipv4Addr{10, 0, 0, 0}, 8};
  table.announce(p, Asn{1});
  table.announce(p, Asn{2});
  EXPECT_EQ(table.prefix_count(), 1u);
  EXPECT_EQ(table.origin_of(Ipv4Addr(10, 0, 0, 1)), Asn{2});
}

TEST(RoutingTable, RoutesEnumeratesEverything) {
  RoutingTable table;
  table.announce(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, Asn{1});
  table.announce(Ipv4Prefix{Ipv4Addr{172, 16, 0, 0}, 12}, Asn{2});
  table.announce(Ipv4Prefix{Ipv4Addr{192, 168, 0, 0}, 16}, Asn{3});
  const auto routes = table.routes();
  ASSERT_EQ(routes.size(), 3u);
  // Lexicographic order by prefix network address.
  EXPECT_EQ(routes[0].origin, Asn{1});
  EXPECT_EQ(routes[1].origin, Asn{2});
  EXPECT_EQ(routes[2].origin, Asn{3});
}

TEST(RoutingTable, BulkConstructorKeepsTheLaterOriginOfARepeat) {
  const Ipv4Prefix wide{Ipv4Addr{10, 0, 0, 0}, 8};
  const Ipv4Prefix narrow{Ipv4Addr{10, 20, 0, 0}, 16};
  const std::vector<std::pair<Ipv4Prefix, Route>> entries{
      {wide, Route{wide, Asn{1}}},
      {narrow, Route{narrow, Asn{2}}},
      {wide, Route{wide, Asn{3}}},  // re-announced
  };
  const RoutingTable bulk{entries};
  RoutingTable announced;
  for (const auto& [prefix, route] : entries)
    announced.announce(prefix, route.origin);

  EXPECT_EQ(bulk.prefix_count(), 2u);
  EXPECT_EQ(bulk.origin_of(Ipv4Addr(10, 1, 1, 1)), Asn{3});
  EXPECT_EQ(bulk.origin_of(Ipv4Addr(10, 20, 1, 1)), Asn{2});
  const auto a = bulk.routes();
  const auto b = announced.routes();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].prefix, b[i].prefix);
    EXPECT_EQ(a[i].origin, b[i].origin);
  }
}

}  // namespace
}  // namespace ixp::net
