#include "geo/geo_database.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace ixp::geo {
namespace {

using net::Ipv4Addr;
using net::Ipv4Prefix;

TEST(GeoDatabase, EmptyLookupsMiss) {
  GeoDatabase db;
  EXPECT_FALSE(db.country_of(Ipv4Addr{8, 8, 8, 8}).has_value());
  EXPECT_EQ(db.region_of(Ipv4Addr{8, 8, 8, 8}), Region::kRoW);
  EXPECT_EQ(db.prefix_count(), 0u);
}

TEST(GeoDatabase, AssignsAndLooksUp) {
  GeoDatabase db;
  db.assign(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, CountryCode{'D', 'E'});
  db.assign(Ipv4Prefix{Ipv4Addr{20, 0, 0, 0}, 8}, CountryCode{'U', 'S'});

  EXPECT_EQ(db.country_of(Ipv4Addr(10, 1, 2, 3)), (CountryCode{'D', 'E'}));
  EXPECT_EQ(db.country_of(Ipv4Addr(20, 1, 2, 3)), (CountryCode{'U', 'S'}));
  EXPECT_FALSE(db.country_of(Ipv4Addr(30, 1, 2, 3)).has_value());
  EXPECT_EQ(db.prefix_count(), 2u);
}

TEST(GeoDatabase, MoreSpecificPrefixWins) {
  GeoDatabase db;
  db.assign(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, CountryCode{'D', 'E'});
  db.assign(Ipv4Prefix{Ipv4Addr{10, 5, 0, 0}, 16}, CountryCode{'C', 'N'});
  EXPECT_EQ(db.country_of(Ipv4Addr(10, 5, 9, 9)), (CountryCode{'C', 'N'}));
  EXPECT_EQ(db.country_of(Ipv4Addr(10, 6, 9, 9)), (CountryCode{'D', 'E'}));
}

TEST(GeoDatabase, RegionBuckets) {
  GeoDatabase db;
  db.assign(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, CountryCode{'R', 'U'});
  db.assign(Ipv4Prefix{Ipv4Addr{20, 0, 0, 0}, 8}, CountryCode{'F', 'R'});
  EXPECT_EQ(db.region_of(Ipv4Addr(10, 0, 0, 1)), Region::kRU);
  EXPECT_EQ(db.region_of(Ipv4Addr(20, 0, 0, 1)), Region::kRoW);
}

TEST(GeoDatabase, BulkConstructorKeepsTheLaterCountryOfARepeat) {
  const Ipv4Prefix wide{Ipv4Addr{10, 0, 0, 0}, 8};
  const Ipv4Prefix narrow{Ipv4Addr{10, 5, 0, 0}, 16};
  const std::vector<std::pair<Ipv4Prefix, CountryCode>> entries{
      {narrow, CountryCode{'C', 'N'}},
      {wide, CountryCode{'D', 'E'}},
      {narrow, CountryCode{'R', 'U'}},  // re-assigned
  };
  const GeoDatabase db{entries};
  EXPECT_EQ(db.prefix_count(), 2u);
  EXPECT_EQ(db.country_of(Ipv4Addr(10, 5, 9, 9)), (CountryCode{'R', 'U'}));
  EXPECT_EQ(db.country_of(Ipv4Addr(10, 6, 9, 9)), (CountryCode{'D', 'E'}));
  EXPECT_FALSE(db.country_of(Ipv4Addr(11, 0, 0, 1)).has_value());
}

}  // namespace
}  // namespace ixp::geo
