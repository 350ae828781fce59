#include "util/flat_hash_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/inline_string.hpp"
#include "util/rng.hpp"

namespace ixp::util {
namespace {

TEST(FlatHashMap, StartsEmpty) {
  FlatHashMap<int, int> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.begin(), map.end());
  EXPECT_EQ(map.find(7), map.end());
  EXPECT_FALSE(map.contains(7));
  EXPECT_EQ(map.erase(7), 0u);
}

TEST(FlatHashMap, InsertFindErase) {
  FlatHashMap<int, std::string> map;
  auto [it, inserted] = map.try_emplace(1, "one");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, "one");
  auto [again, inserted2] = map.try_emplace(1, "uno");
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(again->second, "one");  // try_emplace never overwrites

  map[2] = "two";
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at(2), "two");
  EXPECT_EQ(map.count(1), 1u);
  EXPECT_EQ(map.erase(1), 1u);
  EXPECT_EQ(map.erase(1), 0u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_THROW((void)map.at(1), std::out_of_range);
}

TEST(FlatHashMap, OperatorBracketDefaultConstructs) {
  FlatHashMap<int, std::uint64_t> map;
  EXPECT_EQ(map[42], 0u);
  map[42] += 7;
  EXPECT_EQ(map.at(42), 7u);
}

TEST(FlatHashMap, ReserveAvoidsRehash) {
  FlatHashMap<int, int> map;
  map.reserve(1000);
  const std::size_t cap = map.capacity();
  EXPECT_GE(cap * 7 / 8, 1000u);
  for (int i = 0; i < 1000; ++i) map[i] = i;
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_EQ(map.size(), 1000u);
}

TEST(FlatHashMap, ClearKeepsCapacity) {
  FlatHashMap<int, int> map;
  for (int i = 0; i < 100; ++i) map[i] = i;
  const std::size_t cap = map.capacity();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_EQ(map.begin(), map.end());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(map.contains(i));
}

TEST(FlatHashMap, IterationVisitsEveryEntryOnce) {
  FlatHashMap<int, int> map;
  for (int i = 0; i < 257; ++i) map[i] = i * 3;
  std::vector<int> keys;
  for (const auto& [k, v] : map) {
    EXPECT_EQ(v, k * 3);
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  ASSERT_EQ(keys.size(), 257u);
  for (int i = 0; i < 257; ++i) EXPECT_EQ(keys[i], i);
}

TEST(FlatHashMap, EqualityIsOrderIndependent) {
  FlatHashMap<int, int> a;
  FlatHashMap<int, int> b;
  for (int i = 0; i < 64; ++i) a[i] = i;
  for (int i = 63; i >= 0; --i) b[i] = i;
  EXPECT_EQ(a, b);
  b[0] = 99;
  EXPECT_NE(a, b);
  b[0] = 0;
  b[64] = 64;
  EXPECT_NE(a, b);
}

TEST(FlatHashMap, HeterogeneousLookupWithStringView) {
  FlatHashMap<InlineString<32>, int, StringHash, std::equal_to<>> map;
  map.try_emplace(InlineString<32>{"www.example.com"}, 1);
  map.try_emplace(InlineString<32>{"cdn.example.net"}, 2);
  const std::string_view needle = "cdn.example.net";
  const auto it = map.find(needle);  // no InlineString constructed
  ASSERT_NE(it, map.end());
  EXPECT_EQ(it->second, 2);
  EXPECT_TRUE(map.contains(std::string_view{"www.example.com"}));
  EXPECT_FALSE(map.contains(std::string_view{"gone.example.org"}));
  EXPECT_EQ(map.erase(needle), 1u);
  EXPECT_EQ(map.size(), 1u);
}

// Backward-shift erase must never break another key's probe chain. Force
// maximal collisions with a constant hash, then erase from the middle.
struct CollidingHash {
  std::size_t operator()(int) const noexcept { return 0; }
};

TEST(FlatHashMap, EraseUnderFullCollisionKeepsChainsIntact) {
  FlatHashMap<int, int, CollidingHash> map;
  for (int i = 0; i < 12; ++i) map[i] = i;
  EXPECT_EQ(map.erase(5), 1u);
  EXPECT_EQ(map.erase(0), 1u);
  EXPECT_EQ(map.erase(11), 1u);
  for (int i = 0; i < 12; ++i) {
    const bool erased = i == 5 || i == 0 || i == 11;
    EXPECT_EQ(map.contains(i), !erased) << i;
    if (!erased) {
      EXPECT_EQ(map.at(i), i);
    }
  }
}

// The load-bearing property: any interleaving of insert / erase / lookup
// agrees with std::unordered_map exactly.
TEST(FlatHashMap, RandomizedMirrorAgainstStdUnorderedMap) {
  Rng rng{0x1234abcd};
  FlatHashMap<std::uint32_t, std::uint64_t> flat;
  std::unordered_map<std::uint32_t, std::uint64_t> ref;

  for (int op = 0; op < 200000; ++op) {
    const std::uint32_t key = static_cast<std::uint32_t>(rng() % 512);
    switch (rng() % 4) {
      case 0:
      case 1: {  // upsert
        const std::uint64_t value = rng();
        flat[key] += value;
        ref[key] += value;
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(flat.erase(key), ref.erase(key));
        break;
      }
      case 3: {  // lookup
        const auto fit = flat.find(key);
        const auto rit = ref.find(key);
        ASSERT_EQ(fit != flat.end(), rit != ref.end());
        if (rit != ref.end()) {
          ASSERT_EQ(fit->second, rit->second);
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }

  // Full-content comparison both ways.
  for (const auto& [k, v] : ref) {
    ASSERT_TRUE(flat.contains(k));
    ASSERT_EQ(flat.at(k), v);
  }
  std::size_t visited = 0;
  for (const auto& [k, v] : flat) {
    const auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    ASSERT_EQ(it->second, v);
    ++visited;
  }
  EXPECT_EQ(visited, ref.size());
}

// Erase-heavy churn at a constant population: backward-shift deletion
// must not degrade lookups (no tombstones piling up) and stays correct.
TEST(FlatHashMap, SteadyStateChurnStaysConsistent) {
  Rng rng{0xfeed5eed};
  FlatHashMap<std::uint32_t, std::uint32_t> flat;
  std::unordered_map<std::uint32_t, std::uint32_t> ref;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    flat[i] = i;
    ref[i] = i;
  }
  std::vector<std::uint32_t> live(1000);
  for (std::uint32_t i = 0; i < 1000; ++i) live[i] = i;

  const std::size_t cap_after_fill = flat.capacity();
  for (int round = 0; round < 50000; ++round) {
    // Replace one live key with a fresh one: the population is constant,
    // so churn alone must never force growth.
    const std::size_t idx = static_cast<std::size_t>(rng() % live.size());
    flat.erase(live[idx]);
    ref.erase(live[idx]);
    auto born = static_cast<std::uint32_t>(rng());
    while (ref.contains(born)) born = static_cast<std::uint32_t>(rng());
    flat[born] = born;
    ref[born] = born;
    live[idx] = born;
  }
  EXPECT_EQ(flat.capacity(), cap_after_fill);
  ASSERT_EQ(flat.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_TRUE(flat.contains(k)) << k;
    ASSERT_EQ(flat.at(k), v);
  }
}

TEST(FlatHashMap, MovedFromMapIsEmptyAndReusable) {
  FlatHashMap<int, int> a;
  for (int i = 0; i < 100; ++i) a[i] = i;

  FlatHashMap<int, int> b{std::move(a)};
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.at(42), 42);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.begin(), a.end());
  EXPECT_FALSE(a.contains(42));
  a[7] = 70;
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.at(7), 70);

  FlatHashMap<int, int> c;
  c[1] = 1;
  c = std::move(b);
  EXPECT_EQ(c.size(), 100u);
  EXPECT_FALSE(c.contains(1000));
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.begin(), b.end());
  b[3] = 3;
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.at(3), 3);
}

TEST(FlatHashMap, MergeFoldsSharedKeysAndEmptiesTheSource) {
  const auto add = [](int& mine, int theirs) { mine += theirs; };

  // Empty receiver: takes the source's tables.
  FlatHashMap<int, int> into_empty;
  FlatHashMap<int, int> source;
  for (int i = 0; i < 50; ++i) source[i] = i;
  into_empty.merge(std::move(source), add);
  EXPECT_EQ(into_empty.size(), 50u);
  EXPECT_EQ(into_empty.at(49), 49);
  EXPECT_TRUE(source.empty());
  EXPECT_EQ(source.begin(), source.end());
  source[1] = 1;  // still usable
  EXPECT_EQ(source.size(), 1u);

  // Non-empty receiver: disjoint keys move in, shared keys fold.
  FlatHashMap<int, int> other;
  for (int i = 40; i < 60; ++i) other[i] = 100;
  into_empty.merge(std::move(other), add);
  EXPECT_EQ(into_empty.size(), 60u);
  EXPECT_EQ(into_empty.at(10), 10);
  EXPECT_EQ(into_empty.at(45), 145);
  EXPECT_EQ(into_empty.at(55), 100);
  EXPECT_TRUE(other.empty());
}

/// Equality that counts its calls: every probe step of a lookup or an
/// insert compares against one occupied slot, so the count is the probe
/// work, independent of timing.
struct CountingEq {
  static inline std::size_t calls = 0;
  template <class A, class B>
  bool operator()(const A& a, const B& b) const {
    ++calls;
    return a == b;
  }
};

TEST(FlatHashMap, BulkMergeProbeWorkStaysLinear) {
  // A week-sized source at low load (a worker shard's activity table
  // after its growth doublings): walked in slot order it yields keys in
  // home-bucket order, which piles a receiver that grows as it goes into
  // one giant probe cluster (~500 comparisons per key at this size). The
  // merge must stay a few comparisons per key.
  using Map = FlatHashMap<std::uint32_t, std::uint32_t,
                          std::hash<std::uint32_t>, CountingEq>;
  constexpr std::size_t kKeys = 700'000;
  const auto make_source = [] {
    Map source;
    source.reserve(1'800'000);
    Rng rng{0x5eed};
    while (source.size() < kKeys) {
      const auto key = static_cast<std::uint32_t>(rng());
      source[key] = 1;
    }
    return source;
  };
  const auto add = [](std::uint32_t& mine, std::uint32_t theirs) {
    mine += theirs;
  };

  {
    Map source = make_source();
    EXPECT_NEAR(source.load_factor(), 0.33, 0.01);
    Map target;
    CountingEq::calls = 0;
    target.merge(std::move(source), add);
    EXPECT_EQ(target.size(), kKeys);
    EXPECT_LE(CountingEq::calls, 4 * kKeys);
  }
  {
    Map source = make_source();
    Map target;
    std::vector<std::uint32_t> keys;
    for (const auto& [key, value] : source) {
      keys.push_back(key);
      if (keys.size() == 500) break;
    }
    for (const std::uint32_t key : keys) target[key] = 1;  // shared keys
    std::size_t expected = kKeys;
    for (std::uint32_t i = 0; i < 500; ++i) {
      target[i] = 1;
      if (!source.contains(i)) ++expected;
    }
    CountingEq::calls = 0;
    target.merge(std::move(source), add);
    EXPECT_LE(CountingEq::calls, 4 * kKeys);
    EXPECT_EQ(target.size(), expected);
    EXPECT_TRUE(source.empty());
    for (const std::uint32_t key : keys) EXPECT_EQ(target.at(key), 2u) << key;
  }
}

}  // namespace
}  // namespace ixp::util
