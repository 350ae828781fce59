// Differential tests: FlatLpm held to the answers of the two oracle
// structures (PrefixTrie and LengthIndexedLpm) over randomized corpora
// — overlapping prefixes, the full /0–/32 length range, default routes,
// overwriting inserts, inserts interleaved with batch lookups, address
// sweeps across prefix boundaries, and the top array forced onto 4 KiB
// pages — and the bulk list constructor held to inserting the same list
// in order, duplicates with differing payloads included.
#include "net/flat_lpm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/prefix_trie.hpp"
#include "util/huge_array.hpp"
#include "util/rng.hpp"

namespace ixp::net {
namespace {

TEST(FlatLpm, EmptyLookupMisses) {
  FlatLpm<int> lpm;
  EXPECT_FALSE(lpm.lookup(Ipv4Addr{1, 2, 3, 4}).has_value());
  EXPECT_EQ(lpm.lookup_ptr(Ipv4Addr{1, 2, 3, 4}), nullptr);
  EXPECT_EQ(lpm.size(), 0u);
  EXPECT_EQ(lpm.footprint_bytes(), 0u);  // top array is lazy
}

TEST(FlatLpm, ExactAndCoveringLookups) {
  FlatLpm<int> lpm;
  lpm.insert(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, 1);
  lpm.insert(Ipv4Prefix{Ipv4Addr{10, 1, 0, 0}, 16}, 2);

  EXPECT_EQ(lpm.lookup(Ipv4Addr(10, 1, 2, 3)), 2);  // most specific wins
  EXPECT_EQ(lpm.lookup(Ipv4Addr(10, 2, 0, 1)), 1);  // falls back to /8
  EXPECT_FALSE(lpm.lookup(Ipv4Addr(11, 0, 0, 1)).has_value());
  EXPECT_EQ(lpm.size(), 2u);
  EXPECT_EQ(lpm.spill_blocks(), 0u);  // nothing longer than /24
}

TEST(FlatLpm, DefaultRouteMatchesEverything) {
  FlatLpm<int> lpm;
  lpm.insert(Ipv4Prefix{Ipv4Addr{0u}, 0}, 99);
  EXPECT_EQ(lpm.lookup(Ipv4Addr(8, 8, 8, 8)), 99);
  EXPECT_EQ(lpm.lookup(Ipv4Addr{0u}), 99);
  EXPECT_EQ(lpm.lookup(Ipv4Addr{0xFFFFFFFFu}), 99);
}

TEST(FlatLpm, OverwriteKeepsSizeAndRetargetsEveryEntry) {
  FlatLpm<int> lpm;
  const Ipv4Prefix p{Ipv4Addr{10, 0, 0, 0}, 8};
  lpm.insert(p, 1);
  lpm.insert(p, 2);
  EXPECT_EQ(lpm.size(), 1u);
  EXPECT_EQ(lpm.lookup(Ipv4Addr(10, 0, 0, 1)), 2);
  EXPECT_EQ(lpm.lookup(Ipv4Addr(10, 255, 255, 255)), 2);

  // Overwriting a spilled prefix updates the spill entries too.
  const Ipv4Prefix host{Ipv4Addr{10, 0, 0, 7}, 32};
  lpm.insert(host, 3);
  lpm.insert(host, 4);
  EXPECT_EQ(lpm.lookup(Ipv4Addr(10, 0, 0, 7)), 4);
  EXPECT_EQ(lpm.lookup(Ipv4Addr(10, 0, 0, 8)), 2);
  EXPECT_EQ(lpm.spill_blocks(), 1u);
}

TEST(FlatLpm, FindExact) {
  FlatLpm<int> lpm;
  lpm.insert(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8}, 1);
  const int* hit = lpm.find_exact(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 8});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 1);
  EXPECT_EQ(lpm.find_exact(Ipv4Prefix{Ipv4Addr{10, 0, 0, 0}, 16}), nullptr);
  EXPECT_EQ(lpm.find_exact(Ipv4Prefix{Ipv4Addr{11, 0, 0, 0}, 8}), nullptr);
}

TEST(FlatLpm, SpillBlockInheritsShorterCover) {
  FlatLpm<int> lpm;
  // Insert order exercises both directions: a long prefix forcing a
  // spill of a slot already covered by /16, then a /24 that must descend
  // into the existing spill block without clobbering the /26.
  lpm.insert(Ipv4Prefix{Ipv4Addr{172, 16, 0, 0}, 16}, 1);
  lpm.insert(Ipv4Prefix{Ipv4Addr{172, 16, 5, 64}, 26}, 2);
  lpm.insert(Ipv4Prefix{Ipv4Addr{172, 16, 5, 0}, 24}, 3);

  EXPECT_EQ(lpm.lookup(Ipv4Addr(172, 16, 5, 70)), 2);   // in the /26
  EXPECT_EQ(lpm.lookup(Ipv4Addr(172, 16, 5, 1)), 3);    // /24, outside /26
  EXPECT_EQ(lpm.lookup(Ipv4Addr(172, 16, 6, 1)), 1);    // /16 elsewhere
  EXPECT_EQ(lpm.spill_blocks(), 1u);
}

TEST(FlatLpm, ForEachMatchesTrieOrder) {
  FlatLpm<int> lpm;
  PrefixTrie<int> trie;
  util::Rng rng{11};
  for (int i = 0; i < 200; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.next_in(0, 32));
    const Ipv4Prefix p{Ipv4Addr{static_cast<std::uint32_t>(rng())}, len};
    lpm.insert(p, i);
    trie.insert(p, i);
  }
  std::vector<std::pair<Ipv4Prefix, int>> from_lpm;
  std::vector<std::pair<Ipv4Prefix, int>> from_trie;
  lpm.for_each([&](Ipv4Prefix p, int v) { from_lpm.emplace_back(p, v); });
  trie.for_each([&](Ipv4Prefix p, int v) { from_trie.emplace_back(p, v); });
  EXPECT_EQ(from_lpm, from_trie);
}

// ---- randomized differential harness ------------------------------------

struct Corpus {
  std::vector<Ipv4Prefix> prefixes;
  std::vector<Ipv4Addr> probes;
};

/// Builds a corpus with deliberate overlap (several prefixes share
/// networks at different lengths) and probes biased to land near the
/// inserted networks, where boundaries live.
Corpus make_corpus(std::uint64_t seed, std::size_t n_prefixes,
                   std::size_t n_probes, std::uint64_t min_len,
                   std::uint64_t max_len) {
  util::Rng rng{seed};
  Corpus c;
  c.prefixes.reserve(n_prefixes);
  for (std::size_t i = 0; i < n_prefixes; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.next_in(min_len, max_len));
    auto addr = static_cast<std::uint32_t>(rng());
    // Every fourth prefix reuses an earlier network to force overlap.
    if (i % 4 == 3 && !c.prefixes.empty())
      addr = c.prefixes[rng() % c.prefixes.size()].network().value();
    c.prefixes.emplace_back(Ipv4Addr{addr}, len);
  }
  c.probes.reserve(n_probes);
  for (std::size_t i = 0; i < n_probes; ++i) {
    if (i % 2 == 0) {
      c.probes.emplace_back(static_cast<std::uint32_t>(rng()));
    } else {
      // Jitter around a known network: hits the edges of covered ranges.
      const std::uint32_t base =
          c.prefixes[rng() % c.prefixes.size()].network().value();
      const auto jitter = static_cast<std::int32_t>(rng.next_in(0, 512)) - 256;
      c.probes.emplace_back(base + static_cast<std::uint32_t>(jitter));
    }
  }
  return c;
}

/// Holds `flat` to the trie on `probes` in every lookup form: value,
/// prefix, pointer, and batched — a batch answer is the same payload
/// slot the scalar path resolves.
void expect_matches_trie(const FlatLpm<std::uint32_t>& flat,
                         const PrefixTrie<std::uint32_t>& trie,
                         std::span<const Ipv4Addr> probes) {
  std::vector<const std::uint32_t*> out(probes.size());
  flat.lookup_batch(probes, out);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const Ipv4Addr addr = probes[i];
    const auto expect = trie.lookup(addr);
    ASSERT_EQ(flat.lookup(addr), expect) << "addr " << addr.value();
    ASSERT_EQ(flat.lookup_prefix(addr), trie.lookup_prefix(addr))
        << "addr " << addr.value();
    ASSERT_EQ(out[i], flat.lookup_ptr(addr)) << "probe " << i;
  }
}

void run_differential(const Corpus& corpus) {
  FlatLpm<std::uint32_t> flat;
  PrefixTrie<std::uint32_t> trie;
  LengthIndexedLpm<std::uint32_t> indexed;
  for (std::size_t i = 0; i < corpus.prefixes.size(); ++i) {
    const auto v = static_cast<std::uint32_t>(i);
    flat.insert(corpus.prefixes[i], v);
    trie.insert(corpus.prefixes[i], v);
    indexed.insert(corpus.prefixes[i], v);
  }
  ASSERT_EQ(flat.size(), trie.size());
  ASSERT_EQ(flat.size(), indexed.size());

  for (const Ipv4Addr addr : corpus.probes) {
    ASSERT_EQ(indexed.lookup(addr), trie.lookup(addr))
        << "addr " << addr.value();
  }
  expect_matches_trie(flat, trie, corpus.probes);
}

TEST(FlatLpmDifferential, FullLengthRange) {
  for (const std::uint64_t seed : {1u, 2u, 3u})
    run_differential(make_corpus(seed, 1500, 4000, 0, 32));
}

TEST(FlatLpmDifferential, RoutingShapedTable) {
  // /8–/24 only: no spill blocks, pure top-array coverage.
  for (const std::uint64_t seed : {4u, 5u})
    run_differential(make_corpus(seed, 2000, 4000, 8, 24));
}

TEST(FlatLpmDifferential, SpillHeavyTable) {
  // /25–/32 only: every prefix lands in a spill block.
  for (const std::uint64_t seed : {6u, 7u})
    run_differential(make_corpus(seed, 1000, 4000, 25, 32));
}

TEST(FlatLpmDifferential, OverwritingInserts) {
  util::Rng rng{8};
  FlatLpm<std::uint32_t> flat;
  PrefixTrie<std::uint32_t> trie;
  std::vector<Ipv4Prefix> pool;
  for (int i = 0; i < 600; ++i) {
    Ipv4Prefix p{Ipv4Addr{static_cast<std::uint32_t>(rng())},
                 static_cast<std::uint8_t>(rng.next_in(0, 32))};
    // Half the inserts re-announce an existing prefix with a new payload.
    if (i % 2 == 1 && !pool.empty()) p = pool[rng() % pool.size()];
    pool.push_back(p);
    const auto v = static_cast<std::uint32_t>(i);
    flat.insert(p, v);
    trie.insert(p, v);
  }
  EXPECT_EQ(flat.size(), trie.size());
  for (int i = 0; i < 4000; ++i) {
    const Ipv4Addr addr{static_cast<std::uint32_t>(rng())};
    ASSERT_EQ(flat.lookup(addr), trie.lookup(addr)) << "addr " << addr.value();
  }
}

TEST(FlatLpmDifferential, InterleavedInsertsAndBatchLookups) {
  // A fixed probe set queried after every insert round; half the inserts
  // nest under an already-probed address, so that address's answer
  // changes between two batch lookups of it.
  util::Rng rng{31};
  FlatLpm<std::uint32_t> flat;
  PrefixTrie<std::uint32_t> trie;
  std::vector<Ipv4Addr> probes;
  for (int i = 0; i < 2048; ++i)
    probes.emplace_back(static_cast<std::uint32_t>(rng()));

  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 25; ++i) {
      std::uint32_t addr = probes[rng() % probes.size()].value();
      if (rng.next_below(2)) addr = static_cast<std::uint32_t>(rng());
      const auto len = static_cast<std::uint8_t>(rng.next_in(8, 32));
      const Ipv4Prefix p{Ipv4Addr{addr}, len};
      const auto v = static_cast<std::uint32_t>(round * 1000 + i);
      flat.insert(p, v);
      trie.insert(p, v);
    }
    expect_matches_trie(flat, trie, probes);
  }
}

TEST(FlatLpmDifferential, InsertBurstsBetweenLookups) {
  // 300 single-insert bursts, each nesting an ever-longer prefix over a
  // probed address (so each changes that address's answer), with the
  // same addresses looked up after every burst.
  util::Rng rng{32};
  FlatLpm<std::uint32_t> flat;
  PrefixTrie<std::uint32_t> trie;
  std::vector<Ipv4Addr> probes;
  for (int i = 0; i < 256; ++i)
    probes.emplace_back(static_cast<std::uint32_t>(rng()));

  for (int round = 0; round < 300; ++round) {
    const std::uint32_t target = probes[round % probes.size()].value();
    const auto len = static_cast<std::uint8_t>(8 + round % 25);
    flat.insert(Ipv4Prefix{Ipv4Addr{target}, len},
                static_cast<std::uint32_t>(round));
    trie.insert(Ipv4Prefix{Ipv4Addr{target}, len},
                static_cast<std::uint32_t>(round));
    expect_matches_trie(flat, trie, probes);
  }
}

TEST(FlatLpmDifferential, SmallPageFallback) {
  // force_small_pages pins the HugeArray 4 KiB path; the table must
  // report that backing and answer exactly as the huge-page build.
  util::force_small_pages(true);
  FlatLpm<std::uint32_t> flat;
  PrefixTrie<std::uint32_t> trie;
  util::Rng rng{33};
  for (int i = 0; i < 800; ++i) {
    const Ipv4Prefix p{Ipv4Addr{static_cast<std::uint32_t>(rng())},
                       static_cast<std::uint8_t>(rng.next_in(4, 32))};
    flat.insert(p, static_cast<std::uint32_t>(i));
    trie.insert(p, static_cast<std::uint32_t>(i));
  }
  EXPECT_TRUE(flat.top_backing() == util::PageBacking::kSmall ||
              flat.top_backing() == util::PageBacking::kHeap)
      << to_string(flat.top_backing());
  std::vector<Ipv4Addr> probes;
  for (int i = 0; i < 6000; ++i)
    probes.emplace_back(static_cast<std::uint32_t>(rng()));
  expect_matches_trie(flat, trie, probes);
  util::force_small_pages(false);
}

TEST(FlatLpmDifferential, AddressSweepAcrossBoundaries) {
  // A dense sweep across a region packed with nested prefixes: every
  // address in the range is probed, so every boundary is crossed.
  FlatLpm<std::uint32_t> flat;
  PrefixTrie<std::uint32_t> trie;
  util::Rng rng{9};
  const std::uint32_t base = Ipv4Addr{192, 168, 0, 0}.value();
  for (int i = 0; i < 300; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.next_in(16, 32));
    const std::uint32_t addr = base + static_cast<std::uint32_t>(
                                          rng.next_in(0, (1u << 16) - 1));
    const Ipv4Prefix p{Ipv4Addr{addr}, len};
    const auto v = static_cast<std::uint32_t>(i);
    flat.insert(p, v);
    trie.insert(p, v);
  }
  for (std::uint32_t offset = 0; offset < (1u << 16); ++offset) {
    const Ipv4Addr addr{base + offset};
    ASSERT_EQ(flat.lookup(addr), trie.lookup(addr)) << "addr " << addr.value();
  }
}

// ---- bulk build versus incremental inserts ------------------------------

using Entries = std::vector<std::pair<Ipv4Prefix, std::uint32_t>>;

/// Entries over `corpus`'s prefixes (which already nest: every fourth
/// reuses an earlier network at a random length), with every fifth entry
/// re-listing an earlier prefix under a fresh payload.
Entries with_duplicates(const Corpus& corpus, std::uint64_t seed) {
  util::Rng rng{seed};
  Entries entries;
  for (std::size_t i = 0; i < corpus.prefixes.size(); ++i) {
    Ipv4Prefix prefix = corpus.prefixes[i];
    if (i % 5 == 4) prefix = entries[rng() % entries.size()].first;
    entries.emplace_back(prefix, static_cast<std::uint32_t>(i));
  }
  return entries;
}

/// Builds `entries` both ways and holds the bulk table to the incremental
/// one: size, spill blocks, footprint, for_each order, find_exact on every
/// listed prefix (and on absent ones), and every lookup form on `probes`.
void expect_bulk_matches_inserts(const Entries& entries,
                                 std::span<const Ipv4Addr> probes) {
  FlatLpm<std::uint32_t> incremental;
  for (const auto& [prefix, value] : entries) incremental.insert(prefix, value);
  const FlatLpm<std::uint32_t> bulk{entries};

  ASSERT_EQ(bulk.size(), incremental.size());
  ASSERT_EQ(bulk.spill_blocks(), incremental.spill_blocks());
  ASSERT_EQ(bulk.footprint_bytes(), incremental.footprint_bytes());

  Entries from_bulk;
  Entries from_incremental;
  bulk.for_each(
      [&](Ipv4Prefix p, std::uint32_t v) { from_bulk.emplace_back(p, v); });
  incremental.for_each([&](Ipv4Prefix p, std::uint32_t v) {
    from_incremental.emplace_back(p, v);
  });
  ASSERT_EQ(from_bulk, from_incremental);

  for (const auto& [prefix, value] : entries) {
    const std::uint32_t* hit = bulk.find_exact(prefix);
    ASSERT_NE(hit, nullptr);
    ASSERT_EQ(*hit, *incremental.find_exact(prefix));
    if (prefix.length() < 32) {
      const Ipv4Prefix longer{prefix.network(),
                              static_cast<std::uint8_t>(prefix.length() + 1)};
      ASSERT_EQ(bulk.find_exact(longer) == nullptr,
                incremental.find_exact(longer) == nullptr);
    }
  }

  std::vector<const std::uint32_t*> batch(probes.size());
  bulk.lookup_batch(probes, batch);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const Ipv4Addr addr = probes[i];
    ASSERT_EQ(bulk.lookup(addr), incremental.lookup(addr))
        << "addr " << addr.value();
    ASSERT_EQ(bulk.lookup_prefix(addr), incremental.lookup_prefix(addr))
        << "addr " << addr.value();
    ASSERT_EQ(batch[i], bulk.lookup_ptr(addr)) << "probe " << i;
  }
}

TEST(FlatLpmDifferential, BulkBuildFullLengthRangeWithDuplicates) {
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    const Corpus corpus = make_corpus(seed, 1500, 4000, 0, 32);
    expect_bulk_matches_inserts(with_duplicates(corpus, seed), corpus.probes);
  }
}

TEST(FlatLpmDifferential, BulkBuildSpillHeavyWithDuplicates) {
  // /25–/32 only: every prefix lands in a spill block, and duplicates
  // retarget spill entries.
  for (const std::uint64_t seed : {44u, 45u}) {
    const Corpus corpus = make_corpus(seed, 1000, 4000, 25, 32);
    expect_bulk_matches_inserts(with_duplicates(corpus, seed), corpus.probes);
  }
}

TEST(FlatLpmDifferential, BulkBuildNestedChainsOfEveryLength) {
  // Each chain lists /0 through /32 over one address in shuffled order,
  // some lengths twice under different payloads; every address of the
  // chain's /16 is probed, so every nesting boundary is crossed.
  util::Rng rng{46};
  Entries entries;
  std::vector<Ipv4Addr> probes;
  for (int chain = 0; chain < 4; ++chain) {
    const Ipv4Addr base{static_cast<std::uint32_t>(rng())};
    std::vector<std::uint8_t> lengths;
    for (std::uint8_t len = 0; len <= 32; ++len) lengths.push_back(len);
    for (int twice = 0; twice < 8; ++twice)
      lengths.push_back(static_cast<std::uint8_t>(rng.next_in(0, 32)));
    for (std::size_t i = lengths.size(); i > 1; --i)
      std::swap(lengths[i - 1], lengths[rng.next_below(i)]);
    for (const std::uint8_t len : lengths)
      entries.emplace_back(Ipv4Prefix{base, len},
                           static_cast<std::uint32_t>(entries.size()));
    const std::uint32_t block = base.value() & 0xFFFF0000u;
    for (std::uint32_t offset = 0; offset < (1u << 16); ++offset)
      probes.emplace_back(block + offset);
  }
  expect_bulk_matches_inserts(entries, probes);
}

TEST(FlatLpmDifferential, BulkBuildRoutingShapedTable) {
  // /8–/24 only, the world's shape: pure top-array coverage.
  const Corpus corpus = make_corpus(47, 3000, 4000, 8, 24);
  expect_bulk_matches_inserts(with_duplicates(corpus, 47), corpus.probes);
}

TEST(FlatLpmDifferential, BulkBuildThenInsertsMatchAllInserts) {
  // A bulk-built table stays a normal table: further inserts (fresh,
  // nested and re-listed prefixes) land exactly as on the incremental one.
  const Corpus corpus = make_corpus(48, 2000, 4000, 0, 32);
  const Entries all = with_duplicates(corpus, 48);
  const Entries head(all.begin(), all.begin() + 1200);
  FlatLpm<std::uint32_t> bulk{head};
  FlatLpm<std::uint32_t> incremental;
  for (const auto& [prefix, value] : all) incremental.insert(prefix, value);
  for (std::size_t i = head.size(); i < all.size(); ++i)
    bulk.insert(all[i].first, all[i].second);
  ASSERT_EQ(bulk.size(), incremental.size());
  for (const Ipv4Addr addr : corpus.probes)
    ASSERT_EQ(bulk.lookup_prefix(addr), incremental.lookup_prefix(addr))
        << "addr " << addr.value();
}

TEST(FlatLpmDifferential, BulkBuildEmptyListAllocatesNothing) {
  const FlatLpm<std::uint32_t> bulk{Entries{}};
  EXPECT_EQ(bulk.size(), 0u);
  EXPECT_EQ(bulk.footprint_bytes(), 0u);
  EXPECT_EQ(bulk.lookup_ptr(Ipv4Addr{1, 2, 3, 4}), nullptr);
  const std::vector<Ipv4Addr> probes{Ipv4Addr{0u}, Ipv4Addr{0xFFFFFFFFu}};
  std::vector<const std::uint32_t*> batch(probes.size(), nullptr);
  bulk.lookup_batch(probes, batch);
  EXPECT_EQ(batch, (std::vector<const std::uint32_t*>{nullptr, nullptr}));
}

}  // namespace
}  // namespace ixp::net
