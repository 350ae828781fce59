// FlatLpm<T> — a DIR-24-8-style flattened longest-prefix-match table.
//
// The pooled binary trie (PrefixTrie) answers a lookup by walking up to
// 32 dependent child pointers; on a RouteViews-sized table that is a
// dozen-plus dependent cache misses per address. FlatLpm trades memory
// for memory-level parallelism: a direct-indexed 2^24 top array answers
// every prefix of length <= 24 with ONE array load, and a /24 slot that
// contains any more-specific route points at a 256-entry spill block
// resolved by the low address byte — so a lookup is one or two array
// loads, never a pointer chase. This is the layout of DIR-24-8 (Gupta,
// Lin, McKeown, INFOCOM '98), which real routers used for exactly the
// workload the paper's pipeline has: build rarely, look up per sample.
//
// Memory layout (DESIGN.md §14): the 64 MiB top array is backed by
// util::HugeArray — explicit or transparent huge pages when the host
// grants them, 4 KiB pages otherwise. On hosts where huge pages never
// materialize (most VMs), random top-array loads miss the TLB almost
// every time; lookup_batch hides that latency by software pipelining
// (top-array lines prefetched ahead, spill lines a stage ahead) rather
// than by caching results — its one production caller, the week's
// finish, passes sorted distinct addresses, which a result cache almost
// never hits (DESIGN.md §14.5).
//
// Two ways to build, with identical answers:
//   - Bulk (the list constructor), for a table known whole up front: a
//     stable counting sort orders the distinct prefixes by length, and
//     each prefix then plain-fills its range, shortest first, so every
//     entry it overwrites holds a shorter (covering) match and no
//     overwrite check is needed. The pools and the exact-match index are
//     sized once from the list's length. A prefix listed twice keeps its
//     later payload.
//   - Incremental (insert): an insert of /L overwrites a covered entry
//     only when the entry's current match is no longer than L, which the
//     table decides by consulting the matched prefix's stored length —
//     the classic DIR-24-8 update rule. Re-inserting an existing prefix
//     overwrites its payload in place and touches no table entries.
// A bulk build equals inserting its list in order: every lookup,
// find_exact, size() and for_each agree.
//
// Thread model: identical to PrefixTrie — concurrent lookups are safe
// (they only read), inserts require exclusive access.
//
// PrefixTrie and LengthIndexedLpm remain in the tree as correctness
// oracles (DESIGN.md ablation #4); the randomized differential test in
// tests/net/flat_lpm_test.cpp holds all three to identical answers.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/ipv4.hpp"
#include "util/flat_hash_map.hpp"
#include "util/huge_array.hpp"

namespace ixp::net {

template <typename T>
class FlatLpm {
 public:
  FlatLpm() = default;

  /// Bulk build from a whole (prefix, payload) list; see the header
  /// comment. An empty list allocates nothing, like an empty table.
  explicit FlatLpm(std::span<const std::pair<Ipv4Prefix, T>> entries) {
    if (entries.empty()) return;
    top_ = util::HugeArray<std::uint32_t>(kTopSlots, kNoMatch);
    values_.reserve(entries.size());
    prefixes_.reserve(entries.size());
    // Sized for the list less an eighth for repeats, the index lands on
    // the capacity one-at-a-time inserts reach, rehashing at most once
    // on the way. (Sized for the whole list, the world's 2% repeats
    // would tip it past the load limit into a table twice as large.)
    exact_.reserve(entries.size() - entries.size() / 8);

    // Distinct prefixes take pool slots in first-listed order, as they
    // would by insert(); a repeat overwrites its slot's payload.
    std::array<std::uint32_t, 34> starts{};  // per-length counts, then starts
    for (const auto& [prefix, value] : entries) {
      const auto [it, fresh] = exact_.try_emplace(
          prefix, static_cast<std::uint32_t>(values_.size()));
      if (!fresh) {
        values_[it->second] = value;
        continue;
      }
      values_.push_back(value);
      prefixes_.push_back(prefix);
      ++starts[prefix.length() + 1u];
    }
    for (std::size_t len = 1; len < starts.size(); ++len)
      starts[len] += starts[len - 1];
    std::vector<std::uint32_t> by_length(values_.size());
    for (std::uint32_t index = 0; index < by_length.size(); ++index)
      by_length[starts[prefixes_[index].length()]++] = index;

    for (const std::uint32_t index : by_length) {
      const std::uint32_t net = prefixes_[index].network().value();
      const std::uint8_t len = prefixes_[index].length();
      if (len <= 24) {
        std::fill_n(&top_[net >> 8], std::size_t{1} << (24 - len), index);
      } else {
        const std::size_t base = spill_base(net >> 8);
        std::fill_n(&spill_[base + (net & 0xFFu)],
                    std::size_t{1} << (32 - len), index);
      }
    }
  }

  /// Inserts or overwrites the payload at `prefix`. First insert
  /// allocates the 64 MiB top array; an empty table costs nothing.
  void insert(Ipv4Prefix prefix, T value) {
    if (top_.empty())
      top_ = util::HugeArray<std::uint32_t>(kTopSlots, kNoMatch);

    const auto exact = exact_.find(prefix);
    if (exact != exact_.end()) {
      // Same prefix re-announced: every table entry already points at
      // this payload slot, so overwriting the slot updates them all.
      values_[exact->second] = std::move(value);
      return;
    }
    const auto index = static_cast<std::uint32_t>(values_.size());
    values_.push_back(std::move(value));
    prefixes_.push_back(prefix);
    exact_.try_emplace(prefix, index);

    const std::uint32_t net = prefix.network().value();
    const std::uint8_t len = prefix.length();
    if (len <= 24) {
      const std::uint32_t first = net >> 8;
      const std::uint32_t count = 1u << (24 - len);
      for (std::uint32_t slot = first; slot < first + count; ++slot) {
        std::uint32_t& entry = top_[slot];
        if (entry & kSpillBit) {
          // The slot fans out: apply the overwrite rule per spill entry.
          const std::size_t base =
              static_cast<std::size_t>(entry & ~kSpillBit) << 8;
          for (std::size_t i = 0; i < kSpillEntries; ++i) {
            std::uint32_t& spilled = spill_[base + i];
            if (covers(spilled, len)) spilled = index;
          }
        } else if (covers(entry, len)) {
          entry = index;
        }
      }
    } else {
      const std::size_t base = spill_base(net >> 8);
      const std::uint32_t first = net & 0xFFu;
      const std::uint32_t count = 1u << (32 - len);
      for (std::uint32_t i = first; i < first + count; ++i) {
        std::uint32_t& spilled = spill_[base + i];
        if (covers(spilled, len)) spilled = index;
      }
    }
  }

  /// Longest-prefix match, pointer form: one top-array load, plus one
  /// spill load when the /24 slot holds any more-specific route. Stable
  /// until the next insert.
  [[nodiscard]] const T* lookup_ptr(Ipv4Addr addr) const noexcept {
    const std::uint32_t entry = slot_of(addr);
    return entry == kNoMatch ? nullptr : &values_[entry];
  }

  [[nodiscard]] std::optional<T> lookup(Ipv4Addr addr) const {
    const T* found = lookup_ptr(addr);
    return found ? std::optional<T>{*found} : std::nullopt;
  }

  /// The most specific stored prefix containing `addr`, with its payload.
  [[nodiscard]] std::optional<std::pair<Ipv4Prefix, T>> lookup_prefix(
      Ipv4Addr addr) const {
    const std::uint32_t entry = slot_of(addr);
    if (entry == kNoMatch) return std::nullopt;
    return std::pair<Ipv4Prefix, T>{prefixes_[entry], values_[entry]};
  }

  /// Exact-match lookup of a stored prefix.
  [[nodiscard]] const T* find_exact(Ipv4Prefix prefix) const {
    const auto it = exact_.find(prefix);
    return it == exact_.end() ? nullptr : &values_[it->second];
  }

  /// Batched lookup: out[i] = lookup_ptr(addrs[i]), software-pipelined
  /// so many top-array and spill loads are in flight at once (see
  /// walk_range). Requires out.size() >= addrs.size().
  void lookup_batch(std::span<const Ipv4Addr> addrs,
                    std::span<const T*> out) const noexcept {
    if (top_.empty()) {
      std::fill_n(out.begin(), addrs.size(), nullptr);
      return;
    }
    walk_range(addrs, out);
  }

  /// Distinct stored prefixes.
  [[nodiscard]] std::size_t size() const noexcept { return exact_.size(); }

  /// Spill blocks allocated (each 256 entries = 1 KiB).
  [[nodiscard]] std::size_t spill_blocks() const noexcept {
    return spill_.size() >> 8;
  }

  /// Bytes held by the table arrays (top + spill + payload pool).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return top_.size() * sizeof(std::uint32_t) +
           spill_.size() * sizeof(std::uint32_t) +
           values_.size() * sizeof(T) + prefixes_.size() * sizeof(Ipv4Prefix);
  }

  /// What backs the top array (huge pages or the 4 KiB fallback).
  [[nodiscard]] util::PageBacking top_backing() const noexcept {
    return top_.backing();
  }

  /// Visits every stored (prefix, payload) pair ordered by
  /// (network, length) — the same order PrefixTrie::for_each yields.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::vector<std::uint32_t> order(values_.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                const Ipv4Prefix& pa = prefixes_[a];
                const Ipv4Prefix& pb = prefixes_[b];
                if (pa.network() != pb.network())
                  return pa.network() < pb.network();
                return pa.length() < pb.length();
              });
    for (const std::uint32_t i : order) fn(prefixes_[i], values_[i]);
  }

 private:
  static constexpr std::size_t kTopSlots = 1u << 24;
  static constexpr std::size_t kSpillEntries = 256;
  /// Entry encoding: kNoMatch = no covering prefix; high bit set = spill
  /// block index (top array only); otherwise a payload index.
  static constexpr std::uint32_t kNoMatch = 0x7FFFFFFFu;
  static constexpr std::uint32_t kSpillBit = 0x80000000u;

  /// May a /`len` insert overwrite `entry`? Yes when the entry is empty
  /// or its current match is no more specific. (Equal length implies the
  /// same prefix over any shared range, and distinct prefixes reach here
  /// — exact re-inserts short-circuit in insert().)
  [[nodiscard]] bool covers(std::uint32_t entry,
                            std::uint8_t len) const noexcept {
    return entry == kNoMatch || prefixes_[entry].length() <= len;
  }

  /// Start of `slot`'s spill block. A slot without one fans out first,
  /// every new spill entry seeded with the slot's current best <= /24
  /// match (possibly "none").
  std::size_t spill_base(std::uint32_t slot) {
    std::uint32_t& entry = top_[slot];
    if (!(entry & kSpillBit)) {
      const auto block = static_cast<std::uint32_t>(spill_.size() >> 8);
      spill_.insert(spill_.end(), kSpillEntries, entry);
      entry = kSpillBit | block;
    }
    return static_cast<std::size_t>(entry & ~kSpillBit) << 8;
  }

  /// Resolve: one top load, one spill load when fanned out.
  [[nodiscard]] std::uint32_t slot_of(Ipv4Addr addr) const noexcept {
    if (top_.empty()) return kNoMatch;
    std::uint32_t entry = top_[addr.value() >> 8];
    if (entry & kSpillBit)
      entry = spill_[(static_cast<std::size_t>(entry & ~kSpillBit) << 8) |
                     (addr.value() & 0xFFu)];
    return entry;
  }

  /// The software-pipelined whole-range walk: top entries are staged
  /// kStage iterations early so a spill block's line is already in
  /// flight when its turn comes, and top lines prefetched kTopAhead ahead
  /// of the stage.
  void walk_range(std::span<const Ipv4Addr> addrs,
                  std::span<const T*> out) const noexcept {
    const std::size_t n = addrs.size();
    constexpr std::size_t kStage = 8;
    constexpr std::size_t kTopAhead = 16;
    std::uint32_t staged[kStage];

    const auto stage = [&](std::size_t j) noexcept {
      const std::uint32_t entry = top_[addrs[j].value() >> 8];
      staged[j % kStage] = entry;
      if (entry & kSpillBit)
        __builtin_prefetch(
            &spill_[(static_cast<std::size_t>(entry & ~kSpillBit) << 8) |
                    (addrs[j].value() & 0xFFu)]);
    };

    const std::size_t lead = std::min(kStage, n);
    for (std::size_t j = 0; j < lead; ++j) {
      if (j + kTopAhead < n)
        __builtin_prefetch(&top_[addrs[j + kTopAhead].value() >> 8]);
      stage(j);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kTopAhead < n)
        __builtin_prefetch(&top_[addrs[i + kTopAhead].value() >> 8]);
      std::uint32_t entry = staged[i % kStage];
      if (i + kStage < n) stage(i + kStage);  // reuses the slot just read
      if (entry & kSpillBit)
        entry = spill_[(static_cast<std::size_t>(entry & ~kSpillBit) << 8) |
                       (addrs[i].value() & 0xFFu)];
      out[i] = entry == kNoMatch ? nullptr : &values_[entry];
    }
  }

  util::HugeArray<std::uint32_t> top_;  // 2^24 entries, lazily allocated
  std::vector<std::uint32_t> spill_;    // 256-entry blocks for /25–/32
  std::vector<T> values_;               // payload pool, indexed by entries
  std::vector<Ipv4Prefix> prefixes_;    // parallel: matched prefix + length
  util::FlatHashMap<Ipv4Prefix, std::uint32_t> exact_;  // prefix -> index
};

}  // namespace ixp::net
