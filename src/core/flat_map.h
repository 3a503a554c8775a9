// Open-addressing hash containers with *deterministic* iteration order —
// the hot-table replacement for std::map / std::unordered_map across the
// control plane (flow tables, NIB indexes, endpoint maps, graph adjacency).
//
// Layout: entries live in one dense, insertion-ordered vector (cache-line
// friendly scans, no per-node allocation); an open-addressing index of
// 32-bit entry references (linear probing, power-of-two capacity) provides
// O(1) lookup. Iteration walks the dense vector, so the order is a pure
// function of the operation sequence — never of the hash seed, pointer
// values, or rehash history. That property is part of the engine's
// determinism contract (DESIGN §12): any iteration a simulation result
// depends on replays identically across runs.
//
// Erase uses swap-with-last on the dense vector (the last-inserted entry
// moves into the erased position) plus backward-shift deletion in the index,
// so there are no tombstones and load factor stays honest. The perturbation
// of iteration order on erase is itself deterministic.
//
// NOT thread-safe; these tables are shard-confined like every structure the
// analysis::ShardGuard checker watches. Pointers and iterators into the map
// are invalidated by any mutation (no pointer-stability promises — callers
// hold keys or dense handles instead).
#pragma once

#include <cstdint>
#include <cstddef>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace softmow::core {

namespace detail {

/// Fixed-constant 64-bit mixer (splitmix64 finalizer). Sequential and
/// strided keys — the norm for IDs here — spread uniformly, and the result
/// never depends on process state, so index layouts are reproducible.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <class T, class = void>
struct has_value_member : std::false_type {};
template <class T>
struct has_value_member<T, std::void_t<decltype(std::declval<const T&>().value)>>
    : std::is_integral<std::remove_cvref_t<decltype(std::declval<const T&>().value)>> {};

}  // namespace detail

/// Deterministic hash: integral types and Id-like types (any type exposing
/// an integral `.value`, e.g. softmow::Id<Tag>) mix their raw bits; pairs
/// combine both halves; everything else defers to std::hash then mixes.
/// Never hash pointers — pointer values vary run to run (the determinism
/// lint's pointer-key check enforces this repo-wide).
template <class K>
struct FlatHash {
  std::uint64_t operator()(const K& key) const {
    if constexpr (std::is_integral_v<K> || std::is_enum_v<K>) {
      return detail::mix64(static_cast<std::uint64_t>(key));
    } else if constexpr (detail::has_value_member<K>::value) {
      return detail::mix64(static_cast<std::uint64_t>(key.value));
    } else {
      return detail::mix64(static_cast<std::uint64_t>(std::hash<K>{}(key)));
    }
  }
};

template <class A, class B>
struct FlatHash<std::pair<A, B>> {
  std::uint64_t operator()(const std::pair<A, B>& p) const {
    std::uint64_t h1 = FlatHash<A>{}(p.first);
    std::uint64_t h2 = FlatHash<B>{}(p.second);
    return detail::mix64(h1 ^ (h2 + 0x9e3779b97f4a7c15ull + (h1 << 6) + (h1 >> 2)));
  }
};

/// Insertion-ordered open-addressing map. See file comment for the layout
/// and determinism contract. `value_type` is std::pair<K, V> (K non-const:
/// entries relocate on erase); do not mutate keys through iterators.
template <class K, class V, class Hash = FlatHash<K>>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  [[nodiscard]] iterator begin() { return entries_.begin(); }
  [[nodiscard]] iterator end() { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }

  void clear() {
    entries_.clear();
    slots_.assign(slots_.size(), kEmpty);
  }

  void reserve(std::size_t n) {
    entries_.reserve(n);
    grow_index(n);
  }

  [[nodiscard]] iterator find(const K& key) {
    std::uint32_t e = find_entry(key);
    return e == kEmpty ? entries_.end() : entries_.begin() + e;
  }
  [[nodiscard]] const_iterator find(const K& key) const {
    std::uint32_t e = find_entry(key);
    return e == kEmpty ? entries_.end() : entries_.begin() + e;
  }
  /// Pointer to the mapped value, or nullptr — the no-copy lookup used on
  /// hot paths. Valid until the next mutation (no pointer stability).
  [[nodiscard]] V* find_value(const K& key) {
    std::uint32_t e = find_entry(key);
    return e == kEmpty ? nullptr : &entries_[e].second;
  }
  [[nodiscard]] const V* find_value(const K& key) const {
    std::uint32_t e = find_entry(key);
    return e == kEmpty ? nullptr : &entries_[e].second;
  }

  [[nodiscard]] bool contains(const K& key) const { return find_entry(key) != kEmpty; }
  [[nodiscard]] std::size_t count(const K& key) const { return contains(key) ? 1 : 0; }

  [[nodiscard]] V& at(const K& key) {
    std::uint32_t e = find_entry(key);
    if (e == kEmpty) throw std::out_of_range("FlatMap::at: no such key");
    return entries_[e].second;
  }
  [[nodiscard]] const V& at(const K& key) const {
    std::uint32_t e = find_entry(key);
    if (e == kEmpty) throw std::out_of_range("FlatMap::at: no such key");
    return entries_[e].second;
  }

  V& operator[](const K& key) { return try_emplace(key).first->second; }

  template <class... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    std::uint32_t e = find_entry(key);
    if (e != kEmpty) return {entries_.begin() + e, false};
    push_entry(key, V(std::forward<Args>(args)...));
    return {entries_.end() - 1, true};
  }

  std::pair<iterator, bool> insert(value_type kv) {
    std::uint32_t e = find_entry(kv.first);
    if (e != kEmpty) return {entries_.begin() + e, false};
    push_entry(std::move(kv.first), std::move(kv.second));
    return {entries_.end() - 1, true};
  }

  /// Insert-or-assign (std::map operator[]-with-move idiom).
  std::pair<iterator, bool> insert_or_assign(const K& key, V value) {
    std::uint32_t e = find_entry(key);
    if (e != kEmpty) {
      entries_[e].second = std::move(value);
      return {entries_.begin() + e, false};
    }
    push_entry(key, std::move(value));
    return {entries_.end() - 1, true};
  }

  template <class... Args>
  std::pair<iterator, bool> emplace(const K& key, Args&&... args) {
    return try_emplace(key, std::forward<Args>(args)...);
  }

  std::size_t erase(const K& key) {
    std::uint32_t slot = find_slot(key);
    if (slot == kEmpty) return 0;
    erase_at_slot(slot);
    return 1;
  }

  /// Erases every entry matching `pred(value_type)`; returns how many.
  /// Deterministic: scans the dense vector in order, and each erase's
  /// swap-with-last perturbation is a pure function of the entry sequence.
  template <class Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t n = 0;
    for (std::size_t i = 0; i < entries_.size();) {
      if (pred(entries_[i])) {
        erase(entries_[i].first);
        ++n;
      } else {
        ++i;
      }
    }
    return n;
  }

  /// Erases by iterator (the entry the iterator designates); returns the
  /// iterator to the entry now occupying that dense position (or end()).
  iterator erase(const_iterator pos) {
    std::uint32_t slot = find_slot(pos->first);
    std::size_t dense = static_cast<std::size_t>(pos - entries_.begin());
    erase_at_slot(slot);
    return entries_.begin() + static_cast<std::ptrdiff_t>(dense);
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  std::vector<value_type> entries_;
  std::vector<std::uint32_t> slots_;  ///< entry indices; kEmpty = vacant
  std::size_t mask_ = 0;              ///< slots_.size() - 1 (power of two)

  [[nodiscard]] std::size_t home_of(const K& key) const {
    return static_cast<std::size_t>(Hash{}(key)) & mask_;
  }

  [[nodiscard]] std::uint32_t find_entry(const K& key) const {
    std::uint32_t s = find_slot(key);
    return s == kEmpty ? kEmpty : slots_[s];
  }

  /// The *slot* holding `key`, or kEmpty.
  [[nodiscard]] std::uint32_t find_slot(const K& key) const {
    if (slots_.empty()) return kEmpty;
    std::size_t i = home_of(key);
    for (;;) {
      std::uint32_t e = slots_[i];
      if (e == kEmpty) return kEmpty;
      if (entries_[e].first == key) return static_cast<std::uint32_t>(i);
      i = (i + 1) & mask_;
    }
  }

  void push_entry(K key, V value) {
    if ((entries_.size() + 1) * 10 >= slots_.size() * 7) grow_index(entries_.size() + 1);
    entries_.emplace_back(std::move(key), std::move(value));
    place_index(static_cast<std::uint32_t>(entries_.size() - 1));
  }

  void place_index(std::uint32_t entry) {
    std::size_t i = home_of(entries_[entry].first);
    while (slots_[i] != kEmpty) i = (i + 1) & mask_;
    slots_[i] = entry;
  }

  /// Rebuilds the index at >= 2*need slots (min 8), reinserting in dense
  /// order — the layout after a rehash depends only on the entry sequence.
  void grow_index(std::size_t need) {
    std::size_t cap = 8;
    while (cap * 7 < need * 10 * 2) cap <<= 1;  // target load <= 0.35 post-grow
    if (cap <= slots_.size()) cap = slots_.size() * 2;
    slots_.assign(cap, kEmpty);
    mask_ = cap - 1;
    for (std::uint32_t e = 0; e < entries_.size(); ++e) place_index(e);
  }

  void erase_at_slot(std::uint32_t slot) {
    std::uint32_t entry = slots_[slot];
    std::uint32_t last = static_cast<std::uint32_t>(entries_.size() - 1);
    if (entry != last) {
      // Move the last entry into the hole and repoint its slot. The slot is
      // located *before* the move: probing afterwards could land on `slot`
      // (whose entry then holds the same key) and leave the real slot
      // dangling at the popped index.
      std::uint32_t moved_slot = find_slot(entries_[last].first);
      entries_[entry] = std::move(entries_[last]);
      slots_[moved_slot] = entry;
    }
    entries_.pop_back();
    // Backward-shift deletion: close the probe chain through `slot`.
    std::size_t hole = slot;
    std::size_t i = (hole + 1) & mask_;
    while (slots_[i] != kEmpty) {
      std::size_t home = home_of(entries_[slots_[i]].first);
      // Can the element at i legally move into the hole? Yes iff the hole
      // lies cyclically between its home and i.
      bool movable = ((i >= home) ? (hole >= home && hole < i)
                                  : (hole >= home || hole < i));
      if (movable) {
        slots_[hole] = slots_[i];
        hole = i;
      }
      i = (i + 1) & mask_;
    }
    slots_[hole] = kEmpty;
  }
};

/// Insertion-ordered open-addressing set with the same determinism contract
/// as FlatMap (iteration = insertion order; erase swaps the last key in).
template <class K, class Hash = FlatHash<K>>
class FlatSet {
 public:
  using const_iterator = typename std::vector<K>::const_iterator;

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); keys_.clear(); }
  void reserve(std::size_t n) { map_.reserve(n); keys_.reserve(n); }

  std::pair<const_iterator, bool> insert(const K& key) {
    auto [it, fresh] = map_.try_emplace(key, 0u);
    if (fresh) {
      it->second = static_cast<std::uint32_t>(keys_.size());
      keys_.push_back(key);
      return {keys_.end() - 1, true};
    }
    return {keys_.begin() + it->second, false};
  }

  std::size_t erase(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return 0;
    std::uint32_t pos = it->second;
    map_.erase(key);
    std::uint32_t last = static_cast<std::uint32_t>(keys_.size() - 1);
    if (pos != last) {
      keys_[pos] = keys_[last];
      map_.at(keys_[pos]) = pos;
    }
    keys_.pop_back();
    return 1;
  }

  [[nodiscard]] bool contains(const K& key) const { return map_.contains(key); }
  [[nodiscard]] std::size_t count(const K& key) const { return map_.count(key); }

  [[nodiscard]] const_iterator begin() const { return keys_.begin(); }
  [[nodiscard]] const_iterator end() const { return keys_.end(); }
  [[nodiscard]] const_iterator find(const K& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? keys_.end() : keys_.begin() + it->second;
  }

  /// The keys in insertion order (dense backing array).
  [[nodiscard]] const std::vector<K>& keys() const { return keys_; }

 private:
  FlatMap<K, std::uint32_t, Hash> map_;  ///< key -> position in keys_
  std::vector<K> keys_;
};

}  // namespace softmow::core
