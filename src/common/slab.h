// Slab, interning, and open-addressed index primitives for the memory diet.
//
// The million-endpoint experiments (E10) are memory-bound before they are
// CPU-bound: node-per-bit tries, per-endpoint std::vector copies and nested
// unordered_maps each cost 50-100+ bytes of allocator overhead per logical
// entry. The structures here follow the EventQueue slab from PR 1 —
// contiguous storage, 32-bit handles, explicit free lists — and add two
// sharing primitives:
//
//   Slab<T>        contiguous arena of T with a free list; handles are
//                  uint32_t indices, stable until Free (storage may move on
//                  Alloc, so hold handles, not pointers).
//   InternPool<T>  refcounted deduplication: identical values share one
//                  slot. Many endpoints carry byte-identical permit lists
//                  and most BGP routes share a handful of AS paths; the
//                  pool makes each distinct value cost its bytes once.
//   AddrIndex      open-addressed IpAddress -> uint32_t map in
//                  struct-of-arrays form (~20 bytes/slot vs ~56+ for an
//                  unordered_map node). No erase: endpoint slots are
//                  append-only by design (epochs must survive removals).
//   StringInterner small registry mapping repeated label strings (deny
//                  stages, route provenance) to dense uint32 ids so hot
//                  loops count by id and only reports pay for strings.
//
// Every structure reports ApproxBytes(): capacity-based accounting that the
// telemetry gauges and E10's bytes/endpoint records are built from.

#ifndef TENANTNET_SRC_COMMON_SLAB_H_
#define TENANTNET_SRC_COMMON_SLAB_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/net/ip.h"

namespace tenantnet {

// Sentinel for "no slab handle" / "no intern id" / "no index value".
inline constexpr uint32_t kNilId = 0xFFFFFFFFu;

// Contiguous arena with free-list reuse. Freed slots are reset to T() so a
// slab of vectors releases its heap immediately on Free.
template <typename T>
class Slab {
 public:
  uint32_t Alloc(T value = T()) {
    if (!free_.empty()) {
      uint32_t id = free_.back();
      free_.pop_back();
      slots_[id] = std::move(value);
      return id;
    }
    slots_.push_back(std::move(value));
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  void Free(uint32_t id) {
    slots_[id] = T();
    free_.push_back(id);
  }

  T& Get(uint32_t id) { return slots_[id]; }
  const T& Get(uint32_t id) const { return slots_[id]; }

  // Live slot count (allocated minus freed).
  size_t size() const { return slots_.size() - free_.size(); }

  void Clear() {
    slots_.clear();
    free_.clear();
  }

  void ShrinkToFit() {
    slots_.shrink_to_fit();
    free_.shrink_to_fit();
  }

  // Container overhead only; element-owned heap (e.g. vector payloads) is
  // the caller's to account for via `extra`.
  size_t ApproxBytes() const {
    return slots_.capacity() * sizeof(T) + free_.capacity() * sizeof(uint32_t);
  }

 private:
  std::vector<T> slots_;
  std::vector<uint32_t> free_;
};

// Refcounted value deduplication. Intern() returns the id of the (single)
// slot holding a value equal to the argument, creating it at refcount 1 or
// bumping the existing slot's refcount. Release() drops a reference and
// frees the slot at zero. Ids are stable for the lifetime of the reference.
template <typename T, typename Hash = std::hash<T>>
class InternPool {
 public:
  uint32_t Intern(T value) {
    const size_t h = Hash{}(value);
    auto [lo, hi] = index_.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      Entry& e = entries_[it->second];
      if (e.value == value) {
        ++e.refs;
        return it->second;
      }
    }
    uint32_t id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
      entries_[id] = Entry{std::move(value), 1, h};
    } else {
      id = static_cast<uint32_t>(entries_.size());
      entries_.push_back(Entry{std::move(value), 1, h});
    }
    index_.emplace(h, id);
    return id;
  }

  void AddRef(uint32_t id) { ++entries_[id].refs; }

  void Release(uint32_t id) {
    Entry& e = entries_[id];
    assert(e.refs > 0);
    if (--e.refs > 0) {
      return;
    }
    auto [lo, hi] = index_.equal_range(e.hash);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == id) {
        index_.erase(it);
        break;
      }
    }
    e.value = T();
    free_.push_back(id);
  }

  const T& Get(uint32_t id) const { return entries_[id].value; }
  // Mutable access for caches piggybacked on the value (e.g. a lazily
  // compiled matcher); fields that feed operator== / Hash must stay fixed.
  T& GetMutable(uint32_t id) { return entries_[id].value; }

  // Distinct live values.
  size_t size() const { return entries_.size() - free_.size(); }

  void Clear() {
    entries_.clear();
    free_.clear();
    index_.clear();
  }

  size_t ApproxBytes() const {
    // unordered_multimap node: hash-next pointer + key + mapped (+ bucket).
    return entries_.capacity() * sizeof(Entry) +
           free_.capacity() * sizeof(uint32_t) +
           index_.size() * (sizeof(void*) + sizeof(size_t) + sizeof(uint32_t) +
                            sizeof(void*)) +
           index_.bucket_count() * sizeof(void*);
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {  // fn(id, value, refs) over live slots
    for (const auto& [h, id] : index_) {
      (void)h;
      fn(id, entries_[id].value, entries_[id].refs);
    }
  }

 private:
  struct Entry {
    T value{};
    uint32_t refs = 0;
    size_t hash = 0;
  };
  std::vector<Entry> entries_;
  std::vector<uint32_t> free_;
  std::unordered_multimap<size_t, uint32_t> index_;
};

// Open-addressed IpAddress -> uint32_t map, struct-of-arrays. Linear
// probing, load factor <= 0.8, no erase. Values must be < 2^31: the
// family bit of the key is packed into the value word's top bit so a slot
// is 20 bytes (hi, lo, tagged value) instead of a 56+ byte map node.
class AddrIndex {
 public:
  AddrIndex() { Rehash(kMinCapacity); }

  // Value registered for `addr`, or kNilId.
  uint32_t Lookup(IpAddress addr) const {
    const uint64_t fam = addr.family() == IpFamily::kIpv6 ? 1u : 0u;
    size_t i = std::hash<IpAddress>{}(addr) % cap_;
    for (;;) {
      const uint32_t tagged = val_[i];
      if (tagged == kNilId) {
        return kNilId;
      }
      if (hi_[i] == addr.hi() && lo_[i] == addr.lo() && (tagged >> 31) == fam) {
        return tagged & 0x7FFFFFFFu;
      }
      i = i + 1 == cap_ ? 0 : i + 1;
    }
  }

  // Inserts addr -> value (value < 2^31). Precondition: addr not present.
  void Insert(IpAddress addr, uint32_t value) {
    assert(value < 0x80000000u);
    if ((size_ + 1) * 5 > cap_ * 4) {
      Rehash(cap_ * 2);
    }
    InsertNoGrow(addr, value);
    ++size_;
  }

  // Pre-sizes for `n` entries (benches that know the population up front:
  // avoids both rehash churn and power-of-two overshoot).
  void Reserve(size_t n) {
    size_t want = n * 5 / 4 + 1;
    if (want > cap_) {
      Rehash(want);
    }
  }

  size_t size() const { return size_; }

  void Clear() {
    hi_.clear();
    lo_.clear();
    val_.clear();
    size_ = 0;
    Rehash(kMinCapacity);
  }

  size_t ApproxBytes() const {
    return hi_.capacity() * sizeof(uint64_t) +
           lo_.capacity() * sizeof(uint64_t) +
           val_.capacity() * sizeof(uint32_t);
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {  // fn(IpAddress, uint32_t value)
    for (size_t i = 0; i < cap_; ++i) {
      if (val_[i] == kNilId) {
        continue;
      }
      fn(AddressAt(i), val_[i] & 0x7FFFFFFFu);
    }
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  IpAddress AddressAt(size_t i) const {
    return (val_[i] >> 31) != 0
               ? IpAddress::V6(hi_[i], lo_[i])
               : IpAddress::V4(static_cast<uint32_t>(lo_[i]));
  }

  void InsertNoGrow(IpAddress addr, uint32_t value) {
    size_t i = std::hash<IpAddress>{}(addr) % cap_;
    while (val_[i] != kNilId) {
      i = i + 1 == cap_ ? 0 : i + 1;
    }
    hi_[i] = addr.hi();
    lo_[i] = addr.lo();
    val_[i] = value |
              (addr.family() == IpFamily::kIpv6 ? 0x80000000u : 0u);
  }

  void Rehash(size_t new_cap) {
    std::vector<uint64_t> old_hi = std::move(hi_);
    std::vector<uint64_t> old_lo = std::move(lo_);
    std::vector<uint32_t> old_val = std::move(val_);
    cap_ = new_cap;
    hi_.assign(cap_, 0);
    lo_.assign(cap_, 0);
    val_.assign(cap_, kNilId);
    for (size_t i = 0; i < old_val.size(); ++i) {
      if (old_val[i] == kNilId) {
        continue;
      }
      IpAddress addr = (old_val[i] >> 31) != 0
                           ? IpAddress::V6(old_hi[i], old_lo[i])
                           : IpAddress::V4(static_cast<uint32_t>(old_lo[i]));
      InsertNoGrow(addr, old_val[i] & 0x7FFFFFFFu);
    }
  }

  std::vector<uint64_t> hi_;
  std::vector<uint64_t> lo_;
  std::vector<uint32_t> val_;  // kNilId = empty; top bit = family tag
  size_t cap_ = 0;
  size_t size_ = 0;
};

// Registry of repeated label strings -> dense ids. Id 0 is always the empty
// string. Thread-safe: labels are interned from setup code but may be read
// from concurrent bench shards.
class StringInterner {
 public:
  // Looking up a known label copies nothing.
  uint32_t Intern(std::string_view label) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ids_.find(label);
    if (it != ids_.end()) {
      return it->second;
    }
    uint32_t id = static_cast<uint32_t>(names_.size());
    names_.emplace_back(label);
    ids_.emplace(names_.back(), id);
    return id;
  }

  // Report-time only; ids are never recycled.
  std::string Name(uint32_t id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return id < names_.size() ? names_[id] : std::string();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return names_.size();
  }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  mutable std::mutex mu_;
  std::vector<std::string> names_{std::string()};  // id 0 = ""
  std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>> ids_{
      {std::string(), 0}};
};

}  // namespace tenantnet

#endif  // TENANTNET_SRC_COMMON_SLAB_H_
