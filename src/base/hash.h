// Hashing utilities: 64-bit FNV-1a, hash combining, and an interning table
// that maps arbitrary byte signatures to small dense canonical ids.
//
// Canonical ids are the backbone of the WL implementations: two vertices
// (possibly in different graphs) receive the same color id iff their
// refinement signatures are identical, which makes colorings directly
// comparable across graphs.
#ifndef GELC_BASE_HASH_H_
#define GELC_BASE_HASH_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/logging.h"

namespace gelc {

/// 64-bit FNV-1a over a byte range.
inline uint64_t Fnv1a64(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

inline uint64_t Fnv1a64(std::string_view s) { return Fnv1a64(s.data(), s.size()); }

/// Boost-style hash combining with 64-bit golden-ratio mixing.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4);
  return seed;
}

/// Hashes a vector of u64 values order-sensitively.
inline uint64_t HashU64Span(const uint64_t* data, size_t n) {
  uint64_t h = 0x2545F4914F6CDD1DULL;
  for (size_t i = 0; i < n; ++i) h = HashCombine(h, data[i]);
  return h;
}

/// Serializes u64 words to bytes (the encoding Interner::InternWords
/// uses). Signature bytes can be built in parallel shards and interned in
/// a deterministic second pass; the bytes are identical to interning the
/// word vectors directly.
inline std::string EncodeWords(const uint64_t* data, size_t n) {
  std::string buf(n * sizeof(uint64_t), '\0');
  if (n > 0) std::memcpy(buf.data(), data, buf.size());
  return buf;
}

inline std::string EncodeWords(const std::vector<uint64_t>& words) {
  return EncodeWords(words.data(), words.size());
}

/// Maps byte-string signatures to dense canonical ids 0,1,2,...
///
/// Ids are assigned in first-seen order; interning the same signature again
/// returns the previously assigned id. A single Interner shared between two
/// graphs yields colorings that can be compared by id equality. Erase(id)
/// forgets a signature and frees its id for a later new signature; an
/// interner that never erases hands out exactly 0, 1, 2, ...
///
/// One flat open-addressing table (linear probing, at most half full,
/// backward-shift deletion, so it holds no tombstones). Slots carry the
/// signature's hash and id; the bytes live in arena chunks that never move,
/// so a lookup allocates nothing and growing the table copies no bytes.
/// An erased signature's bytes are reused by a later one of the same word
/// count, so an interner that erases as much as it adds stays bounded.
class Interner {
 public:
  /// Arena chunk size; a signature longer than a quarter chunk gets a
  /// block of its own.
  static constexpr size_t kChunkBytes = size_t{1} << 16;

  Interner() = default;

  /// Returns the canonical id for `signature`, assigning a fresh one if new.
  uint64_t Intern(std::string_view signature);

  /// Interns a sequence of u64 words (serialized little-endian).
  uint64_t InternWords(const std::vector<uint64_t>& words) {
    return Intern(EncodeWords(words));
  }

  /// Forgets the signature holding `id` (which must be live); a later new
  /// signature may receive `id` again.
  void Erase(uint64_t id);

  /// Number of live signatures.
  size_t size() const { return entries_.size() - free_ids_.size(); }

  /// Bytes the arena has allocated for signature bytes (chunks and
  /// long-signature blocks), whether live, reusable or not yet used.
  size_t arena_bytes() const { return arena_bytes_; }

 private:
  static constexpr uint64_t kNoId = ~uint64_t{0};
  struct Slot {
    uint64_t hash;
    uint64_t id;  // kNoId: empty
  };
  struct Entry {
    char* bytes;  // nullptr: the id is free
    size_t len;
    uint64_t hash;
  };

  static size_t Words(size_t len) { return len == 0 ? 1 : (len + 7) / 8; }
  // Doubles the slot array (16 slots at first), reinserting by stored hash.
  void Grow();
  // Copies `signature` into a reused region of its word count, or else into
  // the current chunk (a new one when it is full) or a block of its own.
  char* Store(std::string_view signature);

  std::vector<Slot> slots_;      // power-of-two size
  std::vector<Entry> entries_;   // by id
  std::vector<uint64_t> free_ids_;
  std::vector<std::vector<char*>> free_regions_;  // by word count
  std::vector<std::unique_ptr<char[]>> chunks_;  // kChunkBytes each
  size_t chunk_used_ = 0;  // bytes taken from chunks_.back()
  std::vector<std::unique_ptr<char[]>> blocks_;  // one long signature each
  size_t arena_bytes_ = 0;
};

inline uint64_t Interner::Intern(std::string_view signature) {
  const uint64_t hash = std::hash<std::string_view>{}(signature);
  if (2 * (size() + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  for (; slots_[i].id != kNoId; i = (i + 1) & mask) {
    if (slots_[i].hash != hash) continue;
    const Entry& e = entries_[slots_[i].id];
    if (e.len == signature.size() &&
        (e.len == 0 || std::memcmp(e.bytes, signature.data(), e.len) == 0))
      return slots_[i].id;
  }
  uint64_t id = entries_.size();
  if (free_ids_.empty()) {
    entries_.emplace_back();
  } else {
    id = free_ids_.back();
    free_ids_.pop_back();
  }
  entries_[id] = {Store(signature), signature.size(), hash};
  slots_[i] = {hash, id};
  return id;
}

inline void Interner::Erase(uint64_t id) {
  GELC_CHECK(id < entries_.size() && entries_[id].bytes != nullptr);
  Entry& e = entries_[id];
  const size_t mask = slots_.size() - 1;
  size_t hole = e.hash & mask;
  while (slots_[hole].id != id) hole = (hole + 1) & mask;
  // Backward shift: pull each later slot of the run into the hole unless
  // its home lies cyclically in (hole, j], where it must stay reachable.
  for (size_t j = (hole + 1) & mask; slots_[j].id != kNoId;
       j = (j + 1) & mask) {
    if (((j - slots_[j].hash) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].id = kNoId;
  const size_t words = Words(e.len);
  if (free_regions_.size() <= words) free_regions_.resize(words + 1);
  free_regions_[words].push_back(e.bytes);
  e.bytes = nullptr;
  free_ids_.push_back(id);
}

inline void Interner::Grow() {
  const std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<size_t>(16, 2 * old.size()), Slot{0, kNoId});
  const size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kNoId) continue;
    size_t i = s.hash & mask;
    while (slots_[i].id != kNoId) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

inline char* Interner::Store(std::string_view signature) {
  const size_t words = Words(signature.size());
  char* region = nullptr;
  if (words < free_regions_.size() && !free_regions_[words].empty()) {
    region = free_regions_[words].back();
    free_regions_[words].pop_back();
  } else if (const size_t bytes = words * 8; bytes > kChunkBytes / 4) {
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(bytes));
    region = blocks_.back().get();
    arena_bytes_ += bytes;
  } else {
    if (chunks_.empty() || chunk_used_ + bytes > kChunkBytes) {
      chunks_.push_back(std::make_unique_for_overwrite<char[]>(kChunkBytes));
      chunk_used_ = 0;
      arena_bytes_ += kChunkBytes;
    }
    region = chunks_.back().get() + chunk_used_;
    chunk_used_ += bytes;
  }
  if (!signature.empty())
    std::memcpy(region, signature.data(), signature.size());
  return region;
}

}  // namespace gelc

#endif  // GELC_BASE_HASH_H_
