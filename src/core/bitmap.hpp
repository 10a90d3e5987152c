// Concurrent bitmap, the workhorse of level-synchronous BFS.
//
// Both the Graph500 reference code and GAP's direction-optimizing BFS keep
// "visited" and frontier sets as bitmaps; bottom-up BFS steps scan them.
// set_atomic() uses fetch_or so concurrent setters are safe; plain set()
// is for single-writer phases.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/prefetch.hpp"

namespace epgs {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64) {}

  [[nodiscard]] std::size_t size() const { return num_bits_; }

  void reset() {
    for (auto& w : words_) w.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] bool test(std::size_t i) const {
    return (words_[i >> 6].load(std::memory_order_relaxed) >>
            (i & 63)) & 1ULL;
  }

  /// Non-atomic set; single writer per word only.
  void set(std::size_t i) {
    words_[i >> 6].store(
        words_[i >> 6].load(std::memory_order_relaxed) | (1ULL << (i & 63)),
        std::memory_order_relaxed);
  }

  /// Atomically set bit i; returns true iff this call flipped it 0 -> 1.
  bool set_atomic(std::size_t i) {
    const std::uint64_t mask = 1ULL << (i & 63);
    const std::uint64_t prev =
        words_[i >> 6].fetch_or(mask, std::memory_order_relaxed);
    return (prev & mask) == 0;
  }

  /// Hint the hardware to pull the word holding bit i into cache.
  /// Traversal loops call this a few iterations ahead of test().
  void prefetch(std::size_t i) const { prefetch_read(&words_[i >> 6]); }

  /// Population count (number of set bits). Not synchronised with writers.
  [[nodiscard]] std::size_t count() const {
    std::size_t c = 0;
    for (const auto& w : words_) {
      c += static_cast<std::size_t>(
          __builtin_popcountll(w.load(std::memory_order_relaxed)));
    }
    return c;
  }

  /// Number of backing 64-bit words.
  [[nodiscard]] std::size_t num_words() const { return words_.size(); }

  /// Raw word `w` (bits w*64 .. w*64+63). Not synchronised with writers;
  /// word-granular readers (parallel compaction) run after a barrier.
  [[nodiscard]] std::uint64_t word(std::size_t w) const {
    return words_[w].load(std::memory_order_relaxed);
  }

  /// Overwrite word `w`; single writer per word only.
  void set_word(std::size_t w, std::uint64_t bits) {
    words_[w].store(bits, std::memory_order_relaxed);
  }

  void swap(Bitmap& other) noexcept {
    words_.swap(other.words_);
    std::swap(num_bits_, other.num_bits_);
  }

 private:
  std::size_t num_bits_ = 0;
  std::vector<std::atomic<std::uint64_t>> words_;
};

}  // namespace epgs
