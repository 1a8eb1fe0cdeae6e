// Sums of 64-bit values per 32-bit key: an open-addressing hash table
// (linear probing, power-of-two capacity, at most half full) that is reused
// across batches. drain() hands the sums out and empties the table while
// keeping its capacity, so a loop of small batches allocates only while
// the largest batch grows the table.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dm::util {

class SumTable {
 public:
  void add(std::uint32_t key, std::uint64_t value) {
    if (2 * (used_.size() + 1) > keys_.size()) grow();
    const std::size_t slot = find(std::uint64_t{key} + 1);
    if (keys_[slot] == 0) {
      keys_[slot] = std::uint64_t{key} + 1;
      used_.push_back(slot);
    }
    sums_[slot] += value;
  }

  /// Calls f(key, sum) for every key added since the last drain, in
  /// insertion order, and empties the table.
  template <typename F>
  void drain(F&& f) {
    for (const std::size_t slot : used_) {
      f(static_cast<std::uint32_t>(keys_[slot] - 1), sums_[slot]);
      keys_[slot] = 0;
      sums_[slot] = 0;
    }
    used_.clear();
  }

 private:
  /// The slot holding `stored` (key + 1), or the free slot it belongs in.
  [[nodiscard]] std::size_t find(std::uint64_t stored) const noexcept {
    const std::size_t mask = keys_.size() - 1;
    std::size_t slot = ((stored * 0x9e3779b97f4a7c15ull) >> 32) & mask;
    while (keys_[slot] != 0 && keys_[slot] != stored) slot = (slot + 1) & mask;
    return slot;
  }

  void grow() {
    std::vector<std::uint64_t> keys(std::max<std::size_t>(64, 2 * keys_.size()));
    std::vector<std::uint64_t> sums(keys.size());
    keys_.swap(keys);
    sums_.swap(sums);
    for (std::size_t& slot : used_) {
      const std::size_t moved = find(keys[slot]);
      keys_[moved] = keys[slot];
      sums_[moved] = sums[slot];
      slot = moved;
    }
  }

  std::vector<std::uint64_t> keys_;  ///< key + 1; 0 marks a free slot
  std::vector<std::uint64_t> sums_;
  std::vector<std::size_t> used_;    ///< occupied slots, in insertion order
};

}  // namespace dm::util
