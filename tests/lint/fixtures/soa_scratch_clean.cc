// Fixture: a batch decoder's SoA scratch-buffer reuse pattern — a
// caller-owned struct-of-arrays block refilled in place by every next()
// call, with consumers indexing only rows [0, count). Stale rows from the
// previous fill are present in memory but never read; none of the
// determinism rules should fire on this shape.
#include <cstddef>
#include <cstdint>

struct Block {
  static constexpr std::size_t kCapacity = 64;
  std::uint32_t remote[kCapacity];
  std::uint64_t bytes[kCapacity];
  std::size_t count = 0;
};

struct Source {
  std::size_t next_index = 0;
  std::size_t limit = 0;

  // Overwrites every field of rows [0, count) — reuse leaks nothing.
  bool next(Block& out) {
    out.count = 0;
    while (out.count < Block::kCapacity && next_index < limit) {
      out.remote[out.count] = static_cast<std::uint32_t>(next_index);
      out.bytes[out.count] = next_index * 40;
      ++out.count;
      ++next_index;
    }
    return out.count != 0;
  }
};

std::uint64_t drain(Source& source) {
  Block block;  // reused scratch: each next() refills it in place
  std::uint64_t total = 0;
  while (source.next(block)) {
    for (std::size_t i = 0; i < block.count; ++i) total += block.bytes[i];
  }
  return total;
}
