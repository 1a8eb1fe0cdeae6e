// Deterministic data-parallel skeletons over ThreadPool.
//
// Every helper here follows the same contract: work is split into chunks
// whose boundaries are a pure function of the item count, chunks may execute
// in any order on any thread, and results are merged IN CHUNK INDEX ORDER.
// Combined with order-invariant per-chunk computation (e.g. counter-based
// RNG splits keyed on item index), that makes every pipeline stage's output
// byte-identical for any thread count — the property the serial-equivalence
// test harness locks down.
//
// All helpers accept `pool == nullptr` (or an inline pool) and then run
// serially on the calling thread through the exact same code path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"

namespace dm::exec {

/// How many chunks [0, n) is split into on `pool`. Oversubscribes ~4x the
/// worker count so work-stealing can balance uneven shards.
[[nodiscard]] inline std::size_t chunk_count_for(const ThreadPool* pool,
                                                 std::size_t n) noexcept {
  if (n == 0) return 0;
  if (pool == nullptr || pool->thread_count() == 0) return 1;
  const std::size_t want = static_cast<std::size_t>(pool->thread_count()) * 4;
  return n < want ? n : want;
}

/// Runs body(begin, end, chunk_index) over a deterministic chunking of
/// [0, n). Blocks until all chunks finished; rethrows the exception of the
/// lowest-indexed failing chunk.
template <typename Body>
void parallel_for_chunks(ThreadPool* pool, std::size_t n, Body&& body) {
  const std::size_t chunks = chunk_count_for(pool, n);
  if (chunks == 0) return;
  if (chunks == 1) {
    body(std::size_t{0}, n, std::size_t{0});
    return;
  }
  TaskGroup group(*pool);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * n / chunks;
    const std::size_t end = (c + 1) * n / chunks;
    group.run([&body, begin, end, c] { body(begin, end, c); });
  }
  group.wait();
}

/// parallel_for_chunks with an explicit chunk count (clamped to [1, n]).
/// Unlike the adaptive overload — which collapses to ONE chunk on a serial
/// pool — this always splits [0, n) into the requested number of chunks and,
/// without workers, runs them in order on the calling thread. Callers use it
/// when the chunk count bounds something besides parallelism (e.g. the
/// fused pipeline's per-shard transient memory), which must not balloon just
/// because thread_count is 1.
template <typename Body>
void parallel_for_chunks_n(ThreadPool* pool, std::size_t n, std::size_t chunks,
                           Body&& body) {
  if (n == 0) return;
  chunks = std::max<std::size_t>(1, std::min(chunks, n));
  if (pool == nullptr || pool->thread_count() == 0 || chunks == 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      body(c * n / chunks, (c + 1) * n / chunks, c);
    }
    return;
  }
  TaskGroup group(*pool);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * n / chunks;
    const std::size_t end = (c + 1) * n / chunks;
    group.run([&body, begin, end, c] { body(begin, end, c); });
  }
  group.wait();
}

/// Maps each chunk [begin, end) to one T; returns the chunk results in chunk
/// index order. T must be default-constructible (the usual case: a vector
/// the chunk fills).
template <typename T, typename Map>
[[nodiscard]] std::vector<T> parallel_map_chunks(ThreadPool* pool, std::size_t n,
                                                 Map&& map) {
  const std::size_t chunks = chunk_count_for(pool, n);
  std::vector<T> results(chunks);
  parallel_for_chunks(pool, n,
                      [&](std::size_t begin, std::size_t end, std::size_t c) {
                        results[c] = map(begin, end);
                      });
  return results;
}

/// parallel_map_chunks with an explicit chunk count — see
/// parallel_for_chunks_n for when the chunk count matters beyond
/// parallelism.
template <typename T, typename Map>
[[nodiscard]] std::vector<T> parallel_map_chunks_n(ThreadPool* pool,
                                                   std::size_t n,
                                                   std::size_t chunks,
                                                   Map&& map) {
  chunks = n == 0 ? 0 : std::max<std::size_t>(1, std::min(chunks, n));
  std::vector<T> results(chunks);
  parallel_for_chunks_n(pool, n, chunks,
                        [&](std::size_t begin, std::size_t end, std::size_t c) {
                          results[c] = map(begin, end);
                        });
  return results;
}

/// Bounded-residency variant of parallel_map_chunks_n: chunks execute in
/// waves of `window`, and each wave's results are handed to
/// consume(chunk_index, T&&) in chunk-index order on the calling thread
/// while the next wave runs on the pool, so a serial consume overlaps the
/// parallel map. At most two waves of results — 2 x `window` — are ever
/// alive at once, the memory bound the spill tier's shard merge needs,
/// while chunk boundaries and consume order are IDENTICAL to
/// parallel_map_chunks_n followed by an ordered fold, so the consumed
/// sequence is byte-equal for any window and any thread count. (Wave
/// barriers, not a producer-blocking queue: the pool pops its own queue
/// LIFO, so low-index chunks finish last and a bounded queue would either
/// stall every worker or buffer every result.)
template <typename T, typename Map, typename Consume>
void parallel_map_waves_n(ThreadPool* pool, std::size_t n, std::size_t chunks,
                          std::size_t window, Map&& map, Consume&& consume) {
  if (n == 0) return;
  chunks = std::max<std::size_t>(1, std::min(chunks, n));
  window = std::max<std::size_t>(1, window);
  const auto run = [&](std::size_t c) {
    return map(c * n / chunks, (c + 1) * n / chunks);
  };
  if (pool == nullptr || pool->thread_count() == 0) {
    for (std::size_t c = 0; c < chunks; ++c) consume(c, run(c));
    return;
  }
  std::vector<T> ready;  // the previous wave, consumed while this one runs
  std::size_t ready_begin = 0;
  const auto consume_ready = [&] {
    for (std::size_t i = 0; i < ready.size(); ++i) {
      consume(ready_begin + i, std::move(ready[i]));
    }
  };
  for (std::size_t wave = 0; wave < chunks; wave += window) {
    const std::size_t wave_end = std::min(chunks, wave + window);
    // Declared before the group, whose destructor waits for its tasks, so
    // the results outlive every task writing them even if consume throws.
    std::vector<T> results(wave_end - wave);
    TaskGroup group(*pool);
    for (std::size_t c = wave; c < wave_end; ++c) {
      group.run([&run, &results, wave, c] { results[c - wave] = run(c); });
    }
    consume_ready();
    group.wait();
    ready = std::move(results);
    ready_begin = wave;
  }
  consume_ready();
}

/// Concatenates per-chunk vectors (in chunk order) into one vector — the
/// ordered merge used by every record-emitting stage.
template <typename T>
[[nodiscard]] std::vector<T> concat(std::vector<std::vector<T>> parts) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<T> out;
  out.reserve(total);
  for (auto& p : parts) {
    out.insert(out.end(), std::make_move_iterator(p.begin()),
               std::make_move_iterator(p.end()));
  }
  return out;
}

}  // namespace dm::exec
