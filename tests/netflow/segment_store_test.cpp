// Round-trip and property suite for the spill tier (DESIGN.md §5f): a
// record sequence pushed through SpillWriter → sealed segment files →
// mmap'd cursor decode must reproduce EXACTLY what the resident
// ColumnarRecords path produces — for pipeline-shaped shards, adversarial
// shard shapes (empty shards, single-run segments, max-delta remote
// swings), and for every seek/range/direction_of access pattern, including
// ranges that straddle segment boundaries.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "netflow/columnar_records.h"
#include "netflow/segment_store.h"
#include "util/rng.h"

namespace dm::netflow {
namespace {

namespace fs = std::filesystem;

struct Oriented {
  FlowRecord record;
  Direction direction = Direction::kInbound;
};

FlowRecord make_record(util::Minute minute, std::uint32_t src,
                       std::uint32_t dst, std::uint16_t src_port,
                       std::uint16_t dst_port, Protocol protocol,
                       TcpFlags flags, std::uint32_t packets,
                       std::uint64_t bytes) {
  FlowRecord r;
  r.minute = minute;
  r.src_ip = IPv4(src);
  r.dst_ip = IPv4(dst);
  r.src_port = src_port;
  r.dst_port = dst_port;
  r.protocol = protocol;
  r.tcp_flags = flags;
  r.packets = packets;
  r.bytes = bytes;
  return r;
}

/// Canonical-ish batch: few (vip, direction, minute) groups, ascending
/// remotes inside each — the shape aggregate_shard emits.
std::vector<Oriented> canonical_batch(util::Rng& rng, std::size_t groups,
                                      std::size_t per_group) {
  std::vector<Oriented> out;
  std::uint32_t vip = 0x0a000000;
  for (std::size_t g = 0; g < groups; ++g) {
    vip += static_cast<std::uint32_t>(rng.below(3));
    const auto direction =
        rng.chance(0.5) ? Direction::kInbound : Direction::kOutbound;
    const auto minute = static_cast<util::Minute>(g);
    std::uint32_t remote = 0x55000000 + static_cast<std::uint32_t>(g);
    for (std::size_t i = 0; i < per_group; ++i) {
      remote += static_cast<std::uint32_t>(rng.below(1000));
      Oriented o;
      o.direction = direction;
      const std::uint32_t src = direction == Direction::kInbound ? remote : vip;
      const std::uint32_t dst = direction == Direction::kInbound ? vip : remote;
      o.record = make_record(minute, src, dst,
                             static_cast<std::uint16_t>(1024 + rng.below(100)),
                             80, Protocol::kTcp, TcpFlags::kAck,
                             static_cast<std::uint32_t>(1 + rng.below(20)),
                             40 * (1 + rng.below(30)));
      out.push_back(o);
    }
  }
  return out;
}

ColumnarRecords encode(const std::vector<Oriented>& input) {
  ColumnarRecords store;
  for (const Oriented& o : input) store.push_back(o.record, o.direction);
  return store;
}

void expect_decodes_to(const RecordStore& store,
                       const std::vector<Oriented>& expected) {
  ASSERT_EQ(store.size(), expected.size());
  std::size_t n = 0;
  const auto range = store.all();
  for (auto it = range.begin(); it != range.end(); ++it, ++n) {
    ASSERT_LT(n, expected.size());
    ASSERT_EQ(it.index(), n);
    ASSERT_EQ(*it, expected[n].record) << "record " << n;
    ASSERT_EQ(it.direction(), expected[n].direction) << "direction " << n;
  }
  EXPECT_EQ(n, expected.size());
}

/// Decodes range(first, last) and checks it against expected[first, last).
void expect_range_decodes_to(const RecordStore& store,
                             const std::vector<Oriented>& expected,
                             std::size_t first, std::size_t last) {
  SCOPED_TRACE("range [" + std::to_string(first) + ", " +
               std::to_string(last) + ")");
  const auto range = store.range(first, last);
  ASSERT_EQ(range.size(), last - first);
  std::size_t i = first;
  for (auto it = range.begin(); it != range.end(); ++it, ++i) {
    ASSERT_LT(i, last);
    ASSERT_EQ(it.index(), i);
    ASSERT_EQ(*it, expected[i].record) << "record " << i;
    ASSERT_EQ(it.direction(), expected[i].direction);
  }
  ASSERT_EQ(i, last);
}

fs::path scratch_dir(const std::string& suffix) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("dm_segment_" + std::to_string(::getpid()) + "_" + suffix);
  fs::remove_all(dir);
  return dir;
}

/// Spill config with a threshold small enough that `shards` of a smoke-size
/// batch seal several segments.
SpillConfig tiny_spill(const fs::path& dir, std::uint64_t threshold_bytes) {
  SpillConfig config;
  config.directory = dir.string();
  // policy threshold = min(max(segment_bytes, 1MiB), max(budget/2, 1MiB));
  // both knobs floor at 1 MiB, so sub-MiB segments need the test to feed
  // shards whose encoded size crosses 1 MiB — or simply accept the floor.
  config.segment_bytes = threshold_bytes;
  config.ram_budget_bytes = 2 * threshold_bytes;
  return config;
}

/// Pushes `input` through a SpillWriter in `shard_sizes`-sized shards.
RecordStore spill(const std::vector<Oriented>& input,
                  const std::vector<std::size_t>& shard_sizes,
                  const SpillConfig& config) {
  SpillWriter writer(config);
  std::size_t i = 0;
  for (const std::size_t size : shard_sizes) {
    ColumnarRecords shard;
    for (std::size_t k = 0; k < size && i < input.size(); ++k, ++i) {
      shard.push_back(input[i].record, input[i].direction);
    }
    writer.append(std::move(shard));
  }
  // Remainder in one final shard.
  ColumnarRecords tail;
  for (; i < input.size(); ++i) {
    tail.push_back(input[i].record, input[i].direction);
  }
  writer.append(std::move(tail));
  return std::move(writer).finish();
}

TEST(SegmentStore, WriteMapRoundTrip) {
  util::Rng rng(111);
  const auto input = canonical_batch(rng, 120, 30);
  const ColumnarRecords resident = encode(input);

  const fs::path dir = scratch_dir("write_map");
  fs::create_directories(dir);
  const std::string path = (dir / "seg-000000.dmseg").string();
  write_segment_file(path, resident);

  const auto mapped = MappedSegment::map(path);
  ASSERT_NE(mapped, nullptr);
  EXPECT_TRUE(mapped->body_crc_ok());
  EXPECT_EQ(mapped->meta().records, input.size());
  EXPECT_EQ(mapped->meta().runs, resident.run_count());

  // Full decode through the mapped view must equal the resident decode.
  ColumnarRecords::Cursor cursor;
  cursor.reset(mapped->view(), mapped->view().records);
  std::size_t n = 0;
  while (cursor.next()) {
    ASSERT_LT(n, input.size());
    ASSERT_EQ(cursor.record(), input[n].record) << "record " << n;
    ASSERT_EQ(cursor.direction(), input[n].direction);
    ++n;
  }
  EXPECT_EQ(n, input.size());

  // Mid-segment seek through the mapped view.
  for (int round = 0; round < 100; ++round) {
    const std::size_t at = rng.below(input.size());
    auto c = ColumnarRecords::seek(mapped->view(), at);
    ASSERT_TRUE(c.next());
    EXPECT_EQ(c.record(), input[at].record) << "seek " << at;
    EXPECT_EQ(c.direction(), input[at].direction);
  }
  fs::remove_all(dir);
}

TEST(SegmentStore, EmptySegmentFileRoundTrips) {
  const fs::path dir = scratch_dir("empty_seg");
  fs::create_directories(dir);
  const std::string path = (dir / "seg-000000.dmseg").string();
  write_segment_file(path, ColumnarRecords());
  const auto mapped = MappedSegment::map(path);
  ASSERT_NE(mapped, nullptr);
  EXPECT_EQ(mapped->meta().records, 0u);
  ColumnarRecords::Cursor cursor;
  cursor.reset(mapped->view(), mapped->view().records);
  EXPECT_FALSE(cursor.next());
  fs::remove_all(dir);
}

TEST(SegmentStore, SpilledDecodeMatchesResident) {
  util::Rng rng(222);
  // ~300k records ≈ 3+ MiB encoded: comfortably past the policy's 1 MiB
  // seal floor, so the writer seals several segments.
  const auto input = canonical_batch(rng, 3000, 100);

  const fs::path dir = scratch_dir("equiv");
  // Tiny threshold (the 1 MiB floor) over a multi-MiB batch → several
  // segments; irregular shard sizes cross segment boundaries arbitrarily.
  std::vector<std::size_t> shard_sizes;
  for (std::size_t done = 0; done < input.size();) {
    const std::size_t s = 1 + rng.below(20'000);
    shard_sizes.push_back(s);
    done += s;
  }
  const RecordStore spilled = spill(input, shard_sizes, tiny_spill(dir, 1));
  ASSERT_TRUE(spilled.spilled());
  EXPECT_GE(spilled.segments().segment_count(), 2u);
  expect_decodes_to(spilled, input);
  fs::remove_all(dir);
}

TEST(SegmentStore, EmptyAndSingleRecordShards) {
  util::Rng rng(333);
  // Single-record runs (every record its own window) pushed one per shard,
  // with an empty shard between each — and enough of them (~120k at ~20
  // encoded bytes each) that the writer still seals multiple segments.
  const auto input = canonical_batch(rng, 120'000, 1);

  const fs::path dir = scratch_dir("tiny_shards");
  // Shard sizes 0 and 1: every append is empty or one record.
  std::vector<std::size_t> shard_sizes;
  for (std::size_t i = 0; i < input.size(); ++i) {
    shard_sizes.push_back(0);
    shard_sizes.push_back(1);
  }
  const RecordStore store = spill(input, shard_sizes, tiny_spill(dir, 1));
  ASSERT_TRUE(store.spilled());
  EXPECT_GE(store.segments().segment_count(), 2u);
  expect_decodes_to(store, input);
  fs::remove_all(dir);
}

TEST(SegmentStore, BelowThresholdStaysResident) {
  util::Rng rng(444);
  const auto input = canonical_batch(rng, 20, 10);
  const fs::path dir = scratch_dir("resident");
  SpillConfig config;
  config.directory = dir.string();  // defaults: 64 MiB segments, 512 MiB RAM
  const RecordStore store = spill(input, {50, 50, 50}, config);
  EXPECT_FALSE(store.spilled());
  expect_decodes_to(store, input);
  // No segment files were left behind.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files += entry.path().extension() == ".dmseg" ? 1 : 0;
  }
  EXPECT_EQ(files, 0u);
  fs::remove_all(dir);
}

TEST(SegmentStore, AdversarialRemoteSwingsAcrossSegments) {
  // Max-delta remote swings (0 -> 2^32-1 -> 0) inside one run, with the run
  // split across shards so the absolute-at-run-start re-encode happens at a
  // segment boundary too.
  constexpr std::uint32_t kIpMax = 0xffffffffu;
  std::vector<Oriented> input;
  for (int i = 0; i < 150'000; ++i) {
    const std::uint32_t remote = (i % 2) == 0 ? 0 : kIpMax;
    input.push_back({make_record(7, remote, 42, 1, 1, Protocol::kTcp,
                                 TcpFlags::kAck,
                                 static_cast<std::uint32_t>(i + 1),
                                 std::numeric_limits<std::uint64_t>::max()),
                     Direction::kInbound});
  }
  const fs::path dir = scratch_dir("swings");
  // Prime-ish shard sizes keep the run's segment split points irregular.
  const RecordStore store =
      spill(input, std::vector<std::size_t>(40, 3571), tiny_spill(dir, 1));
  ASSERT_TRUE(store.spilled());
  EXPECT_GE(store.segments().segment_count(), 2u);
  expect_decodes_to(store, input);
  fs::remove_all(dir);
}

TEST(SegmentStore, RangesStraddleSegmentBoundaries) {
  util::Rng rng(555);
  const auto input = canonical_batch(rng, 3000, 100);
  const fs::path dir = scratch_dir("ranges");
  const RecordStore store =
      spill(input, std::vector<std::size_t>(10, 30'000), tiny_spill(dir, 1));
  ASSERT_TRUE(store.spilled());
  ASSERT_GE(store.segments().segment_count(), 2u);
  const std::size_t n = input.size();

  for (int round = 0; round < 120; ++round) {
    const std::size_t first = rng.below(n + 1);
    expect_range_decodes_to(store, input, first,
                            first + rng.below(n + 1 - first));
  }
  // Ranges pinned to each segment seam: one record either side, one
  // record starting exactly on the next segment's first record, and the
  // empty range there.
  const auto& seams = store.segments().segments();
  for (std::size_t s = 1; s < seams.size(); ++s) {
    const auto seam = static_cast<std::size_t>(seams[s].first_record);
    expect_range_decodes_to(store, input, seam - 1, std::min(n, seam + 1));
    expect_range_decodes_to(store, input, seam, std::min(n, seam + 1));
    expect_range_decodes_to(store, input, seam, seam);
  }
  // Empty ranges mid-store and at the end, and the single final record,
  // in both spilled and resident mode.
  const RecordStore resident(encode(input));
  for (const RecordStore* which : {&store, &resident}) {
    SCOPED_TRACE(which->spilled() ? "spilled" : "resident");
    expect_range_decodes_to(*which, input, n / 2, n / 2);
    expect_range_decodes_to(*which, input, n, n);
    expect_range_decodes_to(*which, input, n - 1, n);
  }

  for (int round = 0; round < 120; ++round) {
    const std::size_t i = rng.below(n);
    EXPECT_EQ(store.direction_of(i), input[i].direction) << "direction " << i;
  }

  // segment_containing agrees with the segment table.
  const auto& segs = store.segments().segments();
  for (std::size_t s = 0; s < segs.size(); ++s) {
    EXPECT_EQ(store.segments().segment_containing(segs[s].first_record), s);
    EXPECT_EQ(store.segments().segment_containing(segs[s].first_record +
                                                  segs[s].records - 1),
              s);
  }
  fs::remove_all(dir);
}

TEST(SegmentStore, OpenRereadsWhatSpillWriterSealed) {
  util::Rng rng(666);
  const auto input = canonical_batch(rng, 2500, 100);
  const fs::path dir = scratch_dir("reopen");
  const RecordStore written =
      spill(input, std::vector<std::size_t>(10, 25'000), tiny_spill(dir, 1));
  ASSERT_TRUE(written.spilled());

  const RecordStore reopened(SegmentStore::open(dir.string()));
  EXPECT_EQ(reopened.size(), written.size());
  EXPECT_EQ(reopened.segments().segment_count(),
            written.segments().segment_count());
  expect_decodes_to(reopened, input);
  fs::remove_all(dir);
}

TEST(SegmentStore, SpillWriterRestartsCleanOverStaleSegments) {
  util::Rng rng(777);
  const auto first_run = canonical_batch(rng, 3000, 100);
  const auto second_run = canonical_batch(rng, 1500, 100);
  const fs::path dir = scratch_dir("restart");

  const RecordStore first =
      spill(first_run, std::vector<std::size_t>(10, 30'000),
            tiny_spill(dir, 1));
  ASSERT_TRUE(first.spilled());
  // A second writer over the same directory must not absorb stale files.
  const RecordStore second =
      spill(second_run, std::vector<std::size_t>(10, 15'000),
            tiny_spill(dir, 1));
  ASSERT_TRUE(second.spilled());
  expect_decodes_to(second, second_run);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dm::netflow
