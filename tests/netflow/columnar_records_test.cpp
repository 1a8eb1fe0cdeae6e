// Round-trip property suite for the columnar record store: decode must
// reproduce the encoded (record, direction) sequence EXACTLY — for
// canonical sorted input (the pipeline's case), for arbitrary unsorted
// input, and for adversarial field values (max varints, single-record
// windows, out-of-range ingested minutes) — and seeks, ranges, and
// shard-order appends must agree with the monolithic encoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "netflow/columnar_records.h"
#include "util/rng.h"

namespace dm::netflow {
namespace {

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

Oriented random_oriented(util::Rng& rng) {
  constexpr Protocol kProtocols[] = {Protocol::kIpEncap, Protocol::kIcmp,
                                     Protocol::kTcp, Protocol::kUdp};
  Oriented o;
  o.direction = rng.chance(0.5) ? Direction::kInbound : Direction::kOutbound;
  o.record = make_record(
      static_cast<util::Minute>(rng.below(10'000)),
      static_cast<std::uint32_t>(rng.below(1ULL << 32)),
      static_cast<std::uint32_t>(rng.below(1ULL << 32)),
      static_cast<std::uint16_t>(rng.below(65536)),
      static_cast<std::uint16_t>(rng.below(65536)), kProtocols[rng.below(4)],
      static_cast<TcpFlags>(rng.below(64)),
      static_cast<std::uint32_t>(1 + rng.below(1'000'000)),
      rng.uniform_u64(1, std::numeric_limits<std::uint64_t>::max()));
  return o;
}

ColumnarRecords encode(const std::vector<Oriented>& input) {
  ColumnarRecords store;
  for (const Oriented& o : input) store.push_back(o.record, o.direction);
  store.shrink_to_fit();
  return store;
}

void expect_decodes_to(const ColumnarRecords& store,
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
void expect_range_decodes_to(const ColumnarRecords& store,
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

/// Random ranges plus per-record direction_of() lookups over `store`.
void expect_seeks_match(const ColumnarRecords& store,
                        const std::vector<Oriented>& expected, util::Rng& rng,
                        int rounds) {
  const std::size_t n = expected.size();
  for (int round = 0; round < rounds; ++round) {
    const std::size_t first = rng.below(n + 1);
    expect_range_decodes_to(store, expected, first,
                            first + rng.below(n + 1 - first));
  }
  for (int round = 0; round < rounds; ++round) {
    const std::size_t i = rng.below(n);
    EXPECT_EQ(store.direction_of(i), expected[i].direction)
        << "direction " << i;
  }
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

TEST(ColumnarRecords, EmptyStore) {
  const ColumnarRecords store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.run_count(), 0u);
  const auto range = store.all();
  EXPECT_TRUE(range.empty());
  EXPECT_TRUE(range.begin() == range.end());
}

TEST(ColumnarRecords, CanonicalBatchRoundTrip) {
  util::Rng rng(101);
  const auto input = canonical_batch(rng, 200, 25);
  const ColumnarRecords store = encode(input);
  EXPECT_EQ(store.run_count(), 200u);
  expect_decodes_to(store, input);
}

TEST(ColumnarRecords, UnsortedRandomRoundTrip) {
  util::Rng rng(202);
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<Oriented> input;
    const std::size_t n = 100 + rng.below(2000);
    for (std::size_t i = 0; i < n; ++i) input.push_back(random_oriented(rng));
    expect_decodes_to(encode(input), input);
  }
}

TEST(ColumnarRecords, AdversarialExtremesRoundTrip) {
  constexpr auto kMin = std::numeric_limits<util::Minute>::min();
  constexpr auto kMax = std::numeric_limits<util::Minute>::max();
  constexpr std::uint32_t kIpMax = 0xffffffffu;
  constexpr auto kU32Max = std::numeric_limits<std::uint32_t>::max();
  constexpr auto kU64Max = std::numeric_limits<std::uint64_t>::max();

  std::vector<Oriented> input;
  // Max-varint fields, minute extremes, and maximal minute/key jumps in
  // both directions (ingested traces are not bounded by the generator).
  input.push_back({make_record(kMax, kIpMax, kIpMax, 0xffff, 0xffff,
                               Protocol::kUdp, static_cast<TcpFlags>(0x3f),
                               kU32Max, kU64Max),
                   Direction::kInbound});
  input.push_back({make_record(kMin, 0, 0, 0, 0, Protocol::kIpEncap,
                               TcpFlags::kNone, 0, 0),
                   Direction::kOutbound});
  input.push_back({make_record(-1, kIpMax, 0, 1, 1, Protocol::kIcmp,
                               TcpFlags::kSyn, 1, 1),
                   Direction::kInbound});
  // One window with maximal remote swings: 0 -> max -> 0 (delta zigzag must
  // wrap exactly); same (vip=0 inbound, minute 7) key throughout.
  input.push_back(
      {make_record(7, 0, 0, 2, 2, Protocol::kTcp, TcpFlags::kAck, 2, 2),
       Direction::kInbound});
  input.push_back(
      {make_record(7, kIpMax, 0, 3, 3, Protocol::kTcp, TcpFlags::kAck, 3, 3),
       Direction::kInbound});
  input.push_back(
      {make_record(7, 0, 0, 4, 4, Protocol::kTcp, TcpFlags::kAck, 4, 4),
       Direction::kInbound});
  // The same run continues for 200 more maximal swings, with near-maximal
  // packets and bytes, so 10-byte encodings sit deep inside one run.
  for (int i = 0; i < 200; ++i) {
    input.push_back({make_record(7, (i % 2) == 0 ? kIpMax : 0u, 0,
                                 static_cast<std::uint16_t>(i), 3,
                                 Protocol::kTcp, TcpFlags::kAck,
                                 kU32Max - static_cast<std::uint32_t>(i),
                                 kU64Max - static_cast<std::uint64_t>(i)),
                     Direction::kInbound});
  }
  // One value per significant-bit count 0..64 in the bytes field: every
  // varint length from 1 to 10 bytes, at both ends of each length.
  for (unsigned bits = 0; bits <= 64; ++bits) {
    const std::uint64_t top =
        bits == 64 ? kU64Max : (std::uint64_t{1} << bits) - 1;
    input.push_back({make_record(7, bits, 0, 5, 5, Protocol::kTcp,
                                 TcpFlags::kAck, 5, top),
                     Direction::kInbound});
  }

  const ColumnarRecords store = encode(input);
  expect_decodes_to(store, input);
  // Every same-key record must share one run.
  EXPECT_EQ(store.run_count(), 4u);
  // A seek to any record, including mid-run ones behind maximal deltas,
  // skip-decodes to exactly that record.
  for (std::size_t first = 0; first <= input.size(); ++first) {
    expect_range_decodes_to(store, input, first, input.size());
  }
}

TEST(ColumnarRecords, SingleRecordWindows) {
  util::Rng rng(303);
  std::vector<Oriented> input;
  for (std::size_t i = 0; i < 500; ++i) {
    Oriented o = random_oriented(rng);
    o.record.minute = static_cast<util::Minute>(i);  // every record a new run
    input.push_back(o);
  }
  const ColumnarRecords store = encode(input);
  EXPECT_EQ(store.run_count(), 500u);
  expect_decodes_to(store, input);
}

TEST(ColumnarRecords, SeeksMatchFullDecode) {
  util::Rng rng(404);
  const auto input = canonical_batch(rng, 60, 40);
  expect_seeks_match(encode(input), input, rng, 200);

  // Unsorted input makes (nearly) every record its own run, so seeks walk
  // dozens of checkpoints and land both on and inside runs.
  std::vector<Oriented> unsorted;
  for (std::size_t i = 0; i < 3000; ++i) {
    unsorted.push_back(random_oriented(rng));
  }
  expect_seeks_match(encode(unsorted), unsorted, rng, 200);
}

TEST(ColumnarRecords, AppendMatchesMonolithicEncoding) {
  util::Rng rng(505);
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto input = canonical_batch(rng, 40, 10);

    // Split at random points (possibly mid-run, possibly empty pieces) and
    // re-assemble in order via append.
    const std::size_t pieces = 1 + rng.below(6);
    std::vector<std::size_t> cuts{0, input.size()};
    for (std::size_t c = 1; c < pieces; ++c) {
      cuts.push_back(rng.below(input.size() + 1));
    }
    std::sort(cuts.begin(), cuts.end());

    ColumnarRecords merged;
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
      ColumnarRecords piece;
      for (std::size_t i = cuts[c]; i < cuts[c + 1]; ++i) {
        piece.push_back(input[i].record, input[i].direction);
      }
      merged.append(std::move(piece));
    }
    expect_decodes_to(merged, input);
    // Append re-spaces checkpoints; seeks must still land exactly.
    expect_seeks_match(merged, input, rng, 40);

    // The merged store must keep encoding correctly past the append.
    std::vector<Oriented> extended = input;
    for (int i = 0; i < 50; ++i) extended.push_back(random_oriented(rng));
    for (std::size_t i = input.size(); i < extended.size(); ++i) {
      merged.push_back(extended[i].record, extended[i].direction);
    }
    expect_decodes_to(merged, extended);
  }
}

TEST(ColumnarRecords, AppendIntoReservedStoreMatches) {
  util::Rng rng(606);
  const auto input = canonical_batch(rng, 30, 8);
  const std::size_t half = input.size() / 2;

  ColumnarRecords a, b;
  for (std::size_t i = 0; i < half; ++i) {
    a.push_back(input[i].record, input[i].direction);
  }
  for (std::size_t i = half; i < input.size(); ++i) {
    b.push_back(input[i].record, input[i].direction);
  }

  ColumnarRecords merged;
  const auto sa = a.buffer_sizes();
  const auto sb = b.buffer_sizes();
  merged.reserve({sa.header_bytes + sb.header_bytes + 40,
                  sa.payload_bytes + sb.payload_bytes, sa.runs + sb.runs,
                  sa.checkpoints + sb.checkpoints});
  merged.append(std::move(a));
  merged.append(std::move(b));
  expect_decodes_to(merged, input);
}

TEST(ColumnarRecords, RangeSupportsVectorConstruction) {
  util::Rng rng(707);
  const auto input = canonical_batch(rng, 10, 10);
  const ColumnarRecords store = encode(input);
  const auto range = store.all();
  const std::vector<FlowRecord> decoded(range.begin(), range.end());
  ASSERT_EQ(decoded.size(), input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ(decoded[i], input[i].record) << "record " << i;
  }
}

TEST(ColumnarRecords, CanonicalInputCompressesWellBelowAoS) {
  util::Rng rng(808);
  const auto input = canonical_batch(rng, 500, 20);
  const ColumnarRecords store = encode(input);
  // AoS costs 41 bytes/record (sizeof(FlowRecord) == 40 plus a Direction
  // byte); pipeline-shaped input must come in far below — the tentpole's
  // whole point. 16 bytes/record is a loose ceiling (measured ~11).
  EXPECT_LT(store.encoded_bytes(), 16u * input.size())
      << "bytes/record = "
      << static_cast<double>(store.encoded_bytes()) /
             static_cast<double>(input.size());
}

}  // namespace
}  // namespace dm::netflow
