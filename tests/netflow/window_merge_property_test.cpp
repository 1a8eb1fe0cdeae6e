// Property test for the sharded window aggregation: splitting the same
// record stream into arbitrary shards and feeding the shards in any order
// must produce the same WindowedTrace — i.e. the shard merge is associative
// and order-independent. This is exactly what the parallel pipeline relies
// on when it aggregates per-shard record batches whose concatenation order
// is an implementation detail of upstream sharding.
#include "netflow/window_aggregator.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "exec/thread_pool.h"
#include "util/rng.h"

namespace dm::netflow {
namespace {

PrefixSet cloud_space() {
  PrefixSet set;
  set.add(Prefix(IPv4::from_octets(100, 64, 0, 0), 12));
  return set;
}

PrefixSet blacklist() {
  PrefixSet set;
  set.add(Prefix(IPv4::from_octets(4, 9, 0, 0), 16));
  return set;
}

/// A random mix of inbound/outbound/unclassifiable records over a handful of
/// VIPs and minutes — small enough that windows collide often, which is
/// where merge bugs would live.
std::vector<FlowRecord> random_records(util::Rng& rng, std::size_t count) {
  std::vector<FlowRecord> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FlowRecord r;
    r.minute = static_cast<util::Minute>(rng.below(10));
    const IPv4 vip = IPv4::from_octets(
        100, 64, 0, static_cast<std::uint8_t>(1 + rng.below(5)));
    // Small remote pool (incl. blacklisted hosts) so duplicates are common.
    const IPv4 remote = IPv4::from_octets(
        4, static_cast<std::uint8_t>(rng.chance(0.2) ? 9 : 1), 0,
        static_cast<std::uint8_t>(1 + rng.below(20)));
    const bool inbound = rng.chance(0.5);
    r.src_ip = inbound ? remote : vip;
    r.dst_ip = inbound ? vip : remote;
    if (rng.chance(0.05)) r.dst_ip = r.src_ip;  // unclassifiable
    r.src_port = static_cast<std::uint16_t>(1 + rng.below(4000));
    r.dst_port = rng.chance(0.3)
                     ? static_cast<std::uint16_t>(rng.chance(0.5) ? 25 : 1433)
                     : static_cast<std::uint16_t>(1 + rng.below(4000));
    constexpr Protocol kProtocols[] = {Protocol::kTcp, Protocol::kUdp,
                                       Protocol::kIcmp, Protocol::kIpEncap};
    r.protocol = kProtocols[rng.below(4)];
    if (r.protocol == Protocol::kTcp) {
      r.tcp_flags = rng.chance(0.3) ? TcpFlags::kSyn
                                    : (TcpFlags::kAck | TcpFlags::kPsh);
    }
    r.packets = static_cast<std::uint32_t>(1 + rng.below(5));
    r.bytes = r.packets * 120;
    out.push_back(r);
  }
  return out;
}

auto window_tuple(const VipMinuteStats& w) {
  return std::make_tuple(
      w.vip.value(), w.minute, w.direction, w.packets, w.bytes, w.tcp_packets,
      w.udp_packets, w.icmp_packets, w.ipencap_packets, w.syn_packets,
      w.null_scan_packets, w.xmas_scan_packets, w.bare_rst_packets,
      w.dns_response_packets, w.flows, w.unique_remote_ips, w.smtp_flows,
      w.unique_smtp_remotes, w.remote_admin_flows, w.unique_admin_remotes,
      w.sql_flows, w.smtp_packets, w.admin_packets, w.sql_packets,
      w.blacklist_flows, w.unique_blacklist_remotes, w.blacklist_packets,
      w.first_record, w.last_record);
}

void expect_same_trace(const WindowedTrace& a, const WindowedTrace& b,
                       const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.unclassified_records(), b.unclassified_records());
  ASSERT_EQ(a.windows().size(), b.windows().size());
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    ASSERT_EQ(window_tuple(a.windows()[i]), window_tuple(b.windows()[i]))
        << "window " << i;
  }
  // Record CONTENT per window must match as a multiset: shard order may
  // permute ties (identical sort keys) inside a window, never across one.
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    const auto ra = a.records_of(a.windows()[i]);
    const auto rb = b.records_of(b.windows()[i]);
    ASSERT_EQ(ra.size(), rb.size());
    auto va = std::vector<FlowRecord>(ra.begin(), ra.end());
    auto vb = std::vector<FlowRecord>(rb.begin(), rb.end());
    const auto full = [](const FlowRecord& x, const FlowRecord& y) {
      return std::tie(x.minute, x.src_ip, x.dst_ip, x.src_port, x.dst_port,
                      x.protocol, x.tcp_flags, x.packets, x.bytes) <
             std::tie(y.minute, y.src_ip, y.dst_ip, y.src_port, y.dst_port,
                      y.protocol, y.tcp_flags, y.packets, y.bytes);
    };
    std::sort(va.begin(), va.end(), full);
    std::sort(vb.begin(), vb.end(), full);
    EXPECT_EQ(va, vb) << "records of window " << i;
  }
}

TEST(WindowShardMerge, PartitionAndOrderIndependent) {
  util::Rng rng(4096);
  const auto space = cloud_space();
  const auto tds = blacklist();

  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t count = 200 + rng.below(1800);
    const std::vector<FlowRecord> base = random_records(rng, count);
    const WindowedTrace expected = aggregate_windows(base, space, &tds);

    // Random partition into 1..8 shards, reassembled in a random shard
    // order.
    const std::size_t shard_count = 1 + rng.below(8);
    std::vector<std::vector<FlowRecord>> shards(shard_count);
    for (const FlowRecord& r : base) {
      shards[rng.below(shard_count)].push_back(r);
    }
    std::vector<std::size_t> order(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) order[s] = s;
    rng.shuffle(order);
    std::vector<FlowRecord> reassembled;
    reassembled.reserve(base.size());
    for (std::size_t s : order) {
      reassembled.insert(reassembled.end(), shards[s].begin(), shards[s].end());
    }

    const WindowedTrace actual = aggregate_windows(reassembled, space, &tds);
    expect_same_trace(expected, actual, "random partition");
  }
}

TEST(WindowShardMerge, ThreadedAggregationMatchesSerial) {
  util::Rng rng(777);
  const auto space = cloud_space();
  const auto tds = blacklist();
  const std::vector<FlowRecord> base = random_records(rng, 5000);

  const WindowedTrace serial = aggregate_windows(base, space, &tds, nullptr);
  for (unsigned threads : {1u, 2u, 8u}) {
    exec::ThreadPool pool(threads);
    const WindowedTrace threaded = aggregate_windows(base, space, &tds, &pool);
    // With identical input order the canonical sort is a strict total
    // order, so even record-for-record output must match exactly.
    const auto serial_records = serial.records();
    const auto threaded_records = threaded.records();
    ASSERT_EQ(serial_records.size(), threaded_records.size());
    auto tit = threaded_records.begin();
    for (auto sit = serial_records.begin(); sit != serial_records.end();
         ++sit, ++tit) {
      ASSERT_EQ(*sit, *tit) << "record " << sit.index();
      ASSERT_EQ(sit.direction(), tit.direction())
          << "direction " << sit.index();
    }
    expect_same_trace(serial, threaded, "threaded");
  }
}

/// Records over `vip_count` VIPs whose minutes come from `minute`, with a
/// small remote pool so (vip, direction, minute, remote) ties are common and
/// the arrival-order tie-break shows in the record order.
std::vector<FlowRecord> branch_records(
    util::Rng& rng, std::size_t count, std::uint32_t vip_count,
    const std::function<util::Minute(util::Rng&)>& minute) {
  constexpr std::uint16_t kPorts[] = {25, 1433, 3306, 22, 3389, 5900, 53, 80};
  constexpr TcpFlags kFlags[] = {
      TcpFlags::kSyn, TcpFlags::kNone, TcpFlags::kRst,
      TcpFlags::kFin | TcpFlags::kPsh | TcpFlags::kUrg,
      TcpFlags::kAck | TcpFlags::kPsh};
  constexpr Protocol kProtocols[] = {Protocol::kTcp, Protocol::kUdp,
                                     Protocol::kIcmp, Protocol::kIpEncap};
  std::vector<FlowRecord> out(count);
  for (FlowRecord& r : out) {
    r.minute = minute(rng);
    const IPv4 vip(IPv4::from_octets(100, 64, 0, 0).value() + 1 +
                   static_cast<std::uint32_t>(rng.below(vip_count)));
    const IPv4 remote = IPv4::from_octets(
        4, static_cast<std::uint8_t>(rng.chance(0.2) ? 9 : 1), 0,
        static_cast<std::uint8_t>(1 + rng.below(6)));
    const bool inbound = rng.chance(0.5);
    r.src_ip = inbound ? remote : vip;
    r.dst_ip = inbound ? vip : remote;
    if (rng.chance(0.05)) r.dst_ip = r.src_ip;  // unclassifiable
    r.src_port = rng.chance(0.2) ? std::uint16_t{53}
                                 : static_cast<std::uint16_t>(1 + rng.below(4000));
    r.dst_port = kPorts[rng.below(8)];
    r.protocol = kProtocols[rng.below(4)];
    if (r.protocol == Protocol::kTcp) r.tcp_flags = kFlags[rng.below(5)];
    r.packets = static_cast<std::uint32_t>(1 + rng.below(5));
    r.bytes = r.packets * (40 + rng.below(1400));
  }
  return out;
}

/// The reference aggregation, written from the definitions rather than the
/// engine: stable sort by (vip, direction, minute, remote) — ties keep
/// arrival order — then a record-by-record fold into windows.
struct NaiveTrace {
  std::vector<FlowRecord> records;
  std::vector<Direction> directions;
  std::vector<VipMinuteStats> windows;
  std::uint64_t unclassified = 0;
};

NaiveTrace naive_aggregate(const std::vector<FlowRecord>& input,
                           const PrefixSet& space, const PrefixSet& tds) {
  NaiveTrace out;
  std::vector<OrientedFlow> kept;
  for (const FlowRecord& r : input) {
    if (const auto dir = classify(r, space)) {
      kept.push_back(OrientedFlow{&r, *dir});
    } else {
      ++out.unclassified;
    }
  }
  const auto key = [](const OrientedFlow& f) {
    return std::make_tuple(f.vip().value(), static_cast<int>(f.direction),
                           f.record->minute, f.remote_ip().value());
  };
  std::stable_sort(kept.begin(), kept.end(),
                   [&](const OrientedFlow& a, const OrientedFlow& b) {
                     return key(a) < key(b);
                   });
  std::set<std::uint32_t> remotes, smtp, admin, listed;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const OrientedFlow& f = kept[i];
    const FlowRecord& r = *f.record;
    out.records.push_back(r);
    out.directions.push_back(f.direction);
    if (i == 0 || kept[i - 1].vip() != f.vip() ||
        kept[i - 1].direction != f.direction ||
        kept[i - 1].record->minute != r.minute) {
      VipMinuteStats& w = out.windows.emplace_back();
      w.vip = f.vip();
      w.minute = r.minute;
      w.direction = f.direction;
      w.first_record = static_cast<std::uint32_t>(i);
      remotes.clear();
      smtp.clear();
      admin.clear();
      listed.clear();
    }
    VipMinuteStats& w = out.windows.back();
    w.last_record = static_cast<std::uint32_t>(i + 1);
    w.packets += r.packets;
    w.bytes += r.bytes;
    w.flows += 1;
    const std::uint32_t remote = f.remote_ip().value();
    remotes.insert(remote);
    w.unique_remote_ips = static_cast<std::uint32_t>(remotes.size());
    const bool tcp = r.protocol == Protocol::kTcp;
    if (tcp) {
      w.tcp_packets += r.packets;
      if (is_pure_syn(r.tcp_flags)) w.syn_packets += r.packets;
      if (is_null_scan(r.tcp_flags)) w.null_scan_packets += r.packets;
      if (is_xmas_scan(r.tcp_flags)) w.xmas_scan_packets += r.packets;
      if (is_bare_rst(r.tcp_flags)) w.bare_rst_packets += r.packets;
    }
    if (r.protocol == Protocol::kUdp) {
      w.udp_packets += r.packets;
      if (r.src_port == ports::kDns) w.dns_response_packets += r.packets;
    }
    if (r.protocol == Protocol::kIcmp) w.icmp_packets += r.packets;
    if (r.protocol == Protocol::kIpEncap) w.ipencap_packets += r.packets;
    if (tcp && r.dst_port == ports::kSmtp) {
      w.smtp_flows += 1;
      w.smtp_packets += r.packets;
      smtp.insert(remote);
      w.unique_smtp_remotes = static_cast<std::uint32_t>(smtp.size());
    }
    if (tcp && ports::is_remote_admin(r.dst_port)) {
      w.remote_admin_flows += 1;
      w.admin_packets += r.packets;
      admin.insert(remote);
      w.unique_admin_remotes = static_cast<std::uint32_t>(admin.size());
    }
    if (tcp && ports::is_sql(r.dst_port)) {
      w.sql_flows += 1;
      w.sql_packets += r.packets;
    }
    if (tds.contains(f.remote_ip())) {
      w.blacklist_flows += 1;
      w.blacklist_packets += r.packets;
      listed.insert(remote);
      w.unique_blacklist_remotes = static_cast<std::uint32_t>(listed.size());
    }
  }
  return out;
}

void expect_matches_naive(const NaiveTrace& want, const WindowedTrace& got) {
  EXPECT_EQ(got.unclassified_records(), want.unclassified);
  const auto records = got.records();
  ASSERT_EQ(records.size(), want.records.size());
  std::size_t i = 0;
  for (auto it = records.begin(); it != records.end(); ++it, ++i) {
    ASSERT_EQ(*it, want.records[i]) << "record " << i;
    ASSERT_EQ(it.direction(), want.directions[i]) << "direction " << i;
  }
  ASSERT_EQ(got.windows().size(), want.windows.size());
  for (std::size_t w = 0; w < want.windows.size(); ++w) {
    ASSERT_EQ(window_tuple(got.windows()[w]), window_tuple(want.windows[w]))
        << "window " << w;
  }
}

TEST(WindowShardMerge, MatchesNaiveCanonicalOrderOnEverySortBranch) {
  const auto space = cloud_space();
  const auto tds = blacklist();
  struct Branch {
    const char* name;
    std::uint32_t vips;
    std::function<util::Minute(util::Rng&)> minute;
  };
  const util::Minute packed_limit = util::Minute{1} << 26;
  const util::Minute sign_limit = util::Minute{1} << 31;
  const Branch branches[] = {
      // <= 32 VIPs per shard, small minutes: the ranked u32 key.
      {"ranked u32", 5,
       [](util::Rng& rng) { return static_cast<util::Minute>(rng.below(12)); }},
      // More than 32 VIPs, minutes at and past 2^26: the u64 key.
      {"u64", 300,
       [&](util::Rng& rng) {
         return packed_limit - 4 + static_cast<util::Minute>(rng.below(8));
       }},
      // Negative minutes and minutes at and past 2^31: the SortKey fallback.
      {"SortKey", 40,
       [&](util::Rng& rng) {
         const auto m = static_cast<util::Minute>(rng.below(6));
         return rng.chance(0.5) ? m - 3 : sign_limit - 2 + m;
       }},
  };

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("dm_shard_merge_" + std::to_string(::getpid()));
  util::Rng rng(31337);
  for (const Branch& branch : branches) {
    SCOPED_TRACE(branch.name);
    const std::vector<FlowRecord> input =
        branch_records(rng, 150'000, branch.vips, branch.minute);
    const NaiveTrace want = naive_aggregate(input, space, tds);
    ASSERT_FALSE(want.windows.empty());
    {
      // The windows-only close (no columnar encode) builds the very same
      // windows, record ranges included, on every sort branch.
      SCOPED_TRACE("windows-only shard");
      const ShardWindows shard = aggregate_shard(input, space, &tds);
      const std::vector<VipMinuteStats> windows =
          aggregate_shard_windows(input, space, &tds);
      ASSERT_EQ(windows.size(), shard.windows.size());
      for (std::size_t w = 0; w < windows.size(); ++w) {
        ASSERT_EQ(window_tuple(windows[w]), window_tuple(shard.windows[w]))
            << "window " << w;
      }
    }
    for (unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      exec::ThreadPool pool(threads);
      expect_matches_naive(want,
                           aggregate_windows(input, space, &tds, &pool));
      // Both knobs floor at the 1 MiB seal minimum; the input encodes to
      // more than that, so the spilled run seals segments to disk.
      SpillConfig spill;
      spill.directory = dir.string();
      spill.ram_budget_bytes = 1;
      spill.segment_bytes = 1;
      {
        SCOPED_TRACE("spilled");
        const WindowedTrace spilled =
            aggregate_windows(input, space, &tds, &pool, &spill);
        EXPECT_TRUE(spilled.store().spilled());
        expect_matches_naive(want, spilled);
      }
      std::filesystem::remove_all(dir);
    }
  }
}

}  // namespace
}  // namespace dm::netflow
