#include "netflow/window_aggregator.h"

#include <algorithm>
#include <span>
#include <tuple>

#include "exec/parallel.h"
#include "exec/radix_sort.h"
#include "util/malloc_tune.h"

namespace dm::netflow {

std::optional<Direction> classify(const FlowRecord& record,
                                  const PrefixSet& cloud_space) noexcept {
  const bool src_cloud = cloud_space.contains(record.src_ip);
  const bool dst_cloud = cloud_space.contains(record.dst_ip);
  if (src_cloud == dst_cloud) return std::nullopt;
  return dst_cloud ? Direction::kInbound : Direction::kOutbound;
}

WindowedTrace::WindowedTrace(RecordStore store,
                             std::vector<VipMinuteStats> windows,
                             std::uint64_t unclassified_records)
    : store_(std::move(store)),
      windows_(std::move(windows)),
      unclassified_(unclassified_records) {
  // windows_ is sorted by VIP, so adjacent dedup yields the distinct-VIP
  // list; computed once here because analysis passes ask repeatedly.
  for (const auto& w : windows_) {
    if (vips_.empty() || vips_.back() != w.vip) vips_.push_back(w.vip);
  }
}

WindowedTrace::WindowedTrace(ColumnarRecords columns,
                             std::vector<VipMinuteStats> windows,
                             std::uint64_t unclassified_records)
    : WindowedTrace(RecordStore(std::move(columns)), std::move(windows),
                    unclassified_records) {}

WindowedTrace::WindowedTrace(std::vector<FlowRecord> records,
                             std::vector<Direction> directions,
                             std::vector<VipMinuteStats> windows,
                             std::uint64_t unclassified_records)
    : WindowedTrace(
          [&] {
            ColumnarRecords columns;
            for (std::size_t i = 0; i < records.size(); ++i) {
              columns.push_back(records[i], directions[i]);
            }
            columns.shrink_to_fit();
            return columns;
          }(),
          std::move(windows), unclassified_records) {}

WindowedTrace::RecordRange WindowedTrace::records_of(
    const VipMinuteStats& window) const {
  return store_.range(window.first_record, window.last_record);
}

std::span<const VipMinuteStats> WindowedTrace::series(IPv4 vip,
                                                      Direction dir) const noexcept {
  const auto key_less = [](const VipMinuteStats& w,
                           std::pair<IPv4, Direction> key) {
    if (w.vip != key.first) return w.vip < key.first;
    return static_cast<int>(w.direction) < static_cast<int>(key.second);
  };
  const auto key_greater = [](std::pair<IPv4, Direction> key,
                              const VipMinuteStats& w) {
    if (w.vip != key.first) return key.first < w.vip;
    return static_cast<int>(key.second) < static_cast<int>(w.direction);
  };
  const auto lo = std::lower_bound(windows_.begin(), windows_.end(),
                                   std::make_pair(vip, dir), key_less);
  const auto hi = std::upper_bound(lo, windows_.end(), std::make_pair(vip, dir),
                                   key_greater);
  return {lo, hi};
}

namespace {

/// One-entry longest-prefix-membership memo. classify() pays two
/// PrefixSet::contains() walks per record, but the generator emits episode
/// bursts whose cloud-side endpoint is constant for long stretches, so the
/// per-side repeat rate is high. Verdicts are a pure function of the IP, so
/// memoization cannot change any output — it only skips redundant walks.
class MembershipMemo {
 public:
  /// `set` may be null only if contains() is never called.
  explicit MembershipMemo(const PrefixSet* set) noexcept : set_(set) {}

  [[nodiscard]] bool contains(IPv4 ip) noexcept {
    if (!valid_ || ip != ip_) {
      ip_ = ip;
      valid_ = true;
      verdict_ = set_->contains(ip);
    }
    return verdict_;
  }

 private:
  const PrefixSet* set_;
  IPv4 ip_;
  bool verdict_ = false;
  bool valid_ = false;
};

/// classify() with per-side memos — bitwise-identical verdicts.
std::optional<Direction> classify_memo(const FlowRecord& record,
                                       MembershipMemo& src_cloud,
                                       MembershipMemo& dst_cloud) noexcept {
  const bool src_in = src_cloud.contains(record.src_ip);
  const bool dst_in = dst_cloud.contains(record.dst_ip);
  if (src_in == dst_in) return std::nullopt;
  return dst_in ? Direction::kInbound : Direction::kOutbound;
}

/// The canonical record ordering, packed for cheap comparisons:
///   k0 = (vip, direction), k1 = minute (sign-bias mapped), and
///   k2 = (remote ip, arrival index). The arrival-index tie-break makes the
/// order a strict total order, so an unstable sort yields the one unique
/// permutation. Only aggregate_shard's fallback for minutes outside the
/// packed range sorts these.
struct SortKey {
  std::uint64_t k0;
  std::uint64_t k1;
  std::uint64_t k2;

  friend bool operator<(const SortKey& a, const SortKey& b) noexcept {
    return std::tie(a.k0, a.k1, a.k2) < std::tie(b.k0, b.k1, b.k2);
  }
};

SortKey key_of(const FlowRecord& r, Direction dir, std::size_t index) noexcept {
  const OrientedFlow f{&r, dir};
  return SortKey{
      (static_cast<std::uint64_t>(f.vip().value()) << 1) |
          static_cast<std::uint64_t>(dir),
      static_cast<std::uint64_t>(r.minute) ^ (std::uint64_t{1} << 63),
      (static_cast<std::uint64_t>(f.remote_ip().value()) << 32) |
          static_cast<std::uint64_t>(index)};
}

/// Single-pass window builder: folds records, fed in canonical order, into
/// one VipMinuteStats per (vip, direction, minute). Remote IPs arrive
/// sorted within a window, so distinct counts fall out of adjacent
/// comparisons. `index` is the record's position in the shard's canonical
/// order — the window's first/last_record range.
class WindowBuilder {
 public:
  WindowBuilder(const PrefixSet* blacklist, std::size_t capacity)
      : blacklist_(blacklist), blacklisted_(blacklist) {
    windows_.reserve(capacity);
  }

  void add(const FlowRecord& r, Direction direction, std::uint32_t vip,
           std::uint32_t remote, std::uint32_t index) {
    if (current_ == nullptr || current_->vip.value() != vip ||
        current_->direction != direction || current_->minute != r.minute) {
      // Construct in place: a stack temp would zero-init and then copy all
      // ~184 bytes a second time on push_back.
      current_ = &windows_.emplace_back();
      current_->vip = IPv4(vip);
      current_->minute = r.minute;
      current_->direction = direction;
      current_->first_record = index;
      any_remote_ = any_admin_ = any_smtp_ = any_blacklist_ = false;
    }
    VipMinuteStats& w = *current_;
    w.last_record = index + 1;
    const std::uint32_t packets = r.packets;
    w.packets += packets;
    w.bytes += r.bytes;
    w.flows += 1;

    switch (r.protocol) {
      case Protocol::kTcp:
        w.tcp_packets += packets;
        if (is_pure_syn(r.tcp_flags)) w.syn_packets += packets;
        if (is_null_scan(r.tcp_flags)) w.null_scan_packets += packets;
        if (is_xmas_scan(r.tcp_flags)) w.xmas_scan_packets += packets;
        if (is_bare_rst(r.tcp_flags)) w.bare_rst_packets += packets;
        break;
      case Protocol::kUdp:
        w.udp_packets += packets;
        // A DNS response travels *from* the resolver's port 53; for inbound
        // reflection that is the remote side, for the outbound case the VIP.
        if (r.src_port == ports::kDns) w.dns_response_packets += packets;
        break;
      case Protocol::kIcmp:
        w.icmp_packets += packets;
        break;
      case Protocol::kIpEncap:
        w.ipencap_packets += packets;
        break;
    }

    if (!any_remote_ || remote != last_remote_) {
      w.unique_remote_ips += 1;
      last_remote_ = remote;
      any_remote_ = true;
    }

    // The port identifying the targeted application is the wire
    // destination port regardless of direction (OrientedFlow::service_port).
    if (r.protocol == Protocol::kTcp) {
      const std::uint16_t service_port = r.dst_port;
      if (service_port == ports::kSmtp) {
        w.smtp_flows += 1;
        w.smtp_packets += packets;
        if (!any_smtp_ || remote != last_smtp_remote_) {
          w.unique_smtp_remotes += 1;
          last_smtp_remote_ = remote;
          any_smtp_ = true;
        }
      }
      if (ports::is_remote_admin(service_port)) {
        w.remote_admin_flows += 1;
        w.admin_packets += packets;
        if (!any_admin_ || remote != last_admin_remote_) {
          w.unique_admin_remotes += 1;
          last_admin_remote_ = remote;
          any_admin_ = true;
        }
      }
      if (ports::is_sql(service_port)) {
        w.sql_flows += 1;
        w.sql_packets += packets;
      }
    }

    if (blacklist_ != nullptr && blacklisted_.contains(IPv4(remote))) {
      w.blacklist_flows += 1;
      w.blacklist_packets += packets;
      if (!any_blacklist_ || remote != last_blacklist_remote_) {
        w.unique_blacklist_remotes += 1;
        last_blacklist_remote_ = remote;
        any_blacklist_ = true;
      }
    }
  }

  [[nodiscard]] std::vector<VipMinuteStats> take() && {
    return std::move(windows_);
  }

 private:
  std::vector<VipMinuteStats> windows_;
  VipMinuteStats* current_ = nullptr;
  const PrefixSet* blacklist_;
  // Blacklist membership is a pure function of the remote IP, and remotes
  // repeat in adjacent records (sorted within a window) — memoize the walk.
  MembershipMemo blacklisted_;
  std::uint32_t last_remote_ = 0, last_admin_remote_ = 0,
                last_smtp_remote_ = 0, last_blacklist_remote_ = 0;
  bool any_remote_ = false, any_admin_ = false, any_smtp_ = false,
       any_blacklist_ = false;
};

/// Gather distance for the permuted read in the build loop: far enough to
/// cover DRAM latency at a few ns per record, near enough to stay inside
/// the already-sorted locality window.
constexpr std::size_t kGatherPrefetch = 8;

/// VIP samples drawn per target shard when aggregate_windows cuts the
/// address space: enough that the quantile cuts track the VIP mix.
constexpr std::size_t kSamplesPerShard = 16;

}  // namespace

WindowedTrace aggregate_windows(std::vector<FlowRecord> records,
                                const PrefixSet& cloud_space,
                                const PrefixSet* blacklist,
                                exec::ThreadPool* pool,
                                const SpillConfig* spill) {
  util::tune_malloc_for_streaming();
  const std::size_t n = records.size();

  // Cut the VIP address space into ranges at the quantiles of a strided
  // sample of the kept records' VIPs. The canonical order leads with the
  // VIP, so every cut yields the same output; the sample only balances the
  // shards. A VIP heavier than a quantile step collapses adjacent cuts.
  const std::size_t target =
      std::max<std::size_t>(1, std::min(n, shard_count_for(pool, spill)));
  std::vector<std::uint32_t> cuts;
  {
    std::vector<std::uint32_t> sample;
    const std::size_t stride =
        std::max<std::size_t>(1, n / (target * kSamplesPerShard));
    for (std::size_t i = 0; i < n; i += stride) {
      if (const auto dir = classify(records[i], cloud_space)) {
        sample.push_back(OrientedFlow{&records[i], *dir}.vip().value());
      }
    }
    std::sort(sample.begin(), sample.end());
    for (std::size_t s = 1; s < target && !sample.empty(); ++s) {
      const std::uint32_t cut = sample[s * sample.size() / target];
      if (cut > (cuts.empty() ? sample.front() : cuts.back())) {
        cuts.push_back(cut);
      }
    }
  }
  const std::size_t shards = cuts.size() + 1;

  // Classify every record (parallel, memoized per side within a chunk) to
  // its VIP range, counting each chunk's records per range. Unclassified
  // records ride along in range 0, where aggregate_shard drops and counts
  // them.
  const std::size_t chunks = exec::chunk_count_for(pool, n);
  std::vector<std::uint32_t> shard_of(n);
  std::vector<std::size_t> slot(chunks * shards, 0);
  exec::parallel_for_chunks(
      pool, n, [&](std::size_t lo, std::size_t hi, std::size_t c) {
        MembershipMemo src_cloud(&cloud_space);
        MembershipMemo dst_cloud(&cloud_space);
        std::size_t* const count = &slot[c * shards];
        // Every cut exceeds the smallest sampled VIP, so VIP 0 is in range
        // 0 — a valid starting memo.
        std::uint32_t memo_vip = 0;
        std::uint32_t memo_shard = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          std::uint32_t shard = 0;
          if (const auto dir = classify_memo(records[i], src_cloud, dst_cloud)) {
            const std::uint32_t vip = OrientedFlow{&records[i], *dir}.vip().value();
            if (vip != memo_vip) {
              memo_vip = vip;
              memo_shard = static_cast<std::uint32_t>(
                  std::upper_bound(cuts.begin(), cuts.end(), vip) - cuts.begin());
            }
            shard = memo_shard;
          }
          shard_of[i] = shard;
          ++count[shard];
        }
      });

  // Stable counting scatter of record indices by range: range-major,
  // chunk-minor offsets keep every range's indices in arrival order, the
  // tie-break of the canonical order.
  std::vector<std::size_t> shard_begin(shards + 1, 0);
  {
    std::size_t next = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      shard_begin[s] = next;
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t count = slot[c * shards + s];
        slot[c * shards + s] = next;
        next += count;
      }
    }
    shard_begin[shards] = next;
  }
  std::vector<std::uint32_t> index(n);
  exec::parallel_for_chunks(
      pool, n, [&](std::size_t lo, std::size_t hi, std::size_t c) {
        std::size_t* const at = &slot[c * shards];
        for (std::size_t i = lo; i < hi; ++i) {
          index[at[shard_of[i]]++] = static_cast<std::uint32_t>(i);
        }
      });
  shard_of = std::vector<std::uint32_t>();

  // Each range gathers its records (prefetched: the reads stride through
  // the arrival-order input) and runs the shard core. Every window holds at
  // least one record, so n bounds the spilled merge's window count.
  return merge_shards(
      pool, shards,
      [&](std::size_t s) {
        const std::size_t b = shard_begin[s];
        const std::size_t e = shard_begin[s + 1];
        std::vector<FlowRecord> part;
        part.reserve(e - b);
        for (std::size_t i = b; i < e; ++i) {
          if (i + kGatherPrefetch < e) {
            exec::prefetch_read(&records[index[i + kGatherPrefetch]]);
          }
          part.push_back(records[index[i]]);
        }
        return aggregate_shard(std::move(part), cloud_space, blacklist);
      },
      spill, n);
}

namespace {

/// The shard core behind aggregate_shard and aggregate_shard_windows:
/// classify+compact, canonical sort, and one gather pass through the sort
/// permutation that folds each record into its window and, when `encode`
/// is set, appends it to the shard's columnar slice.
ShardWindows shard_core(std::vector<FlowRecord> records,
                        const PrefixSet& cloud_space,
                        const PrefixSet* blacklist, bool encode) {
  ShardWindows out;

  // Classify, compact, and build the packed sort words in one serial pass;
  // compaction is stable, so kept records retain arrival order — the
  // tie-break the canonical sort uses. The per-side memos skip redundant
  // prefix walks across episode bursts. Fusing the key build here saves a
  // second full sweep over the record array. The hi word's minute bits are
  // speculative — abandoned if a record turns out not packable (the SortKey
  // fallback below rebuilds from records, identical ordering) — but its VIP
  // half and the remote word are exact, and the window build reads both.
  constexpr std::size_t kMaxRankedVips = 32;
  constexpr util::Minute kMaxPackedMinute = util::Minute{1} << 26;
  bool packable = true;
  std::size_t keep = 0;
  std::vector<Direction> directions;
  directions.reserve(records.size());
  std::vector<std::uint64_t> hi(records.size());
  std::vector<std::uint32_t> remote(records.size());
  std::uint32_t vips[kMaxRankedVips];
  std::size_t vip_count = 0;
  std::uint32_t last_vip = 0;
  Direction last_dir = Direction::kInbound;
  util::Minute last_minute = 0;
  util::Minute max_minute = 0;
  // Arrival-order runs of equal (vip, direction, minute): every window's
  // key starts at least one, so their count bounds the window count.
  std::size_t arrival_runs = 0;
  MembershipMemo src_cloud(&cloud_space);
  MembershipMemo dst_cloud(&cloud_space);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto dir = classify_memo(records[i], src_cloud, dst_cloud);
    if (!dir) {
      ++out.unclassified;
      continue;
    }
    packable &= records[i].minute >= 0 &&
                records[i].minute < (util::Minute{1} << 31);
    // Unclassified records are rare, so keep usually equals i — skip the
    // 40-byte self-assignment in that case.
    if (keep != i) records[keep] = records[i];
    directions.push_back(*dir);
    const OrientedFlow f{&records[keep], *dir};
    const std::uint32_t vip = f.vip().value();
    hi[keep] = (static_cast<std::uint64_t>(vip) << 32) |
               (static_cast<std::uint64_t>(*dir) << 31) |
               static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(records[keep].minute));
    remote[keep] = f.remote_ip().value();
    max_minute = std::max(max_minute, records[keep].minute);
    if (keep == 0 || vip != last_vip || *dir != last_dir ||
        records[keep].minute != last_minute) {
      ++arrival_runs;
      last_dir = *dir;
      last_minute = records[keep].minute;
    }
    // Arrival order keeps each VIP constant for long stretches, so the
    // repeat check skips nearly every ranked-set probe.
    if (vip_count <= kMaxRankedVips && !(keep > 0 && vip == last_vip)) {
      auto* const end = vips + vip_count;
      const auto* at = std::lower_bound(vips, end, vip);
      if (at == end || *at != vip) {
        if (vip_count == kMaxRankedVips) {
          ++vip_count;  // overflow marker: too many VIPs to rank
        } else {
          const auto slot = static_cast<std::size_t>(at - vips);
          for (std::size_t j = vip_count; j > slot; --j) vips[j] = vips[j - 1];
          vips[slot] = vip;
          ++vip_count;
        }
      }
    }
    last_vip = vip;
    ++keep;
  }
  records.resize(keep);

  // Canonical sort, computed as a permutation only — the sorted
  // array-of-structs copy is gone; the gather pass below reads through the
  // permutation. Generator minutes always fit 31 bits, so (vip, dir,
  // minute) packs into 64 bits, the remote into 32, and two stable LSD
  // radix passes — by remote, then by the packed high word — produce
  // exactly the order the old single 128-bit-key sort did: stable LSD at
  // word granularity is lexicographic (hi, remote, arrival), and the
  // arrival-index tie-break costs nothing because the permutation starts in
  // arrival order. Splitting the words halves the key traffic the sort
  // moves.
  //
  // A shard usually qualifies for a tighter high word: it owns a narrow
  // VIP slice (few distinct VIPs) and realistic horizons stay far under
  // 2^26 minutes (~127 years), so
  //   (vip rank : 5 | direction : 1 | minute : 26)
  // fits 32 bits and is a monotone reencoding of the full high word — rank
  // order equals VIP address order by construction. Both radix phases then
  // sort u32 keys instead of one sorting a u64, which cuts the scatter
  // traffic by a third and lets the histogram skip the minute bytes a
  // short horizon leaves constant. Shards with too many VIPs or ingested
  // out-of-range minutes keep the u64 high word (identical ordering —
  // every packed key is a monotone reencoding of SortKey in its range).
  std::vector<std::uint32_t> order(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  if (packable) {
    if (vip_count <= kMaxRankedVips && max_minute < kMaxPackedMinute) {
      std::vector<std::uint32_t> hi32(keep);
      std::uint32_t memo_vip = vip_count > 0 ? vips[0] : 0;
      std::uint32_t memo_rank = 0;
      for (std::size_t i = 0; i < keep; ++i) {
        const auto vip = static_cast<std::uint32_t>(hi[i] >> 32);
        if (vip != memo_vip) {
          memo_vip = vip;
          memo_rank = static_cast<std::uint32_t>(
              std::lower_bound(vips, vips + vip_count, vip) - vips);
        }
        const std::uint32_t rank = memo_rank;
        hi32[i] = (rank << 27) |
                  (static_cast<std::uint32_t>(hi[i] >> 31) & 1u) << 26 |
                  static_cast<std::uint32_t>(hi[i] & (kMaxPackedMinute - 1));
      }
      exec::radix_sort(order, [&](std::uint32_t i) { return remote[i]; });
      exec::radix_sort(order, [&](std::uint32_t i) { return hi32[i]; });
    } else {
      exec::radix_sort(order, [&](std::uint32_t i) { return remote[i]; });
      exec::radix_sort(order, [&](std::uint32_t i) { return hi[i]; });
    }
  } else {
    std::vector<SortKey> keys(keep);
    for (std::size_t i = 0; i < keep; ++i) {
      keys[i] = key_of(records[i], directions[i], i);
    }
    std::sort(keys.begin(), keys.end());
    for (std::size_t i = 0; i < keep; ++i) {
      order[i] = static_cast<std::uint32_t>(keys[i].k2 & 0xffffffffULL);
    }
  }

  // One gather pass through the permutation, software-prefetched a few
  // records ahead to hide the permuted-access latency: each record folds
  // into its window straight from the vip and remote words the classify
  // pass computed and, when encoding, streams into the columnar encoder.
  WindowBuilder windows(blacklist, arrival_runs);
  for (std::size_t i = 0; i < keep; ++i) {
    if (i + kGatherPrefetch < keep) {
      exec::prefetch_read(&records[order[i + kGatherPrefetch]]);
    }
    const std::size_t src = order[i];
    if (encode) out.columns.push_back(records[src], directions[src]);
    windows.add(records[src], directions[src],
                static_cast<std::uint32_t>(hi[src] >> 32), remote[src],
                static_cast<std::uint32_t>(i));
  }
  // Free the arrival-order arrays before trimming the outputs, so the trims'
  // copies never coexist with them.
  records = std::vector<FlowRecord>();
  directions = std::vector<Direction>();
  hi = std::vector<std::uint64_t>();
  remote = std::vector<std::uint32_t>();
  order = std::vector<std::uint32_t>();

  out.windows = std::move(windows).take();
  if (encode) {
    // Shard outputs accumulate until the caller's merge; hold exact sizes,
    // not reservation or growth overshoot.
    out.columns.shrink_to_fit();
    out.windows.shrink_to_fit();
  }
  return out;
}

}  // namespace

ShardWindows aggregate_shard(std::vector<FlowRecord> records,
                             const PrefixSet& cloud_space,
                             const PrefixSet* blacklist) {
  return shard_core(std::move(records), cloud_space, blacklist, true);
}

std::vector<VipMinuteStats> aggregate_shard_windows(
    std::vector<FlowRecord> records, const PrefixSet& cloud_space,
    const PrefixSet* blacklist) {
  return shard_core(std::move(records), cloud_space, blacklist, false).windows;
}

std::size_t shard_count_for(const exec::ThreadPool* pool,
                            const SpillConfig* spill) noexcept {
  const std::size_t per_worker =
      spill != nullptr && spill->enabled() ? 256 : 64;
  const std::size_t workers =
      pool == nullptr ? 0 : static_cast<std::size_t>(pool->thread_count());
  return per_worker * std::max<std::size_t>(workers, 1);
}

WindowedTrace merge_shards(
    exec::ThreadPool* pool, std::size_t shards,
    const std::function<ShardWindows(std::size_t)>& make_shard,
    const SpillConfig* spill, std::size_t window_capacity) {
  const auto run = [&](std::size_t s, std::size_t) { return make_shard(s); };
  std::vector<VipMinuteStats> windows;
  std::uint64_t unclassified = 0;
  std::size_t consumed = 0;
  // Copies a shard's windows straight into place, patching the two index
  // fields while the destination line is still hot — one touch per
  // ~184-byte struct instead of a copy pass plus a patch pass — and then
  // releases the slice, trimming periodically so pages the worker arenas
  // retain for freed slices leave the process instead of stacking under
  // the growing merged copy.
  const auto take = [&](ShardWindows& s, std::size_t base) {
    for (const VipMinuteStats& w : s.windows) {
      VipMinuteStats& back = windows.emplace_back(w);
      back.first_record += static_cast<std::uint32_t>(base);
      back.last_record += static_cast<std::uint32_t>(base);
    }
    unclassified += s.unclassified;
    s = ShardWindows();
    if (++consumed % 64 == 0) util::release_free_heap();
  };

  if (spill != nullptr && spill->enabled()) {
    // Out-of-core: shards are consumed in index order while the next wave
    // runs, so at most two waves are resident; the SpillWriter seals
    // segments per policy. The window count is unknown until the last
    // shard lands, and geometric growth would copy the largest resident
    // array on the serial consume path and briefly hold old + new copies,
    // so the caller's bound is reserved up front (virtually — only touched
    // pages cost RSS).
    SpillWriter writer(*spill);
    windows.reserve(window_capacity);
    const std::size_t workers =
        pool == nullptr ? 0 : static_cast<std::size_t>(pool->thread_count());
    exec::parallel_map_waves_n<ShardWindows>(
        pool, shards, shards, 2 * std::max<std::size_t>(workers, 1), run,
        [&](std::size_t, ShardWindows&& s) {
          const std::size_t base = writer.records_so_far();
          writer.append(std::move(s.columns));
          take(s, base);
        });
    util::release_free_heap();
    return WindowedTrace(std::move(writer).finish(), std::move(windows),
                         unclassified);
  }

  std::vector<ShardWindows> parts =
      exec::parallel_map_chunks_n<ShardWindows>(pool, shards, shards, run);
  // Reserve the exact summed sizes so the appends never over-allocate.
  std::size_t total_windows = 0;
  ColumnarRecords::BufferSizes total_bytes;
  for (const ShardWindows& s : parts) {
    total_windows += s.windows.size();
    const auto b = s.columns.buffer_sizes();
    total_bytes.header_bytes += b.header_bytes + 20;  // re-encoded first header
    total_bytes.payload_bytes += b.payload_bytes;
    total_bytes.runs += b.runs;
    total_bytes.checkpoints += b.checkpoints;
  }
  ColumnarRecords columns;
  columns.reserve(total_bytes);
  windows.reserve(total_windows);
  for (ShardWindows& s : parts) {
    const std::size_t base = columns.size();
    columns.append(std::move(s.columns));
    take(s, base);
  }
  util::release_free_heap();
  return WindowedTrace(std::move(columns), std::move(windows), unclassified);
}

}  // namespace dm::netflow
