// Grouping sampled NetFlow into per-(VIP, minute, direction) feature
// windows — the paper's SCOPE aggregation step ("We aggregate the NetFlow
// data by VIP in each one-minute window", §2.2) done in-process.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "exec/thread_pool.h"
#include "netflow/columnar_records.h"
#include "netflow/flow_record.h"
#include "netflow/ipv4.h"
#include "netflow/segment_store.h"

namespace dm::netflow {

/// Aggregated features of one VIP's traffic in one direction during one
/// one-minute window. All counts are of *sampled* traffic.
struct VipMinuteStats {
  IPv4 vip;
  util::Minute minute = 0;
  Direction direction = Direction::kInbound;

  // Volumes per protocol / flag class (sampled packets).
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t tcp_packets = 0;
  std::uint64_t udp_packets = 0;
  std::uint64_t icmp_packets = 0;
  std::uint64_t ipencap_packets = 0;
  std::uint64_t syn_packets = 0;          ///< pure SYN (no ACK)
  std::uint64_t null_scan_packets = 0;    ///< TCP with no flags
  std::uint64_t xmas_scan_packets = 0;    ///< FIN+PSH+URG
  std::uint64_t bare_rst_packets = 0;     ///< RST without ACK/SYN
  std::uint64_t dns_response_packets = 0; ///< UDP from/to remote port 53

  // Spread features (per-window distinct counts in the sampled data).
  std::uint32_t flows = 0;
  std::uint32_t unique_remote_ips = 0;
  std::uint32_t smtp_flows = 0;             ///< dst port 25
  std::uint32_t unique_smtp_remotes = 0;    ///< distinct remotes on SMTP flows
  std::uint32_t remote_admin_flows = 0;     ///< dst port 22/3389/5900
  std::uint32_t unique_admin_remotes = 0;   ///< distinct remotes on admin flows
  std::uint32_t sql_flows = 0;              ///< dst port 1433/3306

  // Per-application packet counters (attack-throughput attribution).
  std::uint64_t smtp_packets = 0;
  std::uint64_t admin_packets = 0;
  std::uint64_t sql_packets = 0;

  // Communication-pattern feature.
  std::uint32_t blacklist_flows = 0;        ///< flows touching a TDS host
  std::uint32_t unique_blacklist_remotes = 0;
  std::uint64_t blacklist_packets = 0;

  // Index range [first_record, last_record) into WindowedTrace::records().
  std::uint32_t first_record = 0;
  std::uint32_t last_record = 0;
};

/// The aggregated dataset: oriented records sorted by
/// (VIP, direction, minute, remote IP) plus one VipMinuteStats per non-empty
/// window, in the same order. Per-VIP time series are contiguous slices.
///
/// Records live in a RecordStore — either a resident ColumnarRecords
/// (run-length/delta-varint compressed, including each record's Direction)
/// or, for out-of-core runs, a spilled SegmentStore of memory-mapped
/// segment files. Record access decodes on the fly through
/// RecordStore::Range (drop-in for range-for loops that used to see a
/// std::span<const FlowRecord>), identical in both modes.
class WindowedTrace {
 public:
  using RecordRange = RecordStore::Range;

  WindowedTrace() = default;
  WindowedTrace(RecordStore store, std::vector<VipMinuteStats> windows,
                std::uint64_t unclassified_records);
  WindowedTrace(ColumnarRecords columns, std::vector<VipMinuteStats> windows,
                std::uint64_t unclassified_records);
  /// Convenience for ingestion paths and tests that hold AoS arrays: encodes
  /// them into the columnar store.
  WindowedTrace(std::vector<FlowRecord> records, std::vector<Direction> directions,
                std::vector<VipMinuteStats> windows,
                std::uint64_t unclassified_records);

  [[nodiscard]] std::span<const VipMinuteStats> windows() const noexcept {
    return windows_;
  }
  [[nodiscard]] RecordRange records() const { return store_.all(); }
  [[nodiscard]] std::size_t record_count() const noexcept {
    return store_.size();
  }
  [[nodiscard]] const RecordStore& store() const noexcept { return store_; }

  /// Records belonging to a window (same index space as windows()).
  [[nodiscard]] RecordRange records_of(const VipMinuteStats& window) const;

  /// Direction of record `record_index` relative to the cloud. Costs a
  /// store seek (plus a segment map when spilled); bulk consumers should
  /// iterate records() and read the iterator's direction() instead.
  [[nodiscard]] Direction direction_of(std::size_t record_index) const {
    return store_.direction_of(record_index);
  }

  /// Contiguous window slice for one (vip, direction) series, sorted by
  /// minute. Empty when the VIP has no traffic in that direction.
  [[nodiscard]] std::span<const VipMinuteStats> series(IPv4 vip,
                                                       Direction dir) const noexcept;

  /// Distinct VIPs present in the trace (either direction), ascending.
  /// Computed once at construction — callers may hold the span for the
  /// trace's lifetime.
  [[nodiscard]] std::span<const IPv4> vips() const noexcept { return vips_; }

  /// Records that matched neither/both cloud prefixes and were dropped.
  [[nodiscard]] std::uint64_t unclassified_records() const noexcept {
    return unclassified_;
  }

 private:
  RecordStore store_;
  std::vector<VipMinuteStats> windows_;
  std::vector<IPv4> vips_;
  std::uint64_t unclassified_ = 0;
};

/// Orients a record against the cloud address space: inbound when only the
/// destination is a cloud address, outbound when only the source is.
/// nullopt when neither or both are (transit/intra-cloud — outside the
/// study's scope).
[[nodiscard]] std::optional<Direction> classify(const FlowRecord& record,
                                                const PrefixSet& cloud_space) noexcept;

/// Builds the windowed dataset. `blacklist` (may be null) marks TDS hosts
/// for the communication-pattern feature. The records are partitioned into
/// VIP address ranges (cut at quantiles of a strided VIP sample, arrival
/// order kept within each range) and each range runs aggregate_shard on
/// `pool` (may be null = serial) through merge_shards. The record order is
/// canonical — (vip, direction, minute, remote, arrival index) — and leads
/// with the VIP, so the result is byte-identical for any thread count, any
/// cut, and any input sharding. A non-null enabled `spill` streams the
/// shard slices through a SpillWriter instead of concatenating them in RAM;
/// the resulting trace decodes byte-identically either way.
[[nodiscard]] WindowedTrace aggregate_windows(std::vector<FlowRecord> records,
                                              const PrefixSet& cloud_space,
                                              const PrefixSet* blacklist = nullptr,
                                              exec::ThreadPool* pool = nullptr,
                                              const SpillConfig* spill = nullptr);

/// One shard's fully aggregated slice: kept records (with directions) in
/// canonical order inside a shard-local columnar store, windows whose
/// first/last_record indices are SHARD-LOCAL, and the shard's
/// dropped-record count. merge_shards concatenates slices in shard order
/// and rebases the window index ranges.
struct ShardWindows {
  ColumnarRecords columns;
  std::vector<VipMinuteStats> windows;
  std::uint64_t unclassified = 0;
};

/// The aggregation core, run once per shard by aggregate_windows and the
/// fused generate→aggregate path (sim::generate_windows): classify+compact,
/// canonical sort (LSD radix over packed keys when every minute fits 31
/// bits — always true for generator output — comparison sort otherwise),
/// then one gather pass through the sort permutation that appends each
/// kept record to the columnar slice and folds it into its window in the
/// same step, all serial: the shard itself is the unit of parallelism.
/// When shards hold contiguous, disjoint ranges of the VIP address space,
/// concatenating their slices in address order yields the global canonical
/// order.
[[nodiscard]] ShardWindows aggregate_shard(std::vector<FlowRecord> records,
                                           const PrefixSet& cloud_space,
                                           const PrefixSet* blacklist = nullptr);

/// aggregate_shard without the columnar slice: the same classify, sort and
/// window build, returning only the windows (first/last_record index the
/// records' canonical order, exactly as aggregate_shard's do). For
/// detect::StreamMonitor's minute close, which feeds the windows to its
/// detectors and never reads the records back.
[[nodiscard]] std::vector<VipMinuteStats> aggregate_shard_windows(
    std::vector<FlowRecord> records, const PrefixSet& cloud_space,
    const PrefixSet* blacklist = nullptr);

/// How many shards a sharded aggregation aims for on `pool`: 64 per worker
/// (64 when serial), 256 per worker when `spill` is enabled, where shards
/// are also the unit of out-of-core progress. Shards bound the in-flight
/// transient memory (W workers hold W shards at once), so the count scales
/// with the pool rather than the input. Callers clamp it to what they can
/// split.
[[nodiscard]] std::size_t shard_count_for(const exec::ThreadPool* pool,
                                          const SpillConfig* spill) noexcept;

/// The one shard merge: runs make_shard(s) for every s in [0, shards) on
/// `pool` and concatenates the ShardWindows in shard order — columnar
/// slices appended, window record ranges rebased to global offsets,
/// unclassified counts summed. Resident, every shard lands before an
/// exact-size concatenation; with an enabled `spill`, shards run in waves
/// of two per worker and stream through a SpillWriter, so at most two
/// waves are resident, and `window_capacity` (an upper bound on the window
/// count, 0 = unknown) is reserved up front. Either way the decoded trace
/// is the same for any thread count.
[[nodiscard]] WindowedTrace merge_shards(
    exec::ThreadPool* pool, std::size_t shards,
    const std::function<ShardWindows(std::size_t)>& make_shard,
    const SpillConfig* spill = nullptr, std::size_t window_capacity = 0);

}  // namespace dm::netflow
