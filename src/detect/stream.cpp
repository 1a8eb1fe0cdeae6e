#include "detect/stream.h"

#include <algorithm>
#include <bit>
#include <istream>
#include <ostream>

#include "netflow/trace_io.h"
#include "netflow/varint.h"

namespace dm::detect {

using netflow::Direction;
using netflow::FlowRecord;
using netflow::OrientedFlow;
using netflow::Protocol;
using netflow::TcpFlags;
using netflow::VipMinuteStats;

namespace {

// Checkpoint framing: magic + version, then one varint-sized CRC-protected
// payload — the same shape as a trace block, so a damaged checkpoint fails
// loudly instead of resuming from garbage.
constexpr std::uint32_t kCheckpointMagic = 0x4b434d44;  // "DMCK" little-endian
// Version 2 carries buffered records and incident members; version-1 frames
// (pre-aggregated windows, running incident summaries) are not read.
constexpr std::uint16_t kCheckpointVersion = 2;

/// Upper bound on a plausible checkpoint payload. A malformed size varint
/// must not become a multi-gigabyte allocation before the CRC ever gets a
/// chance to reject the frame; 1 GiB is orders of magnitude above any real
/// monitor state.
constexpr std::uint64_t kMaxCheckpointPayload = 1ull << 30;

/// Content hash for duplicate suppression: FNV-1a over every record field.
/// 64 bits keeps accidental collisions (a distinct record silently dropped)
/// below ~2^-32 per open minute at realistic window populations.
[[nodiscard]] std::uint64_t record_hash(const FlowRecord& r) noexcept {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(r.minute));
  mix(r.src_ip.value());
  mix(r.dst_ip.value());
  mix((static_cast<std::uint64_t>(r.src_port) << 16) | r.dst_port);
  mix((static_cast<std::uint64_t>(r.protocol) << 8) |
      static_cast<std::uint64_t>(r.tcp_flags));
  mix(r.packets);
  mix(r.bytes);
  return h;
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  netflow::put_varint(out, v);
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  netflow::put_varint(out, netflow::zigzag64(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  netflow::put_varint(out, std::bit_cast<std::uint64_t>(v));
}

/// Serializes a dedup hash set as (count, sorted elements): sorting makes
/// checkpoint bytes a pure function of monitor state.
void put_hash_set(std::vector<std::uint8_t>& out,
                  const std::unordered_set<std::uint64_t>& hashes) {
  // dmlint: allow(unordered-iteration) drained into a sorted vector before any byte is written
  std::vector<std::uint64_t> sorted(hashes.begin(), hashes.end());
  std::sort(sorted.begin(), sorted.end());
  put_u64(out, sorted.size());
  for (const std::uint64_t h : sorted) put_u64(out, h);
}

/// The open-incident map key of a detection: (vip, type, direction).
[[nodiscard]] std::tuple<std::uint32_t, int, int> incident_key(
    const MinuteDetection& d) noexcept {
  return {d.vip.value(), static_cast<int>(d.type),
          static_cast<int>(d.direction)};
}

}  // namespace

StreamMonitor::StreamMonitor(netflow::PrefixSet cloud_space,
                             const netflow::PrefixSet* blacklist,
                             DetectionConfig config, TimeoutTable timeouts,
                             AlertCallback on_alert,
                             IncidentCallback on_incident, StreamConfig stream)
    : cloud_space_(std::move(cloud_space)),
      blacklist_(blacklist),
      config_(config),
      timeouts_(timeouts),
      on_alert_(std::move(on_alert)),
      on_incident_(std::move(on_incident)),
      stream_(stream) {}

void StreamMonitor::ingest(const FlowRecord& record) {
  ++records_ingested_;
  // A NetFlow record with zero sampled packets is structurally impossible
  // (a flow exists because at least one packet was sampled) — quarantine
  // rather than poison per-packet counters with flow-count-only windows.
  if (record.packets == 0) {
    ++records_quarantined_;
    return;
  }
  if (record.minute <= watermark_) {
    ++records_late_;  // its window is already committed
    return;
  }
  if (stream_.suppress_duplicates &&
      !seen_[record.minute].insert(record_hash(record)).second) {
    ++records_duplicate_;
    return;
  }
  if (!netflow::classify(record, cloud_space_)) {
    ++records_unclassifiable_;
    return;
  }

  // A record for minute M moves the watermark to M - reorder_lag and
  // commits everything at or before it. The record's own minute always
  // stays open (it is > watermark_ and M - reorder_lag - 1 <= max_seen_).
  max_seen_ = std::max(max_seen_, record.minute);
  commit_to(max_seen_ - stream_.reorder_lag);

  open_minutes_[record.minute].push_back(record);
}

void StreamMonitor::advance_to(util::Minute minute) {
  max_seen_ = std::max(max_seen_, minute);
  commit_to(minute);
}

void StreamMonitor::commit_to(util::Minute minute) {
  while (!open_minutes_.empty() && open_minutes_.begin()->first < minute) {
    close_minute(open_minutes_.begin()->first);
  }
  watermark_ = std::max(watermark_, minute - 1);
  // Dedup sets of committed minutes can no longer be consulted (those
  // minutes reject everything as late) — drop them so memory stays
  // proportional to the open horizon.
  while (!seen_.empty() && seen_.begin()->first <= watermark_) {
    seen_.erase(seen_.begin());
  }
  expire_incidents(minute);
}

void StreamMonitor::close_minute(util::Minute minute) {
  auto node = open_minutes_.extract(minute);
  if (node.empty()) return;
  // One minute's records aggregate into windows sorted by (vip, direction)
  // — SeriesKey order — by the batch core, minus the columnar encode.
  const std::vector<VipMinuteStats> windows = netflow::aggregate_shard_windows(
      std::move(node.mapped()), cloud_space_, blacklist_);
  for (const VipMinuteStats& window : windows) {
    feed_window(window);
    ++windows_closed_;
  }
}

void StreamMonitor::note_outage(util::Minute from, util::Minute to) {
  if (to <= from) return;
  outages_.emplace_back(from, to);
  std::sort(outages_.begin(), outages_.end());
  std::vector<std::pair<util::Minute, util::Minute>> merged;
  merged.reserve(outages_.size());
  for (const auto& o : outages_) {
    if (!merged.empty() && o.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, o.second);
    } else {
      merged.push_back(o);
    }
  }
  outages_ = std::move(merged);
}

std::size_t StreamMonitor::outage_overlap(util::Minute from,
                                          util::Minute to) const noexcept {
  std::size_t total = 0;
  for (const auto& [start, end] : outages_) {
    const util::Minute lo = std::max(from, start);
    const util::Minute hi = std::min(to, end);
    if (hi > lo) total += static_cast<std::size_t>(hi - lo);
  }
  return total;
}

void StreamMonitor::feed_window(const VipMinuteStats& window) {
  auto [det_it, inserted] =
      detectors_.try_emplace(SeriesKey{window.vip.value(), window.direction},
                             config_);
  SeriesState& series = det_it->second;
  // Minutes of the series' silent gap that fall inside a declared outage
  // carry no information: the change-point baselines must not absorb them
  // as zeros (which would both collapse the EWMA and accrue warm-up
  // history during a gap that saw no collector at all).
  const util::Minute reference =
      series.last_minute < 0 ? 0 : series.last_minute + 1;
  const std::size_t excluded =
      window.minute > reference ? outage_overlap(reference, window.minute) : 0;
  series.last_minute = window.minute;
  const auto verdicts = series.detector.observe(window, excluded);
  for (std::size_t t = 0; t < sim::kAttackTypeCount; ++t) {
    if (!verdicts[t].attack) continue;
    MinuteDetection detection{window.vip, window.direction,
                              sim::kAllAttackTypes[t], window.minute,
                              verdicts[t].sampled_packets,
                              verdicts[t].unique_remotes};
    ++alerts_;
    if (on_alert_) on_alert_(detection);
    feed_detection(detection);
  }
}

void StreamMonitor::emit_incident(std::vector<MinuteDetection>& members) {
  ++incidents_;
  if (on_incident_) on_incident_(finalize_incident(members));
  members.clear();
}

void StreamMonitor::feed_detection(const MinuteDetection& d) {
  std::vector<MinuteDetection>& members = open_incidents_[incident_key(d)];
  if (!members.empty() && splits_incident(members.back(), d.minute, timeouts_)) {
    emit_incident(members);  // gap exceeded: the previous incident is complete
  }
  members.push_back(d);
}

void StreamMonitor::expire_incidents(util::Minute now) {
  // Exact gating: a detection can only join an incident by closing a
  // minute below the commit point, and every such minute closed before the
  // last sweep, so a `now` at or below it splits nothing a sweep did not.
  if (now <= expired_at_) return;
  expired_at_ = now;
  for (auto it = open_incidents_.begin(); it != open_incidents_.end();) {
    if (splits_incident(it->second.back(), now, timeouts_)) {
      emit_incident(it->second);
      it = open_incidents_.erase(it);
    } else {
      ++it;
    }
  }
}

void StreamMonitor::finish() {
  while (!open_minutes_.empty()) {
    const util::Minute minute = open_minutes_.begin()->first;
    close_minute(minute);
    watermark_ = std::max(watermark_, minute);
  }
  seen_.clear();
  for (auto& [key, members] : open_incidents_) emit_incident(members);
  open_incidents_.clear();
}

std::size_t StreamMonitor::open_window_count() const noexcept {
  std::size_t total = 0;
  std::vector<SeriesKey> series;
  for (const auto& [minute, records] : open_minutes_) {
    series.clear();
    for (const FlowRecord& r : records) {
      // Buffered records classified on ingest (and restore checks it).
      const Direction direction = *netflow::classify(r, cloud_space_);
      series.push_back({OrientedFlow{&r, direction}.vip().value(), direction});
    }
    std::sort(series.begin(), series.end());
    total += static_cast<std::size_t>(
        std::unique(series.begin(), series.end()) - series.begin());
  }
  return total;
}

std::uint64_t StreamMonitor::approx_state_bytes() const noexcept {
  // Entry sizes times counts plus a fixed per-node estimate: a stable gauge
  // of the state the checkpoint would serialize, cheap enough to walk once
  // per accounting interval. Deliberately ignores allocator overhead and
  // hash-table load factors so the number is identical across runs and
  // platforms.
  constexpr std::uint64_t kNode = 48;  // map node overhead estimate
  std::uint64_t bytes = 0;
  for (const auto& [minute, records] : open_minutes_) {
    bytes += sizeof(minute) + kNode + records.size() * sizeof(FlowRecord);
  }
  bytes += detectors_.size() * (sizeof(SeriesKey) + sizeof(SeriesState) + kNode);
  for (const auto& [key, members] : open_incidents_) {
    bytes += sizeof(key) + kNode + members.size() * sizeof(MinuteDetection);
  }
  bytes += outages_.size() * sizeof(outages_[0]);
  for (const auto& [minute, hashes] : seen_) {
    bytes += sizeof(minute) + kNode + 8 * hashes.size();
  }
  return bytes;
}

void StreamMonitor::checkpoint(std::ostream& out) const {
  std::vector<std::uint8_t> payload;

  // Watermarks and counters.
  put_i64(payload, watermark_);
  put_i64(payload, max_seen_);
  put_u64(payload, records_ingested_);
  put_u64(payload, records_late_);
  put_u64(payload, records_unclassifiable_);
  put_u64(payload, records_duplicate_);
  put_u64(payload, records_quarantined_);
  put_u64(payload, windows_closed_);
  put_u64(payload, alerts_);
  put_u64(payload, incidents_);

  // Declared outages.
  put_u64(payload, outages_.size());
  for (const auto& [from, to] : outages_) {
    put_i64(payload, from);
    put_i64(payload, to);
  }

  // Buffered records, minute-major in arrival order (std::map iteration
  // gives deterministic order); restore regroups them by record minute.
  std::size_t buffered = 0;
  for (const auto& [minute, records] : open_minutes_) buffered += records.size();
  put_u64(payload, buffered);
  for (const auto& [minute, records] : open_minutes_) {
    // dmlint: covers(r, FlowRecord)
    for (const FlowRecord& r : records) {
      put_i64(payload, r.minute);
      put_u64(payload, r.src_ip.value());
      put_u64(payload, r.dst_ip.value());
      put_u64(payload, r.src_port);
      put_u64(payload, r.dst_port);
      put_u64(payload, static_cast<std::uint64_t>(r.protocol));
      put_u64(payload, static_cast<std::uint64_t>(r.tcp_flags));
      put_u64(payload, r.packets);
      put_u64(payload, r.bytes);
    }
    // dmlint: covers-end(r)
  }

  // Detector baselines.
  put_u64(payload, detectors_.size());
  for (const auto& [key, series] : detectors_) {
    put_u64(payload, key.vip);
    put_u64(payload, static_cast<std::uint64_t>(key.direction));
    // dmlint: covers(series, SeriesState)
    put_i64(payload, series.last_minute);
    const SeriesDetector::StateArray states = series.detector.state();
    // dmlint: covers-end(series)
    // dmlint: covers(s, State)
    for (const ChangePointDetector::State& s : states) {
      put_f64(payload, s.ewma_value);
      put_u64(payload, s.observations);
      put_i64(payload, s.last_minute);
    }
    // dmlint: covers-end(s)
  }

  // Member detections of the open incidents, key-major in minute order;
  // restore regroups them by their (vip, type, direction).
  std::size_t members = 0;
  for (const auto& [key, group] : open_incidents_) members += group.size();
  put_u64(payload, members);
  for (const auto& [key, group] : open_incidents_) {
    // dmlint: covers(d, MinuteDetection)
    for (const MinuteDetection& d : group) {
      put_u64(payload, d.vip.value());
      put_u64(payload, static_cast<std::uint64_t>(d.direction));
      put_u64(payload, static_cast<std::uint64_t>(d.type));
      put_i64(payload, d.minute);
      put_u64(payload, d.sampled_packets);
      put_u64(payload, d.unique_remotes);
    }
    // dmlint: covers-end(d)
  }

  // Dedup hashes of still-open minutes, sorted for determinism.
  put_u64(payload, seen_.size());
  for (const auto& [minute, hashes] : seen_) {
    put_i64(payload, minute);
    put_hash_set(payload, hashes);
  }

  // Frame: magic | version | payload-size varint | payload | crc32.
  std::vector<std::uint8_t> frame;
  frame.reserve(payload.size() + 24);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<std::uint8_t>(kCheckpointMagic >> (8 * i)));
  }
  frame.push_back(static_cast<std::uint8_t>(kCheckpointVersion & 0xff));
  frame.push_back(static_cast<std::uint8_t>(kCheckpointVersion >> 8));
  put_u64(frame, payload.size());
  frame.insert(frame.end(), payload.begin(), payload.end());
  const std::uint32_t crc = netflow::crc32(payload);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
}

void StreamMonitor::restore(std::istream& in) {
  // Frame validation happens in full — header, size, payload bytes, CRC —
  // before a single payload varint is decoded, and decoding lands in local
  // state swapped in only at the very end. Every exit path before the final
  // swap therefore leaves this monitor byte-identical to its pre-call
  // state, including on empty and truncated streams.
  const auto read_bytes = [&in](std::uint8_t* dst, std::size_t n,
                                const char* what) {
    in.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in.gcount()) != n) {
      throw CheckpointError(CheckpointError::Kind::kTruncated,
                            std::string("checkpoint: truncated ") + what);
    }
  };

  std::uint8_t head[6];
  read_bytes(head, sizeof head, "header");
  const std::uint32_t magic = static_cast<std::uint32_t>(head[0]) |
                              (static_cast<std::uint32_t>(head[1]) << 8) |
                              (static_cast<std::uint32_t>(head[2]) << 16) |
                              (static_cast<std::uint32_t>(head[3]) << 24);
  if (magic != kCheckpointMagic) {
    throw CheckpointError(CheckpointError::Kind::kBadMagic,
                          "checkpoint: bad magic (not a DMCK checkpoint)");
  }
  const std::uint16_t version = static_cast<std::uint16_t>(
      head[4] | (static_cast<std::uint16_t>(head[5]) << 8));
  if (version != kCheckpointVersion) {
    throw CheckpointError(
        CheckpointError::Kind::kBadVersion,
        "checkpoint: unsupported version " + std::to_string(version));
  }

  std::uint64_t payload_size = 0;
  int shift = 0;
  for (;;) {
    std::uint8_t b;
    read_bytes(&b, 1, "payload size");
    if (shift > 63) {
      throw CheckpointError(CheckpointError::Kind::kOversized,
                            "checkpoint: oversized payload varint");
    }
    payload_size |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  // A corrupt size varint must fail the size check, not become a huge
  // allocation: the cap rejects it before the vector is ever sized.
  if (payload_size > kMaxCheckpointPayload) {
    throw CheckpointError(
        CheckpointError::Kind::kOversized,
        "checkpoint: implausible payload size " + std::to_string(payload_size));
  }

  std::vector<std::uint8_t> payload(payload_size);
  if (payload_size > 0) read_bytes(payload.data(), payload.size(), "payload");
  std::uint8_t crc_bytes[4];
  read_bytes(crc_bytes, sizeof crc_bytes, "CRC");
  const std::uint32_t expected = static_cast<std::uint32_t>(crc_bytes[0]) |
                                 (static_cast<std::uint32_t>(crc_bytes[1]) << 8) |
                                 (static_cast<std::uint32_t>(crc_bytes[2]) << 16) |
                                 (static_cast<std::uint32_t>(crc_bytes[3]) << 24);
  const std::uint32_t actual = netflow::crc32(payload);
  if (expected != actual) {
    throw CheckpointError(CheckpointError::Kind::kCrcMismatch,
                          "checkpoint: CRC mismatch");
  }

  netflow::CheckedCursor cur(payload, "checkpoint");
  const auto get_u64 = [&cur] { return cur.varint(); };
  const auto get_i64 = [&cur] { return netflow::unzigzag64(cur.varint()); };
  const auto get_f64 = [&cur] { return std::bit_cast<double>(cur.varint()); };

  // Decode into fresh state so a failure mid-payload leaves the monitor
  // untouched.
  decltype(open_minutes_) open_minutes;
  decltype(detectors_) detectors;
  decltype(open_incidents_) open_incidents;
  decltype(outages_) outages;
  decltype(seen_) seen;

  util::Minute watermark = 0;
  util::Minute max_seen = 0;
  std::uint64_t ingested = 0;
  std::uint64_t late = 0;
  std::uint64_t unclassifiable = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t closed = 0;
  std::uint64_t alerts = 0;
  std::uint64_t incidents = 0;

  // A CRC-valid payload that still fails to decode (an encoder bug, a
  // 2^-32 CRC collision over damaged bytes, or a checkpoint taken under a
  // different cloud space) surfaces as a structured kMalformedPayload, and
  // the monitor stays untouched.
  try {
  watermark = get_i64();
  max_seen = get_i64();
  ingested = get_u64();
  late = get_u64();
  unclassifiable = get_u64();
  duplicate = get_u64();
  quarantined = get_u64();
  closed = get_u64();
  alerts = get_u64();
  incidents = get_u64();

  const std::uint64_t outage_count = get_u64();
  outages.reserve(outage_count);
  for (std::uint64_t i = 0; i < outage_count; ++i) {
    const util::Minute from = get_i64();
    const util::Minute to = get_i64();
    outages.emplace_back(from, to);
  }

  const std::uint64_t buffered = get_u64();
  // dmlint: covers(r, FlowRecord)
  for (std::uint64_t i = 0; i < buffered; ++i) {
    FlowRecord r;
    r.minute = get_i64();
    r.src_ip = netflow::IPv4(static_cast<std::uint32_t>(get_u64()));
    r.dst_ip = netflow::IPv4(static_cast<std::uint32_t>(get_u64()));
    r.src_port = static_cast<std::uint16_t>(get_u64());
    r.dst_port = static_cast<std::uint16_t>(get_u64());
    r.protocol = static_cast<Protocol>(get_u64());
    r.tcp_flags = static_cast<TcpFlags>(get_u64());
    r.packets = static_cast<std::uint32_t>(get_u64());
    r.bytes = get_u64();
    // Only records ingest() would have accepted can be buffered.
    if (r.minute <= watermark || !netflow::classify(r, cloud_space_)) {
      throw FormatError("checkpoint: buffered record outside the open horizon");
    }
    open_minutes[r.minute].push_back(r);
  }
  // dmlint: covers-end(r)

  const std::uint64_t detector_count = get_u64();
  for (std::uint64_t i = 0; i < detector_count; ++i) {
    SeriesKey key;
    key.vip = static_cast<std::uint32_t>(get_u64());
    key.direction = static_cast<Direction>(get_u64());
    auto [it, inserted] = detectors.try_emplace(key, config_);
    // dmlint: covers(series, SeriesState)
    SeriesState& series = it->second;
    series.last_minute = get_i64();
    SeriesDetector::StateArray states;
    // dmlint: covers(s, State)
    for (ChangePointDetector::State& s : states) {
      s.ewma_value = get_f64();
      s.observations = get_u64();
      s.last_minute = get_i64();
    }
    // dmlint: covers-end(s)
    series.detector.restore(states);
    // dmlint: covers-end(series)
  }

  const std::uint64_t member_count = get_u64();
  // dmlint: covers(d, MinuteDetection)
  for (std::uint64_t i = 0; i < member_count; ++i) {
    MinuteDetection d;
    d.vip = netflow::IPv4(static_cast<std::uint32_t>(get_u64()));
    d.direction = static_cast<Direction>(get_u64());
    const std::uint64_t type = get_u64();
    if (type >= sim::kAttackTypeCount) {
      throw FormatError("checkpoint: unknown attack type");
    }
    d.type = static_cast<sim::AttackType>(type);
    d.minute = get_i64();
    d.sampled_packets = get_u64();
    d.unique_remotes = static_cast<std::uint32_t>(get_u64());
    open_incidents[incident_key(d)].push_back(d);
  }
  // dmlint: covers-end(d)

  const std::uint64_t seen_count = get_u64();
  for (std::uint64_t i = 0; i < seen_count; ++i) {
    const util::Minute minute = get_i64();
    auto& hashes = seen[minute];
    const std::uint64_t hash_count = get_u64();
    hashes.reserve(hash_count);
    for (std::uint64_t h = 0; h < hash_count; ++h) hashes.insert(get_u64());
  }

  } catch (const CheckpointError&) {
    throw;
  } catch (const FormatError& e) {
    throw CheckpointError(CheckpointError::Kind::kMalformedPayload, e.what());
  }

  if (!cur.exhausted()) {
    throw CheckpointError(CheckpointError::Kind::kTrailingBytes,
                          "checkpoint: trailing bytes after payload");
  }

  open_minutes_ = std::move(open_minutes);
  detectors_ = std::move(detectors);
  open_incidents_ = std::move(open_incidents);
  outages_ = std::move(outages);
  seen_ = std::move(seen);
  watermark_ = watermark;
  max_seen_ = max_seen;
  expired_at_ = kNeverExpired;
  records_ingested_ = ingested;
  records_late_ = late;
  records_unclassifiable_ = unclassifiable;
  records_duplicate_ = duplicate;
  records_quarantined_ = quarantined;
  windows_closed_ = closed;
  alerts_ = alerts;
  incidents_ = incidents;
}

}  // namespace dm::detect
