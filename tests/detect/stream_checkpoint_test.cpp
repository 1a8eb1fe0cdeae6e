// Checkpoint/restore acceptance: a monitor that ingests half a feed,
// checkpoints, restores into a fresh monitor, and ingests the rest must be
// byte-identical (checkpoint bytes and emitted incidents) to one that ran
// uninterrupted.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <tuple>
#include <vector>

#include "detect/stream.h"
#include "fault/fault.h"
#include "sim/trace_generator.h"
#include "util/error.h"

namespace dm::detect {
namespace {

using netflow::FlowRecord;

netflow::PrefixSet sim_cloud_space() {
  netflow::PrefixSet set;
  set.add(netflow::Prefix(netflow::IPv4::from_octets(100, 64, 0, 0), 12));
  return set;
}

std::vector<FlowRecord> scenario_feed(unsigned thread_count) {
  sim::ScenarioConfig config = sim::ScenarioConfig::smoke();
  config.thread_count = thread_count;
  auto records = sim::generate_trace(sim::Scenario(config)).records;
  std::stable_sort(records.begin(), records.end(),
                   [](const FlowRecord& a, const FlowRecord& b) {
                     return a.minute < b.minute;
                   });
  return records;
}

using IncidentKey = std::tuple<std::uint32_t, int, int, util::Minute,
                               util::Minute, std::uint32_t, std::uint64_t,
                               std::uint64_t, std::uint32_t, util::Minute>;

IncidentKey key_of(const AttackIncident& inc) {
  return {inc.vip.value(),
          static_cast<int>(inc.direction),
          static_cast<int>(inc.type),
          inc.start,
          inc.end,
          inc.active_minutes,
          inc.total_sampled_packets,
          inc.peak_sampled_ppm,
          inc.peak_unique_remotes,
          inc.ramp_up_minutes};
}

StreamMonitor make_monitor(std::vector<AttackIncident>* incidents,
                           StreamConfig stream = {}) {
  return StreamMonitor(
      sim_cloud_space(), nullptr, DetectionConfig{}, TimeoutTable::paper(),
      nullptr,
      [incidents](const AttackIncident& inc) { incidents->push_back(inc); },
      stream);
}

std::string checkpoint_bytes(const StreamMonitor& monitor) {
  std::ostringstream out;
  monitor.checkpoint(out);
  return out.str();
}

class StreamCheckpointThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(StreamCheckpointThreads, ResumedRunMatchesUninterrupted) {
  const auto feed = scenario_feed(GetParam());
  ASSERT_GT(feed.size(), 1000u);
  const std::size_t half = feed.size() / 2;

  // Uninterrupted reference.
  std::vector<AttackIncident> ref_incidents;
  StreamMonitor reference = make_monitor(&ref_incidents);
  for (const auto& r : feed) reference.ingest(r);
  const std::string ref_state = checkpoint_bytes(reference);

  // Interrupted: ingest half, checkpoint, restore into a fresh monitor
  // (incidents already emitted before the checkpoint belong to the first
  // process), ingest the rest.
  std::vector<AttackIncident> first_half_incidents;
  StreamMonitor before = make_monitor(&first_half_incidents);
  for (std::size_t i = 0; i < half; ++i) before.ingest(feed[i]);
  std::istringstream saved(checkpoint_bytes(before));

  std::vector<AttackIncident> resumed_incidents;
  StreamMonitor resumed = make_monitor(&resumed_incidents);
  resumed.restore(saved);
  for (std::size_t i = half; i < feed.size(); ++i) resumed.ingest(feed[i]);

  // Byte-identical monitor state...
  EXPECT_EQ(checkpoint_bytes(resumed), ref_state);
  EXPECT_EQ(resumed.records_ingested(), reference.records_ingested());
  EXPECT_EQ(resumed.records_late(), reference.records_late());
  EXPECT_EQ(resumed.records_unclassifiable(),
            reference.records_unclassifiable());
  EXPECT_EQ(resumed.windows_closed(), reference.windows_closed());
  EXPECT_EQ(resumed.alerts(), reference.alerts());

  // ...and identical incident output (first process + resumed == reference).
  reference.finish();
  resumed.finish();
  std::vector<IncidentKey> ref_keys;
  for (const auto& inc : ref_incidents) ref_keys.push_back(key_of(inc));
  std::vector<IncidentKey> split_keys;
  for (const auto& inc : first_half_incidents) split_keys.push_back(key_of(inc));
  for (const auto& inc : resumed_incidents) split_keys.push_back(key_of(inc));
  std::sort(ref_keys.begin(), ref_keys.end());
  std::sort(split_keys.begin(), split_keys.end());
  EXPECT_EQ(split_keys, ref_keys);
}

INSTANTIATE_TEST_SUITE_P(Threads, StreamCheckpointThreads,
                         ::testing::Values(1u, 2u, 8u));

TEST(StreamCheckpoint, ResumedRunMatchesUninterruptedOnDegradedFeed) {
  auto feed = scenario_feed(1);
  fault::RecordPlan plan;
  plan.reorder_window = 64;
  plan.duplicate_prob = 0.01;
  const auto degraded = fault::FaultInjector(5).degrade(feed, plan);

  // Reorder tolerance: the per-record displacement bound translates to a
  // minute lag of at most the largest backward minute step in the feed.
  util::Minute max_lag = 0;
  util::Minute max_seen = degraded.empty() ? 0 : degraded.front().minute;
  for (const auto& r : degraded) {
    max_seen = std::max(max_seen, r.minute);
    max_lag = std::max(max_lag, max_seen - r.minute);
  }
  StreamConfig stream;
  stream.reorder_lag = max_lag;
  stream.suppress_duplicates = true;

  std::vector<AttackIncident> ref_incidents;
  StreamMonitor reference = make_monitor(&ref_incidents, stream);
  for (const auto& r : degraded) reference.ingest(r);

  const std::size_t half = degraded.size() / 2;
  std::vector<AttackIncident> split_incidents;
  StreamMonitor before = make_monitor(&split_incidents, stream);
  for (std::size_t i = 0; i < half; ++i) before.ingest(degraded[i]);
  std::istringstream saved(checkpoint_bytes(before));
  StreamMonitor resumed = make_monitor(&split_incidents, stream);
  resumed.restore(saved);
  for (std::size_t i = half; i < degraded.size(); ++i) resumed.ingest(degraded[i]);

  EXPECT_EQ(checkpoint_bytes(resumed), checkpoint_bytes(reference));
  EXPECT_EQ(resumed.records_duplicate(), reference.records_duplicate());
  EXPECT_GT(resumed.records_duplicate(), 0u);
}

TEST(StreamCheckpoint, ResumesFromBufferedMinuteInsideOpenIncident) {
  // A SYN flood on one VIP over minutes 100..104 whose rate ramps
  // 200 -> 950 -> 1000 sampled packets/min. The checkpoint lands halfway
  // through minute 103: minutes 100..102 are closed into one open
  // incident's member detections and minute 103's records sit in the
  // minute buffer. The resumed monitor must finish that incident exactly as
  // an uninterrupted one does — including the 90%-of-peak ramp-up, which
  // needs the pre-checkpoint members.
  const netflow::IPv4 vip = netflow::IPv4::from_octets(100, 64, 0, 7);
  std::vector<FlowRecord> feed;
  for (util::Minute m = 100; m < 105; ++m) {
    const std::uint32_t packets = m == 100 ? 4 : m == 101 ? 19 : 20;
    for (std::uint32_t s = 0; s < 50; ++s) {
      FlowRecord r;
      r.minute = m;
      r.src_ip = netflow::IPv4(0x04000000u + s);
      r.dst_ip = vip;
      r.src_port = static_cast<std::uint16_t>(20'000 + s);
      r.dst_port = 80;
      r.protocol = netflow::Protocol::kTcp;
      r.tcp_flags = netflow::TcpFlags::kSyn;
      r.packets = packets;
      r.bytes = 40ull * packets;
      feed.push_back(r);
    }
  }
  const std::size_t cut = 3 * 50 + 25;

  std::vector<MinuteDetection> ref_alerts;
  std::vector<AttackIncident> ref_incidents;
  StreamMonitor reference(
      sim_cloud_space(), nullptr, DetectionConfig{}, TimeoutTable::paper(),
      [&](const MinuteDetection& d) { ref_alerts.push_back(d); },
      [&](const AttackIncident& inc) { ref_incidents.push_back(inc); });
  for (const auto& r : feed) reference.ingest(r);

  std::vector<AttackIncident> split_incidents;
  StreamMonitor before = make_monitor(&split_incidents);
  for (std::size_t i = 0; i < cut; ++i) before.ingest(feed[i]);
  ASSERT_EQ(before.alerts(), 3u) << "minutes 100..102 must be flagged";
  ASSERT_EQ(before.incidents(), 0u) << "the incident must still be open";
  ASSERT_EQ(before.open_window_count(), 1u) << "minute 103 must be buffered";
  std::istringstream saved(checkpoint_bytes(before));

  StreamMonitor resumed = make_monitor(&split_incidents);
  resumed.restore(saved);
  EXPECT_EQ(resumed.open_window_count(), 1u);
  EXPECT_EQ(resumed.approx_state_bytes(), before.approx_state_bytes());
  for (std::size_t i = cut; i < feed.size(); ++i) resumed.ingest(feed[i]);
  EXPECT_EQ(checkpoint_bytes(resumed), checkpoint_bytes(reference));
  EXPECT_EQ(resumed.windows_closed(), reference.windows_closed());
  EXPECT_EQ(resumed.alerts(), reference.alerts());

  reference.finish();
  resumed.finish();
  ASSERT_EQ(ref_alerts.size(), 5u);
  ASSERT_EQ(ref_incidents.size(), 1u);
  ASSERT_EQ(split_incidents.size(), 1u);
  EXPECT_EQ(key_of(split_incidents[0]), key_of(ref_incidents[0]));
  EXPECT_EQ(split_incidents[0].start, 100);
  EXPECT_EQ(split_incidents[0].end, 105);
  EXPECT_EQ(split_incidents[0].active_minutes, 5u);
  EXPECT_EQ(split_incidents[0].peak_sampled_ppm, 1000u);
  // 950 >= 90% of the 1000 peak: ramp-up ends at minute 101.
  EXPECT_EQ(split_incidents[0].ramp_up_minutes, 1);
}

TEST(StreamCheckpoint, RestoredMonitorSweepsExpiredIncidentAtTheSameRecord) {
  // A SYN flood on one VIP over minutes 100..104, then quiet records on
  // another VIP at minutes 105 and 106: the flood's last detection (minute
  // 104) is in, and its 1-minute inactive timeout has not passed. The
  // checkpoint lands there. One record at minute 107 then times the
  // incident out — the monitor sweeps open incidents only when the commit
  // point passes its last sweep, and that cached sweep minute is not
  // checkpointed, so restore() must reset it: a resumed monitor, fresh or
  // one that had already swept far ahead, must emit the incident at that
  // same record, with the same bytes, as the uninterrupted one.
  const netflow::IPv4 vip = netflow::IPv4::from_octets(100, 64, 0, 7);
  const auto record_at = [](util::Minute m, netflow::IPv4 dst,
                            std::uint32_t s, std::uint32_t packets) {
    FlowRecord r;
    r.minute = m;
    r.src_ip = netflow::IPv4(0x04000000u + s);
    r.dst_ip = dst;
    r.src_port = static_cast<std::uint16_t>(20'000 + s);
    r.dst_port = 80;
    r.protocol = netflow::Protocol::kTcp;
    r.tcp_flags = netflow::TcpFlags::kSyn;
    r.packets = packets;
    r.bytes = 40ull * packets;
    return r;
  };
  std::vector<FlowRecord> feed;
  for (util::Minute m = 100; m < 105; ++m) {
    for (std::uint32_t s = 0; s < 50; ++s) feed.push_back(record_at(m, vip, s, 20));
  }
  const netflow::IPv4 quiet = netflow::IPv4::from_octets(100, 64, 0, 9);
  feed.push_back(record_at(105, quiet, 0, 1));
  feed.push_back(record_at(106, quiet, 0, 1));
  const std::size_t cut = feed.size();
  ASSERT_EQ(TimeoutTable::paper().of(sim::AttackType::kSynFlood), 1);
  feed.push_back(record_at(107, quiet, 0, 1));  // 104 + timeout + 2

  // Each monitor logs the index of the record whose ingest emitted each
  // incident; `at` is the record being ingested.
  std::size_t at = 0;
  using Emitted = std::pair<std::size_t, IncidentKey>;
  const auto logging = [&at](std::vector<Emitted>* log) {
    return StreamMonitor(
        sim_cloud_space(), nullptr, DetectionConfig{}, TimeoutTable::paper(),
        nullptr, [log, &at](const AttackIncident& inc) {
          log->emplace_back(at, key_of(inc));
        });
  };

  std::vector<Emitted> ref_log;
  StreamMonitor reference = logging(&ref_log);
  for (at = 0; at < cut; ++at) reference.ingest(feed[at]);
  ASSERT_EQ(reference.alerts(), 5u) << "minutes 100..104 must be flagged";
  ASSERT_TRUE(ref_log.empty()) << "the incident must still be open";
  const std::string saved = checkpoint_bytes(reference);
  reference.ingest(feed[cut]);
  ASSERT_EQ(ref_log.size(), 1u) << "minute 107 must time the incident out";
  EXPECT_EQ(ref_log[0].first, cut);

  std::vector<Emitted> fresh_log;
  StreamMonitor fresh = logging(&fresh_log);
  // A monitor that already swept at minute 10'000 before the restore.
  std::vector<Emitted> ahead_log;
  StreamMonitor ahead = logging(&ahead_log);
  ahead.ingest(record_at(10'000, quiet, 0, 1));
  for (StreamMonitor* resumed : {&fresh, &ahead}) {
    std::istringstream in(saved);
    resumed->restore(in);
    EXPECT_EQ(checkpoint_bytes(*resumed), saved);
    at = cut;
    resumed->ingest(feed[cut]);
    EXPECT_EQ(checkpoint_bytes(*resumed), checkpoint_bytes(reference));
  }
  EXPECT_EQ(fresh_log, ref_log);
  EXPECT_EQ(ahead_log, ref_log);
}

TEST(StreamCheckpoint, RestoreRejectsDamagedCheckpoints) {
  std::vector<AttackIncident> incidents;
  StreamMonitor monitor = make_monitor(&incidents);
  FlowRecord r;
  r.minute = 10;
  r.src_ip = netflow::IPv4::from_octets(9, 9, 9, 9);
  r.dst_ip = netflow::IPv4::from_octets(100, 64, 0, 1);
  r.packets = 5;
  r.bytes = 200;
  monitor.ingest(r);
  std::string bytes = checkpoint_bytes(monitor);

  {  // bad magic
    std::string mangled = bytes;
    mangled[0] = 'X';
    std::istringstream in(mangled);
    StreamMonitor target = make_monitor(&incidents);
    EXPECT_THROW(target.restore(in), dm::FormatError);
  }
  {  // flipped payload bit -> CRC mismatch
    std::string mangled = bytes;
    mangled[mangled.size() / 2] ^= 0x10;
    std::istringstream in(mangled);
    StreamMonitor target = make_monitor(&incidents);
    EXPECT_THROW(target.restore(in), dm::FormatError);
  }
  {  // truncation
    std::istringstream in(bytes.substr(0, bytes.size() - 3));
    StreamMonitor target = make_monitor(&incidents);
    EXPECT_THROW(target.restore(in), dm::FormatError);
  }
  // The pristine bytes still restore after all the failed attempts.
  std::istringstream in(bytes);
  StreamMonitor target = make_monitor(&incidents);
  target.restore(in);
  EXPECT_EQ(checkpoint_bytes(target), bytes);
  EXPECT_EQ(target.records_ingested(), 1u);
}

TEST(StreamCheckpoint, CheckpointBytesAreDeterministic) {
  const auto feed = scenario_feed(1);
  std::vector<AttackIncident> a_inc;
  std::vector<AttackIncident> b_inc;
  StreamMonitor a = make_monitor(&a_inc);
  StreamMonitor b = make_monitor(&b_inc);
  for (const auto& r : feed) {
    a.ingest(r);
    b.ingest(r);
  }
  EXPECT_EQ(checkpoint_bytes(a), checkpoint_bytes(b));
}

}  // namespace
}  // namespace dm::detect
