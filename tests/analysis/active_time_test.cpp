#include "analysis/active_time.h"

#include <gtest/gtest.h>

namespace dm::analysis {
namespace {

using detect::MinuteDetection;
using netflow::Direction;
using netflow::FlowRecord;
using netflow::IPv4;

const IPv4 kVip = IPv4::from_octets(100, 64, 0, 2);

netflow::PrefixSet cloud_space() {
  netflow::PrefixSet set;
  set.add(netflow::Prefix(IPv4::from_octets(100, 64, 0, 0), 12));
  return set;
}

netflow::WindowedTrace trace_with_active_minutes(int minutes) {
  std::vector<FlowRecord> records;
  for (int m = 0; m < minutes; ++m) {
    FlowRecord r;
    r.minute = m;
    r.src_ip = IPv4::from_octets(4, 0, 0, 1);
    r.dst_ip = kVip;
    r.src_port = 1000;
    r.dst_port = 80;
    r.protocol = netflow::Protocol::kTcp;
    r.tcp_flags = netflow::TcpFlags::kAck;
    r.packets = 1;
    r.bytes = 100;
    records.push_back(r);
  }
  return netflow::aggregate_windows(std::move(records), cloud_space());
}

MinuteDetection det(util::Minute minute,
                    sim::AttackType type = sim::AttackType::kSynFlood) {
  return MinuteDetection{kVip, Direction::kInbound, type, minute, 100, 1};
}

TEST(ActiveTime, FractionComputedOverActiveMinutes) {
  const auto trace = trace_with_active_minutes(100);
  const std::vector<MinuteDetection> detections{det(5), det(6), det(7), det(8)};
  const auto result =
      compute_active_time(trace, detections, Direction::kInbound);
  ASSERT_EQ(result.vips.size(), 1u);
  EXPECT_EQ(result.vips[0].active_minutes, 100u);
  EXPECT_EQ(result.vips[0].attack_minutes, 4u);
  EXPECT_DOUBLE_EQ(result.vips[0].attack_fraction(), 0.04);
  EXPECT_DOUBLE_EQ(result.majority_attacked_fraction, 0.0);
}

TEST(ActiveTime, MultiVectorMinutesCountOnce) {
  const auto trace = trace_with_active_minutes(10);
  const std::vector<MinuteDetection> detections{
      det(3, sim::AttackType::kSynFlood),
      det(3, sim::AttackType::kUdpFlood),  // same minute, second vector
  };
  const auto result =
      compute_active_time(trace, detections, Direction::kInbound);
  ASSERT_EQ(result.vips.size(), 1u);
  EXPECT_EQ(result.vips[0].attack_minutes, 1u);
}

TEST(ActiveTime, MajorityAttackedVipDetected) {
  const auto trace = trace_with_active_minutes(10);
  std::vector<MinuteDetection> detections;
  for (int m = 0; m < 6; ++m) detections.push_back(det(m));
  const auto result =
      compute_active_time(trace, detections, Direction::kInbound);
  EXPECT_DOUBLE_EQ(result.majority_attacked_fraction, 1.0);
}

TEST(ActiveTime, UnattackedVipsExcluded) {
  const auto trace = trace_with_active_minutes(10);
  const auto result = compute_active_time(trace, {}, Direction::kInbound);
  EXPECT_TRUE(result.vips.empty());
  EXPECT_DOUBLE_EQ(result.majority_attacked_fraction, 0.0);
}

TEST(ActiveTime, DirectionScoped) {
  const auto trace = trace_with_active_minutes(10);
  const std::vector<MinuteDetection> detections{det(1)};
  const auto outbound =
      compute_active_time(trace, detections, Direction::kOutbound);
  EXPECT_TRUE(outbound.vips.empty());
}

TEST(ActiveTime, MergesBothDirectionsAndKeepsVipOrder) {
  // kVip is active inbound at minutes 0-9 and outbound at 5-14 (15 distinct
  // minutes); a lower VIP is active but never attacked; a higher VIP is
  // attacked with no window at all.
  const IPv4 low = IPv4::from_octets(100, 64, 0, 1);
  const IPv4 high = IPv4::from_octets(100, 64, 0, 9);
  std::vector<FlowRecord> records;
  const auto add = [&records](int minute, IPv4 src, IPv4 dst) {
    FlowRecord r;
    r.minute = minute;
    r.src_ip = src;
    r.dst_ip = dst;
    r.src_port = 1000;
    r.dst_port = 80;
    r.protocol = netflow::Protocol::kTcp;
    r.tcp_flags = netflow::TcpFlags::kAck;
    r.packets = 1;
    r.bytes = 100;
    records.push_back(r);
  };
  const IPv4 remote = IPv4::from_octets(4, 0, 0, 1);
  for (int m = 0; m < 10; ++m) add(m, remote, kVip);
  for (int m = 5; m < 15; ++m) add(m, kVip, remote);
  for (int m = 0; m < 30; ++m) add(m, remote, low);
  const auto trace = netflow::aggregate_windows(std::move(records), cloud_space());

  // Detections out of (vip, minute) order, with a repeated minute.
  const std::vector<MinuteDetection> detections{
      MinuteDetection{high, Direction::kInbound, sim::AttackType::kSynFlood, 7,
                      100, 1},
      det(12), det(3), det(12, sim::AttackType::kUdpFlood)};
  const auto result = compute_active_time(trace, detections, Direction::kInbound);
  ASSERT_EQ(result.vips.size(), 2u);
  EXPECT_EQ(result.vips[0].vip, kVip);
  EXPECT_EQ(result.vips[0].active_minutes, 15u);
  EXPECT_EQ(result.vips[0].attack_minutes, 2u);
  EXPECT_EQ(result.vips[1].vip, high);
  EXPECT_EQ(result.vips[1].active_minutes, 1u);  // no window: attacked = active
  EXPECT_EQ(result.vips[1].attack_minutes, 1u);
  EXPECT_DOUBLE_EQ(result.majority_attacked_fraction, 0.5);
}

}  // namespace
}  // namespace dm::analysis
