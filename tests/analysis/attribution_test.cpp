#include "analysis/attribution.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace dm::analysis {
namespace {

using netflow::Direction;
using netflow::FlowRecord;
using netflow::IPv4;
using netflow::Protocol;
using netflow::TcpFlags;
using sim::AttackType;

const IPv4 kVip = IPv4::from_octets(100, 64, 0, 4);
const IPv4 kRemoteA = IPv4::from_octets(4, 0, 0, 1);
const IPv4 kRemoteB = IPv4::from_octets(4, 0, 0, 2);

netflow::PrefixSet cloud_space() {
  netflow::PrefixSet set;
  set.add(netflow::Prefix(IPv4::from_octets(100, 64, 0, 0), 12));
  return set;
}

FlowRecord flow(util::Minute m, IPv4 remote, Protocol proto, TcpFlags flags,
                std::uint16_t dst_port, std::uint32_t pkts,
                std::uint16_t src_port = 50'000) {
  FlowRecord r;
  r.minute = m;
  r.src_ip = remote;
  r.dst_ip = kVip;
  r.src_port = src_port;
  r.dst_port = dst_port;
  r.protocol = proto;
  r.tcp_flags = flags;
  r.packets = pkts;
  r.bytes = pkts * 100;
  return r;
}

TEST(RecordMatches, PerTypeFilters) {
  const auto syn = flow(0, kRemoteA, Protocol::kTcp, TcpFlags::kSyn, 80, 1);
  EXPECT_TRUE(record_matches(AttackType::kSynFlood, syn, Direction::kInbound,
                             nullptr));
  EXPECT_FALSE(record_matches(AttackType::kUdpFlood, syn, Direction::kInbound,
                              nullptr));

  const auto udp = flow(0, kRemoteA, Protocol::kUdp, TcpFlags::kNone, 80, 1);
  EXPECT_TRUE(record_matches(AttackType::kUdpFlood, udp, Direction::kInbound,
                             nullptr));

  // DNS responses (src port 53) belong to reflection, not the UDP class.
  const auto dns =
      flow(0, kRemoteA, Protocol::kUdp, TcpFlags::kNone, 9999, 1, 53);
  EXPECT_TRUE(record_matches(AttackType::kDnsReflection, dns,
                             Direction::kInbound, nullptr));
  EXPECT_FALSE(record_matches(AttackType::kUdpFlood, dns, Direction::kInbound,
                              nullptr));

  const auto ssh = flow(0, kRemoteA, Protocol::kTcp,
                        TcpFlags::kSyn | TcpFlags::kAck, 22, 3);
  EXPECT_TRUE(record_matches(AttackType::kBruteForce, ssh, Direction::kInbound,
                             nullptr));

  const auto sql = flow(0, kRemoteA, Protocol::kTcp,
                        TcpFlags::kAck | TcpFlags::kPsh, 3306, 2);
  EXPECT_TRUE(record_matches(AttackType::kSqlInjection, sql,
                             Direction::kInbound, nullptr));

  const auto scan = flow(0, kRemoteA, Protocol::kTcp, TcpFlags::kNone, 137, 1);
  EXPECT_TRUE(record_matches(AttackType::kPortScan, scan, Direction::kInbound,
                             nullptr));
}

TEST(RecordMatches, TdsRequiresBlacklist) {
  netflow::PrefixSet blacklist;
  blacklist.add(netflow::Prefix(kRemoteB, 32));
  const auto to_tds =
      flow(0, kRemoteB, Protocol::kTcp, TcpFlags::kAck | TcpFlags::kPsh, 80, 1);
  EXPECT_TRUE(record_matches(AttackType::kTds, to_tds, Direction::kInbound,
                             &blacklist));
  const auto to_clean =
      flow(0, kRemoteA, Protocol::kTcp, TcpFlags::kAck | TcpFlags::kPsh, 80, 1);
  EXPECT_FALSE(record_matches(AttackType::kTds, to_clean, Direction::kInbound,
                              &blacklist));
  EXPECT_FALSE(record_matches(AttackType::kTds, to_tds, Direction::kInbound,
                              nullptr));
}

TEST(IncidentRemotes, AggregatesAndSorts) {
  std::vector<FlowRecord> records{
      flow(10, kRemoteA, Protocol::kTcp, TcpFlags::kSyn, 80, 3),
      flow(11, kRemoteA, Protocol::kTcp, TcpFlags::kSyn, 80, 5),
      flow(11, kRemoteB, Protocol::kTcp, TcpFlags::kSyn, 80, 20),
      // Outside the incident window: ignored.
      flow(50, kRemoteA, Protocol::kTcp, TcpFlags::kSyn, 80, 100),
      // Wrong traffic class (plain ACK): ignored.
      flow(11, kRemoteA, Protocol::kTcp, TcpFlags::kAck, 80, 100),
  };
  const auto trace = netflow::aggregate_windows(std::move(records), cloud_space());

  detect::AttackIncident inc;
  inc.vip = kVip;
  inc.direction = Direction::kInbound;
  inc.type = AttackType::kSynFlood;
  inc.start = 10;
  inc.end = 12;
  const auto remotes = incident_remotes(trace, inc);
  ASSERT_EQ(remotes.size(), 2u);
  EXPECT_EQ(remotes[0].remote, kRemoteB);  // sorted by packets desc
  EXPECT_EQ(remotes[0].packets, 20u);
  EXPECT_EQ(remotes[1].remote, kRemoteA);
  EXPECT_EQ(remotes[1].packets, 8u);
}

TEST(IncidentRemotes, EmptyWhenNoMatch) {
  std::vector<FlowRecord> records{
      flow(10, kRemoteA, Protocol::kTcp, TcpFlags::kAck, 80, 3),
  };
  const auto trace = netflow::aggregate_windows(std::move(records), cloud_space());
  detect::AttackIncident inc;
  inc.vip = kVip;
  inc.direction = Direction::kInbound;
  inc.type = AttackType::kSynFlood;
  inc.start = 10;
  inc.end = 11;
  EXPECT_TRUE(incident_remotes(trace, inc).empty());
}

detect::AttackIncident syn_incident(util::Minute start, util::Minute end) {
  detect::AttackIncident inc;
  inc.vip = kVip;
  inc.direction = Direction::kInbound;
  inc.type = AttackType::kSynFlood;
  inc.start = start;
  inc.end = end;
  return inc;
}

TEST(Attribution, TagsEachIncidentsRemotesWithTheirAs) {
  const cloud::AsRegistry ases(cloud::AsRegistryConfig{}, 11);
  util::Rng rng(12);
  const IPv4 mapped_a = ases.host_in(ases.all()[3], rng);
  const IPv4 mapped_b = ases.host_in(ases.all()[40], rng);
  // Above every AS block (the registry stays below 224.0.0.0).
  const IPv4 unmapped = IPv4::from_octets(240, 0, 0, 9);
  ASSERT_EQ(ases.lookup(unmapped), nullptr);
  std::vector<FlowRecord> records{
      flow(10, mapped_a, Protocol::kTcp, TcpFlags::kSyn, 80, 3),
      flow(11, unmapped, Protocol::kTcp, TcpFlags::kSyn, 80, 9),
      flow(11, mapped_a, Protocol::kTcp, TcpFlags::kSyn, 80, 4),
      flow(20, mapped_b, Protocol::kTcp, TcpFlags::kSyn, 80, 5),
  };
  const auto trace = netflow::aggregate_windows(std::move(records), cloud_space());
  const std::vector<detect::AttackIncident> incidents{
      syn_incident(10, 12), syn_incident(15, 16), syn_incident(20, 21)};

  const auto table = attribute_incidents(trace, incidents, &ases, nullptr);
  ASSERT_EQ(table.remotes.size(), incidents.size());
  ASSERT_EQ(table.as_index.size(), incidents.size());
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    const auto expected = incident_remotes(trace, incidents[i]);
    const auto& remotes = table.remotes[i];
    const auto& as_of = table.as_index[i];
    ASSERT_EQ(remotes.size(), expected.size()) << "incident " << i;
    ASSERT_EQ(as_of.size(), remotes.size()) << "incident " << i;
    for (std::size_t k = 0; k < remotes.size(); ++k) {
      EXPECT_EQ(remotes[k].remote, expected[k].remote);
      EXPECT_EQ(remotes[k].packets, expected[k].packets);
      const cloud::AsInfo* as = ases.lookup(remotes[k].remote);
      EXPECT_EQ(as_of[k], as == nullptr
                              ? IncidentAttribution::kUnmapped
                              : static_cast<std::uint32_t>(as - ases.all().data()));
    }
  }
  // Incident 0: the unmapped remote leads on packets, then mapped_a's 3 + 4.
  ASSERT_EQ(table.remotes[0].size(), 2u);
  EXPECT_EQ(table.as_index[0][0], IncidentAttribution::kUnmapped);
  EXPECT_EQ(table.as_index[0][1], 3u);
  EXPECT_TRUE(table.remotes[1].empty());
  ASSERT_EQ(table.as_index[2].size(), 1u);
  EXPECT_EQ(table.as_index[2][0], 40u);
}

TEST(Attribution, SkipsUnwantedIncidentsAndNullRegistryMapsNothing) {
  std::vector<FlowRecord> records{
      flow(10, kRemoteA, Protocol::kTcp, TcpFlags::kSyn, 80, 3),
      flow(20, kRemoteB, Protocol::kTcp, TcpFlags::kSyn, 80, 5),
  };
  const auto trace = netflow::aggregate_windows(std::move(records), cloud_space());
  const std::vector<detect::AttackIncident> incidents{syn_incident(10, 11),
                                                      syn_incident(20, 21)};
  const std::vector<bool> wanted{false, true};
  const auto table =
      attribute_incidents(trace, incidents, nullptr, nullptr, &wanted);
  EXPECT_TRUE(table.remotes[0].empty());
  ASSERT_EQ(table.remotes[1].size(), 1u);
  EXPECT_EQ(table.remotes[1][0].remote, kRemoteB);
  EXPECT_EQ(table.as_index[1][0], IncidentAttribution::kUnmapped);
}

}  // namespace
}  // namespace dm::analysis
