#include "analysis/signature.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/table.h"

namespace dm::analysis {

using detect::AttackIncident;
using netflow::Direction;
using netflow::FlowRecord;
using netflow::IPv4;

std::vector<SignatureRule> extract_signatures(
    const netflow::WindowedTrace& trace,
    std::span<const AttackIncident> incidents, IPv4 vip,
    const SignatureConfig& config, const netflow::PrefixSet* blacklist) {
  // Per-source accumulation across the VIP's inbound incidents.
  struct SourceStats {
    std::uint64_t packets = 0;
    std::uint32_t incidents = 0;
  };
  std::map<std::uint32_t, SourceStats> sources;
  std::map<std::uint16_t, SourceStats> source_ports;  // pure-SYN packets only
  std::map<std::uint16_t, SourceStats> target_ports;  // flood destinations
  std::uint64_t total_packets = 0;
  std::uint64_t flood_packets = 0;
  std::uint32_t vip_incidents = 0;

  for (const AttackIncident& inc : incidents) {
    if (inc.vip != vip || inc.direction != Direction::kInbound) continue;
    ++vip_incidents;
    std::map<std::uint32_t, std::uint64_t> incident_sources;
    std::map<std::uint16_t, std::uint64_t> incident_src_ports;
    std::map<std::uint16_t, std::uint64_t> incident_dst_ports;

    trace.for_each_record(
        incident_windows(trace, inc),
        [&](const netflow::VipMinuteStats&, const FlowRecord& r) {
          if (!record_matches(inc.type, r, inc.direction, blacklist)) return;
          incident_sources[r.src_ip.value()] += r.packets;
          total_packets += r.packets;
          if (sim::is_flood(inc.type)) {
            incident_src_ports[r.src_port] += r.packets;
            incident_dst_ports[r.dst_port] += r.packets;
            flood_packets += r.packets;
          }
        });
    for (const auto& [src, pkts] : incident_sources) {
      auto& stats = sources[src];
      stats.packets += pkts;
      stats.incidents += 1;
    }
    for (const auto& [port, pkts] : incident_src_ports) {
      auto& stats = source_ports[port];
      stats.packets += pkts;
      stats.incidents += 1;
    }
    for (const auto& [port, pkts] : incident_dst_ports) {
      auto& stats = target_ports[port];
      stats.packets += pkts;
      stats.incidents += 1;
    }
  }

  std::vector<SignatureRule> rules;
  if (vip_incidents == 0 || total_packets == 0) return rules;

  // Block-source rules: repeat offenders or heavy hitters.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ranked;
  for (const auto& [src, stats] : sources) {
    const double share = static_cast<double>(stats.packets) /
                         static_cast<double>(total_packets);
    if (stats.incidents >= config.min_incidents ||
        share >= config.min_packet_share) {
      ranked.push_back({stats.packets, src});
    }
  }
  std::sort(ranked.begin(), ranked.end(), std::greater<>());
  for (std::size_t i = 0; i < ranked.size() && i < config.max_source_rules;
       ++i) {
    const auto& stats = sources[ranked[i].second];
    SignatureRule rule;
    rule.kind = SignatureRule::Kind::kBlockSource;
    rule.source = IPv4(ranked[i].second);
    rule.incidents = stats.incidents;
    rule.packet_share = static_cast<double>(stats.packets) /
                        static_cast<double>(total_packets);
    rules.push_back(rule);
  }

  // Fixed-source-port rules (the §4.4 juno fingerprint): only meaningful
  // for flood traffic, where source ports are normally ephemeral-random.
  if (flood_packets > 0) {
    for (const auto& [port, stats] : source_ports) {
      const double share = static_cast<double>(stats.packets) /
                           static_cast<double>(flood_packets);
      if (share >= config.fixed_port_share) {
        SignatureRule rule;
        rule.kind = SignatureRule::Kind::kBlockSourcePort;
        rule.port = port;
        rule.incidents = stats.incidents;
        rule.packet_share = share;
        rules.push_back(rule);
      }
    }
    // Rate-limit rules on the dominant flood target port.
    for (const auto& [port, stats] : target_ports) {
      if (stats.incidents < config.min_incidents) continue;
      const double share = static_cast<double>(stats.packets) /
                           static_cast<double>(flood_packets);
      if (share >= config.fixed_port_share) {
        SignatureRule rule;
        rule.kind = SignatureRule::Kind::kRateLimitPort;
        rule.port = port;
        rule.incidents = stats.incidents;
        rule.packet_share = share;
        rules.push_back(rule);
      }
    }
  }
  return rules;
}

std::string to_string(const SignatureRule& rule) {
  std::ostringstream os;
  switch (rule.kind) {
    case SignatureRule::Kind::kBlockSource:
      os << "block src " << rule.source.to_string();
      break;
    case SignatureRule::Kind::kBlockSourcePort:
      os << "block src-port " << rule.port;
      break;
    case SignatureRule::Kind::kRateLimitPort:
      os << "rate-limit dst-port " << rule.port;
      break;
  }
  os << " (" << rule.incidents << " incidents, "
     << util::format_percent(rule.packet_share) << " of attack packets)";
  return os.str();
}

}  // namespace dm::analysis
