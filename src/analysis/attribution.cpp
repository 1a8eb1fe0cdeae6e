#include "analysis/attribution.h"

#include <algorithm>

#include "util/sum_table.h"

namespace dm::analysis {

using netflow::Direction;
using netflow::FlowRecord;
using netflow::OrientedFlow;
using netflow::Protocol;
using sim::AttackType;

bool record_matches(AttackType type, const FlowRecord& r, Direction direction,
                    const netflow::PrefixSet* blacklist) noexcept {
  const OrientedFlow flow{&r, direction};
  namespace ports = netflow::ports;
  switch (type) {
    case AttackType::kSynFlood:
      return r.protocol == Protocol::kTcp && netflow::is_pure_syn(r.tcp_flags);
    case AttackType::kUdpFlood:
      return r.protocol == Protocol::kUdp && r.src_port != ports::kDns;
    case AttackType::kIcmpFlood:
      return r.protocol == Protocol::kIcmp;
    case AttackType::kDnsReflection:
      return r.protocol == Protocol::kUdp && r.src_port == ports::kDns;
    case AttackType::kSpam:
      return r.protocol == Protocol::kTcp && flow.service_port() == ports::kSmtp;
    case AttackType::kBruteForce:
      return r.protocol == Protocol::kTcp &&
             ports::is_remote_admin(flow.service_port());
    case AttackType::kSqlInjection:
      return r.protocol == Protocol::kTcp && ports::is_sql(flow.service_port());
    case AttackType::kPortScan:
      return r.protocol == Protocol::kTcp &&
             (netflow::is_illegal(r.tcp_flags) ||
              netflow::is_bare_rst(r.tcp_flags));
    case AttackType::kTds:
      return blacklist != nullptr && blacklist->contains(flow.remote_ip());
  }
  return false;
}

std::span<const netflow::VipMinuteStats> incident_windows(
    const netflow::WindowedTrace& trace, const detect::AttackIncident& incident) {
  const auto series = trace.series(incident.vip, incident.direction);
  const auto first = std::partition_point(
      series.begin(), series.end(),
      [&incident](const auto& w) { return w.minute < incident.start; });
  const auto last = std::partition_point(
      first, series.end(),
      [&incident](const auto& w) { return w.minute < incident.end; });
  return {first, last};
}

namespace {

/// incident_remotes with a caller-owned table, reused across incidents.
std::vector<RemoteContribution> remotes_of(const netflow::WindowedTrace& trace,
                                           const detect::AttackIncident& incident,
                                           const netflow::PrefixSet* blacklist,
                                           util::SumTable& sums) {
  trace.for_each_record(
      incident_windows(trace, incident),
      [&](const netflow::VipMinuteStats&, const FlowRecord& r) {
        if (record_matches(incident.type, r, incident.direction, blacklist)) {
          const OrientedFlow flow{&r, incident.direction};
          sums.add(flow.remote_ip().value(), r.packets);
        }
      });
  std::vector<RemoteContribution> out;
  sums.drain([&out](std::uint32_t remote, std::uint64_t packets) {
    out.push_back({netflow::IPv4(remote), packets});
  });
  std::sort(out.begin(), out.end(),
            [](const RemoteContribution& a, const RemoteContribution& b) {
              if (a.packets != b.packets) return a.packets > b.packets;
              return a.remote < b.remote;
            });
  return out;
}

}  // namespace

std::vector<RemoteContribution> incident_remotes(
    const netflow::WindowedTrace& trace, const detect::AttackIncident& incident,
    const netflow::PrefixSet* blacklist) {
  util::SumTable sums;
  return remotes_of(trace, incident, blacklist, sums);
}

IncidentAttribution attribute_incidents(
    const netflow::WindowedTrace& trace,
    std::span<const detect::AttackIncident> incidents,
    const cloud::AsRegistry* ases, const netflow::PrefixSet* blacklist,
    const std::vector<bool>* wanted) {
  IncidentAttribution out;
  out.remotes.resize(incidents.size());
  out.as_index.resize(incidents.size());
  util::SumTable sums;
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    if (wanted != nullptr && !(*wanted)[i]) continue;
    out.remotes[i] = remotes_of(trace, incidents[i], blacklist, sums);
    for (const RemoteContribution& r : out.remotes[i]) {
      const cloud::AsInfo* as =
          ases == nullptr ? nullptr : ases->lookup(r.remote);
      out.as_index[i].push_back(
          as == nullptr ? IncidentAttribution::kUnmapped
                        : static_cast<std::uint32_t>(as - ases->all().data()));
    }
  }
  return out;
}

}  // namespace dm::analysis
