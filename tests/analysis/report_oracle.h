// Reference implementations of the report's record-consuming analyses,
// written the direct way: node containers keyed by VIP, minute and ASN, and
// a fresh decode of an incident's records for every analysis that reads
// them. The library computes the same exhibits in linear sweeps over a
// shared attribution; ReportOracle holds it to these field for field.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/active_time.h"
#include "analysis/as_analysis.h"
#include "analysis/attribution.h"
#include "analysis/service_mix.h"
#include "analysis/spoof_analysis.h"
#include "cloud/as_registry.h"
#include "detect/incident.h"
#include "netflow/window_aggregator.h"

namespace dm::analysis::oracle {

using netflow::Direction;

inline std::vector<RemoteContribution> incident_remotes(
    const netflow::WindowedTrace& trace, const detect::AttackIncident& incident,
    const netflow::PrefixSet* blacklist) {
  std::map<std::uint32_t, std::uint64_t> per_remote;
  for (const auto& window : trace.series(incident.vip, incident.direction)) {
    if (window.minute < incident.start || window.minute >= incident.end) {
      continue;
    }
    for (const netflow::FlowRecord& r : trace.records_of(window)) {
      if (!record_matches(incident.type, r, incident.direction, blacklist)) {
        continue;
      }
      const netflow::OrientedFlow flow{&r, incident.direction};
      per_remote[flow.remote_ip().value()] += r.packets;
    }
  }
  std::vector<RemoteContribution> out;
  for (const auto& [remote, packets] : per_remote) {
    out.push_back({netflow::IPv4(remote), packets});
  }
  std::sort(out.begin(), out.end(),
            [](const RemoteContribution& a, const RemoteContribution& b) {
              if (a.packets != b.packets) return a.packets > b.packets;
              return a.remote < b.remote;
            });
  return out;
}

inline ActiveTimeResult active_time(
    const netflow::WindowedTrace& trace,
    std::span<const detect::MinuteDetection> detections, Direction direction) {
  std::map<std::uint32_t, std::set<util::Minute>> active;
  for (const auto& w : trace.windows()) active[w.vip.value()].insert(w.minute);

  std::set<std::pair<std::uint32_t, util::Minute>> flagged;
  for (const detect::MinuteDetection& d : detections) {
    if (d.direction == direction) flagged.emplace(d.vip.value(), d.minute);
  }
  std::map<std::uint32_t, std::uint64_t> attack_minutes;
  for (const auto& [vip, minute] : flagged) attack_minutes[vip] += 1;

  ActiveTimeResult result;
  std::uint64_t majority = 0;
  for (const auto& [vip, attacked] : attack_minutes) {
    VipActiveTime v;
    v.vip = netflow::IPv4(vip);
    v.attack_minutes = attacked;
    const auto it = active.find(vip);
    v.active_minutes =
        it == active.end() ? attacked
                           : std::max<std::uint64_t>(it->second.size(), attacked);
    result.fraction_cdf.add(v.attack_fraction());
    if (v.attack_fraction() > 0.5) ++majority;
    result.vips.push_back(v);
  }
  if (!result.vips.empty()) {
    result.majority_attacked_fraction =
        static_cast<double>(majority) / static_cast<double>(result.vips.size());
  }
  return result;
}

inline SpoofResult spoofing(const netflow::WindowedTrace& trace,
                            std::span<const detect::AttackIncident> incidents,
                            const netflow::PrefixSet* blacklist) {
  constexpr std::size_t kMinSources = 8;
  SpoofResult result;
  std::array<std::uint64_t, sim::kAttackTypeCount> spoofed_count{};
  for (std::uint32_t i = 0; i < incidents.size(); ++i) {
    const detect::AttackIncident& inc = incidents[i];
    if (inc.direction != Direction::kInbound) continue;
    const auto remotes = incident_remotes(trace, inc, blacklist);
    if (remotes.size() < kMinSources) continue;
    SpoofVerdict v;
    v.incident_index = i;
    v.test = test_sources(remotes);
    v.spoofed = v.test.uniform_at(0.05);
    const std::size_t t = sim::index_of(inc.type);
    result.tested[t] += 1;
    if (v.spoofed) spoofed_count[t] += 1;
    result.verdicts.push_back(v);
  }
  for (std::size_t t = 0; t < sim::kAttackTypeCount; ++t) {
    if (result.tested[t] > 0) {
      result.spoofed_fraction[t] = static_cast<double>(spoofed_count[t]) /
                                   static_cast<double>(result.tested[t]);
    }
  }
  return result;
}

inline std::set<std::uint32_t> spoofed_set(const SpoofResult* spoof) {
  std::set<std::uint32_t> out;
  if (spoof == nullptr) return out;
  for (const SpoofVerdict& v : spoof->verdicts) {
    if (v.spoofed) out.insert(v.incident_index);
  }
  return out;
}

inline AsAnalysisResult as_analysis(
    const netflow::WindowedTrace& trace,
    std::span<const detect::AttackIncident> incidents,
    const cloud::AsRegistry& ases, Direction direction, const SpoofResult* spoof,
    const netflow::PrefixSet* blacklist) {
  AsAnalysisResult out;
  out.direction = direction;
  const auto spoofed = spoofed_set(spoof);

  std::array<std::uint64_t, kAsClassCount> class_incidents{};
  std::array<std::uint64_t, kAsClassCount> class_sizes{};
  std::array<std::uint64_t, kAsClassCount> class_packets{};
  std::array<std::array<std::uint64_t, kAsClassCount>, sim::kAttackTypeCount>
      type_class{};
  std::array<std::uint64_t, sim::kAttackTypeCount> type_totals{};
  std::map<std::uint32_t, std::uint64_t> per_as_incidents;
  std::map<std::uint32_t, std::uint64_t> dominant_attribution;
  std::uint64_t total_packets = 0;
  std::uint64_t single_as = 0;
  for (const cloud::AsInfo& as : ases.all()) {
    class_sizes[static_cast<std::size_t>(as.cls)] += 1;
  }

  for (std::uint32_t i = 0; i < incidents.size(); ++i) {
    const detect::AttackIncident& inc = incidents[i];
    if (inc.direction != direction) continue;
    out.incidents_total += 1;
    type_totals[sim::index_of(inc.type)] += 1;
    if (spoofed.contains(i)) continue;

    std::set<std::uint32_t> asns;
    std::set<std::size_t> classes;
    std::map<std::uint32_t, std::uint64_t> incident_as_packets;
    std::uint64_t incident_packets = 0;
    for (const RemoteContribution& r : incident_remotes(trace, inc, blacklist)) {
      const cloud::AsInfo* as = ases.lookup(r.remote);
      if (as == nullptr) continue;
      asns.insert(as->asn);
      classes.insert(static_cast<std::size_t>(as->cls));
      class_packets[static_cast<std::size_t>(as->cls)] += r.packets;
      total_packets += r.packets;
      incident_as_packets[as->asn] += r.packets;
      incident_packets += r.packets;
    }
    if (asns.empty()) continue;
    out.incidents_mapped += 1;
    std::uint64_t dominant = 0;
    std::uint32_t dominant_asn = 0;
    for (const auto& [asn, pkts] : incident_as_packets) {
      if (pkts > dominant) {
        dominant = pkts;
        dominant_asn = asn;
      }
    }
    if (incident_packets > 0 &&
        static_cast<double>(dominant) >=
            0.9 * static_cast<double>(incident_packets)) {
      ++single_as;
    }
    dominant_attribution[dominant_asn] += 1;
    for (std::uint32_t asn : asns) per_as_incidents[asn] += 1;
    for (std::size_t c : classes) {
      class_incidents[c] += 1;
      type_class[sim::index_of(inc.type)][c] += 1;
    }
  }

  const double denom = out.incidents_total > 0
                           ? static_cast<double>(out.incidents_total)
                           : 1.0;
  for (std::size_t c = 0; c < kAsClassCount; ++c) {
    out.class_share[c] = static_cast<double>(class_incidents[c]) / denom;
    if (class_sizes[c] > 0) {
      out.per_as_share[c] =
          out.class_share[c] / static_cast<double>(class_sizes[c]);
    }
    if (total_packets > 0) {
      out.packet_share[c] = static_cast<double>(class_packets[c]) /
                            static_cast<double>(total_packets);
    }
  }
  for (std::size_t t = 0; t < sim::kAttackTypeCount; ++t) {
    if (type_totals[t] == 0) continue;
    for (std::size_t c = 0; c < kAsClassCount; ++c) {
      out.type_class_share[t][c] = static_cast<double>(type_class[t][c]) /
                                   static_cast<double>(type_totals[t]);
    }
  }
  if (out.incidents_mapped > 0) {
    out.single_as_fraction = static_cast<double>(single_as) /
                             static_cast<double>(out.incidents_mapped);
    std::vector<std::pair<std::uint64_t, std::uint32_t>> ranked;
    for (const auto& [asn, n] : per_as_incidents) ranked.push_back({n, asn});
    std::sort(ranked.begin(), ranked.end(), std::greater<>());
    out.top_as_share = static_cast<double>(ranked.front().first) / denom;
    out.top_asn = ranked.front().second;
    std::vector<std::uint64_t> dominant_ranked;
    for (const auto& [asn, n] : dominant_attribution) dominant_ranked.push_back(n);
    std::sort(dominant_ranked.begin(), dominant_ranked.end(), std::greater<>());
    std::uint64_t top10 = 0;
    std::uint64_t top100 = 0;
    for (std::size_t k = 0; k < dominant_ranked.size(); ++k) {
      if (k < 10) top10 += dominant_ranked[k];
      if (k < 100) top100 += dominant_ranked[k];
    }
    out.top10_share = static_cast<double>(top10) / denom;
    out.top100_share = static_cast<double>(top100) / denom;
  }
  return out;
}

inline GeoResult geo(const netflow::WindowedTrace& trace,
                     std::span<const detect::AttackIncident> incidents,
                     const cloud::AsRegistry& ases, Direction direction,
                     const SpoofResult* spoof,
                     const netflow::PrefixSet* blacklist) {
  GeoResult out;
  out.direction = direction;
  const auto spoofed = spoofed_set(spoof);
  constexpr std::size_t kRegions = std::size(cloud::kAllGeoRegions);
  std::array<std::uint64_t, kRegions> region_incidents{};
  std::array<std::uint64_t, kRegions> region_packets{};
  std::uint64_t total = 0;
  std::uint64_t total_packets = 0;
  for (std::uint32_t i = 0; i < incidents.size(); ++i) {
    const detect::AttackIncident& inc = incidents[i];
    if (inc.direction != direction) continue;
    total += 1;
    if (spoofed.contains(i)) continue;
    std::set<std::size_t> regions;
    for (const RemoteContribution& r : incident_remotes(trace, inc, blacklist)) {
      const cloud::AsInfo* as = ases.lookup(r.remote);
      if (as == nullptr) continue;
      regions.insert(static_cast<std::size_t>(as->region));
      region_packets[static_cast<std::size_t>(as->region)] += r.packets;
      total_packets += r.packets;
    }
    if (!regions.empty()) out.incidents_mapped += 1;
    for (std::size_t r : regions) region_incidents[r] += 1;
  }
  const double denom = total > 0 ? static_cast<double>(total) : 1.0;
  for (std::size_t r = 0; r < kRegions; ++r) {
    out.region_share[r] = static_cast<double>(region_incidents[r]) / denom;
    if (total_packets > 0) {
      out.packet_share[r] = static_cast<double>(region_packets[r]) /
                            static_cast<double>(total_packets);
    }
  }
  return out;
}

inline std::size_t reported_index(cloud::ServiceType s) {
  const auto it = std::find(std::begin(kReportedServices),
                            std::end(kReportedServices), s);
  return static_cast<std::size_t>(it - std::begin(kReportedServices));
}

inline ServiceAttackTable service_attack_table(
    const netflow::WindowedTrace& trace,
    std::span<const detect::MinuteDetection> detections,
    std::span<const detect::AttackIncident> incidents) {
  std::map<std::uint32_t, std::uint32_t> victim_types;
  for (const detect::AttackIncident& inc : incidents) {
    if (inc.direction != Direction::kInbound) continue;
    victim_types[inc.vip.value()] |= 1u << sim::index_of(inc.type);
  }
  std::map<std::pair<std::uint32_t, util::Minute>, std::uint32_t> attack_at;
  for (const detect::MinuteDetection& d : detections) {
    if (d.direction != Direction::kInbound) continue;
    attack_at[{d.vip.value(), d.minute}] |= 1u << sim::index_of(d.type);
  }
  struct Tally {
    std::array<std::uint64_t, kReportedServiceCount> per_service{};
    std::uint64_t total = 0;
  };
  std::map<std::uint32_t, Tally> tallies;
  for (const auto& w : trace.windows()) {
    if (w.direction != Direction::kInbound) continue;
    if (!victim_types.contains(w.vip.value())) continue;
    const auto at = attack_at.find({w.vip.value(), w.minute});
    const std::uint32_t active_mask = at == attack_at.end() ? 0 : at->second;
    Tally& tally = tallies[w.vip.value()];
    for (const netflow::FlowRecord& r : trace.records_of(w)) {
      bool is_attack = false;
      for (std::size_t t = 0; t < sim::kAttackTypeCount; ++t) {
        if (((active_mask >> t) & 1u) != 0 &&
            record_matches(sim::kAllAttackTypes[t], r, Direction::kInbound,
                           nullptr)) {
          is_attack = true;
        }
      }
      if (is_attack) continue;
      tally.total += r.packets;
      bool known = false;
      const cloud::ServiceType s =
          cloud::service_for_port(r.protocol, r.dst_port, &known);
      if (!known) continue;
      const std::size_t idx = reported_index(s);
      if (idx < kReportedServiceCount) tally.per_service[idx] += r.packets;
    }
  }

  ServiceAttackTable table;
  table.victim_vips = victim_types.size();
  if (table.victim_vips == 0) return table;
  std::array<std::uint64_t, kReportedServiceCount> hosting{};
  std::array<std::array<std::uint64_t, sim::kAttackTypeCount>,
             kReportedServiceCount>
      cells{};
  for (const auto& [vip, mask] : victim_types) {
    const auto it = tallies.find(vip);
    if (it == tallies.end() || it->second.total == 0) continue;
    for (std::size_t s = 0; s < kReportedServiceCount; ++s) {
      const double share = static_cast<double>(it->second.per_service[s]) /
                           static_cast<double>(it->second.total);
      if (share < kServiceTrafficShare) continue;
      hosting[s] += 1;
      for (std::size_t t = 0; t < sim::kAttackTypeCount; ++t) {
        if ((mask >> t) & 1u) cells[s][t] += 1;
      }
    }
  }
  const double denom = static_cast<double>(table.victim_vips) / 100.0;
  for (std::size_t s = 0; s < kReportedServiceCount; ++s) {
    table.hosting_share[s] = static_cast<double>(hosting[s]) / denom;
    for (std::size_t t = 0; t < sim::kAttackTypeCount; ++t) {
      table.cell[s][t] = static_cast<double>(cells[s][t]) / denom;
    }
  }
  return table;
}

inline OutboundAppTargets outbound_app_targets(
    const netflow::WindowedTrace& trace,
    std::span<const detect::AttackIncident> incidents) {
  OutboundAppTargets out;
  std::map<std::uint32_t, std::uint32_t> vip_services;
  std::set<std::uint32_t> web_vips;
  for (const detect::AttackIncident& inc : incidents) {
    if (inc.direction != Direction::kOutbound) continue;
    for (const auto& w : trace.series(inc.vip, Direction::kOutbound)) {
      if (w.minute < inc.start || w.minute >= inc.end) continue;
      for (const netflow::FlowRecord& r : trace.records_of(w)) {
        if (!record_matches(inc.type, r, Direction::kOutbound, nullptr) &&
            inc.type != sim::AttackType::kTds) {
          continue;
        }
        bool known = false;
        const cloud::ServiceType s =
            cloud::service_for_port(r.protocol, r.dst_port, &known);
        if (!known) continue;
        const std::size_t idx = reported_index(s);
        if (idx >= kReportedServiceCount) continue;
        vip_services[inc.vip.value()] |= 1u << idx;
        if (s == cloud::ServiceType::kHttp || s == cloud::ServiceType::kHttps) {
          web_vips.insert(inc.vip.value());
        }
      }
    }
  }
  out.attacking_vips = vip_services.size();
  for (const auto& [vip, mask] : vip_services) {
    for (std::size_t s = 0; s < kReportedServiceCount; ++s) {
      if ((mask >> s) & 1u) out.vips_per_service[s] += 1;
    }
  }
  if (out.attacking_vips > 0) {
    out.web_share = static_cast<double>(web_vips.size()) /
                    static_cast<double>(out.attacking_vips);
  }
  return out;
}

}  // namespace dm::analysis::oracle
