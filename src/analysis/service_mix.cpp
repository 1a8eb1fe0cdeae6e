#include "analysis/service_mix.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "analysis/attribution.h"

namespace dm::analysis {

using cloud::ServiceType;
using detect::AttackIncident;
using detect::MinuteDetection;
using netflow::Direction;
using netflow::FlowRecord;
using sim::AttackType;

namespace {

std::size_t reported_index(ServiceType s) noexcept {
  for (std::size_t i = 0; i < kReportedServiceCount; ++i) {
    if (kReportedServices[i] == s) return i;
  }
  return kReportedServiceCount;  // not reported
}

/// Sorts (key, mask) pairs by key and ORs the masks of equal keys together.
template <typename Key>
void or_merge(std::vector<std::pair<Key, std::uint32_t>>& entries) {
  std::sort(entries.begin(), entries.end());
  std::size_t n = 0;
  for (const auto& [key, mask] : entries) {
    if (n > 0 && entries[n - 1].first == key) {
      entries[n - 1].second |= mask;
    } else {
      entries[n++] = {key, mask};
    }
  }
  entries.resize(n);
}

}  // namespace

ServiceAttackTable compute_service_attack_table(
    const netflow::WindowedTrace& trace,
    std::span<const MinuteDetection> detections,
    std::span<const AttackIncident> incidents) {
  // Victim VIPs and the set of inbound attack types each received, sorted
  // by VIP.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> victim_types;
  for (const AttackIncident& inc : incidents) {
    if (inc.direction != Direction::kInbound) continue;
    victim_types.emplace_back(inc.vip.value(), 1u << sim::index_of(inc.type));
  }
  or_merge(victim_types);

  // Attack classes active per (vip, minute) — to filter attack traffic out
  // — sorted by (vip, minute).
  using VipMinute = std::pair<std::uint32_t, util::Minute>;
  std::vector<std::pair<VipMinute, std::uint32_t>> attack_at;
  for (const MinuteDetection& d : detections) {
    if (d.direction != Direction::kInbound) continue;
    attack_at.push_back({{d.vip.value(), d.minute}, 1u << sim::index_of(d.type)});
  }
  or_merge(attack_at);

  ServiceAttackTable table;
  table.victim_vips = victim_types.size();
  if (table.victim_vips == 0) return table;
  std::array<std::uint64_t, kReportedServiceCount> hosting{};
  std::array<std::array<std::uint64_t, sim::kAttackTypeCount>,
             kReportedServiceCount>
      cells{};

  // Each victim's inbound series comes in minute order, and the victims in
  // VIP order, so the attack-minute cursor only moves forward.
  std::size_t at = 0;
  for (const auto& [vip, mask] : victim_types) {
    // Legitimate inbound traffic, bucketed by service.
    std::array<std::uint64_t, kReportedServiceCount> per_service{};
    std::uint64_t total = 0;
    const netflow::VipMinuteStats* window = nullptr;
    std::uint32_t active_mask = 0;
    trace.for_each_record(
        trace.series(netflow::IPv4(vip), Direction::kInbound),
        [&](const netflow::VipMinuteStats& w, const FlowRecord& r) {
          if (&w != window) {
            window = &w;
            const VipMinute key{vip, w.minute};
            while (at < attack_at.size() && attack_at[at].first < key) ++at;
            active_mask = at < attack_at.size() && attack_at[at].first == key
                              ? attack_at[at].second
                              : 0;
          }
          // Drop records that belong to an attack class active this minute.
          for (std::size_t t = 0; t < sim::kAttackTypeCount; ++t) {
            if (((active_mask >> t) & 1u) != 0 &&
                record_matches(sim::kAllAttackTypes[t], r, Direction::kInbound,
                               nullptr)) {
              return;
            }
          }
          total += r.packets;
          bool known = false;
          const ServiceType s =
              cloud::service_for_port(r.protocol, r.dst_port, &known);
          if (!known) return;
          const std::size_t idx = reported_index(s);
          if (idx < kReportedServiceCount) per_service[idx] += r.packets;
        });

    // Apply the 10% rule and cross-tabulate.
    if (total == 0) continue;
    for (std::size_t s = 0; s < kReportedServiceCount; ++s) {
      const double share = static_cast<double>(per_service[s]) /
                           static_cast<double>(total);
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

OutboundAppTargets compute_outbound_app_targets(
    const netflow::WindowedTrace& trace,
    std::span<const AttackIncident> incidents) {
  OutboundAppTargets out;
  // For each attacking VIP, which application ports its attack traffic hits.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> vip_services;

  for (const AttackIncident& inc : incidents) {
    if (inc.direction != Direction::kOutbound) continue;
    std::uint32_t mask = 0;
    trace.for_each_record(
        incident_windows(trace, inc),
        [&](const netflow::VipMinuteStats&, const FlowRecord& r) {
          if (!record_matches(inc.type, r, Direction::kOutbound, nullptr) &&
              inc.type != sim::AttackType::kTds) {
            return;
          }
          bool known = false;
          const ServiceType s =
              cloud::service_for_port(r.protocol, r.dst_port, &known);
          if (!known) return;
          const std::size_t idx = reported_index(s);
          if (idx < kReportedServiceCount) mask |= 1u << idx;
        });
    if (mask != 0) vip_services.emplace_back(inc.vip.value(), mask);
  }
  or_merge(vip_services);

  const std::uint32_t web =
      1u << reported_index(ServiceType::kHttp) |
      1u << reported_index(ServiceType::kHttps);
  std::uint64_t web_vips = 0;
  out.attacking_vips = vip_services.size();
  for (const auto& [vip, mask] : vip_services) {
    for (std::size_t s = 0; s < kReportedServiceCount; ++s) {
      if ((mask >> s) & 1u) out.vips_per_service[s] += 1;
    }
    if ((mask & web) != 0) ++web_vips;
  }
  if (out.attacking_vips > 0) {
    out.web_share = static_cast<double>(web_vips) /
                    static_cast<double>(out.attacking_vips);
  }
  return out;
}

}  // namespace dm::analysis
