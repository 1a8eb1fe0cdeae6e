#include "mitigate/engine.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/stats.h"

namespace dm::mitigate {

using detect::AttackIncident;
using netflow::Direction;
using netflow::VipMinuteStats;
using sim::AttackType;

namespace {

/// The sampled packets a window carries for an attack class — the same
/// per-class counters the detectors alarm on.
std::uint64_t class_packets(const VipMinuteStats& w, AttackType type) noexcept {
  switch (type) {
    case AttackType::kSynFlood: return w.syn_packets;
    case AttackType::kUdpFlood:
      return w.udp_packets >= w.dns_response_packets
                 ? w.udp_packets - w.dns_response_packets
                 : 0;
    case AttackType::kIcmpFlood: return w.icmp_packets;
    case AttackType::kDnsReflection: return w.dns_response_packets;
    case AttackType::kSpam: return w.smtp_packets;
    case AttackType::kBruteForce: return w.admin_packets;
    case AttackType::kSqlInjection: return w.sql_packets;
    case AttackType::kPortScan:
      return w.null_scan_packets + w.xmas_scan_packets + w.bare_rst_packets;
    case AttackType::kTds: return w.blacklist_packets;
  }
  return 0;
}

/// Share of an inbound SYN incident's packets using the juno tool's fixed
/// source ports (§4.4) — the traffic a port filter removes.
double juno_share(const netflow::WindowedTrace& trace,
                  const AttackIncident& inc) {
  std::uint64_t total = 0;
  std::uint64_t fixed = 0;
  trace.for_each_record(
      analysis::incident_windows(trace, inc),
      [&](const VipMinuteStats&, const netflow::FlowRecord& r) {
        if (r.protocol != netflow::Protocol::kTcp ||
            !netflow::is_pure_syn(r.tcp_flags)) {
          return;
        }
        total += r.packets;
        if (r.src_port == 1024 || r.src_port == 3072) fixed += r.packets;
      });
  return total == 0 ? 0.0 : static_cast<double>(fixed) / static_cast<double>(total);
}

/// Packet share of the incident's top-N remote addresses — what a source
/// blacklist with N entries can block.
double top_source_share(const netflow::WindowedTrace& trace,
                        const AttackIncident& inc,
                        const netflow::PrefixSet* blacklist,
                        std::uint32_t entries) {
  const auto remotes = analysis::incident_remotes(trace, inc, blacklist);
  if (remotes.empty()) return 0.0;
  std::uint64_t total = 0;
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < remotes.size(); ++i) {
    total += remotes[i].packets;
    if (i < entries) covered += remotes[i].packets;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(covered) / static_cast<double>(total);
}

}  // namespace

MitigationReport MitigationEngine::evaluate(
    const netflow::WindowedTrace& trace,
    std::span<const AttackIncident> incidents, std::uint32_t sampling,
    const netflow::PrefixSet* blacklist,
    const analysis::SpoofResult* spoof) const {
  MitigationReport report;

  // Spoofed incidents (source blacklisting is useless against them, §6.1).
  std::set<std::uint32_t> spoofed;
  if (spoof != nullptr) {
    for (const auto& v : spoof->verdicts) {
      if (v.spoofed) spoofed.insert(v.incident_index);
    }
  }

  // Shutdown bookkeeping: for each VIP, the minute the shutdown policy
  // fires (after the N-th outbound incident's detection plus latency).
  std::map<std::uint32_t, util::Minute> shutdown_at;
  if (policy_.enable_vip_shutdown) {
    std::map<std::uint32_t, std::vector<util::Minute>> outbound_starts;
    for (const auto& inc : incidents) {
      if (inc.direction == Direction::kOutbound) {
        outbound_starts[inc.vip.value()].push_back(inc.start);
      }
    }
    for (auto& [vip, starts] : outbound_starts) {
      if (starts.size() < policy_.shutdown_after_incidents) continue;
      std::sort(starts.begin(), starts.end());
      shutdown_at[vip] = starts[policy_.shutdown_after_incidents - 1] +
                         policy_.shutdown_latency;
    }
    report.shutdown_vips = shutdown_at.size();
  }

  std::array<std::uint64_t, sim::kAttackTypeCount> type_total{};
  std::array<std::uint64_t, sim::kAttackTypeCount> type_absorbed{};
  std::uint64_t grand_total = 0;
  std::uint64_t grand_absorbed = 0;
  std::vector<double> times;

  for (std::uint32_t i = 0; i < incidents.size(); ++i) {
    const AttackIncident& inc = incidents[i];
    const double peak_pps = inc.estimated_peak_pps(sampling);

    // --- Which mechanisms apply, and how hard they bite.
    std::vector<MitigationAction> actions;
    const util::Minute inline_from = inc.start + policy_.inline_latency;
    auto add = [&](ActionKind kind, util::Minute from, double absorption) {
      if (absorption <= 0.0) return;
      actions.push_back(
          {i, kind, from, std::clamp(absorption, 0.0, 1.0)});
    };

    if (inc.direction == Direction::kInbound) {
      if (policy_.enable_syn_cookies && inc.type == AttackType::kSynFlood) {
        // Cookies neutralize half-open state exhaustion entirely.
        add(ActionKind::kSynCookies, inline_from, 1.0);
      }
      if (policy_.enable_rate_limit && sim::is_volume_based(inc.type)) {
        // Allowance proxied by the detection threshold (the paper's ~7 Kpps
        // change corresponds to 100 sampled pkts/min).
        const double allowance_ppm = policy_.rate_limit_headroom * 100.0;
        const double peak_ppm = static_cast<double>(inc.peak_sampled_ppm);
        if (peak_ppm > allowance_ppm) {
          add(ActionKind::kRateLimit, inline_from,
              1.0 - allowance_ppm / peak_ppm);
        }
      }
      if (policy_.enable_source_blacklist && !spoofed.contains(i)) {
        add(ActionKind::kSourceBlacklist, inline_from,
            top_source_share(trace, inc, blacklist, policy_.blacklist_entries));
      }
      if (policy_.enable_port_filter && inc.type == AttackType::kSynFlood) {
        add(ActionKind::kPortFilter, inline_from, juno_share(trace, inc));
      }
    } else {
      if (policy_.enable_outbound_cap && sim::is_volume_based(inc.type) &&
          peak_pps > policy_.outbound_cap_pps) {
        add(ActionKind::kOutboundCap, inline_from,
            1.0 - policy_.outbound_cap_pps / peak_pps);
      }
      if (policy_.enable_smtp_limit && inc.type == AttackType::kSpam &&
          peak_pps > policy_.smtp_cap_pps) {
        add(ActionKind::kSmtpLimit, inline_from,
            1.0 - policy_.smtp_cap_pps / peak_pps);
      }
      const auto shutdown = shutdown_at.find(inc.vip.value());
      if (shutdown != shutdown_at.end() && shutdown->second < inc.end) {
        add(ActionKind::kVipShutdown, std::max(shutdown->second, inc.start),
            1.0);
      }
    }

    // --- Replay the incident's minutes against the active mechanisms.
    IncidentOutcome outcome;
    outcome.incident_index = i;
    for (const auto& w : analysis::incident_windows(trace, inc)) {
      const std::uint64_t pkts = class_packets(w, inc.type);
      outcome.attack_packets += pkts;
      double pass = 1.0;
      for (const auto& action : actions) {
        if (w.minute >= action.effective_from) pass *= 1.0 - action.absorption;
      }
      outcome.absorbed_packets += static_cast<std::uint64_t>(
          static_cast<double>(pkts) * (1.0 - pass) + 0.5);
    }
    if (!actions.empty()) {
      util::Minute first = actions.front().effective_from;
      for (const auto& a : actions) first = std::min(first, a.effective_from);
      outcome.time_to_mitigate = first - inc.start;
      times.push_back(static_cast<double>(outcome.time_to_mitigate));
    }

    const std::size_t t = sim::index_of(inc.type);
    type_total[t] += outcome.attack_packets;
    type_absorbed[t] += outcome.absorbed_packets;
    grand_total += outcome.attack_packets;
    grand_absorbed += outcome.absorbed_packets;
    report.incidents_by_type[t] += 1;
    report.actions.insert(report.actions.end(), actions.begin(), actions.end());
    report.outcomes.push_back(outcome);
  }

  for (std::size_t t = 0; t < sim::kAttackTypeCount; ++t) {
    if (type_total[t] > 0) {
      report.absorption_by_type[t] = static_cast<double>(type_absorbed[t]) /
                                     static_cast<double>(type_total[t]);
    }
  }
  if (grand_total > 0) {
    report.total_absorption =
        static_cast<double>(grand_absorbed) / static_cast<double>(grand_total);
  }
  report.median_time_to_mitigate = util::median(times);
  return report;
}

}  // namespace dm::mitigate
