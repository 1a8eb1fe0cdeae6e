#include "core/report.h"

#include <sstream>

#include "util/table.h"

namespace dm::core {

using netflow::Direction;

StudyReport build_report(const netflow::WindowedTrace& trace,
                         const detect::DetectionResult& detection,
                         const sim::Scenario& scenario) {
  StudyReport report;
  const auto& incidents = detection.incidents;
  const auto& minutes = detection.minutes;
  const auto& ases = scenario.ases();
  const auto* blacklist = &scenario.tds().as_prefix_set();
  const std::uint32_t sampling = scenario.config().sampling;

  report.mix = analysis::compute_attack_mix(incidents);
  report.inbound_frequency =
      analysis::compute_vip_frequency(incidents, Direction::kInbound);
  report.outbound_frequency =
      analysis::compute_vip_frequency(incidents, Direction::kOutbound);
  report.inbound_active_time =
      analysis::compute_active_time(trace, minutes, Direction::kInbound);
  report.outbound_active_time =
      analysis::compute_active_time(trace, minutes, Direction::kOutbound);

  report.multi_vector = detect::find_multi_vector(incidents);
  report.multi_vip = detect::find_multi_vip(incidents);
  report.chains = detect::find_compromise_chains(incidents);

  report.services =
      analysis::compute_service_attack_table(trace, minutes, incidents);
  report.outbound_apps = analysis::compute_outbound_app_targets(trace, incidents);

  report.inbound_throughput = analysis::compute_aggregate_throughput(
      minutes, Direction::kInbound, sampling);
  report.outbound_throughput = analysis::compute_aggregate_throughput(
      minutes, Direction::kOutbound, sampling);
  report.inbound_vip_throughput = analysis::compute_per_vip_throughput(
      incidents, Direction::kInbound, sampling);
  report.outbound_vip_throughput = analysis::compute_per_vip_throughput(
      incidents, Direction::kOutbound, sampling);
  report.inbound_timing = analysis::compute_timing(incidents, Direction::kInbound);
  report.outbound_timing =
      analysis::compute_timing(incidents, Direction::kOutbound);

  // One decode and AS lookup of every incident's remotes feeds the spoofing
  // test and both directions' AS and geo rollups.
  const analysis::IncidentAttribution attribution =
      analysis::attribute_incidents(trace, incidents, &ases, blacklist);
  report.spoofing = analysis::analyze_spoofing(attribution, incidents);
  const auto inbound = analysis::analyze_origins(
      attribution, incidents, ases, Direction::kInbound, &report.spoofing);
  const auto outbound = analysis::analyze_origins(attribution, incidents, ases,
                                                  Direction::kOutbound);
  report.inbound_as = inbound.as;
  report.outbound_as = outbound.as;
  report.inbound_geo = inbound.geo;
  report.outbound_geo = outbound.geo;
  return report;
}

StudyReport build_report(const Study& study) {
  return build_report(study.trace(), study.detection(), study.scenario());
}

namespace {

void render_mix(const StudyReport& r, std::ostringstream& os) {
  os << "== attack mix (Fig 2) ==\n";
  util::TextTable table;
  table.set_header({"type", "inbound %", "outbound %"});
  for (sim::AttackType t : sim::kAllAttackTypes) {
    table.row(std::string(sim::to_string(t)),
              util::format_percent(r.mix.share(t, Direction::kInbound)),
              util::format_percent(r.mix.share(t, Direction::kOutbound)));
  }
  os << table.render();
  os << "direction split: " << util::format_percent(r.mix.inbound_share())
     << " inbound / " << util::format_percent(1.0 - r.mix.inbound_share())
     << " outbound (" << r.mix.total() << " incidents)\n\n";
}

void render_frequency(const StudyReport& r, std::ostringstream& os) {
  os << "== per-VIP frequency (Fig 3/4) ==\n";
  const auto line = [&](const char* label, const analysis::VipFrequency& f,
                        const analysis::ActiveTimeResult& active) {
    os << label << ": " << f.pairs.size() << " (VIP, day) pairs, "
       << util::format_percent(f.single_attack_fraction)
       << " single-attack, max " << f.max_attacks_per_day
       << " attacks/day; median active-time share in attack "
       << util::format_percent(active.fraction_cdf.quantile(0.5), 2) << ", "
       << util::format_percent(active.majority_attacked_fraction)
       << " of VIPs in attack >50% of their life\n";
  };
  line("inbound ", r.inbound_frequency, r.inbound_active_time);
  line("outbound", r.outbound_frequency, r.outbound_active_time);
  os << '\n';
}

void render_correlation(const StudyReport& r, std::ostringstream& os) {
  os << "== correlated attacks (Fig 5/6) ==\n";
  std::uint32_t peak_vips = 0;
  for (const auto& e : r.multi_vip) peak_vips = std::max(peak_vips, e.vip_count);
  os << "multi-vector events: " << r.multi_vector.size()
     << "; multi-VIP events: " << r.multi_vip.size() << " (peak "
     << peak_vips << " VIPs); inbound->outbound compromise chains: "
     << r.chains.size() << "\n\n";
}

void render_throughput(const StudyReport& r, std::ostringstream& os) {
  os << "== throughput (Fig 7/8) ==\n";
  const auto line = [&](const char* label,
                        const analysis::AggregateThroughput& agg) {
    os << label << " aggregate: median " << util::format_pps(agg.overall.median_pps)
       << ", peak " << util::format_pps(agg.overall.peak_pps) << '\n';
  };
  line("inbound ", r.inbound_throughput);
  line("outbound", r.outbound_throughput);
  os << '\n';
}

void render_timing(const StudyReport& r, std::ostringstream& os) {
  os << "== timing (Fig 9/10) ==\n";
  util::TextTable table;
  table.set_header({"type", "in dur p50", "out dur p50", "in gap p50",
                    "out gap p50"});
  for (sim::AttackType t : sim::kAllAttackTypes) {
    const std::size_t i = sim::index_of(t);
    const auto cell = [](const analysis::TimingStat& s) {
      return s.samples == 0 ? std::string("-") : util::format_minutes(s.median);
    };
    table.row(std::string(sim::to_string(t)), cell(r.inbound_timing.duration[i]),
              cell(r.outbound_timing.duration[i]),
              cell(r.inbound_timing.interarrival[i]),
              cell(r.outbound_timing.interarrival[i]));
  }
  os << table.render() << '\n';
}

void render_origins(const StudyReport& r, std::ostringstream& os) {
  os << "== origins and targets (Fig 11-15, §6.1) ==\n";
  const std::size_t syn = sim::index_of(sim::AttackType::kSynFlood);
  if (r.spoofing.tested[syn] > 0) {
    os << "SYN floods spoofed: "
       << util::format_percent(r.spoofing.spoofed_fraction[syn]) << " of "
       << r.spoofing.tested[syn] << " tested\n";
  }
  util::TextTable table;
  table.set_header({"AS class", "inbound involvement", "outbound involvement"});
  for (std::size_t c = 0; c < analysis::kAsClassCount; ++c) {
    table.row(std::string(cloud::to_string(cloud::kAllAsClasses[c])),
              util::format_percent(r.inbound_as.class_share[c]),
              util::format_percent(r.outbound_as.class_share[c]));
  }
  os << table.render();
  os << "outbound attacks confined to one AS: "
     << util::format_percent(r.outbound_as.single_as_fraction) << "\n\n";
}

void render_services(const StudyReport& r, std::ostringstream& os) {
  os << "== services under attack (Table 3, Fig 16) ==\n";
  os << "victim VIPs: " << r.services.victim_vips
     << "; outbound attacking VIPs: " << r.outbound_apps.attacking_vips
     << " (web share of targets "
     << util::format_percent(r.outbound_apps.web_share) << ")\n\n";
}

}  // namespace

std::string render_report(const StudyReport& report, const Study& study) {
  std::ostringstream os;
  os << "=== darkmenace study report ===\n";
  os << "VIPs: " << study.scenario().vips().size() << ", days: "
     << study.scenario().config().days << ", sampling: 1:" << study.sampling()
     << ", records: " << study.record_count() << ", incidents: "
     << study.detection().incidents.size() << "\n\n";
  render_mix(report, os);
  render_frequency(report, os);
  render_correlation(report, os);
  render_throughput(report, os);
  render_timing(report, os);
  render_origins(report, os);
  render_services(report, os);
  return os.str();
}

}  // namespace dm::core
