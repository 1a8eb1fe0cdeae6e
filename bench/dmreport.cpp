// dmreport — regenerates the paper's tables, figures and observations.
//
//   dmreport                  every exhibit, in DESIGN.md §3 order
//   dmreport fig9 table2 ...  the named exhibits, in the order given
//
// Each exhibit prints a "=== title ===" banner, its rows, and a "[paper]"
// note with the published values. Most exhibits read one shared study of
// ScenarioConfig::paper_scale() and its core::build_report; the two are
// built at most once per process, only when a selected exhibit reads them,
// and freed after the last one that does.
// Seasonality and the ablation sweeps build their own studies. Scale comes
// from the environment:
//   DM_DAYS, DM_VIPS, DM_SEED — override ScenarioConfig::paper_scale().
//   DM_THREADS — pipeline thread count (0/unset = all hardware threads,
//   1 = serial); the output is byte-identical for every value.
// Exit status: 0 when every exhibit ran; 1 when one could not be drawn (it
// prints no note, and the others still run); 2 for an unknown exhibit id or
// a DM_* value that is not a non-negative decimal number.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/active_time.h"
#include "analysis/as_analysis.h"
#include "analysis/overview.h"
#include "analysis/service_mix.h"
#include "analysis/spoof_analysis.h"
#include "analysis/throughput.h"
#include "analysis/timing.h"
#include "analysis/validation.h"
#include "analysis/vip_frequency.h"
#include "core/report.h"
#include "core/study.h"
#include "detect/correlator.h"
#include "detect/incident.h"
#include "detect/timeout_selector.h"
#include "mitigate/engine.h"
#include "mitigate/provisioning.h"
#include "util/cdf.h"
#include "util/parse.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace dm;

constexpr std::array<netflow::Direction, 2> kDirections{
    netflow::Direction::kInbound, netflow::Direction::kOutbound};

// ---- Exhibits on the shared study ----------------------------------------

// Table 1 (inactive-timeout column): derive per-type inactive timeouts from
// the detected attack minutes with the paper's R² >= 85% regression rule and
// compare with the published values. A type that clears no candidate, or has
// too few gaps to fit, shows "fallback" in place of its R².
bool table1(const core::Study& study, const core::StudyReport&) {
  const auto choices = detect::select_timeouts(study.detection().minutes);

  util::TextTable table;
  table.set_header({"Attack", "selected T (min)", "paper T (min)", "avg R^2",
                    "in gaps", "out gaps"});
  for (const auto& c : choices) {
    table.row(std::string(sim::to_string(c.type)),
              static_cast<std::uint64_t>(c.timeout),
              static_cast<std::uint64_t>(sim::inactive_timeout(c.type)),
              c.fallback ? std::string("fallback")
                         : util::format_double(c.avg_r_squared, 3),
              c.inbound_gaps, c.outbound_gaps);
  }
  std::fputs(table.render().c_str(), stdout);
  return true;
}

// Figure 1: CDF of the inactive time between two consecutive attack minutes
// of the same (VIP, type), for inbound and outbound attacks.
bool fig1(const core::Study& study, const core::StudyReport&) {
  for (netflow::Direction dir : kDirections) {
    std::printf("--- %s ---\n", std::string(netflow::to_string(dir)).c_str());
    util::TextTable table;
    table.set_header({"Attack", "gaps", "p50 (min)", "p90", "p99", "max"});
    for (sim::AttackType t : sim::kAllAttackTypes) {
      auto gaps = detect::inactive_gaps(study.detection().minutes, t, dir);
      if (gaps.empty()) {
        table.row(std::string(sim::to_string(t)), 0, "-", "-", "-", "-");
        continue;
      }
      std::sort(gaps.begin(), gaps.end());
      table.row(std::string(sim::to_string(t)), gaps.size(),
                util::format_double(util::quantile_sorted(gaps, 0.5), 1),
                util::format_double(util::quantile_sorted(gaps, 0.9), 1),
                util::format_double(util::quantile_sorted(gaps, 0.99), 1),
                util::format_double(gaps.back(), 0));
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\n");
  }
  return true;
}

// Figure 2: percentage of total inbound and outbound attacks per type.
bool fig2(const core::Study&, const core::StudyReport& report) {
  const auto& mix = report.mix;

  util::TextTable table;
  table.set_header({"Attack", "Inbound %", "Outbound %"});
  for (sim::AttackType t : sim::kAllAttackTypes) {
    table.row(std::string(sim::to_string(t)),
              util::format_percent(mix.share(t, netflow::Direction::kInbound)),
              util::format_percent(mix.share(t, netflow::Direction::kOutbound)));
  }
  table.row("TOTAL", util::format_percent(mix.inbound_share()),
            util::format_percent(1.0 - mix.inbound_share()));
  std::fputs(table.render().c_str(), stdout);

  std::printf("\nincidents: inbound=%llu outbound=%llu\n",
              static_cast<unsigned long long>(mix.inbound_total),
              static_cast<unsigned long long>(mix.outbound_total));
  return true;
}

// Table 2: detected attacks vs (simulated) DDoS-appliance alerts for inbound
// and operator incident reports for outbound.
bool table2(const core::Study& study, const core::StudyReport&) {
  analysis::ValidationConfig config;
  util::Rng rng(study.scenario().config().seed ^ 0x7a11da7eULL);
  const auto alerts =
      analysis::simulate_appliance_alerts(study.truth(), config, rng);
  const auto reports =
      analysis::simulate_incident_reports(study.truth(), config, rng);
  const auto result = analysis::validate(study.detection().incidents, alerts,
                                         reports, config);

  util::TextTable table;
  table.set_header({"Attack", "Inbound det/alerts", "Outbound det/reports"});
  for (sim::AttackType t : sim::kAllAttackTypes) {
    const auto& in = result.inbound[sim::index_of(t)];
    const auto& out = result.outbound[sim::index_of(t)];
    auto cell = [](const analysis::ValidationRow& row) {
      return row.total == 0 ? std::string("-")
                            : std::to_string(row.matched) + "/" +
                                  std::to_string(row.total);
    };
    table.row(std::string(sim::to_string(t)), cell(in), cell(out));
  }
  table.row("Others (malware/phishing)", "-",
            "0/" + std::to_string(result.outbound_other.total));
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nTotal inbound coverage:  %s   (paper: 504/642 = 78.5%%)\n",
              util::format_percent(result.inbound_coverage).c_str());
  std::printf("Total outbound coverage: %s   (paper: 108/129 = 83.7%%)\n",
              util::format_percent(result.outbound_coverage).c_str());
  return true;
}

// Figure 3: (a) CDF of attacks per (VIP, day); (b)/(c) attack mix for VIPs
// with occasional (<=10/day) vs frequent (>10/day) attacks.
bool fig3(const core::Study&, const core::StudyReport& report) {
  for (netflow::Direction dir : kDirections) {
    const auto& freq = dir == netflow::Direction::kInbound
                           ? report.inbound_frequency
                           : report.outbound_frequency;
    std::printf("--- %s ---\n", std::string(netflow::to_string(dir)).c_str());
    std::printf("(VIP, day) pairs: %zu; single-attack pairs: %s; "
                ">10 attacks/day: %s; max attacks/day: %u\n",
                freq.pairs.size(),
                util::format_percent(freq.single_attack_fraction).c_str(),
                util::format_percent(freq.frequent_fraction).c_str(),
                freq.max_attacks_per_day);

    std::printf("Fig 3a CDF of attacks/day:");
    for (double q : {0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      std::printf("  p%.0f=%.0f", q * 100, freq.attacks_per_day.quantile(q));
    }
    std::printf("\n");

    util::TextTable table;
    table.set_header({"Attack", "occasional VIPs %", "frequent VIPs %"});
    for (sim::AttackType t : sim::kAllAttackTypes) {
      table.row(std::string(sim::to_string(t)),
                util::format_percent(freq.occasional_mix[sim::index_of(t)]),
                util::format_percent(freq.frequent_mix[sim::index_of(t)]));
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\n");
  }
  return true;
}

// Figure 4: CDF of the fraction of a VIP's active time spent under attack.
bool fig4(const core::Study&, const core::StudyReport& report) {
  for (netflow::Direction dir : kDirections) {
    const auto& result = dir == netflow::Direction::kInbound
                             ? report.inbound_active_time
                             : report.outbound_active_time;
    std::printf("--- %s ---  attacked VIPs: %zu\n",
                std::string(netflow::to_string(dir)).c_str(),
                result.vips.size());
    std::printf("attack-time fraction:");
    for (double q : {0.25, 0.5, 0.75, 0.9, 0.97}) {
      std::printf("  p%.0f=%s", q * 100,
                  util::format_percent(result.fraction_cdf.quantile(q), 2).c_str());
    }
    std::printf("\nVIPs in attack >50%% of active time: %s\n\n",
                util::format_percent(result.majority_attacked_fraction).c_str());
  }
  return true;
}

// Figure 5: the compromise case study — a dormant partner VIP receives a
// week of inbound RDP brute-force, then erupts with outbound UDP floods.
// Prints the daily time series for the case VIP plus the detected
// inbound-to-outbound chains.
bool fig5(const core::Study& study, const core::StudyReport& report) {
  // Locate the scripted case-study VIP: the inbound brute-force episode with
  // the longest duration on a VIP that also originates outbound UDP floods.
  const sim::AttackEpisode* bf = nullptr;
  for (const auto& e : study.truth().episodes) {
    if (e.type == sim::AttackType::kBruteForce &&
        e.direction == netflow::Direction::kInbound &&
        (bf == nullptr || e.duration() > bf->duration())) {
      bf = &e;
    }
  }
  if (bf == nullptr) {
    std::printf("no brute-force episode found\n");
    return false;
  }

  std::printf("case VIP: %s (inbound RDP brute-force %s..%s from %zu hosts)\n\n",
              bf->vip.to_string().c_str(), util::format_minute(bf->start).c_str(),
              util::format_minute(bf->end).c_str(), bf->remote_hosts.size());

  // Half-day buckets: estimated RDP connections and outbound UDP rate.
  std::map<std::int64_t, std::pair<std::uint64_t, std::uint64_t>> buckets;
  const auto sampling = study.sampling();
  for (const auto& w : study.trace().series(bf->vip, netflow::Direction::kInbound)) {
    buckets[w.minute / 720].first += w.remote_admin_flows;
  }
  for (const auto& w : study.trace().series(bf->vip, netflow::Direction::kOutbound)) {
    buckets[w.minute / 720].second += w.udp_packets;
  }
  util::TextTable table;
  table.set_header({"half-day", "est. RDP connections (K)", "est. UDP out (Kpps avg)"});
  for (const auto& [bucket, counts] : buckets) {
    table.row("d" + util::format_double(static_cast<double>(bucket) / 2.0, 1),
              util::format_double(static_cast<double>(counts.first) * sampling / 1000.0, 1),
              util::format_double(static_cast<double>(counts.second) * sampling /
                                      (720.0 * 60.0) / 1000.0, 2));
  }
  std::fputs(table.render().c_str(), stdout);

  const auto& chains = report.chains;
  std::printf("\ndetected inbound->outbound compromise chains: %zu\n",
              chains.size());
  for (std::size_t i = 0; i < chains.size() && i < 5; ++i) {
    const auto& c = chains[i];
    const auto& in = study.detection().incidents[c.inbound_incident];
    const auto& out = study.detection().incidents[c.outbound_incident];
    std::printf("  vip=%s  %s in at %s -> %s out at %s (gap %s)\n",
                c.vip.to_string().c_str(),
                std::string(sim::to_string(in.type)).c_str(),
                util::format_minute(in.start).c_str(),
                std::string(sim::to_string(out.type)).c_str(),
                util::format_minute(out.start).c_str(),
                util::format_minutes(static_cast<double>(c.gap_minutes)).c_str());
  }
  return true;
}

// Figure 6: the 99th percentile and peak number of VIPs simultaneously
// involved in the same type of attack (start times within five minutes).
bool fig6(const core::Study&, const core::StudyReport& report) {
  const auto& events = report.multi_vip;

  util::TextTable table;
  table.set_header({"Attack", "dir", "events", "p99 #VIPs", "peak #VIPs"});
  for (sim::AttackType t : sim::kAllAttackTypes) {
    for (netflow::Direction dir : kDirections) {
      std::vector<double> sizes;
      for (const auto& e : events) {
        if (e.type == t && e.direction == dir) {
          sizes.push_back(static_cast<double>(e.vip_count));
        }
      }
      if (sizes.empty()) continue;
      std::sort(sizes.begin(), sizes.end());
      table.row(std::string(sim::to_string(t)),
                std::string(netflow::to_string(dir)), sizes.size(),
                util::format_double(util::quantile_sorted(sizes, 0.99), 0),
                util::format_double(sizes.back(), 0));
    }
  }
  std::fputs(table.render().c_str(), stdout);

  // Multi-vector summary (§4.2) shares this correlation machinery.
  const auto& mv = report.multi_vector;
  std::size_t mv_in = 0, mv_out = 0, bf_syn_icmp = 0;
  for (const auto& e : mv) {
    (e.direction == netflow::Direction::kInbound ? mv_in : mv_out) += 1;
    if (e.direction == netflow::Direction::kOutbound &&
        e.has(sim::AttackType::kBruteForce) &&
        (e.has(sim::AttackType::kSynFlood) || e.has(sim::AttackType::kIcmpFlood))) {
      ++bf_syn_icmp;
    }
  }
  std::printf("\nmulti-vector events: inbound=%zu outbound=%zu "
              "(outbound brute-force+flood bundles: %zu)\n",
              mv_in, mv_out, bf_syn_icmp);
  return true;
}

// Table 3: percentage of victim VIPs hosting each service that experienced
// each inbound attack type (services inferred from legitimate traffic by the
// 10%-of-traffic destination-port rule).
bool table3(const core::Study&, const core::StudyReport& report) {
  const auto& services = report.services;

  util::TextTable table;
  std::vector<std::string> header{"Service", "Total %"};
  for (sim::AttackType t : sim::kAllAttackTypes) {
    header.emplace_back(sim::to_string(t));
  }
  table.set_header(std::move(header));
  for (std::size_t s = 0; s < analysis::kReportedServiceCount; ++s) {
    std::vector<std::string> row{
        std::string(cloud::to_string(analysis::kReportedServices[s])),
        util::format_double(services.hosting_share[s], 2)};
    for (std::size_t t = 0; t < sim::kAttackTypeCount; ++t) {
      row.push_back(util::format_double(services.cell[s][t], 2));
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nvictim VIPs: %llu\n",
              static_cast<unsigned long long>(services.victim_vips));
  return true;
}

// Figure 7: median and peak aggregate attack throughput (whole cloud) per
// attack type and overall, in estimated packets/second.
bool fig7(const core::Study&, const core::StudyReport& report) {
  util::TextTable table;
  table.set_header({"Attack", "in median", "in peak", "out median", "out peak"});
  const auto& in = report.inbound_throughput;
  const auto& out = report.outbound_throughput;
  for (sim::AttackType t : sim::kAllAttackTypes) {
    const auto& i = in.by_type[sim::index_of(t)];
    const auto& o = out.by_type[sim::index_of(t)];
    table.row(std::string(sim::to_string(t)),
              i.samples ? util::format_pps(i.median_pps) : "-",
              i.samples ? util::format_pps(i.peak_pps) : "-",
              o.samples ? util::format_pps(o.median_pps) : "-",
              o.samples ? util::format_pps(o.peak_pps) : "-");
  }
  table.row("Overall", util::format_pps(in.overall.median_pps),
            util::format_pps(in.overall.peak_pps),
            util::format_pps(out.overall.median_pps),
            util::format_pps(out.overall.peak_pps));
  std::fputs(table.render().c_str(), stdout);
  return true;
}

// Figure 8: median and maximum per-VIP (per-incident) peak attack throughput
// by type, plus the peak/median spread that motivates multiplexed defenses.
bool fig8(const core::Study&, const core::StudyReport& report) {
  util::TextTable table;
  table.set_header({"Attack", "dir", "median peak", "max peak", "max/median"});
  for (netflow::Direction dir : kDirections) {
    const auto& result = dir == netflow::Direction::kInbound
                             ? report.inbound_vip_throughput
                             : report.outbound_vip_throughput;
    for (sim::AttackType t : sim::kAllAttackTypes) {
      const auto& s = result.by_type[sim::index_of(t)];
      if (s.samples == 0) continue;
      table.row(std::string(sim::to_string(t)),
                std::string(netflow::to_string(dir)),
                util::format_pps(s.median_pps), util::format_pps(s.peak_pps),
                util::format_double(result.spread(t), 1) + "x");
    }
  }
  std::fputs(table.render().c_str(), stdout);
  return true;
}

// Figure 9: median and 99th-percentile attack duration by type.
bool fig9(const core::Study&, const core::StudyReport& report) {
  util::TextTable table;
  table.set_header({"Attack", "in median", "in p99", "out median", "out p99"});
  const auto& in = report.inbound_timing;
  const auto& out = report.outbound_timing;
  for (sim::AttackType t : sim::kAllAttackTypes) {
    const auto& i = in.duration[sim::index_of(t)];
    const auto& o = out.duration[sim::index_of(t)];
    table.row(std::string(sim::to_string(t)),
              i.samples ? util::format_minutes(i.median) : "-",
              i.samples ? util::format_minutes(i.p99) : "-",
              o.samples ? util::format_minutes(o.median) : "-",
              o.samples ? util::format_minutes(o.p99) : "-");
  }
  std::fputs(table.render().c_str(), stdout);
  return true;
}

// Figure 10: median inter-arrival time between consecutive attacks on the
// same VIP, plus the §5.2 extras: ramp-up times and the UDP-flood
// bimodality decomposition.
bool fig10(const core::Study& study, const core::StudyReport& report) {
  const auto& in = report.inbound_timing;
  const auto& out = report.outbound_timing;

  util::TextTable table;
  table.set_header({"Attack", "in median (min)", "out median (min)",
                    "in ramp-up", "out ramp-up"});
  for (sim::AttackType t : sim::kAllAttackTypes) {
    const auto& i = in.interarrival[sim::index_of(t)];
    const auto& o = out.interarrival[sim::index_of(t)];
    const auto& ri = in.ramp_up[sim::index_of(t)];
    const auto& ro = out.ramp_up[sim::index_of(t)];
    table.row(std::string(sim::to_string(t)),
              i.samples ? util::format_double(i.median, 0) : "-",
              o.samples ? util::format_double(o.median, 0) : "-",
              ri.samples ? util::format_double(ri.median, 1) + " min" : "-",
              ro.samples ? util::format_double(ro.median, 1) + " min" : "-");
  }
  std::fputs(table.render().c_str(), stdout);

  // §5.2: UDP flood bimodality.
  for (netflow::Direction dir : kDirections) {
    const auto bimodal = analysis::decompose_bimodal(
        study.detection().incidents, sim::AttackType::kUdpFlood, dir,
        study.sampling());
    std::printf("\nUDP flood (%s): %s small attacks (median %s, gap %.0f min) "
                "vs %s large (median %s, gap %.0f min)\n",
                std::string(netflow::to_string(dir)).c_str(),
                util::format_percent(bimodal.small_fraction).c_str(),
                util::format_pps(bimodal.small_median_peak_pps).c_str(),
                bimodal.small_median_interarrival,
                util::format_percent(bimodal.large_fraction).c_str(),
                util::format_pps(bimodal.large_median_peak_pps).c_str(),
                bimodal.large_median_interarrival);
  }
  return true;
}

// Figure 11: AS classes generating inbound attacks — (a) share of attacks
// involving each class, (b) average share per individual AS of the class.
bool fig11(const core::Study&, const core::StudyReport& report) {
  const auto& result = report.inbound_as;

  util::TextTable table;
  table.set_header({"AS class", "11a: % of attacks", "11b: avg % per AS",
                    "packet share"});
  for (std::size_t c = 0; c < analysis::kAsClassCount; ++c) {
    table.row(std::string(cloud::to_string(cloud::kAllAsClasses[c])),
              util::format_percent(result.class_share[c]),
              util::format_percent(result.per_as_share[c], 3),
              util::format_percent(result.packet_share[c]));
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nmapped incidents: %llu / %llu; top AS involvement: %s (ASN %u)\n",
              static_cast<unsigned long long>(result.incidents_mapped),
              static_cast<unsigned long long>(result.incidents_total),
              util::format_percent(result.top_as_share).c_str(), result.top_asn);
  return true;
}

// Figure 12: share of each inbound attack type originating from big-cloud
// and mobile ASes.
bool fig12(const core::Study&, const core::StudyReport& report) {
  const auto& result = report.inbound_as;

  const auto big = static_cast<std::size_t>(cloud::AsClass::kBigCloud);
  const auto mobile = static_cast<std::size_t>(cloud::AsClass::kMobile);
  util::TextTable table;
  table.set_header({"Attack", "% from BigCloud", "% from Mobile"});
  for (sim::AttackType t : sim::kAllAttackTypes) {
    if (t == sim::AttackType::kSynFlood) continue;  // as in the paper's figure
    table.row(std::string(sim::to_string(t)),
              util::format_percent(result.type_class_share[sim::index_of(t)][big]),
              util::format_percent(result.type_class_share[sim::index_of(t)][mobile]));
  }
  std::fputs(table.render().c_str(), stdout);
  return true;
}

// Figure 13: origins of inbound DNS reflection and spam by AS class —
// (a) share of attacks involving the class, (b) average share per AS.
bool fig13(const core::Study& study, const core::StudyReport& report) {
  const auto& result = report.inbound_as;

  const std::size_t dns = sim::index_of(sim::AttackType::kDnsReflection);
  const std::size_t spam = sim::index_of(sim::AttackType::kSpam);

  // Per-AS averages need the class sizes; recompute them from the registry.
  std::array<double, analysis::kAsClassCount> class_sizes{};
  for (const auto& as : study.scenario().ases().all()) {
    class_sizes[static_cast<std::size_t>(as.cls)] += 1.0;
  }

  util::TextTable table;
  table.set_header({"AS class", "DNS % of attacks", "SPAM % of attacks",
                    "DNS avg %/AS", "SPAM avg %/AS"});
  for (std::size_t c = 0; c < analysis::kAsClassCount; ++c) {
    const double dns_share = result.type_class_share[dns][c];
    const double spam_share = result.type_class_share[spam][c];
    table.row(std::string(cloud::to_string(cloud::kAllAsClasses[c])),
              util::format_percent(dns_share),
              util::format_percent(spam_share),
              util::format_percent(class_sizes[c] > 0 ? dns_share / class_sizes[c] : 0, 3),
              util::format_percent(class_sizes[c] > 0 ? spam_share / class_sizes[c] : 0, 3));
  }
  std::fputs(table.render().c_str(), stdout);
  return true;
}

// Figure 14: geolocation of inbound attack sources and outbound attack
// targets (the paper's world maps, rendered as per-region shares).
bool fig14(const core::Study&, const core::StudyReport& report) {
  const auto& in = report.inbound_geo;
  const auto& out = report.outbound_geo;

  util::TextTable table;
  table.set_header({"Region", "inbound sources %", "outbound targets %"});
  for (std::size_t r = 0; r < std::size(cloud::kAllGeoRegions); ++r) {
    table.row(std::string(cloud::to_string(cloud::kAllGeoRegions[r])),
              util::format_percent(in.region_share[r]),
              util::format_percent(out.region_share[r]));
  }
  std::fputs(table.render().c_str(), stdout);
  return true;
}

// Figure 15: AS classes targeted by outbound attacks — share of attacks and
// average share per AS — plus the §6.2 clustering statistics.
bool fig15(const core::Study&, const core::StudyReport& report) {
  const auto& result = report.outbound_as;

  util::TextTable table;
  table.set_header({"AS class", "15a: % of attacks", "15b: avg % per AS",
                    "packet share"});
  for (std::size_t c = 0; c < analysis::kAsClassCount; ++c) {
    table.row(std::string(cloud::to_string(cloud::kAllAsClasses[c])),
              util::format_percent(result.class_share[c]),
              util::format_percent(result.per_as_share[c], 3),
              util::format_percent(result.packet_share[c]));
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nattacks confined to a single AS: %s  (paper: 80%%)\n",
              util::format_percent(result.single_as_fraction).c_str());
  std::printf("top-10 AS coverage: %s (paper 8.9%%); top-100: %s (paper 16.3%%)\n",
              util::format_percent(result.top10_share).c_str(),
              util::format_percent(result.top100_share).c_str());
  return true;
}

// Figure 16: Internet applications targeted by outbound attacks (#VIPs per
// application port).
bool fig16(const core::Study&, const core::StudyReport& report) {
  const auto& targets = report.outbound_apps;

  util::TextTable table;
  table.set_header({"Application", "#attacking VIPs"});
  for (std::size_t s = 0; s < analysis::kReportedServiceCount; ++s) {
    table.row(std::string(cloud::to_string(analysis::kReportedServices[s])),
              targets.vips_per_service[s]);
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nattacking VIPs: %llu; web (HTTP/HTTPS) share: %s\n",
              static_cast<unsigned long long>(targets.attacking_vips),
              util::format_percent(targets.web_share).c_str());
  return true;
}

// §6.1: Anderson-Darling spoofed-source inference — fraction of inbound
// attacks per type whose source addresses are uniform over the IPv4 space.
bool spoofing(const core::Study&, const core::StudyReport& report) {
  const auto& spoof = report.spoofing;

  util::TextTable table;
  table.set_header({"Attack", "tested incidents", "% spoofed"});
  for (sim::AttackType t : sim::kAllAttackTypes) {
    const std::size_t i = sim::index_of(t);
    if (spoof.tested[i] == 0) continue;
    table.row(std::string(sim::to_string(t)), spoof.tested[i],
              util::format_percent(spoof.spoofed_fraction[i]));
  }
  std::fputs(table.render().c_str(), stdout);
  return true;
}

// §7 made executable: replay the detected attacks against the cloud's
// mitigation practices and report what each mechanism absorbs — plus the
// §5.2 point that 5-minute reaction loops are too slow for 1-3 minute ramps.
bool mitigation(const core::Study& study, const core::StudyReport& report) {
  const auto& spoof = report.spoofing;

  const mitigate::MitigationEngine engine{mitigate::MitigationPolicy{}};
  const auto replay =
      engine.evaluate(study.trace(), study.detection().incidents,
                      study.sampling(), &study.blacklist(), &spoof);

  util::TextTable table;
  table.set_header({"Attack", "incidents", "absorbed"});
  for (sim::AttackType t : sim::kAllAttackTypes) {
    const std::size_t i = sim::index_of(t);
    if (replay.incidents_by_type[i] == 0) continue;
    table.row(std::string(sim::to_string(t)), replay.incidents_by_type[i],
              util::format_percent(replay.absorption_by_type[i]));
  }
  std::fputs(table.render().c_str(), stdout);

  std::map<mitigate::ActionKind, std::size_t> per_kind;
  for (const auto& a : replay.actions) per_kind[a.kind] += 1;
  std::printf("\nactions taken:\n");
  for (const auto& [kind, n] : per_kind) {
    std::printf("  %-18s %zu\n", std::string(mitigate::to_string(kind)).c_str(),
                n);
  }
  std::printf("\noverall absorption: %s; VIPs shut down: %llu; median time "
              "to mitigate: %.1f min\n",
              util::format_percent(replay.total_absorption).c_str(),
              static_cast<unsigned long long>(replay.shutdown_vips),
              replay.median_time_to_mitigate);

  // Reaction-latency sweep: the §5.2 argument that 5-minute detection loops
  // miss the ramp.
  std::printf("\nreaction latency sweep (volume attacks ramp in 1-3 min):\n");
  for (util::Minute latency : {0, 1, 2, 5, 10}) {
    mitigate::MitigationPolicy policy;
    policy.inline_latency = latency;
    const auto swept = mitigate::MitigationEngine{policy}.evaluate(
        study.trace(), study.detection().incidents, study.sampling(),
        &study.blacklist(), &spoof);
    std::printf("  latency %2lld min -> absorption %s\n",
                static_cast<long long>(latency),
                util::format_percent(swept.total_absorption).c_str());
  }
  return true;
}

// §5.1's provisioning argument, quantified: per-VIP peak provisioning vs a
// shared cloud-peak pool vs an elastic p99 pool, in SLB cores (300 Kpps per
// core, [42]).
bool ablation_provisioning(const core::Study& study, const core::StudyReport&) {
  util::TextTable table;
  table.set_header({"direction", "attacked VIPs", "per-VIP peak cores",
                    "cloud peak cores", "elastic p99 cores",
                    "overprovision factor"});
  for (netflow::Direction dir : kDirections) {
    const auto plan = mitigate::plan_provisioning(
        study.detection().minutes, dir, study.sampling());
    table.row(std::string(netflow::to_string(dir)), plan.attacked_vips,
              util::format_double(plan.per_vip_peak_cores, 1),
              util::format_double(plan.cloud_peak_cores, 1),
              util::format_double(plan.elastic_cores, 1),
              util::format_double(plan.overprovision_factor(), 1) + "x");
  }
  std::fputs(table.render().c_str(), stdout);
  return true;
}

// ---- Exhibits that build their own studies --------------------------------

// §3.1's seasonal observation: inbound flood attacks increase significantly
// during the holiday shopping season (the paper's Nov/Dec months vs May).
// Compares a May-like study against a holiday-season one; both take the
// DM_DAYS/DM_VIPS scale and keep their own seed and thread count.
bool seasonality(const sim::ScenarioConfig& scale) {
  const auto scaled = [&scale](sim::ScenarioConfig config) {
    config.days = scale.days;
    config.vips.vip_count = scale.vips.vip_count;
    return config;
  };
  const core::Study may{scaled(sim::ScenarioConfig::paper_scale())};
  const core::Study december{scaled(sim::ScenarioConfig::holiday_season())};

  const auto count_floods = [](const core::Study& study,
                               netflow::Direction dir) {
    std::size_t floods = 0;
    for (const auto& inc : study.detection().incidents) {
      if (inc.direction == dir && sim::is_flood(inc.type)) ++floods;
    }
    return floods;
  };

  util::TextTable table;
  table.set_header({"month", "inbound floods", "outbound floods",
                    "all incidents"});
  table.row("May (baseline)",
            count_floods(may, netflow::Direction::kInbound),
            count_floods(may, netflow::Direction::kOutbound),
            may.detection().incidents.size());
  table.row("Nov/Dec (holiday)",
            count_floods(december, netflow::Direction::kInbound),
            count_floods(december, netflow::Direction::kOutbound),
            december.detection().incidents.size());
  std::fputs(table.render().c_str(), stdout);

  const double ratio =
      static_cast<double>(count_floods(december, netflow::Direction::kInbound)) /
      static_cast<double>(
          std::max<std::size_t>(1, count_floods(may, netflow::Direction::kInbound)));
  std::printf("\ninbound flood increase: %.1fx\n", ratio);
  return true;
}

/// The 300-VIP x 3-day smoke scenario the ablation sweeps rerun; each sweep
/// keeps its own seed.
sim::ScenarioConfig ablation_config(std::uint64_t seed) {
  auto config = sim::ScenarioConfig::smoke();
  config.vips.vip_count = 300;
  config.days = 3;
  config.seed = seed;
  return config;
}

/// Whether a detected incident is the ground-truth episode: same type,
/// direction and VIP, with time ranges that overlap within two minutes.
bool overlaps(const sim::AttackEpisode& e, const detect::AttackIncident& inc) {
  return inc.type == e.type && inc.direction == e.direction &&
         inc.vip == e.vip && inc.start < e.end + 2 && e.start < inc.end + 2;
}

/// Ground-truth floods peaking at >= `min_peak_pps` (true rate) that some
/// detected incident overlaps, and how many such floods there are.
std::pair<std::size_t, std::size_t> flood_recall(const core::Study& study,
                                                 double min_peak_pps) {
  const auto& incidents = study.detection().incidents;
  std::size_t total = 0;
  std::size_t hit = 0;
  for (const auto& e : study.truth().episodes) {
    if (!sim::is_volume_based(e.type) || e.peak_true_pps < min_peak_pps) continue;
    ++total;
    if (std::any_of(incidents.begin(), incidents.end(),
                    [&e](const auto& inc) { return overlaps(e, inc); })) {
      ++hit;
    }
  }
  return {hit, total};
}

// Ablation: volume change threshold and EWMA window vs detection outcome.
//
// The paper fixes the change threshold at 100 sampled pkts/min (~7 Kpps) and
// the baseline at the EWMA of the past 10 windows. This sweep shows the
// trade-off those choices sit on: lower thresholds catch more ground-truth
// floods but start flagging benign variation; shorter EWMA windows adapt
// faster but absorb slow-ramping attacks.
bool ablation_thresholds(const sim::ScenarioConfig& /*scale*/) {
  // Detected volume incidents with no overlapping ground-truth episode of
  // the same type (benign variation flagged as attack).
  const auto false_alarms = [](const core::Study& study) {
    const auto& episodes = study.truth().episodes;
    std::size_t fp = 0;
    for (const auto& inc : study.detection().incidents) {
      if (!sim::is_volume_based(inc.type)) continue;
      if (std::none_of(episodes.begin(), episodes.end(),
                       [&inc](const auto& e) { return overlaps(e, inc); })) {
        ++fp;
      }
    }
    return fp;
  };

  util::TextTable table;
  table.set_header({"threshold (pkts/min)", "ewma window", "flood recall",
                    "false alarms", "total incidents"});
  for (double threshold : {25.0, 50.0, 100.0, 200.0, 400.0}) {
    detect::DetectionConfig dc;
    dc.volume_change_threshold = threshold;
    const core::Study study(ablation_config(1234), dc);
    const auto [hit, total] = flood_recall(study, 0.0);
    table.row(util::format_double(threshold, 0), dc.ewma_window,
              std::to_string(hit) + "/" + std::to_string(total),
              false_alarms(study), study.detection().incidents.size());
  }
  for (std::size_t window : {3u, 10u, 30u}) {
    detect::DetectionConfig dc;
    dc.ewma_window = window;
    const core::Study study(ablation_config(1234), dc);
    const auto [hit, total] = flood_recall(study, 0.0);
    table.row("100", window, std::to_string(hit) + "/" + std::to_string(total),
              false_alarms(study), study.detection().incidents.size());
  }
  std::fputs(table.render().c_str(), stdout);
  return true;
}

// Ablation: per-type inactive timeouts (Table 1) vs one global timeout.
//
// Grouping attack minutes with a single global T either shreds long
// low-duty-cycle attacks into fragments (T too small) or fuses distinct
// attacks into one (T too large). The incident/episode count ratio alone
// cannot tell a faithful grouping from fragments that make up for missed
// episodes, so the table also counts the ground-truth episodes some
// incident overlaps.
bool ablation_timeouts(const sim::ScenarioConfig& /*scale*/) {
  util::TextTable table;
  table.set_header({"timeout policy", "incidents", "episodes (truth)",
                    "episodes matched", "incidents/episode"});

  const auto run = [&table](const std::string& label,
                            detect::TimeoutTable timeouts) {
    const core::Study study(ablation_config(99), detect::DetectionConfig{},
                            timeouts);
    const auto& incidents = study.detection().incidents;
    const auto& episodes = study.truth().episodes;
    const auto matched = std::count_if(
        episodes.begin(), episodes.end(), [&incidents](const auto& e) {
          return std::any_of(incidents.begin(), incidents.end(),
                             [&e](const auto& inc) { return overlaps(e, inc); });
        });
    const double ratio = static_cast<double>(incidents.size()) /
                         static_cast<double>(episodes.size());
    table.row(label, incidents.size(), episodes.size(),
              static_cast<std::uint64_t>(matched), util::format_double(ratio, 2));
  };

  run("per-type (Table 1)", detect::TimeoutTable::paper());
  for (util::Minute global : {1, 10, 60, 240}) {
    detect::TimeoutTable t{};
    for (auto& v : t.timeout) v = global;
    run("global T=" + std::to_string(global) + " min", t);
  }
  std::fputs(table.render().c_str(), stdout);
  return true;
}

// Ablation: NetFlow sampling rate vs what the study can see.
//
// The paper inherits 1:4096 sampling and argues (§3.2, citing [12,22,34])
// that sampling preserves flood detection but undercounts flows/spread.
// This sweep regenerates the same scenario at different sampling rates and
// measures both effects.
bool ablation_sampling(const sim::ScenarioConfig& /*scale*/) {
  util::TextTable table;
  table.set_header({"sampling", "records", "incidents", "flood recall",
                    "median BF remotes seen"});
  for (std::uint32_t sampling : {1024u, 4096u, 16384u}) {
    auto config = ablation_config(5150);
    config.sampling = sampling;
    const core::Study study(config);
    // Recall over the loud floods only, a set every rate can be held to.
    const auto [hit, floods] = flood_recall(study, 10'000.0);

    std::vector<double> bf_remotes;
    for (const auto& inc : study.detection().incidents) {
      if (inc.type == sim::AttackType::kBruteForce) {
        bf_remotes.push_back(static_cast<double>(inc.peak_unique_remotes));
      }
    }

    table.row("1:" + std::to_string(sampling), study.record_count(),
              study.detection().incidents.size(),
              std::to_string(hit) + "/" + std::to_string(floods),
              util::format_double(util::median(bf_remotes), 0));
  }
  std::fputs(table.render().c_str(), stdout);
  return true;
}

// ---- Registry and main ----------------------------------------------------

using StudyRun = bool (*)(const core::Study&, const core::StudyReport&);
using ScaleRun = bool (*)(const sim::ScenarioConfig&);

struct Exhibit {
  const char* id;
  const char* title;
  const char* caption;
  const char* note;  ///< the paper's values, printed after the rows
  /// Prints the exhibit's rows; false when it cannot be drawn. A StudyRun
  /// reads the shared study and its report; a ScaleRun gets the DM_*
  /// scenario and builds its own studies.
  std::variant<StudyRun, ScaleRun> run;
};

// DESIGN.md §3 order.
const Exhibit kExhibits[] = {
    {"table1", "Table 1 (timeouts)",
     "Inactive timeouts selected from inactive-gap CDFs (R^2 >= 85%)",
     "Table 1 timeouts: SYN 1, UDP 1, ICMP 120, DNS 60, SPAM 60, "
     "Brute-force 60, SQL 30, PortScan 60, TDS 120 minutes.",
     table1},
    {"fig1", "Figure 1",
     "Inactive-time distribution between consecutive attack "
     "minutes (log-scale x in the paper)",
     "Fig 1 drives the Table 1 timeout choice: most gap mass sits below "
     "each type's inactive timeout; flood gaps are short (SYN/UDP T=1), "
     "ICMP/TDS tails reach hours (T=120).",
     fig1},
    {"fig2", "Figure 2", "Percentage of total attacks by type and direction",
     "35.1% inbound vs 64.9% outbound; outbound/inbound ratios: SYN ~5x, "
     "UDP ~2x, brute-force ~4x, SQL ~5x; port scans mostly inbound.",
     fig2},
    {"table2", "Table 2",
     "Coverage of appliance alerts (inbound) and incident reports "
     "(outbound) by our NetFlow-based detections",
     "Misses stem from NetFlow sampling, appliance false positives, and "
     "attacks without network signatures (phishing, malware hosting, FTP "
     "brute-force).",
     table2},
    {"fig3", "Figure 3", "Attack frequency per VIP",
     "53% of inbound and 44% of outbound (VIP, day) pairs see exactly one "
     "attack; tails reach 39 inbound and >144 outbound attacks per day. "
     "Occasional VIPs skew to TDS/port-scan/brute-force; frequent VIPs to "
     "floods.",
     fig3},
    {"fig4", "Figure 4", "Share of VIP active time in attack",
     "50% of VIPs see inbound attacks for 0.2% of their active time "
     "(outbound: 1.2%); 3% of inbound / 8% of outbound attack VIPs spend "
     ">50% of their active time in attack.",
     fig4},
    {"fig5", "Figure 5",
     "Inbound brute-force followed by outbound UDP flood on the "
     "same VIP",
     "Paper case: ~70K RDP connections/min at peak for >1 week (70.3% of "
     "packets from 3 addresses in one Asian AS), then outbound UDP floods "
     "against 491 sites peaking at 23 Kpps for >2 days.",
     fig5},
    {"fig6", "Figure 6", "VIPs simultaneously involved in same-type attacks",
     "Inbound brute-force campaigns peak at 66 VIPs (53 at p99); outbound "
     "UDP/spam/brute-force/SQL involve ~20 VIPs at p99, >40 at peak. 106 "
     "VIPs saw inbound multi-vector attacks, 74 outbound; 35 VIPs paired "
     "brute-force with SYN/ICMP floods.",
     fig6},
    {"table3", "Table 3", "Victim VIPs by hosted service x inbound attack",
     "Paper totals: RDP 35.06, HTTP 33.20, HTTPS 13.27, SSH 8.69, IP-Encap "
     "6.55, SQL 3.11, SMTP 2.75 (% of victim VIPs). RDP VIPs take almost "
     "all their attacks as brute-force (33.88); web VIPs take SYN floods, "
     "port scans, and TDS.",
     table3},
    {"fig7", "Figure 7", "Aggregate attack throughput by type",
     "Paper: overall inbound median 595 Kpps / peak 9.4 Mpps; outbound "
     "median 662 Kpps / peak 2.25 Mpps. Inbound UDP peaks at 9.2 Mpps, SYN "
     "at 1.7 Mpps; volume-attack inbound peaks are 13-238x outbound. Note "
     "the scaled-down trace: shapes and ratios transfer, absolute "
     "aggregates scale with VIP count x days (EXPERIMENTS.md).",
     fig7},
    {"fig8", "Figure 8", "Per-VIP peak attack throughput by type",
     "Paper: single VIPs absorb up to 8.7 Mpps (UDP) and 1.7 Mpps (SYN); "
     "port-scan peak/median spread reaches ~1000x, inbound brute-force "
     "361x, outbound brute-force 75x — over-provisioning per VIP is "
     "wasteful, multiplexing wins.",
     fig8},
    {"fig9", "Figure 9", "Attack duration by type",
     "Paper: median durations within 10 minutes everywhere; port scans "
     "finish within a minute (p99 ~100 min); SYN floods p99 85 min; DNS "
     "reflection lasts longest (days at p99). Fast detection is mandatory.",
     fig9},
    {"fig10", "Figure 10", "Attack inter-arrival time by type",
     "Paper: most types repeat every few hundred minutes; outbound SYN/UDP "
     "repeat every ~25 min vs ~100 inbound. Ramp-up medians: 2-3 min "
     "inbound, 1 min outbound. UDP floods split 81%/19% into small-rare "
     "(8 Kpps @226 min) and large-frequent (457 Kpps @95 min).",
     fig10},
    {"fig11", "Figure 11", "AS classes behind inbound attacks",
     "Paper: small ISPs 25.4% and customer networks 15.9% of inbound "
     "attacks; per-AS averages highest for big clouds and IXPs; one AS in "
     "Spain is involved in >35% of attacks.",
     fig11},
    {"fig12", "Figure 12", "Inbound attacks from big clouds and mobile networks",
     "Paper: big clouds contribute mostly UDP floods, SQL injection and "
     "TDS (35% of TDS attacks with 0.21% of TDS IPs); mobile networks "
     "contribute UDP floods, DNS reflection, and brute-force (2.1% of "
     "inbound attack traffic).",
     fig12},
    {"fig13", "Figure 13", "AS classes behind inbound DNS and spam",
     "Paper: DNS reflection arrives roughly evenly from all AS classes "
     "(IXPs stand out per AS, each attack touches a median of 17 "
     "resolvers); spam comes from big clouds (81% of packets from one "
     "Singapore cloud AS), small ISPs, and customer networks; NICs almost "
     "never appear.",
     fig13},
    {"fig14", "Figure 14", "Attack geolocation distribution",
     "Paper: inbound sources concentrate in Europe, Eastern Asia and North "
     "America, with one Spanish AS above 35%; outbound targets concentrate "
     "in Europe and North America, with fewer targets in Eastern Asia and "
     "the same Spanish AS again above 35%.",
     fig14},
    {"fig15", "Figure 15", "AS classes targeted by outbound attacks",
     "Paper: 42% of outbound attacks hit big clouds (mostly SQL and TDS); "
     "small ISPs 25%, customer networks 13%; only 1.4% of brute-force hits "
     "mobile networks (NAT); 40% of outbound packets went to one Romanian "
     "hosting AS, 23.6% of outbound DNS reflection to one French ISP.",
     fig15},
    {"fig16", "Figure 16", "Internet applications under outbound attack",
     "Paper: HTTP+HTTPS account for 64.5% of attack VIPs (69% of outbound "
     "UDP floods target port 80); SQL, SMTP and SSH follow.",
     fig16},
    {"spoofing", "Spoofing (§6.1)",
     "Anderson-Darling uniformity test over attack sources",
     "Paper: 67.1% of inbound TCP SYN floods carry spoofed (uniformly "
     "distributed) sources — unlike the 2006 Internet study, where most "
     "floods were unspoofed.",
     spoofing},
    {"mitigation", "Mitigation (§7)",
     "Replaying detected attacks against existing security "
     "practices",
     "§7: SYN cookies, rate limits, blacklists, outbound caps, SMTP "
     "limits, and aggressive VM shutdown; §5.2: ~5-minute detection is not "
     "fast enough to beat 1-3 minute ramp-ups; §6.1: blacklists cannot "
     "touch the 67% of SYN floods that spoof their sources.",
     mitigation},
    {"ablation_provisioning", "Ablation: defense provisioning (§5.1)",
     "SLB cores required under three provisioning strategies",
     "Paper: a 9.2 Mpps UDP flood costs ~31 SLB cores; peak/median spreads "
     "of 20x-1000x make static per-VIP provisioning wasteful — elastic, "
     "multiplexed resources are the cost-effective design.",
     ablation_provisioning},
    {"seasonality", "Seasonality (§3.1)",
     "Inbound flood volume: ordinary month vs holiday season",
     "§3.1: \"a significant increase of inbound flood attacks during Nov "
     "and Dec compared to May, possibly to disrupt the e-commerce sites "
     "hosted in the cloud during the busy holiday shopping season\".",
     seasonality},
    {"ablation_thresholds", "Ablation: detection thresholds",
     "Volume change threshold and EWMA window sweep",
     "The paper's 100 pkts/min (~7 Kpps) sits where recall flattens and "
     "false alarms stay near zero — the 'conservative' operating point "
     "§2.2 describes.",
     ablation_thresholds},
    {"ablation_timeouts", "Ablation: inactive timeouts",
     "Per-type Table 1 timeouts vs fixed global timeouts",
     "§2.2/Fig 1: a single T cannot serve SYN floods (gaps < 1 min) and "
     "ICMP/TDS activity (gaps of hours) simultaneously. 'episodes matched' "
     "counts the ground-truth episodes some incident overlaps: incidents "
     "below it mean fused attacks, incidents above it split attacks or "
     "extra incidents.",
     ablation_timeouts},
    {"ablation_sampling", "Ablation: sampling rate",
     "Detection and spread estimation vs packet sampling",
     "Loud floods survive coarser sampling almost unchanged; spread-based "
     "features (distinct brute-force sources seen) shrink with the "
     "sampling rate — the paper's 'numbers of flows are a lower bound' "
     "caveat (§3.2).",
     ablation_sampling},
};

int usage() {
  std::fputs("usage: dmreport [exhibit...]\n"
             "Runs the named exhibits, or all of them in this order:\n ",
             stderr);
  for (const Exhibit& e : kExhibits) std::fprintf(stderr, " %s", e.id);
  std::fputs("\nScale: DM_DAYS, DM_VIPS, DM_SEED, DM_THREADS "
             "(non-negative decimal numbers).\n",
             stderr);
  return 2;
}

/// ScenarioConfig::paper_scale() with the DM_* overrides, or nullopt when
/// one of them is set to anything but a non-negative decimal that fits.
std::optional<sim::ScenarioConfig> scale_from_env() {
  sim::ScenarioConfig config = sim::ScenarioConfig::paper_scale();
  bool ok = true;
  const auto read = [&ok](const char* name, auto& field) {
    const char* text = std::getenv(name);
    if (text == nullptr) return;
    using Field = std::remove_reference_t<decltype(field)>;
    const auto value = util::parse_unsigned<Field>(text);
    if (value) {
      field = *value;
    } else {
      std::fprintf(stderr, "dmreport: bad %s value '%s'\n", name, text);
      ok = false;
    }
  };
  read("DM_DAYS", config.days);
  read("DM_VIPS", config.vips.vip_count);
  read("DM_SEED", config.seed);
  read("DM_THREADS", config.thread_count);
  if (!ok) return std::nullopt;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Exhibit*> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string_view id = argv[i];
    const auto it = std::find_if(std::begin(kExhibits), std::end(kExhibits),
                                 [id](const Exhibit& e) { return e.id == id; });
    if (it == std::end(kExhibits)) {
      std::fprintf(stderr, "dmreport: unknown exhibit '%s'\n", argv[i]);
      return usage();
    }
    selected.push_back(&*it);
  }
  if (selected.empty()) {
    for (const Exhibit& e : kExhibits) selected.push_back(&e);
  }
  const std::optional<sim::ScenarioConfig> scale = scale_from_env();
  if (!scale) return usage();

  std::size_t study_readers = static_cast<std::size_t>(
      std::count_if(selected.begin(), selected.end(), [](const Exhibit* e) {
        return std::holds_alternative<StudyRun>(e->run);
      }));
  std::optional<core::Study> study;
  std::optional<core::StudyReport> report;
  int status = 0;
  for (const Exhibit* e : selected) {
    std::printf("=== %s ===\n%s\n\n", e->title, e->caption);
    bool drawn = false;
    if (const StudyRun* run = std::get_if<StudyRun>(&e->run)) {
      if (!study) {
        study.emplace(*scale);
        report = core::build_report(*study);
      }
      drawn = (*run)(*study, *report);
      // Free the shared study before the exhibits that build their own.
      if (--study_readers == 0) {
        report.reset();
        study.reset();
      }
    } else {
      drawn = std::get<ScaleRun>(e->run)(*scale);
    }
    if (drawn) {
      std::printf("\n[paper] %s\n", e->note);
    } else {
      status = 1;
    }
  }
  return status;
}
