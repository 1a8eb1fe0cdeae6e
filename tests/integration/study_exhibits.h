// Shared study-equivalence helpers for the integration suites: full-field
// exhibit serialization (every record-consuming analysis, full precision)
// and tuple-wise window/incident comparison. Two studies are "the same"
// exactly when expect_same_study passes — this is the bar both the
// columnar-equivalence and spill-equivalence suites hold the pipeline to.
// A Study is held to the two-stage oracle (generate_trace →
// aggregate_windows → DetectionPipeline::run) by expect_matches_oracle.
#pragma once

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>
#include <tuple>

#include "analysis/attribution.h"
#include "analysis/service_mix.h"
#include "analysis/signature.h"
#include "analysis/spoof_analysis.h"
#include "core/study.h"
#include "detect/pipeline.h"
#include "netflow/window_aggregator.h"
#include "sim/trace_generator.h"

namespace dm::test_support {

// ---- Exhibit serialization: every field, full precision. Two studies
// agree on an exhibit iff they produce the same string.

inline std::ostringstream exhibit_stream() {
  std::ostringstream os;
  os << std::setprecision(17);
  return os;
}

inline std::string dump_incident_remotes(const core::Study& study) {
  auto os = exhibit_stream();
  const auto& incidents = study.detection().incidents;
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    os << "incident " << i << ":";
    for (const auto& rc : analysis::incident_remotes(
             study.trace(), incidents[i], &study.blacklist())) {
      os << " " << rc.remote.value() << "=" << rc.packets;
    }
    os << "\n";
  }
  return os.str();
}

inline std::string dump_service_tables(const core::Study& study) {
  auto os = exhibit_stream();
  const auto table = analysis::compute_service_attack_table(
      study.trace(), study.detection().minutes, study.detection().incidents);
  os << "victims=" << table.victim_vips << "\n";
  for (std::size_t s = 0; s < analysis::kReportedServiceCount; ++s) {
    os << "svc" << s << " share=" << table.hosting_share[s] << " cells=";
    for (const double c : table.cell[s]) os << c << ",";
    os << "\n";
  }
  const auto targets = analysis::compute_outbound_app_targets(
      study.trace(), study.detection().incidents);
  os << "attacking=" << targets.attacking_vips << " web=" << targets.web_share
     << " per_svc=";
  for (const auto v : targets.vips_per_service) os << v << ",";
  os << "\n";
  return os.str();
}

inline std::string dump_signatures(const core::Study& study) {
  auto os = exhibit_stream();
  for (const netflow::IPv4 vip : study.trace().vips()) {
    os << "vip " << vip.value() << ":\n";
    for (const auto& rule : analysis::extract_signatures(
             study.trace(), study.detection().incidents, vip, {},
             &study.blacklist())) {
      os << "  " << analysis::to_string(rule) << " incidents="
         << rule.incidents << " share=" << rule.packet_share << "\n";
    }
  }
  return os.str();
}

inline std::string dump_spoofing(const core::Study& study) {
  auto os = exhibit_stream();
  const auto result = analysis::analyze_spoofing(
      study.trace(), study.detection().incidents, &study.blacklist());
  for (const auto& v : result.verdicts) {
    os << v.incident_index << " spoofed=" << v.spoofed << " n=" << v.test.n
       << " A2=" << v.test.statistic << " p=" << v.test.p_value << "\n";
  }
  for (std::size_t t = 0; t < sim::kAttackTypeCount; ++t) {
    os << "type" << t << " frac=" << result.spoofed_fraction[t]
       << " tested=" << result.tested[t] << "\n";
  }
  return os.str();
}

struct Exhibits {
  std::string remotes;
  std::string services;
  std::string signatures;
  std::string spoofing;
};

inline Exhibits exhibits_of(const core::Study& study) {
  return {dump_incident_remotes(study), dump_service_tables(study),
          dump_signatures(study), dump_spoofing(study)};
}

inline auto window_tuple(const netflow::VipMinuteStats& w) {
  return std::make_tuple(
      w.vip.value(), w.minute, w.direction, w.packets, w.bytes, w.tcp_packets,
      w.udp_packets, w.icmp_packets, w.ipencap_packets, w.syn_packets,
      w.null_scan_packets, w.xmas_scan_packets, w.bare_rst_packets,
      w.dns_response_packets, w.flows, w.unique_remote_ips, w.smtp_flows,
      w.unique_smtp_remotes, w.remote_admin_flows, w.unique_admin_remotes,
      w.sql_flows, w.smtp_packets, w.admin_packets, w.sql_packets,
      w.blacklist_flows, w.unique_blacklist_remotes, w.blacklist_packets,
      w.first_record, w.last_record);
}

inline auto incident_tuple(const detect::AttackIncident& a) {
  return std::make_tuple(a.vip.value(), a.direction, a.type, a.start, a.end,
                         a.active_minutes, a.total_sampled_packets,
                         a.peak_sampled_ppm, a.peak_unique_remotes,
                         a.ramp_up_minutes);
}

inline void expect_same_study(const core::Study& base,
                              const Exhibits& base_exhibits,
                              const core::Study& other) {
  ASSERT_EQ(base.record_count(), other.record_count());

  const auto& bw = base.trace().windows();
  const auto& ow = other.trace().windows();
  ASSERT_EQ(bw.size(), ow.size());
  for (std::size_t i = 0; i < bw.size(); ++i) {
    ASSERT_EQ(window_tuple(bw[i]), window_tuple(ow[i])) << "window " << i;
  }

  const auto& bi = base.detection().incidents;
  const auto& oi = other.detection().incidents;
  ASSERT_EQ(bi.size(), oi.size());
  for (std::size_t i = 0; i < bi.size(); ++i) {
    ASSERT_EQ(incident_tuple(bi[i]), incident_tuple(oi[i])) << "incident " << i;
  }

  const Exhibits other_exhibits = exhibits_of(other);
  EXPECT_EQ(base_exhibits.remotes, other_exhibits.remotes);
  EXPECT_EQ(base_exhibits.services, other_exhibits.services);
  EXPECT_EQ(base_exhibits.signatures, other_exhibits.signatures);
  EXPECT_EQ(base_exhibits.spoofing, other_exhibits.spoofing);
}

/// Byte-identity of two windowed traces: every decoded record and its
/// direction, the unclassified count, every window, and the VIP list.
inline void expect_same_trace(const netflow::WindowedTrace& expected,
                              const netflow::WindowedTrace& actual) {
  const auto expected_records = expected.records();
  const auto actual_records = actual.records();
  ASSERT_EQ(expected_records.size(), actual_records.size());
  auto actual_it = actual_records.begin();
  for (auto it = expected_records.begin(); it != expected_records.end();
       ++it, ++actual_it) {
    ASSERT_EQ(*it, *actual_it) << "record " << it.index();
    ASSERT_EQ(it.direction(), actual_it.direction())
        << "direction " << it.index();
  }
  EXPECT_EQ(expected.unclassified_records(), actual.unclassified_records());

  const auto expected_windows = expected.windows();
  const auto actual_windows = actual.windows();
  ASSERT_EQ(expected_windows.size(), actual_windows.size());
  for (std::size_t i = 0; i < expected_windows.size(); ++i) {
    ASSERT_EQ(window_tuple(expected_windows[i]), window_tuple(actual_windows[i]))
        << "window " << i;
  }

  const auto expected_vips = expected.vips();
  const auto actual_vips = actual.vips();
  ASSERT_EQ(expected_vips.size(), actual_vips.size());
  for (std::size_t i = 0; i < expected_vips.size(); ++i) {
    EXPECT_EQ(expected_vips[i], actual_vips[i]) << "vip " << i;
  }
}

/// What a Study must reproduce: the two-stage pipeline generate_trace →
/// aggregate_windows (spilled when `spill` is enabled) →
/// DetectionPipeline::run over the same scenario.
struct TwoStageOracle {
  std::uint64_t record_count = 0;
  netflow::WindowedTrace trace;
  detect::DetectionResult detection;
};

inline TwoStageOracle two_stage_oracle(
    const sim::Scenario& scenario, exec::ThreadPool* pool,
    const netflow::SpillConfig* spill = nullptr) {
  sim::TraceResult generated = sim::generate_trace(scenario, pool);
  TwoStageOracle oracle;
  oracle.record_count = generated.records.size();
  oracle.trace = netflow::aggregate_windows(
      std::move(generated.records), scenario.vips().cloud_space(),
      &scenario.tds().as_prefix_set(), pool, spill);
  oracle.detection = detect::DetectionPipeline{}.run(oracle.trace, pool);
  return oracle;
}

inline auto detection_tuple(const detect::MinuteDetection& d) {
  return std::make_tuple(d.vip.value(), d.direction, d.type, d.minute,
                         d.sampled_packets, d.unique_remotes);
}

inline void expect_matches_oracle(const TwoStageOracle& oracle,
                                  const core::Study& study) {
  EXPECT_EQ(study.record_count(), oracle.record_count);
  expect_same_trace(oracle.trace, study.trace());

  const auto& om = oracle.detection.minutes;
  const auto& sm = study.detection().minutes;
  ASSERT_EQ(om.size(), sm.size());
  for (std::size_t i = 0; i < om.size(); ++i) {
    ASSERT_EQ(detection_tuple(om[i]), detection_tuple(sm[i])) << "minute " << i;
  }
  const auto& oi = oracle.detection.incidents;
  const auto& si = study.detection().incidents;
  ASSERT_EQ(oi.size(), si.size());
  for (std::size_t i = 0; i < oi.size(); ++i) {
    ASSERT_EQ(incident_tuple(oi[i]), incident_tuple(si[i])) << "incident " << i;
  }
}

}  // namespace dm::test_support
