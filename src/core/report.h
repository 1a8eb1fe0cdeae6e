// One-call study report: every exhibit of the paper computed and rendered
// as text. This is the "give me the whole §3-§7 characterization" entry
// point a downstream operator would run over their own trace.
#pragma once

#include <string>
#include <vector>

#include "analysis/active_time.h"
#include "analysis/as_analysis.h"
#include "analysis/overview.h"
#include "analysis/service_mix.h"
#include "analysis/spoof_analysis.h"
#include "analysis/throughput.h"
#include "analysis/timing.h"
#include "analysis/vip_frequency.h"
#include "core/study.h"
#include "detect/correlator.h"

namespace dm::core {

/// All computed exhibits for one study.
struct StudyReport {
  // §3.1 / Fig 2
  analysis::AttackMix mix;
  // §4.1 / Fig 3, 4
  analysis::VipFrequency inbound_frequency;
  analysis::VipFrequency outbound_frequency;
  analysis::ActiveTimeResult inbound_active_time;
  analysis::ActiveTimeResult outbound_active_time;
  // §4.2, §4.3 / Fig 5, 6
  std::vector<detect::MultiVectorEvent> multi_vector;
  std::vector<detect::MultiVipEvent> multi_vip;
  std::vector<detect::CompromiseChain> chains;
  // §4.4 / Table 3, Fig 16
  analysis::ServiceAttackTable services;
  analysis::OutboundAppTargets outbound_apps;
  // §5 / Fig 7-10
  analysis::AggregateThroughput inbound_throughput;
  analysis::AggregateThroughput outbound_throughput;
  analysis::PerVipThroughput inbound_vip_throughput;
  analysis::PerVipThroughput outbound_vip_throughput;
  analysis::TimingResult inbound_timing;
  analysis::TimingResult outbound_timing;
  // §6 / Fig 11-15
  analysis::SpoofResult spoofing;
  analysis::AsAnalysisResult inbound_as;
  analysis::AsAnalysisResult outbound_as;
  analysis::GeoResult inbound_geo;
  analysis::GeoResult outbound_geo;
};

/// Computes every exhibit from a windowed trace and its detections.
/// `scenario` supplies the AS registry, the TDS blacklist and the sampling
/// rate. Active time and the service table are linear sweeps of the
/// (vip, direction, minute)-sorted windows; the incidents' records are
/// decoded once, into one IncidentAttribution that the spoofing test and
/// the AS and geo rollups of both directions share. Runs on the calling
/// thread.
[[nodiscard]] StudyReport build_report(const netflow::WindowedTrace& trace,
                                       const detect::DetectionResult& detection,
                                       const sim::Scenario& scenario);

/// The same over a Study's trace, detections and scenario.
[[nodiscard]] StudyReport build_report(const Study& study);

/// Renders the report as a plain-text document (one section per exhibit).
[[nodiscard]] std::string render_report(const StudyReport& report,
                                        const Study& study);

}  // namespace dm::core
