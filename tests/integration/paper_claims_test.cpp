// The paper's qualitative claims, checked against a two-day paper-scale
// study (1,500 VIPs, seed 42). Each assertion names the exhibit it stands
// for; the bounds are the paper's statements, not fitted to this scale.
// Left out on purpose: "all Fig 9 medians are within 10 minutes" — outbound
// spam and TDS run longer here, a deviation EXPERIMENTS.md records.
#include <gtest/gtest.h>

#include "analysis/active_time.h"
#include "analysis/overview.h"
#include "analysis/spoof_analysis.h"
#include "analysis/timing.h"
#include "analysis/validation.h"
#include "analysis/vip_frequency.h"
#include "core/study.h"

namespace dm {
namespace {

using netflow::Direction;
using sim::AttackType;

TEST(PaperClaims, HoldOnTwoDayPaperScaleStudy) {
  sim::ScenarioConfig config = sim::ScenarioConfig::paper_scale();
  config.days = 2;
  const core::Study study(config);
  const auto& incidents = study.detection().incidents;

  const auto mix = analysis::compute_attack_mix(incidents);
  EXPECT_LT(mix.inbound_share(), 0.5)
      << "Fig 2: outbound incidents outnumber inbound ones";

  const auto timing_in = analysis::compute_timing(incidents, Direction::kInbound);
  const auto duration_in = [&timing_in](AttackType t) {
    return timing_in.duration[sim::index_of(t)];
  };
  EXPECT_GT(duration_in(AttackType::kPortScan).samples, 0u);
  EXPECT_LE(duration_in(AttackType::kPortScan).median, 1.0)
      << "Fig 9: inbound port scans finish within a minute (median)";
  EXPECT_LE(duration_in(AttackType::kSynFlood).median, 10.0)
      << "Fig 9: inbound SYN flood median duration is within 10 minutes";
  EXPECT_LE(duration_in(AttackType::kUdpFlood).median, 10.0)
      << "Fig 9: inbound UDP flood median duration is within 10 minutes";

  const auto active_in = analysis::compute_active_time(
      study.trace(), study.detection().minutes, Direction::kInbound);
  const auto active_out = analysis::compute_active_time(
      study.trace(), study.detection().minutes, Direction::kOutbound);
  EXPECT_GT(active_out.fraction_cdf.quantile(0.5),
            active_in.fraction_cdf.quantile(0.5))
      << "Fig 4: outbound VIPs spend a larger median share of their active "
         "time in attack than inbound VIPs";

  EXPECT_GT(
      analysis::compute_vip_frequency(incidents, Direction::kOutbound)
          .max_attacks_per_day,
      analysis::compute_vip_frequency(incidents, Direction::kInbound)
          .max_attacks_per_day)
      << "Fig 3: the busiest outbound (VIP, day) sees more attacks than the "
         "busiest inbound one";

  // Same alert/report draw as the Table 2 exhibit.
  analysis::ValidationConfig validation;
  util::Rng rng(config.seed ^ 0x7a11da7eULL);
  const auto alerts =
      analysis::simulate_appliance_alerts(study.truth(), validation, rng);
  const auto reports =
      analysis::simulate_incident_reports(study.truth(), validation, rng);
  const auto table2 =
      analysis::validate(incidents, alerts, reports, validation);
  EXPECT_GT(table2.outbound_other.total, 0u)
      << "Table 2: some incident reports have no network signature";
  EXPECT_EQ(table2.outbound_other.matched, 0u)
      << "Table 2: NetFlow detection matches none of the \"Others\" reports";
  EXPECT_GT(table2.inbound_coverage, 0.0) << "Table 2: inbound coverage";
  EXPECT_LT(table2.inbound_coverage, 1.0) << "Table 2: inbound coverage";
  EXPECT_GT(table2.outbound_coverage, 0.0) << "Table 2: outbound coverage";
  EXPECT_LT(table2.outbound_coverage, 1.0) << "Table 2: outbound coverage";

  const auto spoof = analysis::analyze_spoofing(study.trace(), incidents,
                                                &study.blacklist());
  for (AttackType t : sim::kAllAttackTypes) {
    const double fraction = spoof.spoofed_fraction[sim::index_of(t)];
    if (t == AttackType::kSynFlood) {
      EXPECT_GT(fraction, 0.0) << "§6.1: some inbound SYN floods are spoofed";
    } else {
      EXPECT_EQ(fraction, 0.0)
          << "§6.1: only SYN floods test as spoofed, not " << sim::to_string(t);
    }
  }
}

}  // namespace
}  // namespace dm
