#include "core/report.h"

#include <gtest/gtest.h>

namespace dm::core {
namespace {

sim::ScenarioConfig config(unsigned threads) {
  auto config = sim::ScenarioConfig::smoke();
  config.vips.vip_count = 150;
  config.days = 2;
  config.seed = 515;
  config.thread_count = threads;
  return config;
}

const Study& study() {
  static const Study instance{config(4)};
  return instance;
}

TEST(StudyReportTest, BuildsEveryExhibit) {
  const StudyReport report = build_report(study());
  EXPECT_GT(report.mix.total(), 0u);
  EXPECT_FALSE(report.inbound_frequency.pairs.empty());
  EXPECT_FALSE(report.outbound_frequency.pairs.empty());
  EXPECT_GT(report.inbound_as.incidents_total, 0u);
  EXPECT_GT(report.outbound_as.incidents_total, 0u);
  EXPECT_GT(report.services.victim_vips, 0u);
  EXPECT_GT(report.outbound_apps.attacking_vips, 0u);
  EXPECT_GT(report.inbound_throughput.overall.samples, 0u);
  EXPECT_FALSE(report.spoofing.verdicts.empty());
}

TEST(StudyReportTest, MixMatchesDirectLibraryCall) {
  const StudyReport report = build_report(study());
  const auto direct =
      analysis::compute_attack_mix(study().detection().incidents);
  EXPECT_EQ(report.mix.inbound_total, direct.inbound_total);
  EXPECT_EQ(report.mix.outbound_total, direct.outbound_total);
}

TEST(StudyReportTest, RenderCoversAllSections) {
  const StudyReport report = build_report(study());
  const std::string text = render_report(report, study());
  for (const char* section :
       {"attack mix", "per-VIP frequency", "correlated attacks", "throughput",
        "timing", "origins and targets", "services under attack"}) {
    EXPECT_NE(text.find(section), std::string::npos) << section;
  }
  // The header carries the study parameters.
  EXPECT_NE(text.find("sampling: 1:4096"), std::string::npos);
  EXPECT_NE(text.find("incidents:"), std::string::npos);
}

TEST(StudyReportTest, RenderIsDeterministic) {
  // The same scenario built serially and on four threads renders the same
  // report, byte for byte.
  const Study serial(config(1));
  EXPECT_EQ(render_report(build_report(serial), serial),
            render_report(build_report(study()), study()));
}

}  // namespace
}  // namespace dm::core
