// The fused streaming path (sim::generate_windows) must produce a
// WindowedTrace BYTE-IDENTICAL to the unfused generate_trace →
// aggregate_windows pipeline — records, directions, windows, and the
// unclassified count — at every thread count, and a Study (which always
// runs the fused path) must match that two-stage oracle through detection.
#include <gtest/gtest.h>

#include "core/study.h"
#include "integration/study_exhibits.h"
#include "netflow/window_aggregator.h"
#include "sim/trace_generator.h"

namespace dm {
namespace {

using test_support::expect_same_trace;

sim::ScenarioConfig base_config() {
  auto config = sim::ScenarioConfig::smoke();
  config.seed = 20150;
  return config;
}

TEST(FusedPipeline, MatchesUnfusedAtEveryThreadCount) {
  const sim::Scenario scenario(base_config());

  // Unfused reference, serial.
  exec::ThreadPool serial_pool(exec::workers_for(1));
  sim::TraceResult unfused = sim::generate_trace(scenario, &serial_pool);
  const std::uint64_t generated = unfused.records.size();
  ASSERT_GT(generated, 0u);
  const netflow::WindowedTrace reference = netflow::aggregate_windows(
      std::move(unfused.records), scenario.vips().cloud_space(),
      &scenario.tds().as_prefix_set(), &serial_pool);
  ASSERT_FALSE(reference.windows().empty());

  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("thread_count=" + std::to_string(threads));
    exec::ThreadPool pool(exec::workers_for(threads));
    const sim::FusedTrace fused = sim::generate_windows(scenario, &pool);
    EXPECT_EQ(fused.generated_records, generated);
    EXPECT_FALSE(fused.truth.episodes.empty());
    expect_same_trace(reference, fused.windowed);
  }
}

TEST(FusedPipeline, StudyMatchesTwoStageOracle) {
  auto config = base_config();
  config.thread_count = 2;
  const core::Study study(config);
  ASSERT_FALSE(study.detection().incidents.empty());

  exec::ThreadPool pool(exec::workers_for(2));
  test_support::expect_matches_oracle(
      test_support::two_stage_oracle(study.scenario(), &pool), study);
}

}  // namespace
}  // namespace dm
