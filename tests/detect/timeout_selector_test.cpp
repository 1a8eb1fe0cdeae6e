#include "detect/timeout_selector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/rng.h"

namespace dm::detect {
namespace {

using netflow::Direction;
using sim::AttackType;

const netflow::IPv4 kVip = netflow::IPv4::from_octets(100, 64, 0, 1);

/// Builds detections whose inactive gaps are drawn from a given sampler.
template <typename GapFn>
std::vector<MinuteDetection> detections_with_gaps(AttackType type, Direction dir,
                                                  int count, GapFn&& gap) {
  std::vector<MinuteDetection> out;
  util::Minute minute = 0;
  std::uint32_t vip_offset = 0;
  for (int i = 0; i < count; ++i) {
    // A fresh VIP every 20 samples keeps series small but plentiful.
    if (i % 20 == 0) {
      ++vip_offset;
      minute = 0;
    }
    out.push_back(MinuteDetection{netflow::IPv4(kVip.value() + vip_offset), dir,
                                  type, minute, 100, 5});
    minute += 1 + gap(i);
  }
  return out;
}

TEST(FitGapTail, EmptyGaps) {
  const auto fit = fit_gap_tail({}, 10);
  EXPECT_EQ(fit.n, 0u);
}

TEST(FitGapTail, AllGapsBelowCandidateIsPerfect) {
  const std::vector<double> gaps{1.0, 2.0, 3.0};
  const auto fit = fit_gap_tail(gaps, 100);
  EXPECT_DOUBLE_EQ(fit.r_squared, 1.0);
}

TEST(FitGapTail, LinearTailFitsWell) {
  // Gaps log-uniform in [10, 1000]: the CDF is linear against log-minutes,
  // which is the space the fit runs in (Fig 1 uses a log x axis).
  std::vector<double> gaps;
  for (int i = 0; i < 200; ++i) {
    gaps.push_back(10.0 * std::pow(100.0, i / 199.0));
  }
  const auto fit = fit_gap_tail(gaps, 10);
  EXPECT_GT(fit.r_squared, 0.98);
}

TEST(SelectTimeouts, ScarceDataFallsBack) {
  TimeoutSelectorConfig config;
  const auto choices = select_timeouts({}, config);
  ASSERT_EQ(choices.size(), sim::kAttackTypeCount);
  for (const auto& c : choices) {
    EXPECT_EQ(c.timeout, config.fallback);
    EXPECT_EQ(c.inbound_gaps, 0u);
  }
}

TEST(SelectTimeouts, ShortGapsPickSmallTimeout) {
  // Gaps overwhelmingly tiny (flood-like) with a thin heavy tail: beyond
  // T=1 the CDF tail is almost flat-linear, so the smallest candidate wins.
  util::Rng rng(1);
  auto dets = detections_with_gaps(
      AttackType::kSynFlood, Direction::kInbound, 400, [&](int) {
        return static_cast<util::Minute>(rng.chance(0.9) ? 0 : rng.below(300));
      });
  auto out_dets = detections_with_gaps(
      AttackType::kSynFlood, Direction::kOutbound, 400, [&](int) {
        return static_cast<util::Minute>(rng.chance(0.9) ? 0 : rng.below(300));
      });
  dets.insert(dets.end(), out_dets.begin(), out_dets.end());
  const auto choices = select_timeouts(dets);
  const auto& syn = choices[sim::index_of(AttackType::kSynFlood)];
  EXPECT_GT(syn.inbound_gaps, 10u);
  EXPECT_LE(syn.timeout, 10);
}

TEST(SelectTimeouts, ClusteredMidGapsNeedLargerTimeout) {
  // Gap mass clustered around ~40-80 minutes makes the CDF strongly curved
  // at small T; a larger candidate is needed before the tail looks linear.
  util::Rng rng(2);
  auto dets = detections_with_gaps(
      AttackType::kIcmpFlood, Direction::kInbound, 600, [&](int) {
        const double g = rng.chance(0.8) ? rng.uniform(40.0, 80.0)
                                         : rng.uniform(1.0, 500.0);
        return static_cast<util::Minute>(g);
      });
  auto out_dets = detections_with_gaps(
      AttackType::kIcmpFlood, Direction::kOutbound, 600, [&](int) {
        const double g = rng.chance(0.8) ? rng.uniform(40.0, 80.0)
                                         : rng.uniform(1.0, 500.0);
        return static_cast<util::Minute>(g);
      });
  dets.insert(dets.end(), out_dets.begin(), out_dets.end());
  const auto choices = select_timeouts(dets);
  const auto& icmp = choices[sim::index_of(AttackType::kIcmpFlood)];
  EXPECT_GE(icmp.timeout, 30);
}

TEST(SelectTimeouts, RespectsCandidateOrder) {
  // Whatever the data, the chosen timeout is one of the candidates (or the
  // fallback).
  util::Rng rng(3);
  auto dets = detections_with_gaps(
      AttackType::kSpam, Direction::kOutbound, 300,
      [&](int) { return static_cast<util::Minute>(rng.below(1000)); });
  TimeoutSelectorConfig config;
  const auto choices = select_timeouts(dets, config);
  for (const auto& c : choices) {
    const bool is_candidate =
        std::find(config.candidates.begin(), config.candidates.end(),
                  c.timeout) != config.candidates.end();
    EXPECT_TRUE(is_candidate || c.timeout == config.fallback);
  }
}

TEST(TimeoutSelector, FallbackFlagSeparatesFallbacksFromFits) {
  // Flood-like SYN gaps in both directions fit; every other type has no
  // gaps at all and falls back for scarcity.
  util::Rng rng(4);
  const auto gap = [&](int) {
    return static_cast<util::Minute>(rng.chance(0.9) ? 0 : rng.below(300));
  };
  auto dets = detections_with_gaps(AttackType::kSynFlood, Direction::kInbound,
                                   400, gap);
  auto out_dets = detections_with_gaps(AttackType::kSynFlood,
                                       Direction::kOutbound, 400, gap);
  dets.insert(dets.end(), out_dets.begin(), out_dets.end());
  TimeoutSelectorConfig config;
  const auto choices = select_timeouts(dets, config);
  for (const auto& c : choices) {
    SCOPED_TRACE(std::string(sim::to_string(c.type)));
    if (c.type == AttackType::kSynFlood) {
      EXPECT_FALSE(c.fallback);
      EXPECT_GE(c.avg_r_squared, config.r_squared_bar);
    } else {
      EXPECT_TRUE(c.fallback);
      EXPECT_EQ(c.timeout, config.fallback);
      EXPECT_LT(c.inbound_gaps, config.min_samples);
    }
  }

  // Plenty of gaps, but a bar no fit can clear: the other fallback path.
  config.r_squared_bar = 1.01;
  const auto strict = select_timeouts(dets, config);
  const auto& syn = strict[sim::index_of(AttackType::kSynFlood)];
  EXPECT_TRUE(syn.fallback);
  EXPECT_EQ(syn.timeout, config.fallback);
  EXPECT_GE(syn.inbound_gaps, config.min_samples);
}

TEST(ToTable, OverridesOnlyProvidedTypes) {
  std::vector<TimeoutChoice> choices;
  TimeoutChoice c;
  c.type = AttackType::kSynFlood;
  c.timeout = 42;
  choices.push_back(c);
  const auto table = to_table(choices);
  EXPECT_EQ(table.of(AttackType::kSynFlood), 42);
  // Untouched types keep Table 1 values.
  EXPECT_EQ(table.of(AttackType::kIcmpFlood), 120);
}

}  // namespace
}  // namespace dm::detect
