// Data-driven inactive-timeout selection (paper §2.2 / Fig 1).
//
// "We select the T value by generating a linear regression line between each
// point and the 99 percentile of each attack distribution curve and checking
// that the average R-squared value for regression models of inbound and
// outbound curves is above 85%."
//
// For each attack type the selector builds the inactive-gap CDFs (inbound
// and outbound), then scans candidate T values from small to large: for each
// T it fits a line over the CDF points in [T, p99] for both directions and
// returns the smallest T whose average R² clears the bar — i.e. beyond T the
// tail is close to linear and further merging would not change structure.
#pragma once

#include <span>
#include <vector>

#include "detect/incident.h"
#include "util/regression.h"

namespace dm::detect {

/// Diagnostics of one type's selection (also feeds the Fig 1/Table 1 bench).
struct TimeoutChoice {
  sim::AttackType type = sim::AttackType::kSynFlood;
  util::Minute timeout = 0;
  double avg_r_squared = 0.0;  ///< 0 for a fallback
  /// True when `timeout` is TimeoutSelectorConfig::fallback rather than a
  /// fit: too few gaps in both directions, or no candidate cleared the bar.
  bool fallback = false;
  std::size_t inbound_gaps = 0;
  std::size_t outbound_gaps = 0;
};

/// Selection parameters.
struct TimeoutSelectorConfig {
  double r_squared_bar = 0.85;
  /// Candidate timeouts, ascending (the Table 1 value set plus neighbors).
  std::vector<util::Minute> candidates{1, 5, 10, 30, 60, 120, 240};
  /// Fall back to this when no candidate clears the bar or data is scarce.
  util::Minute fallback = 60;
  /// Minimum gap samples per direction to attempt a fit.
  std::size_t min_samples = 12;
};

/// Computes per-type timeouts from detected minutes.
[[nodiscard]] std::vector<TimeoutChoice> select_timeouts(
    std::span<const MinuteDetection> detections,
    const TimeoutSelectorConfig& config = {});

/// Converts choices into the table the incident builder consumes. Types
/// absent from `choices` keep the Table 1 defaults.
[[nodiscard]] TimeoutTable to_table(std::span<const TimeoutChoice> choices);

/// One direction's fit at one candidate T (exposed for tests).
[[nodiscard]] util::LinearFit fit_gap_tail(std::span<const double> sorted_gaps,
                                           util::Minute candidate);

}  // namespace dm::detect
