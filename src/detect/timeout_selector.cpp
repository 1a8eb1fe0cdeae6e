#include "detect/timeout_selector.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"

namespace dm::detect {

using sim::AttackType;

util::LinearFit fit_gap_tail(std::span<const double> sorted_gaps,
                             util::Minute candidate) {
  if (sorted_gaps.empty()) return {};
  const double p99 = util::quantile_sorted(sorted_gaps, 0.99);
  const auto n = static_cast<double>(sorted_gaps.size());

  // Fig 1 plots the CDF over a log-scale x axis; the linearity check runs in
  // that space (CDF fraction vs log-minutes).
  std::vector<double> xs;
  std::vector<double> ys;
  for (std::size_t i = 0; i < sorted_gaps.size(); ++i) {
    const double gap = sorted_gaps[i];
    if (gap < static_cast<double>(candidate)) continue;
    if (gap > p99) break;
    xs.push_back(std::log(std::max(gap, 1.0)));
    ys.push_back(static_cast<double>(i + 1) / n);  // empirical CDF value
  }
  if (xs.size() < 2) {
    // Nothing (or a single point) beyond the candidate: the tail is trivially
    // linear — merging at this T loses no structure.
    util::LinearFit fit;
    fit.n = xs.size();
    fit.r_squared = 1.0;
    return fit;
  }
  return util::fit_linear(xs, ys);
}

std::vector<TimeoutChoice> select_timeouts(
    std::span<const MinuteDetection> detections,
    const TimeoutSelectorConfig& config) {
  std::vector<TimeoutChoice> out;
  out.reserve(sim::kAttackTypeCount);

  for (AttackType type : sim::kAllAttackTypes) {
    auto in_gaps = inactive_gaps(detections, type, netflow::Direction::kInbound);
    auto out_gaps = inactive_gaps(detections, type, netflow::Direction::kOutbound);
    std::sort(in_gaps.begin(), in_gaps.end());
    std::sort(out_gaps.begin(), out_gaps.end());

    TimeoutChoice choice;
    choice.type = type;
    choice.inbound_gaps = in_gaps.size();
    choice.outbound_gaps = out_gaps.size();

    const bool in_ok = in_gaps.size() >= config.min_samples;
    const bool out_ok = out_gaps.size() >= config.min_samples;
    if (!in_ok && !out_ok) {
      choice.timeout = config.fallback;
      choice.fallback = true;
      out.push_back(choice);
      continue;
    }

    bool selected = false;
    for (util::Minute candidate : config.candidates) {
      double total = 0.0;
      int fits = 0;
      if (in_ok) {
        total += fit_gap_tail(in_gaps, candidate).r_squared;
        ++fits;
      }
      if (out_ok) {
        total += fit_gap_tail(out_gaps, candidate).r_squared;
        ++fits;
      }
      const double avg = fits > 0 ? total / fits : 0.0;
      if (avg >= config.r_squared_bar) {
        choice.timeout = candidate;
        choice.avg_r_squared = avg;
        selected = true;
        break;
      }
    }
    if (!selected) {
      choice.timeout = config.fallback;
      choice.fallback = true;
    }
    out.push_back(choice);
  }
  return out;
}

TimeoutTable to_table(std::span<const TimeoutChoice> choices) {
  TimeoutTable table = TimeoutTable::paper();
  for (const TimeoutChoice& c : choices) {
    if (c.timeout > 0) table.timeout[sim::index_of(c.type)] = c.timeout;
  }
  return table;
}

}  // namespace dm::detect
