// Attack incidents: grouping per-minute detections into attack units.
//
// "We group multiple attack windows as a single attack where the last attack
// interval is followed by T inactive windows" (§2.2), with the per-type T of
// Table 1. The incident is the unit every characterization in §4-§6 counts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netflow/flow_record.h"
#include "netflow/window_aggregator.h"
#include "sim/attack_type.h"
#include "util/time.h"

namespace dm::detect {

/// One detected attack on/from one VIP.
struct AttackIncident {
  netflow::IPv4 vip;
  netflow::Direction direction = netflow::Direction::kInbound;
  sim::AttackType type = sim::AttackType::kSynFlood;

  util::Minute start = 0;  ///< first detected minute
  util::Minute end = 0;    ///< last detected minute + 1
  std::uint32_t active_minutes = 0;  ///< minutes actually flagged

  std::uint64_t total_sampled_packets = 0;
  std::uint64_t peak_sampled_ppm = 0;     ///< max sampled packets in a minute
  std::uint32_t peak_unique_remotes = 0;  ///< max distinct remotes in a minute

  /// Minutes from start until the per-minute rate first reached 90% of the
  /// incident's peak (§5.2 ramp-up; meaningful for volume attacks).
  util::Minute ramp_up_minutes = 0;

  [[nodiscard]] util::Minute duration() const noexcept { return end - start; }

  /// Estimated true peak rate in packets/second (sampled ppm scaled by the
  /// sampling denominator over 60 s).
  [[nodiscard]] double estimated_peak_pps(std::uint32_t sampling) const noexcept {
    return static_cast<double>(peak_sampled_ppm) *
           static_cast<double>(sampling) / 60.0;
  }
};

/// One flagged minute, as produced by the detection pipeline.
struct MinuteDetection {
  // dmlint: checkpointed
  netflow::IPv4 vip;
  netflow::Direction direction = netflow::Direction::kInbound;
  sim::AttackType type = sim::AttackType::kSynFlood;
  util::Minute minute = 0;
  std::uint64_t sampled_packets = 0;
  std::uint32_t unique_remotes = 0;
};

/// Per-type inactive timeouts (minutes). Defaults to Table 1; the
/// TimeoutSelector can derive them from data instead.
struct TimeoutTable {
  std::array<util::Minute, sim::kAttackTypeCount> timeout;

  /// Table 1's published values.
  [[nodiscard]] static TimeoutTable paper();

  [[nodiscard]] util::Minute of(sim::AttackType t) const noexcept {
    return timeout[sim::index_of(t)];
  }
};

/// The grouping rule: a detection at minute `next` of the same (VIP,
/// direction, type) as `last` starts a new incident when the silent minutes
/// strictly between them exceed the type's inactive timeout.
[[nodiscard]] bool splits_incident(const MinuteDetection& last,
                                   util::Minute next,
                                   const TimeoutTable& timeouts) noexcept;

/// Folds one incident's member detections — non-empty, one (VIP, direction,
/// type), ascending minutes — into its AttackIncident. Ramp-up is the first
/// member at or above 90% of the incident's peak.
[[nodiscard]] AttackIncident finalize_incident(
    std::span<const MinuteDetection> minutes);

/// Groups minute detections into incidents. Input order is irrelevant; the
/// builder sorts internally by (vip, direction, type, minute).
[[nodiscard]] std::vector<AttackIncident> build_incidents(
    std::vector<MinuteDetection> detections, const TimeoutTable& timeouts);

/// The inactive-time gap samples (minutes) between consecutive detected
/// minutes of the same (VIP, direction, type) — the raw material of Fig 1
/// and of timeout selection.
[[nodiscard]] std::vector<double> inactive_gaps(
    std::span<const MinuteDetection> detections, sim::AttackType type,
    netflow::Direction direction);

}  // namespace dm::detect
