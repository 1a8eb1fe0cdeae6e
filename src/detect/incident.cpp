#include "detect/incident.h"

#include <algorithm>
#include <tuple>

namespace dm::detect {

using netflow::Direction;
using sim::AttackType;

TimeoutTable TimeoutTable::paper() {
  TimeoutTable t{};
  for (AttackType type : sim::kAllAttackTypes) {
    t.timeout[sim::index_of(type)] = sim::inactive_timeout(type);
  }
  return t;
}

namespace {

auto detection_key(const MinuteDetection& d) {
  return std::make_tuple(d.vip.value(), static_cast<int>(d.direction),
                         static_cast<int>(d.type), d.minute);
}

}  // namespace

bool splits_incident(const MinuteDetection& last, util::Minute next,
                     const TimeoutTable& timeouts) noexcept {
  // Gap counts the silent minutes strictly between the two detections.
  return next - last.minute - 1 > timeouts.of(last.type);
}

AttackIncident finalize_incident(std::span<const MinuteDetection> minutes) {
  AttackIncident inc;
  const MinuteDetection& head = minutes.front();
  inc.vip = head.vip;
  inc.direction = head.direction;
  inc.type = head.type;
  inc.start = head.minute;
  inc.end = minutes.back().minute + 1;
  inc.active_minutes = static_cast<std::uint32_t>(minutes.size());
  for (const MinuteDetection& d : minutes) {
    inc.total_sampled_packets += d.sampled_packets;
    inc.peak_sampled_ppm = std::max(inc.peak_sampled_ppm, d.sampled_packets);
    inc.peak_unique_remotes = std::max(inc.peak_unique_remotes, d.unique_remotes);
  }
  const auto ninety = static_cast<std::uint64_t>(
      0.9 * static_cast<double>(inc.peak_sampled_ppm));
  for (const MinuteDetection& d : minutes) {
    if (d.sampled_packets >= ninety) {
      inc.ramp_up_minutes = d.minute - inc.start;
      break;
    }
  }
  return inc;
}

std::vector<AttackIncident> build_incidents(std::vector<MinuteDetection> detections,
                                            const TimeoutTable& timeouts) {
  std::sort(detections.begin(), detections.end(),
            [](const MinuteDetection& a, const MinuteDetection& b) {
              return detection_key(a) < detection_key(b);
            });

  std::vector<AttackIncident> incidents;
  std::size_t group_start = 0;
  for (std::size_t i = 0; i < detections.size(); ++i) {
    const bool last = i + 1 == detections.size();
    bool split = last;
    if (!last) {
      const MinuteDetection& cur = detections[i];
      const MinuteDetection& next = detections[i + 1];
      const bool same_series = cur.vip == next.vip &&
                               cur.direction == next.direction &&
                               cur.type == next.type;
      split = !same_series || splits_incident(cur, next.minute, timeouts);
    }
    if (split) {
      incidents.push_back(finalize_incident(
          std::span<const MinuteDetection>(detections).subspan(
              group_start, i + 1 - group_start)));
      group_start = i + 1;
    }
  }
  return incidents;
}

std::vector<double> inactive_gaps(std::span<const MinuteDetection> detections,
                                  AttackType type, Direction direction) {
  std::vector<MinuteDetection> filtered;
  for (const MinuteDetection& d : detections) {
    if (d.type == type && d.direction == direction) filtered.push_back(d);
  }
  std::sort(filtered.begin(), filtered.end(),
            [](const MinuteDetection& a, const MinuteDetection& b) {
              return detection_key(a) < detection_key(b);
            });
  std::vector<double> gaps;
  for (std::size_t i = 1; i < filtered.size(); ++i) {
    const MinuteDetection& prev = filtered[i - 1];
    const MinuteDetection& cur = filtered[i];
    if (prev.vip == cur.vip && prev.direction == cur.direction &&
        cur.minute > prev.minute + 1) {
      gaps.push_back(static_cast<double>(cur.minute - prev.minute - 1));
    }
  }
  return gaps;
}

}  // namespace dm::detect
