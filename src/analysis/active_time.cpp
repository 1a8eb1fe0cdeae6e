#include "analysis/active_time.h"

#include <algorithm>

namespace dm::analysis {

using detect::MinuteDetection;
using netflow::Direction;
using netflow::VipMinuteStats;

namespace {

/// Distinct minutes across a VIP's inbound and outbound series, each sorted
/// by minute with one window per minute, merged in place.
std::uint64_t distinct_minutes(std::span<const VipMinuteStats> a,
                               std::span<const VipMinuteStats> b) {
  std::uint64_t n = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const util::Minute ma = a[i].minute;
    const util::Minute mb = b[j].minute;
    if (ma <= mb) ++i;
    if (mb <= ma) ++j;
    ++n;
  }
  return n + (a.size() - i) + (b.size() - j);
}

}  // namespace

ActiveTimeResult compute_active_time(const netflow::WindowedTrace& trace,
                                     std::span<const MinuteDetection> detections,
                                     Direction direction) {
  // Distinct (vip, minute) pairs under attack in this direction — each
  // minute counts once even under a multi-vector attack. Packed as
  // vip << 32 | minute (study minutes fit 32 bits) so one sort groups them
  // by VIP, ascending.
  std::vector<std::uint64_t> flagged;
  for (const MinuteDetection& d : detections) {
    if (d.direction != direction) continue;
    flagged.push_back(std::uint64_t{d.vip.value()} << 32 |
                      static_cast<std::uint32_t>(d.minute));
  }
  std::sort(flagged.begin(), flagged.end());
  flagged.erase(std::unique(flagged.begin(), flagged.end()), flagged.end());

  ActiveTimeResult result;
  std::uint64_t majority = 0;
  for (std::size_t f = 0; f < flagged.size();) {
    const auto vip = static_cast<std::uint32_t>(flagged[f] >> 32);
    const std::size_t first = f;
    while (f < flagged.size() && flagged[f] >> 32 == vip) ++f;

    VipActiveTime v;
    v.vip = netflow::IPv4(vip);
    v.attack_minutes = f - first;
    // Active minutes: windows in either direction (the paper's "active
    // traffic" is not direction-scoped, but attacks are). An attacked minute
    // is active by definition, even with no window in the trace.
    v.active_minutes = std::max<std::uint64_t>(
        distinct_minutes(trace.series(v.vip, Direction::kInbound),
                         trace.series(v.vip, Direction::kOutbound)),
        v.attack_minutes);
    result.fraction_cdf.add(v.attack_fraction());
    if (v.attack_fraction() > 0.5) ++majority;
    result.vips.push_back(v);
  }
  if (!result.vips.empty()) {
    result.majority_attacked_fraction =
        static_cast<double>(majority) / static_cast<double>(result.vips.size());
  }
  return result;
}

}  // namespace dm::analysis
