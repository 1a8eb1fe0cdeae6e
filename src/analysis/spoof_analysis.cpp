#include "analysis/spoof_analysis.h"

namespace dm::analysis {

using detect::AttackIncident;
using netflow::Direction;

util::AndersonDarlingResult test_sources(
    std::span<const RemoteContribution> remotes) {
  std::vector<double> unit;
  unit.reserve(remotes.size());
  for (const RemoteContribution& r : remotes) {
    unit.push_back(r.remote.as_unit_interval());
  }
  return util::anderson_darling_uniform(unit);
}

SpoofResult analyze_spoofing(const IncidentAttribution& attribution,
                             std::span<const AttackIncident> incidents,
                             std::size_t min_sources) {
  SpoofResult result;
  std::array<std::uint64_t, sim::kAttackTypeCount> spoofed_count{};

  for (std::uint32_t i = 0; i < incidents.size(); ++i) {
    const AttackIncident& inc = incidents[i];
    if (inc.direction != Direction::kInbound) continue;
    const auto& remotes = attribution.remotes[i];
    if (remotes.size() < min_sources) continue;

    SpoofVerdict v;
    v.incident_index = i;
    v.test = test_sources(remotes);
    // Spoofed sources are uniform over the address space, so the uniformity
    // hypothesis surviving at the 5% level marks the attack as spoofed.
    v.spoofed = v.test.uniform_at(0.05);

    const std::size_t t = sim::index_of(inc.type);
    result.tested[t] += 1;
    if (v.spoofed) spoofed_count[t] += 1;
    result.verdicts.push_back(v);
  }

  for (std::size_t t = 0; t < sim::kAttackTypeCount; ++t) {
    if (result.tested[t] > 0) {
      result.spoofed_fraction[t] = static_cast<double>(spoofed_count[t]) /
                                   static_cast<double>(result.tested[t]);
    }
  }
  return result;
}

SpoofResult analyze_spoofing(const netflow::WindowedTrace& trace,
                             std::span<const AttackIncident> incidents,
                             const netflow::PrefixSet* blacklist,
                             std::size_t min_sources) {
  std::vector<bool> inbound(incidents.size());
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    inbound[i] = incidents[i].direction == Direction::kInbound;
  }
  return analyze_spoofing(
      attribute_incidents(trace, incidents, nullptr, blacklist, &inbound),
      incidents, min_sources);
}

}  // namespace dm::analysis
