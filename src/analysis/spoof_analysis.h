// Spoofed-source inference (paper §6.1).
//
// "We leverage the Anderson-Darling test to determine if the IP addresses of
// an attack are uniformly distributed (i.e., an attack has spoofed IPs)."
// 67.1% of the inbound TCP SYN floods test as spoofed.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "analysis/attribution.h"
#include "detect/incident.h"
#include "util/anderson_darling.h"

namespace dm::analysis {

struct SpoofVerdict {
  std::uint32_t incident_index = 0;
  bool spoofed = false;
  util::AndersonDarlingResult test;
};

struct SpoofResult {
  std::vector<SpoofVerdict> verdicts;  ///< one per tested incident
  /// Per-type fraction of inbound incidents judged spoofed.
  std::array<double, sim::kAttackTypeCount> spoofed_fraction{};
  std::array<std::uint64_t, sim::kAttackTypeCount> tested{};
};

/// Tests every inbound incident with at least `min_sources` distinct
/// sources. The test statistic is computed over the distinct source
/// addresses scaled into [0, 1). `attribution` must cover the inbound
/// incidents.
[[nodiscard]] SpoofResult analyze_spoofing(
    const IncidentAttribution& attribution,
    std::span<const detect::AttackIncident> incidents,
    std::size_t min_sources = 8);

/// The same, attributing the inbound incidents first.
[[nodiscard]] SpoofResult analyze_spoofing(
    const netflow::WindowedTrace& trace,
    std::span<const detect::AttackIncident> incidents,
    const netflow::PrefixSet* blacklist = nullptr,
    std::size_t min_sources = 8);

/// Convenience: spoof test over a set of remote contributions.
[[nodiscard]] util::AndersonDarlingResult test_sources(
    std::span<const RemoteContribution> remotes);

}  // namespace dm::analysis
