// Internet AS analysis (paper §6, Fig 11-13 and Fig 15).
//
// Methodology per the paper: discard incidents whose sources test as spoofed
// (§6.1), map the remaining remote addresses to ASes, and count an incident
// toward an AS class "if any of its IP is involved in the attack". Shares
// can therefore sum to more than 100% across classes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/spoof_analysis.h"
#include "cloud/as_registry.h"
#include "detect/incident.h"

namespace dm::analysis {

inline constexpr std::size_t kAsClassCount = std::size(cloud::kAllAsClasses);

struct AsAnalysisResult {
  netflow::Direction direction = netflow::Direction::kInbound;
  std::uint64_t incidents_total = 0;   ///< incidents of this direction
  std::uint64_t incidents_mapped = 0;  ///< with >= 1 AS-mapped remote

  /// Fig 11a / 15a: share of incidents involving each class.
  std::array<double, kAsClassCount> class_share{};
  /// Fig 11b / 15b: average per-AS share within each class.
  std::array<double, kAsClassCount> per_as_share{};
  /// Fig 12 analogue: share of each *type*'s incidents involving each class.
  std::array<std::array<double, kAsClassCount>, sim::kAttackTypeCount>
      type_class_share{};
  /// Packet share per class (for the packet-weighted anecdotes).
  std::array<double, kAsClassCount> packet_share{};

  /// Concentration: share of incidents involving the single most-involved
  /// AS (the "one AS in Spain ... more than 35%" anecdote).
  double top_as_share = 0.0;
  std::uint32_t top_asn = 0;
  /// Outbound clustering (§6.2): share of incidents where a single AS
  /// carries at least 90% of the mapped attack packets (80% of attacks in
  /// the paper "target hosts in a single AS"). Packet dominance rather than
  /// strict set membership, so stray benign flows sharing the incident's
  /// traffic class don't break the attribution.
  double single_as_fraction = 0.0;
  /// Share of incidents touching the top-10 / top-100 most-targeted ASes.
  double top10_share = 0.0;
  double top100_share = 0.0;
};

/// Runs the full AS attribution for one direction. `spoof` lets the
/// analysis skip spoofed incidents; pass the result of analyze_spoofing
/// (or null to skip no one).
[[nodiscard]] AsAnalysisResult analyze_as(
    const netflow::WindowedTrace& trace,
    std::span<const detect::AttackIncident> incidents,
    const cloud::AsRegistry& ases, netflow::Direction direction,
    const SpoofResult* spoof = nullptr,
    const netflow::PrefixSet* blacklist = nullptr);

/// Geolocation rollup (Fig 14): share of incidents involving each region.
struct GeoResult {
  netflow::Direction direction = netflow::Direction::kInbound;
  std::array<double, std::size(cloud::kAllGeoRegions)> region_share{};
  std::array<double, std::size(cloud::kAllGeoRegions)> packet_share{};
  std::uint64_t incidents_mapped = 0;
};

[[nodiscard]] GeoResult analyze_geo(
    const netflow::WindowedTrace& trace,
    std::span<const detect::AttackIncident> incidents,
    const cloud::AsRegistry& ases, netflow::Direction direction,
    const SpoofResult* spoof = nullptr,
    const netflow::PrefixSet* blacklist = nullptr);

/// AS and geo rollups of one direction (Fig 11-15), computed together.
struct OriginResult {
  AsAnalysisResult as;
  GeoResult geo;
};

/// Rolls up the incidents of `direction` from their attributed remotes,
/// skipping the incidents `spoof` marks as spoofed (null: skip none).
/// `attribution` must cover every other incident of that direction and be
/// tagged against `ases`.
[[nodiscard]] OriginResult analyze_origins(
    const IncidentAttribution& attribution,
    std::span<const detect::AttackIncident> incidents,
    const cloud::AsRegistry& ases, netflow::Direction direction,
    const SpoofResult* spoof = nullptr);

}  // namespace dm::analysis
