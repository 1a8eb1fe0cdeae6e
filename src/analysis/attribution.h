// Connecting detected incidents back to the raw records that triggered them:
// which remote endpoints, with how many packets. This feeds the spoofing
// test (§6.1), the AS/geo attribution (Fig 11-15), and Table 3's service
// inference.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cloud/as_registry.h"
#include "detect/incident.h"
#include "netflow/window_aggregator.h"

namespace dm::analysis {

/// One remote endpoint's share of an incident's sampled traffic.
struct RemoteContribution {
  netflow::IPv4 remote;
  std::uint64_t packets = 0;
};

/// True when a record belongs to the traffic class of an attack type (the
/// same per-type filters the detectors use: pure SYN for SYN floods, UDP
/// minus DNS responses for UDP floods, destination-port filters for the
/// application attacks, illegal flags for scans).
[[nodiscard]] bool record_matches(sim::AttackType type,
                                  const netflow::FlowRecord& record,
                                  netflow::Direction direction,
                                  const netflow::PrefixSet* blacklist) noexcept;

/// The incident's windows: its (vip, direction) series clipped to the
/// incident's minutes [start, end).
[[nodiscard]] std::span<const netflow::VipMinuteStats> incident_windows(
    const netflow::WindowedTrace& trace, const detect::AttackIncident& incident);

/// All remote endpoints of an incident with their sampled packet counts,
/// aggregated across the incident's minutes. `blacklist` is required for
/// TDS incidents (identifies which remotes are TDS hosts).
[[nodiscard]] std::vector<RemoteContribution> incident_remotes(
    const netflow::WindowedTrace& trace, const detect::AttackIncident& incident,
    const netflow::PrefixSet* blacklist = nullptr);

/// Every incident's remotes, each tagged with the AS that owns it: the one
/// decode of the incidents' records that the spoofing test and the AS and
/// geo rollups (§6, Fig 11-15) share. Both vectors are indexed by incident.
struct IncidentAttribution {
  static constexpr std::uint32_t kUnmapped = ~std::uint32_t{0};

  /// The incident's remotes, in incident_remotes order.
  std::vector<std::vector<RemoteContribution>> remotes;
  /// Parallel to remotes[i]: the remote's index into AsRegistry::all(), or
  /// kUnmapped for a remote outside the modeled Internet.
  std::vector<std::vector<std::uint32_t>> as_index;
};

/// Attributes the incidents whose bit in `wanted` is set (every incident
/// when `wanted` is null); the others get no remotes. A null `ases` leaves
/// every remote unmapped.
[[nodiscard]] IncidentAttribution attribute_incidents(
    const netflow::WindowedTrace& trace,
    std::span<const detect::AttackIncident> incidents,
    const cloud::AsRegistry* ases, const netflow::PrefixSet* blacklist,
    const std::vector<bool>* wanted = nullptr);

}  // namespace dm::analysis
