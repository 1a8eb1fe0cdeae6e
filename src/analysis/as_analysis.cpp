#include "analysis/as_analysis.h"

#include <algorithm>
#include <numeric>
#include <tuple>

namespace dm::analysis {

using cloud::AsInfo;
using detect::AttackIncident;
using netflow::Direction;

namespace {

/// Bit i set when incident i's sources tested as spoofed.
std::vector<bool> spoofed_bits(const SpoofResult* spoof, std::size_t incidents) {
  std::vector<bool> out(incidents);
  if (spoof == nullptr) return out;
  for (const SpoofVerdict& v : spoof->verdicts) {
    if (v.spoofed) out[v.incident_index] = true;
  }
  return out;
}

double ratio(std::uint64_t n, std::uint64_t d) {
  return d == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(d);
}

/// Attributes only the incidents of `direction` that `spoof` leaves in,
/// then rolls them up.
OriginResult origins_of(const netflow::WindowedTrace& trace,
                        std::span<const AttackIncident> incidents,
                        const cloud::AsRegistry& ases, Direction direction,
                        const SpoofResult* spoof,
                        const netflow::PrefixSet* blacklist) {
  std::vector<bool> wanted = spoofed_bits(spoof, incidents.size());
  for (std::size_t i = 0; i < incidents.size(); ++i) {
    wanted[i] = incidents[i].direction == direction && !wanted[i];
  }
  return analyze_origins(
      attribute_incidents(trace, incidents, &ases, blacklist, &wanted),
      incidents, ases, direction, spoof);
}

}  // namespace

OriginResult analyze_origins(const IncidentAttribution& attribution,
                             std::span<const AttackIncident> incidents,
                             const cloud::AsRegistry& ases, Direction direction,
                             const SpoofResult* spoof) {
  OriginResult origins;
  AsAnalysisResult& out = origins.as;
  GeoResult& geo = origins.geo;
  out.direction = direction;
  geo.direction = direction;
  const auto spoofed = spoofed_bits(spoof, incidents.size());
  const auto all = ases.all();

  constexpr std::size_t kRegions = std::size(cloud::kAllGeoRegions);
  std::array<std::uint64_t, kAsClassCount> class_incidents{};
  std::array<std::uint64_t, kAsClassCount> class_packets{};
  std::array<std::array<std::uint64_t, kAsClassCount>, sim::kAttackTypeCount>
      type_class{};
  std::array<std::uint64_t, sim::kAttackTypeCount> type_totals{};
  std::array<std::uint64_t, kRegions> region_incidents{};
  std::array<std::uint64_t, kRegions> region_packets{};
  // Per AS, indexed like `all`: incidents involving it, and incidents whose
  // packets it carries most of.
  std::vector<std::uint64_t> per_as_incidents(all.size());
  std::vector<std::uint64_t> dominant_attribution(all.size());
  std::uint64_t no_dominant = 0;  // mapped remotes that carry no packets
  std::uint64_t total_packets = 0;
  std::uint64_t single_as = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> hits;  // (AS, packets)

  for (std::uint32_t i = 0; i < incidents.size(); ++i) {
    const AttackIncident& inc = incidents[i];
    if (inc.direction != direction) continue;
    out.incidents_total += 1;
    type_totals[sim::index_of(inc.type)] += 1;
    if (spoofed[i]) continue;  // §6.1: remove spoofed IPs first

    const auto& remotes = attribution.remotes[i];
    const auto& as_index = attribution.as_index[i];
    hits.clear();
    std::uint32_t classes = 0;  // bit per AS class
    std::uint32_t regions = 0;  // bit per region
    std::uint64_t incident_packets = 0;
    for (std::size_t k = 0; k < remotes.size(); ++k) {
      if (as_index[k] == IncidentAttribution::kUnmapped) continue;
      const AsInfo& as = all[as_index[k]];
      const std::uint64_t packets = remotes[k].packets;
      hits.emplace_back(as_index[k], packets);
      classes |= 1u << static_cast<unsigned>(as.cls);
      regions |= 1u << static_cast<unsigned>(as.region);
      class_packets[static_cast<std::size_t>(as.cls)] += packets;
      region_packets[static_cast<std::size_t>(as.region)] += packets;
      incident_packets += packets;
    }
    if (hits.empty()) continue;
    out.incidents_mapped += 1;
    total_packets += incident_packets;

    // Per-AS packet sums in ascending ASN order, so the lowest ASN wins a
    // tie for the dominant AS.
    std::sort(hits.begin(), hits.end(), [&all](const auto& a, const auto& b) {
      return std::tie(all[a.first].asn, a.second) <
             std::tie(all[b.first].asn, b.second);
    });
    std::uint64_t dominant = 0;
    std::uint32_t dominant_as = 0;
    for (std::size_t k = 0; k < hits.size();) {
      const std::uint32_t as = hits[k].first;
      std::uint64_t packets = 0;
      for (; k < hits.size() && hits[k].first == as; ++k) {
        packets += hits[k].second;
      }
      per_as_incidents[as] += 1;
      if (packets > dominant) {
        dominant = packets;
        dominant_as = as;
      }
    }
    if (incident_packets > 0 &&
        static_cast<double>(dominant) >=
            0.9 * static_cast<double>(incident_packets)) {
      ++single_as;
    }
    if (dominant > 0) {
      dominant_attribution[dominant_as] += 1;
    } else {
      ++no_dominant;
    }
    for (std::size_t c = 0; c < kAsClassCount; ++c) {
      if (((classes >> c) & 1u) == 0) continue;
      class_incidents[c] += 1;
      type_class[sim::index_of(inc.type)][c] += 1;
    }
    for (std::size_t r = 0; r < kRegions; ++r) {
      region_incidents[r] += (regions >> r) & 1u;
    }
  }

  std::array<std::uint64_t, kAsClassCount> class_sizes{};
  for (const AsInfo& as : all) {
    class_sizes[static_cast<std::size_t>(as.cls)] += 1;
  }
  const std::uint64_t denom = std::max<std::uint64_t>(out.incidents_total, 1);
  for (std::size_t c = 0; c < kAsClassCount; ++c) {
    out.class_share[c] = ratio(class_incidents[c], denom);
    if (class_sizes[c] > 0) {
      out.per_as_share[c] =
          out.class_share[c] / static_cast<double>(class_sizes[c]);
    }
    out.packet_share[c] = ratio(class_packets[c], total_packets);
  }
  for (std::size_t t = 0; t < sim::kAttackTypeCount; ++t) {
    for (std::size_t c = 0; c < kAsClassCount; ++c) {
      out.type_class_share[t][c] = ratio(type_class[t][c], type_totals[t]);
    }
  }
  geo.incidents_mapped = out.incidents_mapped;
  for (std::size_t r = 0; r < kRegions; ++r) {
    geo.region_share[r] = ratio(region_incidents[r], denom);
    geo.packet_share[r] = ratio(region_packets[r], total_packets);
  }
  if (out.incidents_mapped == 0) return origins;

  out.single_as_fraction = ratio(single_as, out.incidents_mapped);
  // Concentration: the most involved AS, the highest ASN winning a tie.
  using Involvement = std::pair<std::uint64_t, std::uint32_t>;  // (n, ASN)
  Involvement top{0, 0};
  for (std::size_t a = 0; a < all.size(); ++a) {
    if (per_as_incidents[a] > 0) {
      top = std::max(top, Involvement{per_as_incidents[a], all[a].asn});
    }
  }
  out.top_as_share = ratio(top.first, denom);
  out.top_asn = top.second;
  // Top-N coverage uses the dominant-AS attribution (each incident is
  // assigned to exactly one AS), so the shares partition the incidents
  // like the paper's "top 10 ASes are targets of 8.9% of the attacks".
  std::vector<std::uint64_t> ranked;
  for (std::uint64_t n : dominant_attribution) {
    if (n > 0) ranked.push_back(n);
  }
  if (no_dominant > 0) ranked.push_back(no_dominant);
  std::sort(ranked.begin(), ranked.end(), std::greater<>());
  const auto top_n = [&](std::size_t n) {
    const auto end =
        ranked.begin() + static_cast<std::ptrdiff_t>(std::min(n, ranked.size()));
    return ratio(std::accumulate(ranked.begin(), end, std::uint64_t{0}), denom);
  };
  out.top10_share = top_n(10);
  out.top100_share = top_n(100);
  return origins;
}

AsAnalysisResult analyze_as(const netflow::WindowedTrace& trace,
                            std::span<const AttackIncident> incidents,
                            const cloud::AsRegistry& ases, Direction direction,
                            const SpoofResult* spoof,
                            const netflow::PrefixSet* blacklist) {
  return origins_of(trace, incidents, ases, direction, spoof, blacklist).as;
}

GeoResult analyze_geo(const netflow::WindowedTrace& trace,
                      std::span<const AttackIncident> incidents,
                      const cloud::AsRegistry& ases, Direction direction,
                      const SpoofResult* spoof,
                      const netflow::PrefixSet* blacklist) {
  return origins_of(trace, incidents, ases, direction, spoof, blacklist).geo;
}

}  // namespace dm::analysis
