#include "cloud/as_registry.h"

#include <algorithm>
#include <iterator>

#include "util/error.h"

namespace dm::cloud {

using netflow::IPv4;
using netflow::Prefix;

std::string_view to_string(AsClass c) noexcept {
  switch (c) {
    case AsClass::kBigCloud: return "BigCloud";
    case AsClass::kSmallCloud: return "SmallCloud";
    case AsClass::kMobile: return "Mobile";
    case AsClass::kLargeIsp: return "LargeISP";
    case AsClass::kSmallIsp: return "SmallISP";
    case AsClass::kCustomer: return "Customer";
    case AsClass::kEdu: return "EDU";
    case AsClass::kIxp: return "IXP";
    case AsClass::kNic: return "NIC";
  }
  return "?";
}

std::string_view to_string(GeoRegion r) noexcept {
  switch (r) {
    case GeoRegion::kNorthAmericaWest: return "NA-West";
    case GeoRegion::kNorthAmericaEast: return "NA-East";
    case GeoRegion::kWesternEurope: return "W-Europe";
    case GeoRegion::kSpain: return "Spain";
    case GeoRegion::kFrance: return "France";
    case GeoRegion::kEasternEurope: return "E-Europe";
    case GeoRegion::kRomania: return "Romania";
    case GeoRegion::kEastAsia: return "E-Asia";
    case GeoRegion::kSoutheastAsia: return "SE-Asia";
    case GeoRegion::kOceania: return "Oceania";
    case GeoRegion::kLatinAmerica: return "LatAm";
    case GeoRegion::kAfrica: return "Africa";
  }
  return "?";
}

namespace {

/// Prefix length allocated to each AS class (address-block size).
int prefix_length_for(AsClass c) noexcept {
  switch (c) {
    case AsClass::kBigCloud: return 12;
    case AsClass::kLargeIsp: return 13;
    case AsClass::kMobile: return 14;
    case AsClass::kSmallIsp: return 17;
    case AsClass::kSmallCloud: return 18;
    case AsClass::kCustomer: return 19;
    case AsClass::kEdu: return 17;
    case AsClass::kIxp: return 22;
    case AsClass::kNic: return 22;
  }
  return 20;
}

/// Plausible geography mix per class; indexed by kAllGeoRegions order.
std::span<const double> region_weights_for(AsClass c) noexcept {
  // {NA-W, NA-E, W-Eu, Spain, France, E-Eu, Romania, E-Asia, SE-Asia, Oce, LatAm, Africa}
  static constexpr double kCloud[] = {3, 3, 2, 0.3, 0.5, 0.4, 0.3, 1.5, 1, 0.5, 0.3, 0.1};
  static constexpr double kMobile[] = {2, 2, 2, 0.5, 0.7, 1, 0.3, 3, 2, 0.5, 1, 0.8};
  static constexpr double kIsp[] = {2, 2.5, 2, 0.8, 0.8, 1.5, 0.6, 2.5, 1.5, 0.5, 1, 0.7};
  static constexpr double kEdu[] = {2.5, 3, 2, 0.4, 0.5, 0.8, 0.2, 2, 0.8, 0.5, 0.5, 0.3};
  switch (c) {
    case AsClass::kBigCloud:
    case AsClass::kSmallCloud: return kCloud;
    case AsClass::kMobile: return kMobile;
    case AsClass::kEdu: return kEdu;
    default: return kIsp;
  }
}

}  // namespace

AsRegistry::AsRegistry(const AsRegistryConfig& config, std::uint64_t seed)
    : class_members_(std::size(kAllAsClasses)) {
  util::Rng rng(seed ^ 0xa5a5'5a5a'1234'5678ULL);

  // Sequential carving from 4.0.0.0; 100.64.0.0/12 is reserved for the cloud
  // (VipRegistry) and skipped here.
  std::uint64_t cursor = IPv4::from_octets(4, 0, 0, 0).value();
  const Prefix cloud_reserved(IPv4::from_octets(100, 64, 0, 0), 12);

  const std::pair<AsClass, std::uint32_t> plan[] = {
      {AsClass::kBigCloud, config.big_cloud},
      {AsClass::kLargeIsp, config.large_isp},
      {AsClass::kMobile, config.mobile},
      {AsClass::kSmallCloud, config.small_cloud},
      {AsClass::kSmallIsp, config.small_isp},
      {AsClass::kCustomer, config.customer},
      {AsClass::kEdu, config.edu},
      {AsClass::kIxp, config.ixp},
      {AsClass::kNic, config.nic},
  };

  std::uint32_t next_asn = 100;
  for (const auto& [cls, count] : plan) {
    const int bits = prefix_length_for(cls);
    const std::uint64_t block = std::uint64_t{1} << (32 - bits);
    for (std::uint32_t i = 0; i < count; ++i) {
      // Align the cursor to the block size, skipping the cloud reservation.
      cursor = (cursor + block - 1) & ~(block - 1);
      Prefix prefix(IPv4(static_cast<std::uint32_t>(cursor)), bits);
      while (cloud_reserved.contains(prefix.network()) ||
             prefix.contains(cloud_reserved.network())) {
        cursor += block;
        prefix = Prefix(IPv4(static_cast<std::uint32_t>(cursor)), bits);
      }
      if (cursor + block > 0xE0000000ULL) {
        throw ConfigError("AsRegistry: address space exhausted; reduce AS counts");
      }
      cursor += block;

      AsInfo as;
      as.asn = next_asn++;
      as.cls = cls;
      as.prefix = prefix;
      as.region = kAllGeoRegions[rng.weighted_index(region_weights_for(cls))];
      as.name = std::string(to_string(cls)) + "-AS" + std::to_string(as.asn);
      class_members_[static_cast<std::size_t>(cls)].push_back(
          static_cast<std::uint32_t>(ases_.size()));
      ases_.push_back(std::move(as));
    }
  }

  // Pin the special ASes the paper's anecdotes require.
  auto pick_of_class = [&](AsClass c, std::size_t ordinal) -> std::size_t {
    const auto& members = class_members_[static_cast<std::size_t>(c)];
    if (members.empty()) throw ConfigError("AsRegistry: class has no members");
    return members[ordinal % members.size()];
  };
  spain_idx_ = pick_of_class(AsClass::kSmallIsp, 7);
  ases_[spain_idx_].region = GeoRegion::kSpain;
  ases_[spain_idx_].attack_hub = true;
  ases_[spain_idx_].name += "-SpainHub";

  spam_idx_ = pick_of_class(AsClass::kBigCloud, 2);
  ases_[spam_idx_].region = GeoRegion::kSoutheastAsia;
  ases_[spam_idx_].spam_hub = true;
  ases_[spam_idx_].name += "-SingaporeSpam";

  france_idx_ = pick_of_class(AsClass::kLargeIsp, 3);
  ases_[france_idx_].region = GeoRegion::kFrance;
  ases_[france_idx_].dns_target_hub = true;
  ases_[france_idx_].name += "-FranceDns";

  romania_idx_ = pick_of_class(AsClass::kSmallCloud, 5);
  ases_[romania_idx_].region = GeoRegion::kRomania;
  ases_[romania_idx_].victim_hub = true;
  ases_[romania_idx_].name += "-RomaniaHosting";

  // Build the lookup index.
  for (std::uint32_t i = 0; i < ases_.size(); ++i) {
    net_to_as_.emplace_back(ases_[i].prefix.network().value(), i);
  }
  std::sort(net_to_as_.begin(), net_to_as_.end());
}

std::vector<const AsInfo*> AsRegistry::by_class(AsClass c) const {
  std::vector<const AsInfo*> out;
  for (std::uint32_t idx : class_members_[static_cast<std::size_t>(c)]) {
    out.push_back(&ases_[idx]);
  }
  return out;
}

const AsInfo* AsRegistry::lookup(IPv4 ip) const noexcept {
  // The blocks are disjoint, so the only candidate is the last one starting
  // at or below ip.
  const auto it = std::upper_bound(
      net_to_as_.begin(), net_to_as_.end(), ip.value(),
      [](std::uint32_t value, const auto& entry) { return value < entry.first; });
  if (it == net_to_as_.begin()) return nullptr;
  const AsInfo& as = ases_[std::prev(it)->second];
  return as.prefix.contains(ip) ? &as : nullptr;
}

IPv4 AsRegistry::host_in(const AsInfo& as, util::Rng& rng) const noexcept {
  // Skip the network/broadcast edges for realism.
  const std::uint64_t size = as.prefix.size();
  const std::uint64_t offset = size <= 2 ? 0 : 1 + rng.below(size - 2);
  return as.prefix.at(offset);
}

IPv4 AsRegistry::host_in_class(AsClass c, util::Rng& rng,
                               const AsInfo** chosen) const {
  const auto& members = class_members_[static_cast<std::size_t>(c)];
  if (members.empty()) throw ConfigError("AsRegistry: empty AS class");
  const AsInfo& as = ases_[members[rng.below(members.size())]];
  if (chosen != nullptr) *chosen = &as;
  return host_in(as, rng);
}

IPv4 AsRegistry::spoofed_address(util::Rng& rng) noexcept {
  return IPv4(static_cast<std::uint32_t>(rng()));
}

}  // namespace dm::cloud
