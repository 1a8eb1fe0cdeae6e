// Synthetic Internet model: autonomous systems with classes, prefixes, and
// geographic regions.
//
// Substitutes for the paper's Quova geolocation + CAIDA AS-taxonomy data
// (§6). AS classes match Figure 11/15's x-axis; regions cover the places the
// paper's Fig 14 maps call out (including the singular "AS in Spain" that
// concentrates >35% of attack volume, the Romanian small cloud, the French
// ISP, and a Singaporean big-cloud region).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netflow/ipv4.h"
#include "util/rng.h"

namespace dm::cloud {

/// AS taxonomy classes (paper Fig 11; [27] plus the big/small-cloud and
/// mobile splits the authors add).
enum class AsClass : std::uint8_t {
  kBigCloud,    ///< Google/Microsoft/Amazon-scale platforms
  kSmallCloud,  ///< web-hosting providers
  kMobile,      ///< mobile/wireless carriers (mostly NATed)
  kLargeIsp,
  kSmallIsp,
  kCustomer,    ///< enterprise/customer networks
  kEdu,
  kIxp,
  kNic,
};

inline constexpr AsClass kAllAsClasses[] = {
    AsClass::kBigCloud, AsClass::kSmallCloud, AsClass::kMobile,
    AsClass::kLargeIsp, AsClass::kSmallIsp,   AsClass::kCustomer,
    AsClass::kEdu,      AsClass::kIxp,        AsClass::kNic,
};

[[nodiscard]] std::string_view to_string(AsClass c) noexcept;

/// Coarse geographic regions for Fig 14-style rollups.
enum class GeoRegion : std::uint8_t {
  kNorthAmericaWest,
  kNorthAmericaEast,
  kWesternEurope,
  kSpain,          ///< called out in §6.1/§6.2 (one AS with >35% of attacks)
  kFrance,         ///< target of 23.6% of outbound DNS reflection (§6.2)
  kEasternEurope,
  kRomania,        ///< small-cloud AS receiving 40% of outbound packets (§6.2)
  kEastAsia,
  kSoutheastAsia,  ///< Singapore AWS region originating 81% of spam (§6.1)
  kOceania,
  kLatinAmerica,
  kAfrica,
};

inline constexpr GeoRegion kAllGeoRegions[] = {
    GeoRegion::kNorthAmericaWest, GeoRegion::kNorthAmericaEast,
    GeoRegion::kWesternEurope,    GeoRegion::kSpain,
    GeoRegion::kFrance,           GeoRegion::kEasternEurope,
    GeoRegion::kRomania,          GeoRegion::kEastAsia,
    GeoRegion::kSoutheastAsia,    GeoRegion::kOceania,
    GeoRegion::kLatinAmerica,     GeoRegion::kAfrica,
};

[[nodiscard]] std::string_view to_string(GeoRegion r) noexcept;

/// One autonomous system in the synthetic Internet.
struct AsInfo {
  std::uint32_t asn = 0;
  AsClass cls = AsClass::kCustomer;
  GeoRegion region = GeoRegion::kNorthAmericaEast;
  netflow::Prefix prefix;  ///< the AS's address block
  std::string name;
  /// Roles the generator pins to specific ASes so the paper's concentration
  /// anecdotes reproduce (e.g. the Spain AS, the Romanian small cloud).
  bool attack_hub = false;       ///< disproportionate attack origin/target
  bool spam_hub = false;         ///< the Singapore big-cloud spam source
  bool dns_target_hub = false;   ///< the French reflection target
  bool victim_hub = false;       ///< the Romanian outbound-flood victim
};

/// Parameters for building the synthetic Internet.
struct AsRegistryConfig {
  std::uint32_t big_cloud = 3;
  std::uint32_t small_cloud = 40;
  std::uint32_t mobile = 25;
  std::uint32_t large_isp = 30;
  std::uint32_t small_isp = 300;
  std::uint32_t customer = 500;
  std::uint32_t edu = 60;
  std::uint32_t ixp = 15;
  std::uint32_t nic = 10;
};

/// The synthetic Internet: AS table plus address-space index.
///
/// Address plan: Internet ASes are carved from 4.0.0.0 upward; the cloud
/// itself owns 100.64.0.0/12 (see VipRegistry), disjoint by construction.
class AsRegistry {
 public:
  /// Deterministically builds the registry from a seed.
  AsRegistry(const AsRegistryConfig& config, std::uint64_t seed);

  [[nodiscard]] std::span<const AsInfo> all() const noexcept { return ases_; }
  [[nodiscard]] std::size_t size() const noexcept { return ases_.size(); }

  /// ASes of one class.
  [[nodiscard]] std::vector<const AsInfo*> by_class(AsClass c) const;

  /// Longest-prefix lookup of the AS owning an address; nullptr for
  /// addresses outside the synthetic Internet (e.g. spoofed or cloud).
  [[nodiscard]] const AsInfo* lookup(netflow::IPv4 ip) const noexcept;

  /// Uniform host inside an AS.
  [[nodiscard]] netflow::IPv4 host_in(const AsInfo& as, util::Rng& rng) const noexcept;

  /// Uniform host inside a uniformly drawn AS of a class. Returns the AS via
  /// `chosen` when non-null. Requires the class to be non-empty.
  [[nodiscard]] netflow::IPv4 host_in_class(AsClass c, util::Rng& rng,
                                            const AsInfo** chosen = nullptr) const;

  /// Uniformly random address over the whole IPv4 space — a spoofed source.
  /// Lands outside the synthetic Internet with high probability, which is
  /// exactly how spoofed traffic looks to AS attribution.
  [[nodiscard]] static netflow::IPv4 spoofed_address(util::Rng& rng) noexcept;

  // Pinned special ASes (always present).
  [[nodiscard]] const AsInfo& spain_hub() const noexcept { return ases_[spain_idx_]; }
  [[nodiscard]] const AsInfo& singapore_spam_cloud() const noexcept {
    return ases_[spam_idx_];
  }
  [[nodiscard]] const AsInfo& france_dns_target() const noexcept {
    return ases_[france_idx_];
  }
  [[nodiscard]] const AsInfo& romania_victim_cloud() const noexcept {
    return ases_[romania_idx_];
  }

 private:
  std::vector<AsInfo> ases_;
  std::vector<std::vector<std::uint32_t>> class_members_;  // index by AsClass
  // (network, AS index), sorted by network. AS blocks are carved from one
  // ascending cursor, so they are disjoint.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> net_to_as_;
  std::size_t spain_idx_ = 0;
  std::size_t spam_idx_ = 0;
  std::size_t france_idx_ = 0;
  std::size_t romania_idx_ = 0;
};

}  // namespace dm::cloud
