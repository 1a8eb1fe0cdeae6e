// build_report against the reference analyses of report_oracle.h: every
// StudyReport field, serialized at full precision, must match the oracle's,
// over several seeds, on a resident trace and on one aggregated by
// aggregate_windows under a RAM budget small enough to spill. The fields
// the oracle does not reimplement come from the library calls themselves,
// so the comparison also pins what build_report wires into each field.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report_oracle.h"
#include "core/report.h"
#include "exec/thread_pool.h"
#include "sim/trace_generator.h"

namespace dm::core {
namespace {

namespace fs = std::filesystem;
namespace oracle = analysis::oracle;
using netflow::Direction;

// ---- Full-precision serialization, one string per StudyReport field.

class Dump {
 public:
  Dump() { os_ << std::setprecision(17); }

  Dump& operator<<(double v) { os_ << v << ' '; return *this; }
  Dump& operator<<(std::uint64_t v) { os_ << v << ' '; return *this; }
  Dump& operator<<(std::int64_t v) { os_ << v << ' '; return *this; }
  Dump& operator<<(std::uint32_t v) { os_ << v << ' '; return *this; }
  Dump& operator<<(bool v) { os_ << v << ' '; return *this; }
  Dump& operator<<(netflow::IPv4 v) { return *this << v.value(); }
  Dump& operator<<(Direction v) { return *this << static_cast<std::uint32_t>(v); }
  Dump& operator<<(sim::AttackType v) { return *this << sim::index_of(v); }
  template <typename T, std::size_t N>
  Dump& operator<<(const std::array<T, N>& a) {
    for (const T& v : a) *this << v;
    os_ << '|';
    return *this;
  }
  template <typename T>
  Dump& operator<<(const std::vector<T>& v) {
    os_ << '[' << v.size() << ']';
    for (const T& e : v) *this << e;
    return *this;
  }
  Dump& operator<<(const util::EmpiricalCdf& cdf) {
    for (double v : cdf.sorted()) *this << v;
    os_ << '|';
    return *this;
  }
  Dump& operator<<(const analysis::VipDayCount& v) {
    return *this << v.vip << v.day << v.attacks;
  }
  Dump& operator<<(const analysis::VipActiveTime& v) {
    return *this << v.vip << v.active_minutes << v.attack_minutes;
  }
  Dump& operator<<(const detect::MultiVectorEvent& e) {
    return *this << e.vip << e.direction << e.start << e.incident_indices
                 << e.type_mask;
  }
  Dump& operator<<(const detect::MultiVipEvent& e) {
    return *this << e.type << e.direction << e.start << e.vip_count
                 << e.incident_indices;
  }
  Dump& operator<<(const detect::CompromiseChain& c) {
    return *this << c.vip << c.inbound_incident << c.outbound_incident
                 << c.gap_minutes;
  }
  Dump& operator<<(const analysis::ThroughputStat& s) {
    return *this << s.median_pps << s.peak_pps << s.samples;
  }
  Dump& operator<<(const analysis::TimingStat& s) {
    return *this << s.median << s.p99 << s.samples;
  }
  Dump& operator<<(const analysis::SpoofVerdict& v) {
    return *this << v.incident_index << v.spoofed << v.test.n
                 << v.test.statistic << v.test.p_value;
  }

  [[nodiscard]] std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

using Fields = std::vector<std::pair<std::string, std::string>>;

void add_frequency(Fields& f, const std::string& name,
                   const analysis::VipFrequency& v) {
  f.emplace_back(name, (Dump() << v.direction << v.pairs << v.attacks_per_day
                               << v.single_attack_fraction << v.frequent_fraction
                               << v.max_attacks_per_day << v.occasional_mix
                               << v.frequent_mix)
                           .str());
}

void add_active(Fields& f, const std::string& name,
                const analysis::ActiveTimeResult& v) {
  f.emplace_back(name, (Dump() << v.vips << v.fraction_cdf
                               << v.majority_attacked_fraction)
                           .str());
}

void add_as(Fields& f, const std::string& name,
            const analysis::AsAnalysisResult& v) {
  Dump d;
  d << v.direction << v.incidents_total << v.incidents_mapped << v.class_share
    << v.per_as_share << v.packet_share << v.top_as_share << v.top_asn
    << v.single_as_fraction << v.top10_share << v.top100_share;
  for (const auto& row : v.type_class_share) d << row;
  f.emplace_back(name, d.str());
}

void add_geo(Fields& f, const std::string& name, const analysis::GeoResult& v) {
  f.emplace_back(name, (Dump() << v.direction << v.region_share << v.packet_share
                               << v.incidents_mapped)
                           .str());
}

void add_throughput(Fields& f, const std::string& name,
                    const analysis::AggregateThroughput& v) {
  f.emplace_back(name, (Dump() << v.direction << v.by_type << v.overall).str());
}

void add_vip_throughput(Fields& f, const std::string& name,
                        const analysis::PerVipThroughput& v) {
  f.emplace_back(name, (Dump() << v.direction << v.by_type).str());
}

void add_timing(Fields& f, const std::string& name,
                const analysis::TimingResult& v) {
  f.emplace_back(name, (Dump() << v.direction << v.duration << v.interarrival
                               << v.ramp_up)
                           .str());
}

Fields fields_of(const StudyReport& r) {
  Fields f;
  f.emplace_back("mix", (Dump() << r.mix.inbound << r.mix.outbound
                                << r.mix.inbound_total << r.mix.outbound_total)
                            .str());
  add_frequency(f, "inbound_frequency", r.inbound_frequency);
  add_frequency(f, "outbound_frequency", r.outbound_frequency);
  add_active(f, "inbound_active_time", r.inbound_active_time);
  add_active(f, "outbound_active_time", r.outbound_active_time);
  f.emplace_back("multi_vector", (Dump() << r.multi_vector).str());
  f.emplace_back("multi_vip", (Dump() << r.multi_vip).str());
  f.emplace_back("chains", (Dump() << r.chains).str());
  Dump services;
  services << r.services.victim_vips << r.services.hosting_share;
  for (const auto& row : r.services.cell) services << row;
  f.emplace_back("services", services.str());
  f.emplace_back("outbound_apps",
                 (Dump() << r.outbound_apps.vips_per_service
                         << r.outbound_apps.attacking_vips
                         << r.outbound_apps.web_share)
                     .str());
  add_throughput(f, "inbound_throughput", r.inbound_throughput);
  add_throughput(f, "outbound_throughput", r.outbound_throughput);
  add_vip_throughput(f, "inbound_vip_throughput", r.inbound_vip_throughput);
  add_vip_throughput(f, "outbound_vip_throughput", r.outbound_vip_throughput);
  add_timing(f, "inbound_timing", r.inbound_timing);
  add_timing(f, "outbound_timing", r.outbound_timing);
  f.emplace_back("spoofing", (Dump() << r.spoofing.verdicts
                                     << r.spoofing.spoofed_fraction
                                     << r.spoofing.tested)
                                 .str());
  add_as(f, "inbound_as", r.inbound_as);
  add_as(f, "outbound_as", r.outbound_as);
  add_geo(f, "inbound_geo", r.inbound_geo);
  add_geo(f, "outbound_geo", r.outbound_geo);
  return f;
}

/// The report with every record-consuming field from the oracle.
StudyReport oracle_report(const netflow::WindowedTrace& trace,
                          const detect::DetectionResult& detection,
                          const sim::Scenario& scenario) {
  StudyReport r;
  const auto& incidents = detection.incidents;
  const auto& minutes = detection.minutes;
  const auto& ases = scenario.ases();
  const auto* blacklist = &scenario.tds().as_prefix_set();
  r.inbound_active_time = oracle::active_time(trace, minutes, Direction::kInbound);
  r.outbound_active_time =
      oracle::active_time(trace, minutes, Direction::kOutbound);
  r.services = oracle::service_attack_table(trace, minutes, incidents);
  r.outbound_apps = oracle::outbound_app_targets(trace, incidents);
  r.spoofing = oracle::spoofing(trace, incidents, blacklist);
  r.inbound_as = oracle::as_analysis(trace, incidents, ases, Direction::kInbound,
                                     &r.spoofing, blacklist);
  r.outbound_as = oracle::as_analysis(trace, incidents, ases,
                                      Direction::kOutbound, nullptr, blacklist);
  r.inbound_geo = oracle::geo(trace, incidents, ases, Direction::kInbound,
                              &r.spoofing, blacklist);
  r.outbound_geo = oracle::geo(trace, incidents, ases, Direction::kOutbound,
                               nullptr, blacklist);
  // The other fields are not reimplemented: take them from the library
  // calls directly, not from build_report.
  r.mix = analysis::compute_attack_mix(incidents);
  r.inbound_frequency =
      analysis::compute_vip_frequency(incidents, Direction::kInbound);
  r.outbound_frequency =
      analysis::compute_vip_frequency(incidents, Direction::kOutbound);
  r.multi_vector = detect::find_multi_vector(incidents);
  r.multi_vip = detect::find_multi_vip(incidents);
  r.chains = detect::find_compromise_chains(incidents);
  const std::uint32_t sampling = scenario.config().sampling;
  r.inbound_throughput = analysis::compute_aggregate_throughput(
      minutes, Direction::kInbound, sampling);
  r.outbound_throughput = analysis::compute_aggregate_throughput(
      minutes, Direction::kOutbound, sampling);
  r.inbound_vip_throughput = analysis::compute_per_vip_throughput(
      incidents, Direction::kInbound, sampling);
  r.outbound_vip_throughput = analysis::compute_per_vip_throughput(
      incidents, Direction::kOutbound, sampling);
  r.inbound_timing = analysis::compute_timing(incidents, Direction::kInbound);
  r.outbound_timing = analysis::compute_timing(incidents, Direction::kOutbound);
  return r;
}

void expect_matches_oracle(const netflow::WindowedTrace& trace,
                           const detect::DetectionResult& detection,
                           const sim::Scenario& scenario) {
  ASSERT_FALSE(detection.incidents.empty());
  const Fields got = fields_of(build_report(trace, detection, scenario));
  const Fields want = fields_of(oracle_report(trace, detection, scenario));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].second, want[i].second) << got[i].first;
  }
}

sim::ScenarioConfig small_config(std::uint64_t seed) {
  auto config = sim::ScenarioConfig::smoke();
  config.vips.vip_count = 120;
  config.days = 2;
  config.seed = seed;
  config.thread_count = 2;
  return config;
}

constexpr std::uint64_t kSeeds[] = {3, 404, 90210};

TEST(ReportOracle, ResidentStudyMatchesOracleFieldForField) {
  for (std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Study study(small_config(seed));
    expect_matches_oracle(study.trace(), study.detection(), study.scenario());
  }
}

TEST(ReportOracle, SpilledAggregateMatchesOracleFieldForField) {
  for (std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const fs::path dir = fs::temp_directory_path() /
                         ("dm_report_oracle_" + std::to_string(::getpid()) +
                          "_" + std::to_string(seed));
    fs::remove_all(dir);
    {
      const sim::ScenarioConfig config = small_config(seed);
      const sim::Scenario scenario(config);
      exec::ThreadPool pool(exec::workers_for(config.thread_count));
      sim::TraceResult generated = sim::generate_trace(scenario, &pool);
      netflow::SpillConfig spill;
      spill.directory = dir.string();
      spill.segment_bytes = 1ull << 20;
      spill.ram_budget_bytes = 1ull << 20;
      const netflow::WindowedTrace trace = netflow::aggregate_windows(
          std::move(generated.records), scenario.vips().cloud_space(),
          &scenario.tds().as_prefix_set(), &pool, &spill);
      ASSERT_TRUE(trace.store().spilled());
      const detect::DetectionResult detection =
          detect::DetectionPipeline{}.run(trace, &pool);
      expect_matches_oracle(trace, detection, scenario);
    }
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace dm::core
