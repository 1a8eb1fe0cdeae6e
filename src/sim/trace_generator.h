// End-to-end scenario materialization: registries + scheduler + benign and
// attack traffic models -> a sampled NetFlow trace with ground truth.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/as_registry.h"
#include "cloud/tds_blacklist.h"
#include "cloud/vip_registry.h"
#include "exec/thread_pool.h"
#include "netflow/flow_record.h"
#include "netflow/sampler.h"
#include "netflow/window_aggregator.h"
#include "sim/episode.h"
#include "sim/scenario.h"

namespace dm::sim {

/// Owns the static world of one simulated study: the cloud (VIPs, data
/// centers), the Internet (ASes, geography), and the TDS blacklist — all
/// deterministic functions of the ScenarioConfig.
class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);

  [[nodiscard]] const ScenarioConfig& config() const noexcept { return config_; }
  [[nodiscard]] const cloud::VipRegistry& vips() const noexcept { return vips_; }
  [[nodiscard]] const cloud::AsRegistry& ases() const noexcept { return ases_; }
  [[nodiscard]] const cloud::TdsBlacklist& tds() const noexcept { return tds_; }
  [[nodiscard]] netflow::PacketSampler sampler() const {
    return netflow::PacketSampler(config_.sampling);
  }

 private:
  ScenarioConfig config_;
  cloud::AsRegistry ases_;
  cloud::VipRegistry vips_;
  cloud::TdsBlacklist tds_;
};

/// A generated trace: sampled records (unsorted) plus the ground truth that
/// produced them.
struct TraceResult {
  std::vector<netflow::FlowRecord> records;
  GroundTruth truth;
};

/// Runs the generator, sharding per-VIP benign traffic and per-episode
/// attack traffic across `pool` (nullptr = serial). Every shard derives its
/// RNG stream from the VIP/episode index via Rng::split and shards merge in
/// index order, so the result is byte-identical for any thread count.
[[nodiscard]] TraceResult generate_trace(const Scenario& scenario,
                                         exec::ThreadPool* pool);

/// Convenience overload: builds a pool from scenario.config().thread_count.
[[nodiscard]] TraceResult generate_trace(const Scenario& scenario);

/// A fused generate→aggregate result: the windowed dataset plus the ground
/// truth that produced it. The global unsorted record vector of
/// generate_trace is never materialized.
struct FusedTrace {
  netflow::WindowedTrace windowed;
  GroundTruth truth;
  /// Sampled records the generator emitted, before orientation dropped
  /// transit/intra-cloud records (kept + unclassified) — equals
  /// TraceResult::records.size() of the unfused path.
  std::uint64_t generated_records = 0;
};

/// The fused streaming path: each shard owns a contiguous range of the
/// cloud's VIP *address space*, generates its VIPs' benign traffic and the
/// attack episodes targeting them, and runs netflow::aggregate_shard on
/// them in place; netflow::merge_shards concatenates the slices in address
/// order, because the canonical record order leads with the VIP address
/// and shards own disjoint address ranges. aggregate_windows runs the same
/// core and merge over ranges it cuts from ingested records. RNG streams
/// are still split per VIP/episode index, so the result is byte-identical
/// to generate_trace + aggregate_windows (with the scenario's TDS
/// blacklist) for any thread count.
[[nodiscard]] FusedTrace generate_windows(const Scenario& scenario,
                                          exec::ThreadPool* pool);

/// Convenience overload: builds a pool from scenario.config().thread_count.
[[nodiscard]] FusedTrace generate_windows(const Scenario& scenario);

}  // namespace dm::sim
