// The three workloads. Each has a prepare step, run in its own process
// before timing starts, that writes the workload's inputs and the oracle its
// outputs are checked against into the work directory; and a run step that
// sets up, measures for the requested time, checks every output against the
// oracle, and returns the metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "measure.h"
#include "sim/scenario.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< inputs, oracle and scratch state of this run
  std::string spans_out;  ///< traced run: where the span log is written
  unsigned threads = 1;   ///< thread_count for every pool the workload uses
};

/// The oracle file: one "key value" pair per line.
using Oracle = std::map<std::string, std::string>;
void write_oracle(const std::string& path, const Oracle& oracle);
[[nodiscard]] Oracle read_oracle(const std::string& path);

/// The k-th scenario a run derives its inputs from: paper-scale
/// calibration, `vips` VIPs over `days` days, seeded from the run's seed
/// and k. Every workload measures several scenarios per run, because one
/// scenario's traffic mix moves the per-record figures by up to ~20%.
[[nodiscard]] dm::sim::ScenarioConfig scenario_config(const Options& options,
                                                      std::size_t k,
                                                      std::uint32_t vips, int days);

/// "<work_dir>/<stem>-<k><ext>": the k-th scenario's input or oracle file.
[[nodiscard]] std::string work_file(const Options& options, const std::string& stem,
                                    std::size_t k, const std::string& ext);

/// Flushes a prepared input file to disk, so its write-back does not
/// overlap the measurement.
void sync_file(const std::string& path);

/// Wall time of one call of `setup`, in seconds.
template <class Setup>
[[nodiscard]] double time_setup(Setup&& setup) {
  const Clock::time_point t0 = Clock::now();
  setup();
  return seconds_between(t0, Clock::now());
}

void prepare_study_batch(const Options& options);
[[nodiscard]] Result run_study_batch(const Options& options);

void prepare_stream_serve(const Options& options);
[[nodiscard]] Result run_stream_serve(const Options& options);

void prepare_ingest_spill(const Options& options);
[[nodiscard]] Result run_ingest_spill(const Options& options);

/// The benchmark's self-tests; returns the number of failed checks.
[[nodiscard]] int run_selftests();

}  // namespace perfbench
