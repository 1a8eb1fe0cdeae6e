// ingest_spill: the recorded-trace path (what `dmnf detect` does). A .dmnf
// trace written by the prepare process is read with
// netflow::read_trace_file, aggregated by netflow::aggregate_windows under a
// SpillConfig whose RAM budget is below the encoded store size (so sealed
// segments are written while earlier ones are mapped back), and detected
// with DetectionPipeline::run over the mmap'd store.
//
// Each run reads kScenarios traces; each is the first kTraceRecords
// records, in time order, of one scenario's generated trace.
//
// Oracle: the fully resident path (aggregate_windows without spill +
// DetectionPipeline::run) over the same records held in memory, computed in
// the prepare process; it checks the trace_io round trip and the spill tier.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>

#include "detect/pipeline.h"
#include "exec/thread_pool.h"
#include "netflow/trace_io.h"
#include "sim/trace_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kScenarios = 6;
constexpr std::uint32_t kVips = 600;
constexpr int kDays = 2;
constexpr std::size_t kTraceRecords = 1'000'000;
/// Below the ~16 MiB encoded store, so each pass seals ~8 segments.
constexpr std::uint64_t kRamBudget = 8ull << 20;
constexpr std::uint64_t kSegmentBytes = 2ull << 20;
constexpr int kSetupsPerPass = 8;

struct Pass {
  Cost cost;
  std::uint64_t records = 0;
};

Pass run_pass(const Options& o, std::size_t k, const dm::sim::Scenario& scenario,
              dm::exec::ThreadPool& pool, const Oracle& oracle, Result& result, Tracer* tr,
              Samples* layers) {
  const std::string trace = work_file(o, "trace", k, ".dmnf");
  dm::netflow::SpillConfig spill;
  spill.directory = work_file(o, "spill", k, "");
  spill.ram_budget_bytes = kRamBudget;
  spill.segment_bytes = kSegmentBytes;
  fs::remove_all(spill.directory);
  fs::create_directories(spill.directory);

  Pass pass;
  dm::detect::DetectionResult detection;
  dm::netflow::WindowedTrace windowed;
  int root_id = -1;
  const Meter meter;
  {
    Tracer::Scope root(tr, "ingest_spill.region");
    root_id = root.id();
    std::vector<dm::netflow::FlowRecord> records;
    {
      Tracer::Scope s(tr, "netflow.read_trace");
      records = dm::netflow::read_trace_file(trace);
    }
    pass.records = records.size();
    {
      Tracer::Scope s(tr, "netflow.aggregate_windows");
      windowed = dm::netflow::aggregate_windows(
          std::move(records), scenario.vips().cloud_space(),
          &scenario.tds().as_prefix_set(), &pool, &spill);
    }
    const dm::detect::DetectionPipeline pipeline;
    if (tr == nullptr) {
      detection = pipeline.run(windowed, &pool);
    } else {
      // DetectionPipeline::run, call by call.
      {
        Tracer::Scope s(tr, "detect.detect_minutes");
        detection.minutes = pipeline.detect_minutes(windowed, &pool);
      }
      Tracer::Scope s(tr, "detect.build_incidents");
      detection.incidents = dm::detect::build_incidents(detection.minutes, pipeline.timeouts());
    }
  }
  pass.cost = meter.stop();

  const std::string path =
      "scenario " + std::to_string(k) + (tr == nullptr ? ": ingest" : ": traced ingest");
  result.check(digest_of<dm::detect::AttackIncident>(detection.incidents) ==
                   oracle.at("incidents"),
               path + ": incidents differ from the resident oracle");
  result.check(digest_of<dm::detect::MinuteDetection>(detection.minutes) ==
                   oracle.at("alerts"),
               path + ": minute detections differ from the resident oracle");
  result.check(pass.records == std::stoull(oracle.at("records")),
               path + ": trace record count differs from the generated trace");
  const auto& store = windowed.store();
  result.check(store.spilled() && store.segments().segment_count() >= 2,
               path + ": the store did not spill into several segments");
  result.count(pass.records, 0);

  if (layers != nullptr) {
    const unsigned threads = o.threads;
    const Cost read = tr->total("netflow.read_trace");
    layers->add_cost("netflow.read_trace", read, {"wall_s"}, threads);
    layers->add("netflow.read_trace.mb_per_s",
                static_cast<double>(fs::file_size(trace)) / 1e6 / read.wall_s,
                "MB/s");
    layers->add_cost("netflow.aggregate_windows", tr->total("netflow.aggregate_windows"),
                     {"wall_s", "sys_s", "minflt", "cpu_util"}, threads);
    layers->add("netflow.segments_sealed",
                static_cast<double>(store.segments().segment_count()), "count");
    layers->add("netflow.spilled_bytes", static_cast<double>(store.encoded_bytes()), "B");
    const auto kept = static_cast<double>(windowed.record_count());
    layers->add("netflow.encoded_bytes_per_record",
                kept > 0 ? static_cast<double>(store.encoded_bytes()) / kept : 0.0,
                "B/record");
    layers->add("netflow.windows", static_cast<double>(windowed.windows().size()), "count");
    layers->add_cost("detect.detect_minutes", tr->total("detect.detect_minutes"),
                     {"wall_s", "cpu_util"}, threads);
    layers->add_cost("detect.build_incidents", tr->total("detect.build_incidents"),
                     {"wall_s"}, threads);
    layers->add("detect.minute_detections", static_cast<double>(detection.minutes.size()),
                "count");
    layers->add("detect.incidents", static_cast<double>(detection.incidents.size()),
                "count");
    layers->add("bench.untimed_remainder_s", tr->self_time(root_id), "s");
  }
  windowed = {};  // unmap the segments before deleting them
  fs::remove_all(spill.directory);
  return pass;
}

}  // namespace

void prepare_ingest_spill(const Options& o) {
  for (std::size_t k = 0; k < kScenarios; ++k) {
    const dm::sim::ScenarioConfig config = scenario_config(o, k, kVips, kDays);
    const dm::sim::Scenario scenario(config);
    dm::exec::ThreadPool pool(dm::exec::workers_for(config.thread_count));
    std::vector<dm::netflow::FlowRecord> records =
        dm::sim::generate_trace(scenario, &pool).records;
    // dmlint: total-order(stable_sort keeps the generated order within one minute)
    std::stable_sort(records.begin(), records.end(),
                     [](const dm::netflow::FlowRecord& a, const dm::netflow::FlowRecord& b) {
                       return a.minute < b.minute;
                     });
    if (records.size() < kTraceRecords) {
      throw std::runtime_error("ingest_spill: a scenario has only " +
                               std::to_string(records.size()) + " records");
    }
    records.resize(kTraceRecords);
    dm::netflow::write_trace_file(work_file(o, "trace", k, ".dmnf"), records,
                                  config.sampling);
    sync_file(work_file(o, "trace", k, ".dmnf"));
    const dm::netflow::WindowedTrace windowed = dm::netflow::aggregate_windows(
        std::move(records), scenario.vips().cloud_space(),
        &scenario.tds().as_prefix_set(), &pool);
    const dm::detect::DetectionResult detection =
        dm::detect::DetectionPipeline{}.run(windowed, &pool);
    write_oracle(work_file(o, "oracle", k, ".txt"),
                 {{"records", std::to_string(kTraceRecords)},
                  {"store_bytes", std::to_string(windowed.store().encoded_bytes())},
                  {"incidents", digest_of<dm::detect::AttackIncident>(detection.incidents)},
                  {"alerts", digest_of<dm::detect::MinuteDetection>(detection.minutes)}});
  }
}

Result run_ingest_spill(const Options& o) {
  std::vector<dm::sim::Scenario> scenarios;
  std::vector<Oracle> oracles;
  Result result;
  for (std::size_t k = 0; k < kScenarios; ++k) {
    scenarios.emplace_back(scenario_config(o, k, kVips, kDays));
    oracles.push_back(read_oracle(work_file(o, "oracle", k, ".txt")));
    result.check(std::stoull(oracles.back().at("store_bytes")) > kRamBudget,
                 "an encoded store fits the RAM budget, so nothing would spill");
  }

  const unsigned workers = dm::exec::workers_for(o.threads);
  dm::exec::ThreadPool pool(workers);
  std::vector<double> setups;

  ScenarioMix mix(std::vector<double>(kScenarios, static_cast<double>(kTraceRecords)));
  Samples layers;
  std::vector<double> untraced_s, traced_s;
  Tracer last_tracer;
  const Clock::time_point begin = Clock::now();
  for (std::size_t n = 0;
       !mix.all_measured() || seconds_between(begin, Clock::now()) < o.seconds; ++n) {
    const std::size_t k = n % kScenarios;
    // Set-up: the pool aggregate_windows shards over, and opening the trace
    // (header parse): everything before the first record is decoded.
    for (int i = 0; i < kSetupsPerPass; ++i) {
      std::optional<dm::exec::ThreadPool> setup_pool;
      std::ifstream in;
      std::optional<dm::netflow::TraceReader> reader;
      setups.push_back(time_setup([&] {
        setup_pool.emplace(workers);
        in.open(work_file(o, "trace", k, ".dmnf"), std::ios::binary);
        reader.emplace(in);
      }));
    }
    begin_peak_window();
    const Pass pass = run_pass(o, k, scenarios[k], pool, oracles[k], result, nullptr, nullptr);
    mix.add(k, pass.cost.wall_s, pass.cost.cpu_s(), peak_rss_bytes());
    untraced_s.push_back(pass.cost.wall_s);
    if (o.trace) {
      Tracer tracer;
      traced_s.push_back(
          run_pass(o, k, scenarios[k], pool, oracles[k], result, &tracer, &layers).cost.wall_s);
      last_tracer = std::move(tracer);
    }
  }

  if (o.trace) {
    const double untraced = median(untraced_s);
    const double overhead = median(traced_s) - untraced;
    layers.add("bench.trace_overhead_s", overhead, "s");
    layers.add("bench.trace_overhead_ratio", overhead / untraced, "ratio");
    layers.emit(result);
    if (!o.spans_out.empty()) last_tracer.write_json(o.spans_out);
    return result;
  }
  mix.emit(result);
  result.add("setup_s", median(setups), "s");
  return result;
}

}  // namespace perfbench
