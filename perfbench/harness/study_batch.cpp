// study_batch: the analyst's path. core::Study over a paper-calibrated
// scenario (fused sim + netflow generation, detection), then
// core::build_report + core::render_report.
//
// Oracle: the unfused two-stage path (sim::generate_trace ->
// netflow::aggregate_windows -> DetectionPipeline::run), computed in the
// prepare process. The traced run makes the calls core::Study and
// core::build_report make, one span per call.
#include <memory>
#include <optional>

#include "core/report.h"
#include "core/study.h"
#include "exec/thread_pool.h"
#include "sim/trace_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kScenarios = 6;
constexpr std::uint32_t kVips = 1500;
constexpr int kDays = 1;
constexpr int kSetupsPerPass = 3;

using dm::netflow::Direction;


void check_outputs(Result& result, const Oracle& oracle, const std::string& path,
                   const dm::detect::DetectionResult& detection) {
  result.check(digest_of<dm::detect::AttackIncident>(detection.incidents) ==
                   oracle.at("incidents"),
               path + ": incidents differ from the unfused oracle");
  result.check(digest_of<dm::detect::MinuteDetection>(detection.minutes) ==
                   oracle.at("alerts"),
               path + ": minute detections differ from the unfused oracle");
}

/// One untraced iteration: what the analyst waits for.
struct Iteration {
  std::unique_ptr<dm::core::Study> study;
  std::string text;
  double study_s = 0.0;  ///< core::Study alone
  Cost cost;
};

Iteration untraced_iteration(const dm::sim::ScenarioConfig& config) {
  Iteration it;
  const Meter meter;
  const Clock::time_point t0 = Clock::now();
  it.study = std::make_unique<dm::core::Study>(config);
  const Clock::time_point t1 = Clock::now();
  const dm::core::StudyReport report = dm::core::build_report(*it.study);
  it.text = dm::core::render_report(report, *it.study);
  it.cost = meter.stop();
  it.study_s = seconds_between(t0, t1);
  return it;
}

/// The same work as untraced_iteration, one span per public call.
/// render_report needs a core::Study for its header, so the report is
/// rendered against `rendered_with`, an equal Study built untraced.
Cost traced_iteration(const dm::sim::ScenarioConfig& config, Tracer& tr,
                      const dm::core::Study& rendered_with, const Options& o,
                      const Oracle& oracle, const std::string& expected_text,
                      Result& result, Samples& layers) {
  const Meter meter;
  std::optional<dm::exec::ThreadPool> pool;
  std::optional<dm::sim::Scenario> scenario;
  dm::sim::FusedTrace fused;
  dm::detect::DetectionResult detection;
  dm::core::StudyReport rep;
  std::string text;
  int root_id = -1;
  {
    Tracer::Scope root(&tr, "study_batch.region");
    root_id = root.id();
    {
      Tracer::Scope s(&tr, "exec.thread_pool");
      pool.emplace(dm::exec::workers_for(config.thread_count));
    }
    {
      Tracer::Scope s(&tr, "sim.scenario");
      scenario.emplace(config);
    }
    {
      Tracer::Scope s(&tr, "sim.generate_windows");
      fused = dm::sim::generate_windows(*scenario, &*pool);
    }
    const dm::detect::DetectionPipeline pipeline;
    {
      Tracer::Scope s(&tr, "detect.detect_minutes");
      detection.minutes = pipeline.detect_minutes(fused.windowed, &*pool);
    }
    {
      Tracer::Scope s(&tr, "detect.build_incidents");
      detection.incidents =
          dm::detect::build_incidents(detection.minutes, pipeline.timeouts());
    }

    // core::build_report, call by call.
    const auto& trace = fused.windowed;
    const auto& minutes = detection.minutes;
    const auto& incidents = detection.incidents;
    const auto& ases = scenario->ases();
    const auto* blacklist = &scenario->tds().as_prefix_set();
    const std::uint32_t sampling = config.sampling;
    namespace an = dm::analysis;
    {
      Tracer::Scope b(&tr, "core.build_report");
      {
        Tracer::Scope s(&tr, "analysis.other");
        rep.mix = an::compute_attack_mix(incidents);
        rep.inbound_frequency = an::compute_vip_frequency(incidents, Direction::kInbound);
        rep.outbound_frequency = an::compute_vip_frequency(incidents, Direction::kOutbound);
      }
      {
        Tracer::Scope s(&tr, "analysis.active_time");
        rep.inbound_active_time = an::compute_active_time(trace, minutes, Direction::kInbound);
        rep.outbound_active_time = an::compute_active_time(trace, minutes, Direction::kOutbound);
      }
      {
        Tracer::Scope s(&tr, "analysis.other");
        rep.multi_vector = dm::detect::find_multi_vector(incidents);
        rep.multi_vip = dm::detect::find_multi_vip(incidents);
        rep.chains = dm::detect::find_compromise_chains(incidents);
      }
      {
        Tracer::Scope s(&tr, "analysis.service_table");
        rep.services = an::compute_service_attack_table(trace, minutes, incidents);
      }
      {
        Tracer::Scope s(&tr, "analysis.outbound_apps");
        rep.outbound_apps = an::compute_outbound_app_targets(trace, incidents);
      }
      {
        Tracer::Scope s(&tr, "analysis.other");
        rep.inbound_throughput =
            an::compute_aggregate_throughput(minutes, Direction::kInbound, sampling);
        rep.outbound_throughput =
            an::compute_aggregate_throughput(minutes, Direction::kOutbound, sampling);
        rep.inbound_vip_throughput =
            an::compute_per_vip_throughput(incidents, Direction::kInbound, sampling);
        rep.outbound_vip_throughput =
            an::compute_per_vip_throughput(incidents, Direction::kOutbound, sampling);
        rep.inbound_timing = an::compute_timing(incidents, Direction::kInbound);
        rep.outbound_timing = an::compute_timing(incidents, Direction::kOutbound);
      }
      {
        Tracer::Scope s(&tr, "analysis.spoofing");
        rep.spoofing = an::analyze_spoofing(trace, incidents, blacklist);
      }
      {
        Tracer::Scope s(&tr, "analysis.as");
        rep.inbound_as = an::analyze_as(trace, incidents, ases, Direction::kInbound,
                                        &rep.spoofing, blacklist);
        rep.outbound_as = an::analyze_as(trace, incidents, ases, Direction::kOutbound,
                                         nullptr, blacklist);
      }
      {
        Tracer::Scope s(&tr, "analysis.geo");
        rep.inbound_geo = an::analyze_geo(trace, incidents, ases, Direction::kInbound,
                                          &rep.spoofing, blacklist);
        rep.outbound_geo = an::analyze_geo(trace, incidents, ases, Direction::kOutbound,
                                           nullptr, blacklist);
      }
    }
    {
      Tracer::Scope s(&tr, "core.render_report");
      text = dm::core::render_report(rep, rendered_with);
    }
  }

  const auto& trace = fused.windowed;
  check_outputs(result, oracle, "traced layers", detection);
  result.check(text == expected_text,
               "traced layers: rendered report differs from core::build_report's");
  result.check(fused.generated_records == std::stoull(oracle.at("records")),
               "traced layers: record count differs from the oracle");

  const unsigned threads = o.threads;
  layers.add_cost("exec.thread_pool", tr.total("exec.thread_pool"), {"wall_s"}, threads);
  layers.add_cost("sim.scenario", tr.total("sim.scenario"), {"wall_s"}, threads);
  layers.add_cost("sim.generate_windows", tr.total("sim.generate_windows"),
                  {"wall_s", "user_s", "sys_s", "minflt", "cpu_util"}, threads);
  const auto kept = static_cast<double>(trace.record_count());
  layers.add("netflow.encoded_bytes_per_record",
             kept > 0 ? static_cast<double>(trace.store().encoded_bytes()) / kept : 0.0,
             "B/record");
  layers.add("netflow.windows", static_cast<double>(trace.windows().size()), "count");
  layers.add_cost("detect.detect_minutes", tr.total("detect.detect_minutes"),
                  {"wall_s", "cpu_util"}, threads);
  layers.add_cost("detect.build_incidents", tr.total("detect.build_incidents"),
                  {"wall_s"}, threads);
  layers.add("detect.minute_detections", static_cast<double>(detection.minutes.size()),
             "count");
  layers.add("detect.incidents", static_cast<double>(detection.incidents.size()), "count");
  for (const char* group : {"active_time", "service_table", "outbound_apps",
                            "spoofing", "as", "geo", "other"}) {
    const std::string name = std::string("analysis.") + group;
    layers.add_cost(name, tr.total(name), {"wall_s"}, threads);
  }
  layers.add_cost("core.build_report", tr.total("core.build_report"), {"wall_s"}, threads);
  layers.add_cost("core.render_report", tr.total("core.render_report"), {"wall_s"},
                  threads);
  layers.add("bench.untimed_remainder_s", tr.self_time(root_id), "s");
  return meter.stop();
}

}  // namespace

void prepare_study_batch(const Options& o) {
  for (std::size_t k = 0; k < kScenarios; ++k) {
    const dm::sim::ScenarioConfig config = scenario_config(o, k, kVips, kDays);
    const dm::sim::Scenario scenario(config);
    dm::exec::ThreadPool pool(dm::exec::workers_for(config.thread_count));
    dm::sim::TraceResult generated = dm::sim::generate_trace(scenario, &pool);
    const std::uint64_t records = generated.records.size();
    const dm::netflow::WindowedTrace windowed = dm::netflow::aggregate_windows(
        std::move(generated.records), scenario.vips().cloud_space(),
        &scenario.tds().as_prefix_set(), &pool);
    const dm::detect::DetectionResult detection =
        dm::detect::DetectionPipeline{}.run(windowed, &pool);
    write_oracle(work_file(o, "oracle", k, ".txt"),
                 {{"records", std::to_string(records)},
                  {"incidents", digest_of<dm::detect::AttackIncident>(detection.incidents)},
                  {"alerts", digest_of<dm::detect::MinuteDetection>(detection.minutes)}});
  }
}

Result run_study_batch(const Options& o) {
  std::vector<dm::sim::ScenarioConfig> configs;
  std::vector<Oracle> oracles;
  std::vector<double> records;
  for (std::size_t k = 0; k < kScenarios; ++k) {
    configs.push_back(scenario_config(o, k, kVips, kDays));
    oracles.push_back(read_oracle(work_file(o, "oracle", k, ".txt")));
    records.push_back(std::stod(oracles.back().at("records")));
  }
  Result result;

  std::vector<double> setups;
  ScenarioMix mix(records);
  std::vector<std::string> texts(kScenarios);
  std::vector<double> untraced_region_s, traced_region_s;
  Samples layers;
  Tracer last_tracer;
  const Clock::time_point begin = Clock::now();
  for (std::size_t pass = 0;
       !mix.all_measured() || seconds_between(begin, Clock::now()) < o.seconds; ++pass) {
    const std::size_t k = pass % kScenarios;
    const std::string label = "scenario " + std::to_string(k) + ": ";
    // Set-up: what core::Study builds before its first record, sampled
    // before every pass so the median spans the whole run.
    for (int i = 0; i < kSetupsPerPass; ++i) {
      std::optional<dm::exec::ThreadPool> pool;
      std::optional<dm::sim::Scenario> scenario;
      setups.push_back(time_setup([&] {
        pool.emplace(dm::exec::workers_for(configs[k].thread_count));
        scenario.emplace(configs[k]);
      }));
    }
    begin_peak_window();
    Iteration it = untraced_iteration(configs[k]);
    const double peak = peak_rss_bytes();
    check_outputs(result, oracles[k], label + "core::Study", it.study->detection());
    result.check(static_cast<double>(it.study->record_count()) == records[k],
                 label + "core::Study: record count differs from the oracle");
    if (texts[k].empty()) texts[k] = it.text;
    result.check(it.text == texts[k], label + "rendered report differs between passes");
    result.count(it.study->record_count(), 0);
    mix.add(k, it.study_s, it.cost.cpu_s(), peak);
    untraced_region_s.push_back(it.cost.wall_s);

    if (o.trace) {
      Tracer tracer;
      const Cost cost = traced_iteration(configs[k], tracer, *it.study, o, oracles[k],
                                         texts[k], result, layers);
      traced_region_s.push_back(cost.wall_s);
      last_tracer = std::move(tracer);
    }
  }

  if (o.trace) {
    const double untraced = median(untraced_region_s);
    const double overhead = median(traced_region_s) - untraced;
    layers.add("bench.trace_overhead_s", overhead, "s");
    layers.add("bench.trace_overhead_ratio", overhead / untraced, "ratio");
    layers.emit(result);
    if (!o.spans_out.empty()) last_tracer.write_json(o.spans_out);
  } else {
    mix.emit(result);
    result.add("setup_s", median(setups), "s");
  }
  return result;
}

}  // namespace perfbench
