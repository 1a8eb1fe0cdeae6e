// stream_serve: the operator's path on a feed that is not shedding. A
// feed-time-ordered replay of sim::generate_trace goes through
// serve::Supervisor (2 tenants x 2 shards, no rate or memory budgets) and a
// threaded BufferedWriter into a timestamping Sink.
//
// Each run replays kScenarios feeds; each is the first kFeedRecords records,
// in feed-time order, of one scenario's trace.
//
// The untraced run is the closed loop: each feed is pushed as fast as its
// supervisor takes it, with checkpoint rotation into a scratch state dir;
// one supervisor per feed, one fewer at a time than the run has threads.
// The traced run adds the open loop: each feed minute is released at a
// fixed wall time, the time its records are due at a constant
// kOpenLoopRate, whatever the supervisor's state; alert latency runs from
// the due time of the record that closed the alert's minute to the Sink's
// receipt. The open loop runs without checkpointing, so its latency is the
// ingest-to-alert path's and not the host disk's fsync latency.
//
// Oracle: DetectionPipeline::run over aggregate_windows of the same feed,
// computed in the prepare process.
#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <memory>
#include <thread>

#include "detect/pipeline.h"
#include "exec/thread_pool.h"
#include "netflow/trace_io.h"
#include "serve/supervisor.h"
#include "sim/trace_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dm::netflow::FlowRecord;

constexpr std::size_t kScenarios = 6;
constexpr std::uint32_t kVips = 600;
constexpr int kDays = 2;
constexpr std::size_t kFeedRecords = 800'000;
constexpr std::size_t kTenants = 2;
constexpr std::uint32_t kShards = 2;
/// Feed minutes between checkpoint rotations: two or three per pass, so the
/// host disk's fsync latency stays a small share of a closed-loop pass.
constexpr dm::util::Minute kRotationMinutes = 480;
/// Offered load of the open loop, about half the closed loop's capacity on a
/// 2.0 GHz Xeon core.
constexpr double kOpenLoopRate = 1.0e6;  // records/s

/// The feed records that advance a shard's clock: classifiable, and newer
/// than anything the shard has seen.
struct Closings {
  CloseIndex index;
  struct Transition {
    std::size_t record = 0;
    std::uint64_t shard = 0;
  };
  std::vector<Transition> transitions;  ///< in feed order
};

/// One scenario's feed and what it is checked against.
struct Feed {
  dm::sim::Scenario scenario;
  std::vector<FlowRecord> records;
  Oracle oracle;
  Closings closings;

  [[nodiscard]] const dm::netflow::PrefixSet& cloud() const {
    return scenario.vips().cloud_space();
  }
  [[nodiscard]] const dm::netflow::PrefixSet* blacklist() const {
    return &scenario.tds().as_prefix_set();
  }
};

/// The static inputs of every pass.
struct World {
  std::vector<Feed> feeds;
  dm::serve::ServeConfig config;
  std::vector<dm::serve::TenantSpec> tenants;
  std::string state_root;
  int fleets = 0;  ///< state dirs handed out so far
};

/// One supervisor, its writer and its sink.
struct Fleet {
  TimestampSink sink;
  std::unique_ptr<dm::serve::BufferedWriter> writer;
  std::unique_ptr<dm::serve::Supervisor> supervisor;
  std::string state_dir;
};

/// A fresh, empty state dir (not timed: it is the harness's housekeeping).
std::string fresh_state_dir(World& world) {
  const std::string dir = world.state_root + "/state-" + std::to_string(world.fleets++);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Set-up as timed by setup_s: writer start, supervisor construction and,
/// with a state dir, recover() on it while it is empty. An empty
/// `state_dir` disables checkpointing.
std::unique_ptr<Fleet> start_fleet(const World& world, const Feed& feed,
                                   const std::string& state_dir, Result& result) {
  auto fleet = std::make_unique<Fleet>();
  fleet->state_dir = state_dir;
  fleet->sink.reserve(1 << 14);
  dm::serve::WriterConfig writer_config;
  writer_config.seed = world.config.seed;
  fleet->writer = std::make_unique<dm::serve::BufferedWriter>(fleet->sink, writer_config);
  dm::serve::ServeConfig config = world.config;
  config.state_dir = state_dir;
  fleet->supervisor = std::make_unique<dm::serve::Supervisor>(
      feed.cloud(), feed.blacklist(), world.tenants, config, fleet->writer.get());
  if (!state_dir.empty()) {
    const dm::serve::RecoveryReport recovery = fleet->supervisor->recover();
    result.check(recovery.generation == -1 && recovery.ledger.empty(),
                 "recover() on an empty state dir found state");
  }
  return fleet;
}

/// Records the supervisor was offered and what it lost.
struct Ledger {
  std::uint64_t offered = 0;
  std::uint64_t shed = 0;
  std::uint64_t late = 0;
  std::uint64_t unclassifiable = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t quarantined = 0;
  dm::serve::WriterStats writer;

  /// Real losses. Unclassifiable transit records are dropped by the batch
  /// path too and are not failures.
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return shed + late + duplicate + quarantined + writer.dropped;
  }
  void add(const Ledger& o) {
    offered += o.offered;
    shed += o.shed;
    late += o.late;
    unclassifiable += o.unclassifiable;
    duplicate += o.duplicate;
    quarantined += o.quarantined;
    writer.enqueued += o.writer.enqueued;
    writer.delivered += o.writer.delivered;
    writer.retries += o.writer.retries;
    writer.dropped += o.writer.dropped;
    writer.spilled += o.writer.spilled;
  }
};

Ledger ledger_of(const Fleet& fleet) {
  Ledger l;
  const dm::serve::Supervisor& sup = *fleet.supervisor;
  for (std::size_t t = 0; t < sup.tenant_count(); ++t) {
    l.offered += sup.book(t).offered;
    l.shed += sup.book(t).shed;
    for (std::uint32_t s = 0; s < sup.spec(t).shards; ++s) {
      const dm::detect::StreamMonitor& m = sup.monitor(t, s);
      l.late += m.records_late();
      l.unclassifiable += m.records_unclassifiable();
      l.duplicate += m.records_duplicate();
      l.quarantined += m.records_quarantined();
    }
  }
  l.writer = fleet.writer->stats();
  return l;
}

/// Checks a finished fleet's delivered events and books against the oracle
/// and counts its records into the result.
Ledger check_fleet(const Fleet& fleet, const Feed& feed, const std::string& phase,
                   Result& result) {
  std::vector<Row> incidents, alerts;
  for (const TimestampSink::Receipt& r : fleet.sink.receipts()) {
    (r.event.kind == dm::serve::Event::Kind::kIncident ? incidents : alerts)
        .push_back(row_of(r.event));
  }
  result.check(digest(std::move(incidents)) == feed.oracle.at("incidents"),
               phase + ": union of tenant incidents differs from the batch oracle");
  result.check(digest(std::move(alerts)) == feed.oracle.at("alerts"),
               phase + ": alerts differ from the batch oracle");
  const Ledger l = ledger_of(fleet);
  result.check(l.offered == feed.records.size(), phase + ": records offered != feed size");
  result.check(l.unclassifiable == std::stoull(feed.oracle.at("unclassifiable")),
               phase + ": unclassifiable drops differ from the batch path's");
  result.check(l.writer.delivered == fleet.sink.receipts().size(),
               phase + ": writer delivered != sink receipts");
  result.count(l.offered, l.failed());
  return l;
}

std::size_t tenant_index(const std::string& name) {
  return static_cast<std::size_t>(std::stoul(name.substr(name.rfind('-') + 1)));
}

std::uint64_t shard_key(std::size_t tenant, std::uint32_t vip) {
  return tenant * kShards + dm::serve::Supervisor::shard_of(vip, kShards);
}

Closings closings_of(const Feed& feed, const std::vector<dm::serve::TenantSpec>& tenants) {
  Closings c;
  // route() needs a supervisor; this one never ingests.
  const dm::serve::Supervisor router(feed.cloud(), nullptr, tenants,
                                     dm::serve::ServeConfig{});
  std::map<std::uint64_t, dm::util::Minute> newest;
  for (std::size_t i = 0; i < feed.records.size(); ++i) {
    const FlowRecord& r = feed.records[i];
    const auto direction = dm::netflow::classify(r, feed.cloud());
    if (!direction || r.packets == 0) continue;
    const dm::netflow::OrientedFlow flow{&r, *direction};
    const std::uint64_t shard = shard_key(router.route(r), flow.vip().value());
    const auto it = newest.find(shard);
    if (it != newest.end() && it->second >= r.minute) continue;
    newest[shard] = r.minute;
    c.index.note(shard, r.minute);
    c.transitions.push_back({i, shard});
  }
  return c;
}

/// Per-call figures of traced closed passes, split by what the call did.
struct CallClasses {
  enum Class { kIngest = 0, kMinuteClose = 1, kRotate = 2 };
  std::array<std::vector<double>, 3> seconds;
  std::uint64_t state_bytes_peak = 0;
  std::uint64_t open_windows_peak = 0;
};

struct ClosedPass {
  Cost cost;
  double finish_s = 0.0;  ///< Supervisor::finish()
  double close_s = 0.0;   ///< BufferedWriter::close()
  Ledger ledger;
  std::uint64_t checkpoint_bytes = 0;
};

std::uint64_t generation_bytes(const std::string& state_dir, std::int64_t generation) {
  const fs::path dir = fs::path(state_dir) / ("gen-" + std::to_string(generation));
  std::uint64_t bytes = 0;
  if (!fs::is_directory(dir)) return 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// Wall times of one closed-loop replay.
struct Replay {
  double wall_s = 0.0;    ///< first record through BufferedWriter::close()
  double finish_s = 0.0;  ///< Supervisor::finish()
  double close_s = 0.0;   ///< BufferedWriter::close()
};

/// Pushes every record of `feed` into a started fleet as fast as it takes
/// them, then finish() and close(). `traced` (may be null) gets the per-call
/// classes and the state gauges sampled at minute closes.
Replay replay_closed(Fleet& fleet, const Feed& feed, CallClasses* traced) {
  dm::serve::Supervisor& sup = *fleet.supervisor;
  const Clock::time_point t0 = Clock::now();
  if (traced == nullptr) {
    for (const FlowRecord& r : feed.records) sup.ingest_routed(r);
  } else {
    dm::util::Minute previous = feed.records.empty() ? 0 : feed.records.front().minute;
    for (const FlowRecord& r : feed.records) {
      const std::int64_t generation = sup.last_generation();
      const Clock::time_point a = Clock::now();
      sup.ingest_routed(r);
      const Clock::time_point b = Clock::now();
      const bool crossed = r.minute != previous;
      previous = r.minute;
      const int cls = sup.last_generation() != generation ? CallClasses::kRotate
                      : crossed                          ? CallClasses::kMinuteClose
                                                         : CallClasses::kIngest;
      traced->seconds[static_cast<std::size_t>(cls)].push_back(seconds_between(a, b));
      if (!crossed) continue;
      for (std::size_t t = 0; t < sup.tenant_count(); ++t) {
        for (std::uint32_t s = 0; s < kShards; ++s) {
          const auto& m = sup.monitor(t, s);
          traced->state_bytes_peak = std::max(traced->state_bytes_peak, m.approx_state_bytes());
          traced->open_windows_peak =
              std::max<std::uint64_t>(traced->open_windows_peak, m.open_window_count());
        }
      }
    }
  }
  const Clock::time_point t1 = Clock::now();
  sup.finish();
  const Clock::time_point t2 = Clock::now();
  fleet.writer->close();
  const Clock::time_point t3 = Clock::now();
  return Replay{seconds_between(t0, t3), seconds_between(t1, t2), seconds_between(t2, t3)};
}

/// Checks a replayed fleet against the oracle, then removes its state dir.
ClosedPass finish_pass(std::unique_ptr<Fleet> fleet, const Feed& feed, std::size_t k,
                       Result& result) {
  ClosedPass pass;
  pass.ledger = check_fleet(*fleet, feed, "scenario " + std::to_string(k) + " closed loop",
                            result);
  pass.checkpoint_bytes =
      generation_bytes(fleet->state_dir, fleet->supervisor->last_generation());
  const std::string state_dir = fleet->state_dir;
  fleet.reset();
  fs::remove_all(state_dir);
  return pass;
}

/// One closed-loop replay of feed k on the calling thread (the traced run).
ClosedPass closed_pass(World& world, std::size_t k, Result& result, CallClasses* traced) {
  const Feed& feed = world.feeds[k];
  auto fleet = start_fleet(world, feed, fresh_state_dir(world), result);
  const Meter meter;
  const Replay replay = replay_closed(*fleet, feed, traced);
  const Cost cost = meter.stop();
  ClosedPass pass = finish_pass(std::move(fleet), feed, k, result);
  pass.cost = cost;
  pass.finish_s = replay.finish_s;
  pass.close_s = replay.close_s;
  return pass;
}

/// One closed-loop round of the untraced run: every feed replayed once, by
/// `threads` supervisors at a time, one per thread. Each replay's time
/// reflects the core it ran on, and scenarios land on different cores from
/// round to round, so per-core speed swings of the shared host average out
/// of the per-scenario medians. CPU time and peak memory are measured over
/// the round and shared out evenly, as every feed has the same records.
void closed_round(World& world, unsigned threads, Result& result, ScenarioMix& mix,
                  std::vector<double>& setups) {
  const std::size_t n = world.feeds.size();
  std::vector<std::unique_ptr<Fleet>> fleets(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::string dir = fresh_state_dir(world);
    setups.push_back(
        time_setup([&] { fleets[k] = start_fleet(world, world.feeds[k], dir, result); }));
  }
  std::vector<Replay> replays(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  begin_peak_window();
  const Meter meter;
  {
    std::vector<std::jthread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (std::size_t k = next++; k < n; k = next++) {
          try {
            replays[k] = replay_closed(*fleets[k], world.feeds[k], nullptr);
          } catch (...) {
            errors[k] = std::current_exception();
          }
        }
      });
    }
  }
  const Cost cost = meter.stop();
  const double peak = peak_rss_bytes();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  const auto share = static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    finish_pass(std::move(fleets[k]), world.feeds[k], k, result);
    mix.add(k, replays[k].wall_s, cost.cpu_s() / share, peak / share);
  }
}

struct OpenPass {
  std::vector<double> latency_s;     ///< per alert, from the closing record's due time
  std::vector<double> queue_wait_s;  ///< per alert, from the closing call's start
  std::vector<double> lateness_s;    ///< per feed minute
};

void open_pass(World& world, std::size_t k, Result& result, OpenPass& out) {
  const Feed& feed = world.feeds[k];
  if (feed.records.empty()) return;
  auto fleet = start_fleet(world, feed, "", result);
  dm::serve::Supervisor& sup = *fleet->supervisor;
  const dm::util::Minute last = feed.records.back().minute;
  const Schedule schedule = Schedule::by_records(
      feed.records, kOpenLoopRate, Clock::now() + std::chrono::milliseconds(2));
  // Start of the call that ingested each clock-advancing record.
  const auto& transitions = feed.closings.transitions;
  std::vector<Clock::time_point> transition_start(transitions.size());
  std::size_t next = 0;
  const std::vector<double> lateness = run_open_loop(
      feed.records, schedule,
      [&](std::size_t i, const FlowRecord& r, Clock::time_point start) {
        if (next < transitions.size() && transitions[next].record == i) {
          transition_start[next++] = start;
        }
        sup.ingest_routed(r);
      });
  const Clock::time_point finish_start = Clock::now();
  sup.finish();
  fleet->writer->close();
  check_fleet(*fleet, feed, "scenario " + std::to_string(k) + " open loop", result);
  out.lateness_s.insert(out.lateness_s.end(), lateness.begin(), lateness.end());

  std::map<std::pair<std::uint64_t, dm::util::Minute>, Clock::time_point> call_start;
  for (std::size_t t = 0; t < transitions.size(); ++t) {
    call_start[{transitions[t].shard, feed.records[transitions[t].record].minute}] =
        transition_start[t];
  }
  bool causal = true;
  for (const TimestampSink::Receipt& r : fleet->sink.receipts()) {
    if (r.event.kind != dm::serve::Event::Kind::kAlert) continue;
    const std::uint64_t shard = shard_key(tenant_index(r.event.tenant), r.event.vip);
    const dm::util::Minute closing =
        feed.closings.index.closing_minute(shard, r.event.start, last + 1);
    out.latency_s.push_back(seconds_between(schedule.due(closing), r.at));
    const auto it = call_start.find({shard, closing});
    const Clock::time_point trigger = it == call_start.end() ? finish_start : it->second;
    out.queue_wait_s.push_back(seconds_between(trigger, r.at));
    causal = causal && out.queue_wait_s.back() >= 0.0;
  }
  result.check(causal, "scenario " + std::to_string(k) +
                           " open loop: an alert arrived before the call that closed its minute");
}

double p99_ms(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  return percentile(seconds, 99.0) * 1e3;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace

void prepare_stream_serve(const Options& o) {
  for (std::size_t k = 0; k < kScenarios; ++k) {
    const dm::sim::ScenarioConfig config = scenario_config(o, k, kVips, kDays);
    const dm::sim::Scenario scenario(config);
    dm::exec::ThreadPool pool(dm::exec::workers_for(config.thread_count));
    std::vector<FlowRecord> feed = dm::sim::generate_trace(scenario, &pool).records;
    // A collector feed arrives in time order; the stable sort keeps the
    // generator's order within a minute, so the feed is a function of the seed.
    // dmlint: total-order(stable_sort keeps the generated order within one minute)
    std::stable_sort(feed.begin(), feed.end(), [](const FlowRecord& a, const FlowRecord& b) {
      return a.minute < b.minute;
    });
    if (feed.size() < kFeedRecords) {
      throw std::runtime_error("stream_serve: a scenario has only " +
                               std::to_string(feed.size()) + " records");
    }
    feed.resize(kFeedRecords);
    dm::netflow::write_trace_file(work_file(o, "feed", k, ".dmnf"), feed, config.sampling);
    sync_file(work_file(o, "feed", k, ".dmnf"));
    const dm::netflow::WindowedTrace windowed = dm::netflow::aggregate_windows(
        std::move(feed), scenario.vips().cloud_space(), &scenario.tds().as_prefix_set(),
        &pool);
    const dm::detect::DetectionResult detection =
        dm::detect::DetectionPipeline{}.run(windowed, &pool);
    write_oracle(work_file(o, "oracle", k, ".txt"),
                 {{"incidents", digest_of<dm::detect::AttackIncident>(detection.incidents)},
                  {"alerts", digest_of<dm::detect::MinuteDetection>(detection.minutes)},
                  {"unclassifiable", std::to_string(windowed.unclassified_records())}});
  }
}

Result run_stream_serve(const Options& o) {
  World world;
  world.config.seed = o.seed;
  world.config.rotation_interval = kRotationMinutes;
  world.config.keep_generations = 2;
  for (std::size_t t = 0; t < kTenants; ++t) {
    dm::serve::TenantSpec spec;
    spec.name = "tenant-" + std::to_string(t);
    spec.shards = kShards;
    world.tenants.push_back(spec);
  }
  for (std::size_t k = 0; k < kScenarios; ++k) {
    world.feeds.push_back(Feed{dm::sim::Scenario(scenario_config(o, k, kVips, kDays)),
                               dm::netflow::read_trace_file(work_file(o, "feed", k, ".dmnf")),
                               read_oracle(work_file(o, "oracle", k, ".txt")),
                               {}});
    world.feeds.back().closings = closings_of(world.feeds.back(), world.tenants);
  }
  world.state_root = o.work_dir;
  Result result;

  // Set-up is sampled at every supervisor start, so its median spans the
  // whole run rather than one moment of it.
  std::vector<double> setups;

  const auto records = static_cast<double>(kFeedRecords);
  const Clock::time_point begin = Clock::now();
  if (!o.trace) {
    ScenarioMix mix(std::vector<double>(kScenarios, records));
    // One core is left to the writer threads: a drain that waits for a busy
    // core to free up would put the host's scheduling into the replay time.
    const unsigned concurrent = std::max(1u, o.threads - 1);
    do {
      closed_round(world, concurrent, result, mix, setups);
    } while (seconds_between(begin, Clock::now()) < o.seconds);
    mix.emit(result);
    result.add("setup_s", median(setups), "s");
    return result;
  }

  // Traced: per feed, an untraced closed pass for the overhead baseline and
  // a traced closed pass for the per-call classes; then traced open passes.
  std::vector<double> plain_s, traced_s, remainder_s;
  CallClasses calls;
  Ledger ledger;
  double finish_s = 0.0;
  std::uint64_t checkpoint_bytes = 0;
  Tracer tracer;  // one span per pass; per-call figures are kept as CallClasses
  for (std::size_t k = 0; k < kScenarios; ++k) {
    {
      Tracer::Scope span(&tracer, "stream_serve.closed_pass");
      plain_s.push_back(closed_pass(world, k, result, nullptr).cost.wall_s);
    }
    CallClasses pass_calls;
    ClosedPass pass;
    {
      Tracer::Scope span(&tracer, "stream_serve.traced_closed_pass");
      pass = closed_pass(world, k, result, &pass_calls);
    }
    traced_s.push_back(pass.cost.wall_s);
    double in_calls = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      in_calls += sum(pass_calls.seconds[c]);
      calls.seconds[c].insert(calls.seconds[c].end(), pass_calls.seconds[c].begin(),
                              pass_calls.seconds[c].end());
    }
    remainder_s.push_back(pass.cost.wall_s - in_calls - pass.finish_s);
    calls.state_bytes_peak = std::max(calls.state_bytes_peak, pass_calls.state_bytes_peak);
    calls.open_windows_peak = std::max(calls.open_windows_peak, pass_calls.open_windows_peak);
    ledger.add(pass.ledger);
    finish_s += pass.finish_s;
    checkpoint_bytes = std::max(checkpoint_bytes, pass.checkpoint_bytes);
  }
  OpenPass open;
  for (std::size_t k = 0; k < kScenarios; ++k) {
    Tracer::Scope span(&tracer, "stream_serve.open_pass");
    open_pass(world, k, result, open);
  }
  if (!o.spans_out.empty()) tracer.write_json(o.spans_out);

  // Per-layer figures cover the run's traced closed passes together.
  const char* names[] = {"serve.ingest", "serve.minute_close", "serve.rotate"};
  for (std::size_t c = 0; c < 3; ++c) {
    const std::string name = names[c];
    result.add(name + ".wall_s", sum(calls.seconds[c]), "s");
    result.add(name + ".calls", static_cast<double>(calls.seconds[c].size()), "count");
    result.add(name + ".p99_ms", p99_ms(calls.seconds[c]), "ms");
  }
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  result.add("serve.finish.wall_s", finish_s, "s");
  result.add("serve.checkpoint_bytes", count(checkpoint_bytes), "B");
  result.add("serve.writer.enqueued", count(ledger.writer.enqueued), "count");
  result.add("serve.writer.delivered", count(ledger.writer.delivered), "count");
  result.add("serve.writer.retries", count(ledger.writer.retries), "count");
  result.add("serve.writer.dropped", count(ledger.writer.dropped), "count");
  result.add("serve.writer.queue_wait_p99_ms", p99_ms(open.queue_wait_s), "ms");
  result.add("serve.shed", count(ledger.shed), "count");
  result.add("serve.failed_ratio", count(ledger.failed()) / count(ledger.offered), "ratio");
  result.add("feed.lateness_p99_ms", p99_ms(open.lateness_s), "ms");
  std::vector<double> latency_ms;
  for (const double s : open.latency_s) latency_ms.push_back(s * 1e3);
  std::sort(latency_ms.begin(), latency_ms.end());
  result.check(samples_beyond(latency_ms.size(), 99.0) >= 10,
               "open loop: fewer than ten alerts beyond p99");
  result.add("serve.alert_latency.p50_ms", percentile(latency_ms, 50.0), "ms");
  result.add("serve.alert_latency.p99_ms", percentile(latency_ms, 99.0), "ms");
  const Tail tail = highest_tail(open.latency_s);
  result.add("serve.alert_latency.samples", count(tail.samples), "count");
  result.add("serve.alert_latency.tail_percentile", tail.percentile, "percentile");
  result.add("serve.alert_latency.tail_ms", tail.value * 1e3, "ms");
  result.add("detect.stream.state_bytes_peak", count(calls.state_bytes_peak), "B");
  result.add("detect.stream.open_windows_peak", count(calls.open_windows_peak), "count");
  result.add("detect.stream.late", count(ledger.late), "count");
  result.add("detect.stream.unclassifiable", count(ledger.unclassifiable), "count");
  result.add("detect.stream.duplicate", count(ledger.duplicate), "count");
  result.add("detect.stream.quarantined", count(ledger.quarantined), "count");
  const double plain = median(plain_s);
  const double overhead = median(traced_s) - plain;
  result.add("bench.trace_overhead_s", overhead, "s");
  result.add("bench.trace_overhead_ratio", overhead / plain, "ratio");
  result.add("bench.untimed_remainder_s", median(remainder_s), "s");
  return result;
}

}  // namespace perfbench
