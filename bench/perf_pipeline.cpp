// google-benchmark microbenchmarks of the end-to-end pipeline stages:
// trace generation, window aggregation, detection and the study report.
// The first three are parameterized by thread count, so a run prints a
// threads-vs-throughput scaling table per stage plus end-to-end (the
// BM_*/N rows; items/s is the throughput column). Output is byte-identical
// across thread counts by construction, so the rows measure the same work.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/study.h"
#include "detect/pipeline.h"
#include "exec/thread_pool.h"
#include "netflow/varint.h"
#include "netflow/window_aggregator.h"
#include "serve/supervisor.h"
#include "serve/writer.h"
#include "sim/trace_generator.h"

namespace {

using namespace dm;

/// Peak resident set size (high-water mark) of the process in MiB.
/// getrusage-based, so it is monotone over the process lifetime: a row's
/// value is the largest footprint of anything run so far, which is why the
/// memory-sensitive benchmarks run in separate processes (see
/// tools/bench_json.sh).
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Resident footprint of the columnar record store, normalized per kept
/// record — the compression headline next to the 41 bytes/record the old
/// array-of-structs storage (FlowRecord + Direction) cost.
double encoded_bytes_per_record(const netflow::WindowedTrace& trace) {
  const std::size_t n = trace.record_count();
  if (n == 0) return 0.0;
  return static_cast<double>(trace.store().encoded_bytes()) /
         static_cast<double>(n);
}

sim::ScenarioConfig perf_config() {
  auto config = sim::ScenarioConfig::smoke();
  config.vips.vip_count = 200;
  config.days = 1;
  config.seed = 77;
  return config;
}

const sim::Scenario& perf_scenario() {
  static const sim::Scenario scenario{perf_config()};
  return scenario;
}

const sim::TraceResult& perf_trace() {
  static const sim::TraceResult trace = sim::generate_trace(perf_scenario());
  return trace;
}

const netflow::WindowedTrace& perf_windows() {
  static const netflow::WindowedTrace windows = [] {
    auto records = perf_trace().records;
    return netflow::aggregate_windows(
        std::move(records), perf_scenario().vips().cloud_space(),
        &perf_scenario().tds().as_prefix_set());
  }();
  return windows;
}

// Kernel-level decode throughput, visible separately from end-to-end noise:
// get_varint, the byte-loop decoder under the store Cursor and the trace
// reader, over a deterministic stream of mixed-width varints (encoded
// lengths cycling 1..8 bytes, the columnar payload's range). The swar:0 row
// name predates the removal of a SWAR kernel; it stays so the bench gate
// and the BENCH_pipeline.json snapshot keep matching.
void BM_VarintDecode(benchmark::State& state) {
  constexpr std::size_t kCount = 1 << 20;
  std::vector<std::uint8_t> buf;
  buf.reserve(kCount * 5);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < kCount; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const unsigned bits = 1 + static_cast<unsigned>((i * 7) % 56);
    netflow::put_varint(buf, x & (~std::uint64_t{0} >> (64 - bits)));
  }

  for (auto _ : state) {
    const std::uint8_t* p = buf.data();
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kCount; ++i) acc += netflow::get_varint(p);
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(kCount));
  }
}
BENCHMARK(BM_VarintDecode)
    ->ArgName("swar")
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

// Full-store decode: the record Cursor over the aggregated canonical store,
// the codec-level view of decode cost on real run-length/delta-encoded
// data. The block:0 row name likewise predates the removal of a block
// decoder and is kept for the gate and the snapshot.
void BM_BlockDecode(benchmark::State& state) {
  const netflow::RecordStore& store = perf_windows().store();
  const std::size_t n = store.size();

  for (auto _ : state) {
    std::uint64_t acc = 0;
    netflow::RecordStore::Cursor cursor = store.cursor_at(0);
    while (cursor.next()) {
      const netflow::FlowRecord& r = cursor.record();
      const netflow::OrientedFlow f{&r, cursor.direction()};
      acc += r.bytes + f.remote_ip().value() + r.packets;
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(n));
  }
}
BENCHMARK(BM_BlockDecode)
    ->ArgName("block")
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

void BM_GenerateTrace(benchmark::State& state) {
  exec::ThreadPool pool(
      exec::workers_for(static_cast<unsigned>(state.range(0))));
  for (auto _ : state) {
    const auto result = sim::generate_trace(perf_scenario(), &pool);
    benchmark::DoNotOptimize(result.records.data());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(result.records.size()));
  }
}
BENCHMARK(BM_GenerateTrace)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_AggregateWindows(benchmark::State& state) {
  exec::ThreadPool pool(
      exec::workers_for(static_cast<unsigned>(state.range(0))));
  for (auto _ : state) {
    // The input deep copy is setup, not aggregation — keep it out of the
    // timed region so the row measures the aggregation stage only.
    state.PauseTiming();
    auto records = perf_trace().records;
    state.ResumeTiming();
    const auto windows = netflow::aggregate_windows(
        std::move(records), perf_scenario().vips().cloud_space(),
        &perf_scenario().tds().as_prefix_set(), &pool);
    benchmark::DoNotOptimize(windows.windows().data());
    state.SetItemsProcessed(
        state.items_processed() +
        static_cast<std::int64_t>(perf_trace().records.size()));
  }
}
BENCHMARK(BM_AggregateWindows)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The fused generate→aggregate path: per-shard generation, packed-key
/// radix sort, and window build with no global unsorted record vector.
/// Compare against BM_GenerateTrace + BM_AggregateWindows at the same
/// thread count for the fusion win.
void BM_FusedGenerateWindows(benchmark::State& state) {
  exec::ThreadPool pool(
      exec::workers_for(static_cast<unsigned>(state.range(0))));
  double bytes_per_record = 0.0;
  for (auto _ : state) {
    const auto fused = sim::generate_windows(perf_scenario(), &pool);
    benchmark::DoNotOptimize(fused.windowed.windows().data());
    state.SetItemsProcessed(
        state.items_processed() +
        static_cast<std::int64_t>(fused.generated_records));
    bytes_per_record = encoded_bytes_per_record(fused.windowed);
  }
  state.counters["peak_rss_mib"] = peak_rss_mib();
  state.counters["encoded_bytes_per_record"] = bytes_per_record;
}
BENCHMARK(BM_FusedGenerateWindows)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_DetectMinutes(benchmark::State& state) {
  exec::ThreadPool pool(
      exec::workers_for(static_cast<unsigned>(state.range(0))));
  const detect::DetectionPipeline pipeline;
  for (auto _ : state) {
    const auto minutes = pipeline.detect_minutes(perf_windows(), &pool);
    benchmark::DoNotOptimize(minutes.data());
    state.SetItemsProcessed(
        state.items_processed() +
        static_cast<std::int64_t>(perf_windows().windows().size()));
  }
}
BENCHMARK(BM_DetectMinutes)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_FullDetection(benchmark::State& state) {
  const detect::DetectionPipeline pipeline;
  for (auto _ : state) {
    const auto result = pipeline.run(perf_windows());
    benchmark::DoNotOptimize(result.incidents.data());
  }
}
BENCHMARK(BM_FullDetection)->Unit(benchmark::kMillisecond);

/// The study report (every §3-§6 exhibit) over a finished bench-scale
/// study; items/s counts the study's sampled records. The report runs on
/// the calling thread, so this row has no threads axis. Not gated.
void BM_BuildReport(benchmark::State& state) {
  static const core::Study study(perf_config());
  for (auto _ : state) {
    const core::StudyReport report = core::build_report(study);
    benchmark::DoNotOptimize(report.spoofing.verdicts.data());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(study.record_count()));
  }
}
BENCHMARK(BM_BuildReport)->Unit(benchmark::kMillisecond);

/// The serve fleet under sustained overload: a two-tenant supervisor fed
/// the bench trace in feed-minute order, with rate and memory budgets set
/// low enough that both shed paths fire every minute, checkpoint rotation
/// live (the pool parallelizes generation serialization — the threads
/// axis), and events flowing through the buffered writer into a flaky sink
/// so the retry/backoff and drop ledgers do real work. The counters are
/// the degradation cost BENCH_pipeline.json tracks per PR: shed_records
/// (admission control), writer_retries / writer_dropped (sink backoff).
void BM_ServeOverload(benchmark::State& state) {
  exec::ThreadPool pool(
      exec::workers_for(static_cast<unsigned>(state.range(0))));
  static const std::vector<netflow::FlowRecord> feed = [] {
    // Traces are canonical per-VIP order; the service consumes feed time.
    auto records = perf_trace().records;
    // dmlint: total-order(stable_sort keeps the canonical trace order for records within one minute)
    std::stable_sort(records.begin(), records.end(),
                     [](const netflow::FlowRecord& a,
                        const netflow::FlowRecord& b) {
                       return a.minute < b.minute;
                     });
    return records;
  }();

  const std::string state_dir =
      (std::filesystem::temp_directory_path() / "dm_bench_serve").string();
  double shed_records = 0.0;
  double writer_retries = 0.0;
  double writer_dropped = 0.0;
  for (auto _ : state) {
    std::filesystem::remove_all(state_dir);
    serve::NullSink null;
    serve::FlakySink flaky(null, 7, 0.3, 4);
    serve::WriterConfig wconfig;
    wconfig.threaded = false;  // inline: the counters are feed-deterministic
    wconfig.max_attempts = 3;
    serve::BufferedWriter writer(flaky, wconfig);

    std::vector<serve::TenantSpec> tenants;
    tenants.push_back({"alpha", 2, 40, 0, 4});  // rate budget trips per minute
    tenants.push_back({"beta", 2, 0, 1, 8});    // memory budget always tripped
    serve::ServeConfig config;
    config.seed = 33;
    config.rotation_interval = 120;
    config.state_dir = state_dir;
    serve::Supervisor sup(perf_scenario().vips().cloud_space(), nullptr,
                          std::move(tenants), config, &writer, &pool);
    for (const auto& r : feed) sup.ingest_routed(r);
    sup.finish();
    writer.close();

    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(feed.size()));
    shed_records = static_cast<double>(sup.book(0).shed + sup.book(1).shed);
    const serve::WriterStats stats = writer.stats();
    writer_retries = static_cast<double>(stats.retries);
    writer_dropped = static_cast<double>(stats.dropped);
  }
  std::filesystem::remove_all(state_dir);
  state.counters["shed_records"] = shed_records;
  state.counters["writer_retries"] = writer_retries;
  state.counters["writer_dropped"] = writer_dropped;
}
BENCHMARK(BM_ServeOverload)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// End-to-end Study (generate + aggregate + detect) at bench scale; the
/// threads-vs-wall-time rows are the headline scaling table.
void BM_StudyEndToEnd(benchmark::State& state) {
  auto config = perf_config();
  config.thread_count = static_cast<unsigned>(state.range(0));
  double bytes_per_record = 0.0;
  for (auto _ : state) {
    const core::Study study(config);
    benchmark::DoNotOptimize(study.detection().incidents.data());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(study.record_count()));
    bytes_per_record = encoded_bytes_per_record(study.trace());
  }
  state.counters["peak_rss_mib"] = peak_rss_mib();
  state.counters["encoded_bytes_per_record"] = bytes_per_record;
}
BENCHMARK(BM_StudyEndToEnd)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Same scaling table at the paper-scale scenario (1.5k VIPs, 7 days) —
/// slow; run explicitly with --benchmark_filter=PaperScale, one row per
/// process (peak RSS is a process high-water mark).
void BM_StudyPaperScale(benchmark::State& state) {
  auto config = sim::ScenarioConfig::paper_scale();
  config.thread_count = static_cast<unsigned>(state.range(0));
  double bytes_per_record = 0.0;
  for (auto _ : state) {
    const core::Study study(config);
    benchmark::DoNotOptimize(study.detection().incidents.data());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(study.record_count()));
    bytes_per_record = encoded_bytes_per_record(study.trace());
  }
  state.counters["peak_rss_mib"] = peak_rss_mib();
  state.counters["encoded_bytes_per_record"] = bytes_per_record;
}
BENCHMARK(BM_StudyPaperScale)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

/// Simulated longitudinal study (1.6k VIPs × 28 days ≈ 64.5M VIP-minutes,
/// ~4.3× the paper-scale table, at production-density benign traffic) — the
/// workload the out-of-core spill tier exists for. spill:0 keeps the whole
/// columnar trace resident; spill:1 bounds resident trace memory with a
/// segment spill directory, and its peak_rss_mib against spill:0's is the
/// headline of DESIGN.md §5f. Output is byte-identical across the two rows
/// by construction (the SpillEquivalence suite holds the pipeline to that).
///
/// Slow (minutes per row) — run explicitly with
/// --benchmark_filter=Longitudinal, one row per process (peak RSS is a
/// process high-water mark; DM_BENCH_LONG=1 in tools/bench_json.sh does
/// this). DM_LONG_VIPS / DM_LONG_DAYS override the scale for quick probes.
void BM_StudyLongitudinal(benchmark::State& state) {
  auto config = sim::ScenarioConfig::paper_scale();
  config.vips.vip_count = 1600;
  config.days = 28;
  config.seed = 4242;
  config.thread_count = 1;
  // Longitudinal runs model production-density benign traffic — the 0.12
  // bench default exists because the trace had to fit in RAM, which is the
  // constraint the spill tier removes.
  config.benign_scale = 8.0;
  if (const char* v = std::getenv("DM_LONG_VIPS")) {
    config.vips.vip_count = static_cast<std::uint32_t>(std::atoi(v));
  }
  if (const char* d = std::getenv("DM_LONG_DAYS")) config.days = std::atoi(d);
  if (const char* b = std::getenv("DM_LONG_BENIGN")) {
    config.benign_scale = std::atof(b);
  }

  const bool spill = state.range(0) != 0;
  std::string spill_dir;
  if (spill) {
    spill_dir =
        (std::filesystem::temp_directory_path() / "dm_bench_longitudinal")
            .string();
    std::filesystem::remove_all(spill_dir);
    config.spill.directory = spill_dir;
    config.spill.segment_bytes = 64ull << 20;
    config.spill.ram_budget_bytes = 256ull << 20;
  }

  double bytes_per_record = 0.0;
  double segments = 0.0;
  double store_mib = 0.0;
  double windows_mib = 0.0;
  for (auto _ : state) {
    const core::Study study(config);
    benchmark::DoNotOptimize(study.detection().incidents.data());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(study.record_count()));
    bytes_per_record = encoded_bytes_per_record(study.trace());
    segments = static_cast<double>(
        study.trace().store().segments().segment_count());
    constexpr double kMiB = 1024.0 * 1024.0;
    store_mib = static_cast<double>(study.trace().store().encoded_bytes()) /
                kMiB;  // on disk when spilled, in RAM when resident
    windows_mib = static_cast<double>(study.trace().windows().size() *
                                      sizeof(netflow::VipMinuteStats)) /
                  kMiB;
  }
  state.counters["peak_rss_mib"] = peak_rss_mib();
  state.counters["store_mib"] = store_mib;
  state.counters["windows_mib"] = windows_mib;
  state.counters["encoded_bytes_per_record"] = bytes_per_record;
  state.counters["vip_minutes"] = static_cast<double>(config.vips.vip_count) *
                                  static_cast<double>(config.total_minutes());
  state.counters["segments"] = segments;
  if (!spill_dir.empty()) std::filesystem::remove_all(spill_dir);
}
BENCHMARK(BM_StudyLongitudinal)
    ->ArgName("spill")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
