// Measurement primitives shared by the three workloads: resource-usage
// deltas, spans with self time, canonical output digests, tail percentiles,
// the open-loop feed generator, and the result record each run prints.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "detect/incident.h"
#include "netflow/flow_record.h"
#include "serve/sink.h"
#include "util/time.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);

// ---------------------------------------------------------------- rusage

/// Process-wide CPU time and minor faults (getrusage(RUSAGE_SELF): every
/// thread of the process, live or joined).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minflt = 0;
};
[[nodiscard]] Usage usage_now();

/// What one region cost: wall clock plus the rusage delta over it.
struct Cost {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minflt = 0;
  [[nodiscard]] double cpu_s() const noexcept { return user_s + sys_s; }
  /// (user + sys) / (wall x threads): 1.0 = every thread busy throughout.
  [[nodiscard]] double cpu_util(unsigned threads) const noexcept;
};

/// Times a region: construct at its start, call stop() at its end.
class Meter {
 public:
  Meter() : t0_(Clock::now()), u0_(usage_now()) {}
  [[nodiscard]] Cost stop() const;

 private:
  Clock::time_point t0_;
  Usage u0_;
};

/// Starts a peak-memory window: returns free heap to the kernel and resets
/// the resident-set high-water mark to the current RSS (Linux
/// /proc/self/clear_refs).
void begin_peak_window();
/// The resident-set high-water mark (VmHWM) in bytes: since the last
/// begin_peak_window(), or since the process started.
[[nodiscard]] double peak_rss_bytes();

// ----------------------------------------------------------------- spans

/// One timed call into a layer. Spans nest through `parent` (-1 = root).
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  Clock::time_point start;
  Clock::time_point end;
  Usage begin_usage;
  Usage end_usage;

  [[nodiscard]] Cost cost() const;
};

/// An in-memory span log. A null Tracer* turns every Scope into a no-op, so
/// one code path serves the traced and the untraced run.
class Tracer {
 public:
  /// RAII span: opens on construction, closes on destruction. The span
  /// opened most recently and still open is the parent.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const noexcept { return id_; }

   private:
    Tracer* tracer_;
    int id_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Appends an already-measured span (used by the self-tests).
  int add(Span span);

  /// Duration minus the part of it covered by the union of its children.
  [[nodiscard]] double self_time(int id) const;
  /// Sum of Cost over every span with this name.
  [[nodiscard]] Cost total(const std::string& name) const;

  /// Writes the spans as a JSON array (times relative to the first span).
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --------------------------------------------------------------- digests

/// One canonical output row: (vip, direction, type, start, end, packets,
/// remotes). An incident maps straight onto it; a minute alert uses
/// start = minute, end = minute + 1, as serve::Event does.
using Row = std::array<std::int64_t, 7>;

[[nodiscard]] Row row_of(const dm::detect::AttackIncident& incident);
[[nodiscard]] Row row_of(const dm::detect::MinuteDetection& alert);
[[nodiscard]] Row row_of(const dm::serve::Event& event);

/// "<count>:<fnv1a-64 hex>" over the rows in sorted order, so the digest
/// does not depend on the order in which the rows were produced.
[[nodiscard]] std::string digest(std::vector<Row> rows);

template <class T>
[[nodiscard]] std::string digest_of(std::span<const T> items) {
  std::vector<Row> rows;
  rows.reserve(items.size());
  for (const T& item : items) rows.push_back(row_of(item));
  return digest(std::move(rows));
}

// ----------------------------------------------------------- percentiles

/// Nearest-rank percentile of ascending `sorted` (p in (0, 100)).
[[nodiscard]] double percentile(std::span<const double> sorted, double p);
/// Samples strictly above the nearest-rank p-th percentile's rank.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The highest percentile of the ladder 50, 90, 99, 99.9, ... that still has
/// at least ten samples beyond it; percentile = 0 when even the median does
/// not (fewer than 20 samples).
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
[[nodiscard]] Tail highest_tail(std::vector<double> values);

[[nodiscard]] double median(std::vector<double> values);

// ------------------------------------------------------------- open loop

/// Maps feed minutes onto a fixed wall-clock schedule: feed minute
/// `first + i` is due at t0 + offset[i]. Minutes past the end are due at the
/// last offset, which is one step after the feed's last minute.
struct Schedule {
  Clock::time_point t0;
  dm::util::Minute first = 0;
  std::vector<Clock::duration> offset;

  [[nodiscard]] Clock::time_point due(dm::util::Minute minute) const;

  /// Minute m is due when the records of every earlier minute would have
  /// been sent at a constant `records_per_s`: the offered load is steady on
  /// average, and each minute's records are released together.
  [[nodiscard]] static Schedule by_records(std::span<const dm::netflow::FlowRecord> feed,
                                           double records_per_s, Clock::time_point t0);
  /// One `tick` per feed minute.
  [[nodiscard]] static Schedule uniform(dm::util::Minute first, dm::util::Minute minutes,
                                        Clock::duration tick, Clock::time_point t0);
};

/// Feeds a time-ordered record feed on `schedule`: every record of feed
/// minute m is released at due(m), whether or not the system kept up, so a
/// stall delays the records behind it. `ingest(index, record, call_start)`
/// is invoked for each record. Returns how late (seconds) the generator
/// released each feed minute.
template <class Ingest>
std::vector<double> run_open_loop(std::span<const dm::netflow::FlowRecord> feed,
                                  const Schedule& schedule, Ingest&& ingest) {
  std::vector<double> lateness;
  dm::util::Minute current = 0;
  for (std::size_t i = 0; i < feed.size(); ++i) {
    const auto& record = feed[i];
    if (i == 0 || record.minute != current) {
      current = record.minute;
      const Clock::time_point due = schedule.due(current);
      // Spin: a sleeping thread wakes tens to hundreds of microseconds late,
      // which would count against the system. Only long gaps sleep, and
      // stop a millisecond short.
      if (due - Clock::now() > std::chrono::milliseconds(3)) {
        std::this_thread::sleep_until(due - std::chrono::milliseconds(1));
      }
      while (Clock::now() < due) {
      }
      lateness.push_back(seconds_between(due, Clock::now()));
    }
    ingest(i, record, Clock::now());
  }
  return lateness;
}

/// For each shard (any integer key), the ascending distinct minutes of the
/// records that advance its clock. An alert for minute m is released by the
/// shard's first such record with minute > m — the minute-closing record.
class CloseIndex {
 public:
  void note(std::uint64_t shard, dm::util::Minute minute);
  /// The closing minute of an alert for `minute`, or `fallback` when no
  /// later record reaches the shard (the alert then waits for finish()).
  [[nodiscard]] dm::util::Minute closing_minute(std::uint64_t shard,
                                                dm::util::Minute minute,
                                                dm::util::Minute fallback) const;

 private:
  std::map<std::uint64_t, std::vector<dm::util::Minute>> minutes_;
};

/// A Sink that stamps every delivered event with its arrival time. Called
/// only from the writer's delivery thread; read it after the writer closed.
class TimestampSink final : public dm::serve::Sink {
 public:
  struct Receipt {
    dm::serve::Event event;
    Clock::time_point at;
  };
  [[nodiscard]] bool deliver(const dm::serve::Event& event) override;
  [[nodiscard]] const std::vector<Receipt>& receipts() const noexcept {
    return receipts_;
  }
  void reserve(std::size_t n) { receipts_.reserve(n); }

 private:
  std::vector<Receipt> receipts_;
};

// ---------------------------------------------------------------- result

/// What one run prints: metrics by name with units, the operations
/// attempted and lost, and every failed output check.
class Result {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check when `ok` is false.
  void check(bool ok, const std::string& what);
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const noexcept { return errors_.empty(); }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
  }
  /// The single-line JSON object a run ends with.
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Per-iteration values of each metric; emit() reports each one's median.
class Samples {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Adds the listed fields of one layer's cost under `name`: wall_s,
  /// user_s, sys_s, minflt, cpu_util.
  void add_cost(const std::string& name, const Cost& cost,
                std::initializer_list<const char*> fields, unsigned threads);
  void emit(Result& result) const;

 private:
  struct Series {
    std::string unit;
    std::vector<double> values;
  };
  std::map<std::string, Series> series_;
};

/// The end-to-end figures of passes over several scenarios. Each scenario
/// contributes the median of its passes; scenarios then add up by their
/// records, so no single scenario's traffic mix sets the run's figures.
class ScenarioMix {
 public:
  /// `records[k]`: the records one pass over scenario k processes.
  explicit ScenarioMix(std::vector<double> records);

  /// One pass over scenario k: `wall_s` is the timed pipeline
  /// (records_per_s), `cpu_s` the user+sys time and `peak_bytes` the RSS
  /// high-water mark of the pass.
  void add(std::size_t k, double wall_s, double cpu_s, double peak_bytes);
  [[nodiscard]] bool all_measured() const;
  /// Adds records_per_s, cpu_ns_per_record and peak_rss_bytes_per_record.
  void emit(Result& result) const;

 private:
  struct Passes {
    std::vector<double> wall_s, cpu_s, peak_bytes;
  };
  [[nodiscard]] double total(std::vector<double> Passes::*field) const;
  std::vector<double> records_;
  std::vector<Passes> passes_;
};


}  // namespace perfbench
