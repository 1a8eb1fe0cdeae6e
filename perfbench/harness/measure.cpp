#include "measure.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return Usage{secs(ru.ru_utime), secs(ru.ru_stime), ru.ru_minflt};
}

double Cost::cpu_util(unsigned threads) const noexcept {
  if (wall_s <= 0.0 || threads == 0) return 0.0;
  return cpu_s() / (wall_s * threads);
}

namespace {

Cost cost_between(Clock::time_point t0, Clock::time_point t1, const Usage& u0,
                  const Usage& u1) {
  return Cost{seconds_between(t0, t1), u1.user_s - u0.user_s,
              u1.sys_s - u0.sys_s, u1.minflt - u0.minflt};
}

}  // namespace

Cost Meter::stop() const {
  const Usage u1 = usage_now();
  return cost_between(t0_, Clock::now(), u0_, u1);
}

namespace {

/// A "<field>: <n> kB" line of /proc/self/status, in bytes; 0 if absent.
double status_bytes(const char* field) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) return std::stod(line.substr(prefix.size())) * 1024.0;
  }
  return 0.0;
}

}  // namespace

void begin_peak_window() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

double peak_rss_bytes() {
  const double hwm = status_bytes("VmHWM");
  if (hwm > 0.0) return hwm;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

// ----------------------------------------------------------------- spans

Cost Span::cost() const { return cost_between(start, end, begin_usage, end_usage); }

Tracer::Scope::Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = std::move(name);
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.begin_usage = usage_now();
  span.start = Clock::now();
  id_ = tracer_->add(std::move(span));
  tracer_->open_.push_back(id_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& span = tracer_->spans_[static_cast<std::size_t>(id_)];
  span.end = Clock::now();
  span.end_usage = usage_now();
  tracer_->open_.pop_back();
}

int Tracer::add(Span span) {
  span.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

double Tracer::self_time(int id) const {
  const Span& span = spans_.at(static_cast<std::size_t>(id));
  std::vector<std::pair<Clock::time_point, Clock::time_point>> children;
  for (const Span& s : spans_) {
    if (s.parent != id) continue;
    const auto a = std::max(s.start, span.start);
    const auto b = std::min(s.end, span.end);
    if (a < b) children.emplace_back(a, b);
  }
  std::sort(children.begin(), children.end());
  Clock::duration covered{};
  Clock::time_point reach = span.start;
  for (const auto& [a, b] : children) {
    const auto from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return seconds_between(span.start, span.end) -
         std::chrono::duration<double>(covered).count();
}

Cost Tracer::total(const std::string& name) const {
  Cost sum;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    const Cost c = s.cost();
    sum.wall_s += c.wall_s;
    sum.user_s += c.user_s;
    sum.sys_s += c.sys_s;
    sum.minflt += c.minflt;
  }
  return sum;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_[0].start;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const Cost c = s.cost();
    char line[512];
    std::snprintf(line, sizeof line,
                  "  {\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                  "\"start_s\": %.6f, \"end_s\": %.6f, \"self_s\": %.6f, "
                  "\"user_s\": %.6f, \"sys_s\": %.6f, \"minflt\": %lld}%s\n",
                  s.id, s.parent, s.name.c_str(), seconds_between(origin, s.start),
                  seconds_between(origin, s.end), self_time(s.id), c.user_s,
                  c.sys_s, static_cast<long long>(c.minflt),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
}

// --------------------------------------------------------------- digests

Row row_of(const dm::detect::AttackIncident& incident) {
  return Row{incident.vip.value(),
             static_cast<std::int64_t>(incident.direction),
             static_cast<std::int64_t>(incident.type),
             incident.start,
             incident.end,
             static_cast<std::int64_t>(incident.total_sampled_packets),
             incident.peak_unique_remotes};
}

Row row_of(const dm::detect::MinuteDetection& alert) {
  return Row{alert.vip.value(),
             static_cast<std::int64_t>(alert.direction),
             static_cast<std::int64_t>(alert.type),
             alert.minute,
             alert.minute + 1,
             static_cast<std::int64_t>(alert.sampled_packets),
             alert.unique_remotes};
}

Row row_of(const dm::serve::Event& event) {
  return Row{event.vip,   event.direction, event.type,
             event.start, event.end,       static_cast<std::int64_t>(event.packets),
             event.remotes};
}

std::string digest(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end());
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a 64
  for (const Row& row : rows) {
    for (const std::int64_t field : row) {
      auto bits = static_cast<std::uint64_t>(field);
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= bits & 0xffu;
        hash *= 1099511628211ull;
        bits >>= 8;
      }
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(hash));
  return std::to_string(rows.size()) + ":" + hex;
}

// ----------------------------------------------------------- percentiles

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  // The epsilon keeps rungs like 99.9 (not exact in binary) from rounding
  // a whole rank up.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

Tail highest_tail(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Tail tail;
  tail.samples = values.size();
  // 50, 90, 99, 99.9, ...: each rung has a tenth of the previous rung's
  // share beyond it.
  double p = 50.0;
  for (double gap = 10.0; samples_beyond(values.size(), p) >= 10; gap /= 10.0) {
    tail.percentile = p;
    tail.value = percentile(values, p);
    tail.beyond = samples_beyond(values.size(), p);
    p = 100.0 - gap;
  }
  return tail;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

ScenarioMix::ScenarioMix(std::vector<double> records)
    : records_(std::move(records)), passes_(records_.size()) {}

void ScenarioMix::add(std::size_t k, double wall_s, double cpu_s, double peak_bytes) {
  Passes& p = passes_.at(k);
  p.wall_s.push_back(wall_s);
  p.cpu_s.push_back(cpu_s);
  p.peak_bytes.push_back(peak_bytes);
}

bool ScenarioMix::all_measured() const {
  return std::all_of(passes_.begin(), passes_.end(),
                     [](const Passes& p) { return !p.wall_s.empty(); });
}

double ScenarioMix::total(std::vector<double> Passes::*field) const {
  double sum = 0.0;
  for (const Passes& p : passes_) sum += median(p.*field);
  return sum;
}

void ScenarioMix::emit(Result& result) const {
  double records = 0.0;
  for (const double r : records_) records += r;
  result.add("records_per_s", records / total(&Passes::wall_s), "records/s");
  result.add("cpu_ns_per_record", total(&Passes::cpu_s) / records * 1e9, "ns/record");
  result.add("peak_rss_bytes_per_record", total(&Passes::peak_bytes) / records, "B/record");
}

// ------------------------------------------------------------- open loop

Clock::time_point Schedule::due(dm::util::Minute minute) const {
  if (offset.empty()) return t0;
  const auto i = std::clamp<dm::util::Minute>(
      minute - first, 0, static_cast<dm::util::Minute>(offset.size()) - 1);
  return t0 + offset[static_cast<std::size_t>(i)];
}

Schedule Schedule::by_records(std::span<const dm::netflow::FlowRecord> feed,
                              double records_per_s, Clock::time_point t0) {
  Schedule s;
  s.t0 = t0;
  if (feed.empty()) return s;
  s.first = feed.front().minute;
  const auto at = [&](std::size_t records_before) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(static_cast<double>(records_before) / records_per_s));
  };
  for (std::size_t i = 0; i < feed.size(); ++i) {
    // Every minute up to and including this record's opens here.
    while (s.first + static_cast<dm::util::Minute>(s.offset.size()) <= feed[i].minute) {
      s.offset.push_back(at(i));
    }
  }
  s.offset.push_back(at(feed.size()));
  return s;
}

Schedule Schedule::uniform(dm::util::Minute first, dm::util::Minute minutes,
                           Clock::duration tick, Clock::time_point t0) {
  Schedule s;
  s.t0 = t0;
  s.first = first;
  for (dm::util::Minute i = 0; i <= minutes; ++i) s.offset.push_back(tick * i);
  return s;
}

void CloseIndex::note(std::uint64_t shard, dm::util::Minute minute) {
  auto& minutes = minutes_[shard];
  if (minutes.empty() || minutes.back() < minute) minutes.push_back(minute);
}

dm::util::Minute CloseIndex::closing_minute(std::uint64_t shard,
                                            dm::util::Minute minute,
                                            dm::util::Minute fallback) const {
  const auto it = minutes_.find(shard);
  if (it == minutes_.end()) return fallback;
  const auto next = std::upper_bound(it->second.begin(), it->second.end(), minute);
  return next == it->second.end() ? fallback : *next;
}

bool TimestampSink::deliver(const dm::serve::Event& event) {
  receipts_.push_back(Receipt{event, Clock::now()});
  return true;
}

// ---------------------------------------------------------------- result

void Result::add(const std::string& name, double value, const std::string& unit) {
  check(std::isfinite(value), name + " is not a finite number");
  metrics_[name] = Metric{std::isfinite(value) ? value : 0.0, unit};
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.10g", metric.value);
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << value
       << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void Samples::add(const std::string& name, double value, const std::string& unit) {
  Series& series = series_[name];
  series.unit = unit;
  series.values.push_back(value);
}

void Samples::add_cost(const std::string& name, const Cost& cost,
                       std::initializer_list<const char*> fields,
                       unsigned threads) {
  for (const std::string field : fields) {
    if (field == "wall_s") add(name + ".wall_s", cost.wall_s, "s");
    else if (field == "user_s") add(name + ".user_s", cost.user_s, "s");
    else if (field == "sys_s") add(name + ".sys_s", cost.sys_s, "s");
    else if (field == "minflt") add(name + ".minflt", static_cast<double>(cost.minflt), "count");
    else if (field == "cpu_util") add(name + ".cpu_util", cost.cpu_util(threads), "ratio");
    else throw std::logic_error("unknown cost field " + field);
  }
}

void Samples::emit(Result& result) const {
  for (const auto& [name, series] : series_) {
    result.add(name, median(series.values), series.unit);
  }
}

}  // namespace perfbench
