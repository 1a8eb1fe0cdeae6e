// The benchmark's own tests: the measuring code is checked before it
// measures. `dm_perfbench selftest` runs them; perfbench/run.py runs them
// before every measurement and refuses to measure when one fails.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>

#include "serve/writer.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const char* test, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::printf("selftest %s: FAILED: %s\n", test, what.c_str());
}

// The digest is a function of the set of rows, not of their order, and any
// changed field changes it.
void digest_is_order_free() {
  const char* test = "digest_is_order_free";
  std::vector<dm::detect::AttackIncident> incidents;
  for (std::uint32_t i = 0; i < 200; ++i) {
    dm::detect::AttackIncident inc;
    inc.vip = dm::netflow::IPv4(0x64400000u + i % 17);
    inc.direction = static_cast<dm::netflow::Direction>(i % 2);
    inc.type = static_cast<dm::sim::AttackType>(i % 5);
    inc.start = i * 7;
    inc.end = i * 7 + 3;
    inc.total_sampled_packets = 1000 + i;
    inc.peak_unique_remotes = i % 13;
    incidents.push_back(inc);
  }
  const std::string base = digest_of<dm::detect::AttackIncident>(incidents);
  std::mt19937 shuffle_rng(12345);
  for (int round = 0; round < 5; ++round) {
    std::shuffle(incidents.begin(), incidents.end(), shuffle_rng);
    expect(digest_of<dm::detect::AttackIncident>(incidents) == base, test,
           "digest changed when the rows were reordered");
  }
  incidents[17].peak_unique_remotes += 1;
  expect(digest_of<dm::detect::AttackIncident>(incidents) != base, test,
         "digest ignored a changed field");
  incidents.pop_back();
  expect(digest_of<dm::detect::AttackIncident>(incidents).rfind("199:", 0) == 0, test,
         "digest does not lead with the row count");
}

// The tail is the highest percentile of 50, 90, 99, 99.9, ... with at least
// ten samples beyond it, and the sample count is reported with it.
void tail_rule() {
  const char* test = "tail_rule";
  const auto ramp = [](std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
    return v;
  };
  struct Case {
    std::size_t n;
    double percentile;
  };
  for (const Case c : {Case{19, 0.0}, Case{20, 50.0}, Case{99, 50.0}, Case{100, 90.0},
                       Case{999, 90.0}, Case{1000, 99.0}, Case{9999, 99.0},
                       Case{10000, 99.9}}) {
    const Tail tail = highest_tail(ramp(c.n));
    const std::string label = "n=" + std::to_string(c.n);
    expect(tail.percentile == c.percentile, test,
           label + ": tail percentile " + std::to_string(tail.percentile));
    expect(tail.samples == c.n, test, label + ": sample count not reported");
    if (c.percentile > 0.0) {
      expect(tail.beyond >= 10, test, label + ": fewer than ten samples beyond");
      const auto rank = static_cast<double>(c.n - tail.beyond);
      expect(tail.value == rank, test, label + ": value is not the nearest-rank sample");
    }
  }
  // A p99 needs 1,000 samples to have ten beyond it.
  expect(samples_beyond(999, 99.0) == 9 && samples_beyond(1000, 99.0) == 10, test,
         "samples beyond p99 at n = 999 / 1000");
}

// A Sink that takes kSinkDelay per event.
class SlowSink final : public dm::serve::Sink {
 public:
  static constexpr auto kSinkDelay = std::chrono::milliseconds(5);
  [[nodiscard]] bool deliver(const dm::serve::Event& event) override {
    std::this_thread::sleep_for(kSinkDelay);
    return inner_.deliver(event);
  }
  [[nodiscard]] const TimestampSink& inner() const noexcept { return inner_; }

 private:
  TimestampSink inner_;
};

// Open-loop latency runs from the due time of the minute-closing record,
// not from when the stalled generator got round to sending it: a slow Sink
// behind a one-slot blocking writer makes the generator fall behind, and
// that lag must show in the latency.
void open_loop_counts_from_due_time() {
  const char* test = "open_loop_counts_from_due_time";
  constexpr int kMinutes = 10;
  std::vector<dm::netflow::FlowRecord> feed(kMinutes);
  CloseIndex closings;
  for (int m = 0; m < kMinutes; ++m) {
    feed[static_cast<std::size_t>(m)].minute = m;
    closings.note(0, m);
  }
  SlowSink sink;
  dm::serve::WriterConfig config;
  config.capacity = 1;
  dm::serve::BufferedWriter writer(sink, config);
  const Schedule schedule = Schedule::uniform(0, kMinutes, std::chrono::milliseconds(1),
                                              Clock::now() + std::chrono::milliseconds(1));
  std::vector<Clock::time_point> call_start(kMinutes);
  // Each record closes the previous minute and emits that minute's alert.
  const std::vector<double> lateness = run_open_loop(
      feed, schedule,
      [&](std::size_t i, const dm::netflow::FlowRecord& r, Clock::time_point start) {
        call_start[i] = start;
        if (r.minute == 0) return;
        dm::serve::Event e;
        e.tenant = "tenant-0";
        e.start = r.minute - 1;
        e.end = r.minute;
        writer.push(e);
      });
  writer.close();

  const auto& receipts = sink.inner().receipts();
  expect(receipts.size() == kMinutes - 1, test, "not every alert reached the sink");
  double last_latency = 0.0;
  for (const TimestampSink::Receipt& r : receipts) {
    const dm::util::Minute closing = closings.closing_minute(0, r.event.start, kMinutes);
    const double from_due = seconds_between(schedule.due(closing), r.at);
    const double from_call =
        seconds_between(call_start[static_cast<std::size_t>(closing)], r.at);
    expect(from_due >= from_call, test, "latency is shorter than the call's own wait");
    last_latency = from_due;
  }
  // Nine alerts at 5 ms each against a 1 ms schedule: the last one waits for
  // about eight sink deliveries minus eight ticks, ~32 ms.
  expect(last_latency >= 0.025, test,
         "the last alert's latency " + std::to_string(last_latency * 1e3) +
             " ms hides the generator's stall");
  expect(!lateness.empty() && lateness.back() >= 0.015, test,
         "the generator did not report running late");
}

// Self time = duration minus the union of the children's intervals,
// clipped to the parent; grandchildren do not count twice.
void span_self_time() {
  const char* test = "span_self_time";
  Tracer tr;
  const Clock::time_point t0 = Clock::now();
  const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const auto span = [&](const char* name, int parent, int from, int to) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.start = at(from);
    s.end = at(to);
    return tr.add(s);
  };
  const int root = span("root", -1, 0, 100);
  const int a = span("a", root, 10, 30);
  span("b", root, 20, 50);     // overlaps a: [10, 50) covered once
  span("c", root, 90, 120);    // clipped to [90, 100)
  span("a.child", a, 12, 18);  // inside a: not root's child
  expect(std::abs(tr.self_time(root) - 0.050) < 1e-9, test,
         "root self time " + std::to_string(tr.self_time(root)));
  expect(std::abs(tr.self_time(a) - 0.014) < 1e-9, test,
         "child self time " + std::to_string(tr.self_time(a)));

  // Live scopes nest by open order.
  Tracer live;
  int outer_id = -1;
  {
    Tracer::Scope outer(&live, "outer");
    outer_id = outer.id();
    Tracer::Scope inner(&live, "inner");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  expect(live.spans().size() == 2 && live.spans()[1].parent == outer_id, test,
         "a scope opened inside another is not its child");
  expect(live.self_time(outer_id) >= 0.0 &&
             live.self_time(outer_id) < live.spans()[0].cost().wall_s,
         test, "a live parent's self time includes its child");
}

// getrusage counters only grow: no delta is ever negative, across threads
// that come and go and memory that is touched and freed.
void rusage_deltas_not_negative() {
  const char* test = "rusage_deltas_not_negative";
  Tracer tr;
  for (int round = 0; round < 20; ++round) {
    Tracer::Scope s(&tr, "work");
    std::vector<std::thread> workers;
    for (int t = 0; t < 2; ++t) {
      workers.emplace_back([round] {
        std::vector<char> buffer(static_cast<std::size_t>(1 + round) << 18);
        std::memset(buffer.data(), round, buffer.size());
        volatile std::uint64_t sink = 0;
        for (int i = 0; i < 100000; ++i) sink = sink + static_cast<std::uint64_t>(i);
      });
    }
    for (auto& w : workers) w.join();
  }
  Usage previous = usage_now();
  for (int i = 0; i < 1000; ++i) {
    const Usage now = usage_now();
    expect(now.user_s >= previous.user_s && now.sys_s >= previous.sys_s &&
               now.minflt >= previous.minflt,
           test, "a later getrusage read is smaller");
    previous = now;
  }
  for (const Span& span : tr.spans()) {
    const Cost c = span.cost();
    expect(c.wall_s >= 0.0 && c.user_s >= 0.0 && c.sys_s >= 0.0 && c.minflt >= 0, test,
           "a span's cost has a negative field");
  }
  const Cost total = tr.total("work");
  expect(total.minflt > 0, test, "touching fresh memory caused no minor faults");
}

}  // namespace

int run_selftests() {
  g_failures = 0;
  digest_is_order_free();
  tail_rule();
  open_loop_counts_from_due_time();
  span_self_time();
  rusage_deltas_not_negative();
  return g_failures;
}

}  // namespace perfbench
