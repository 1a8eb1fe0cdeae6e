// dm_perfbench: the benchmark harness behind perfbench/run.py.
//
//   dm_perfbench selftest
//   dm_perfbench prepare --workload W --seed N --work DIR --threads T
//   dm_perfbench run --workload W --seed N --seconds S --trace 0|1
//                    --work DIR --threads T [--spans-out PATH]
//
// `run` prints a host fingerprint line, one line per metric, one line per
// failed output check, and ends with the result JSON object. It exits 0 when
// every output check passed and 1 when one failed.
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace perfbench {

void write_oracle(const std::string& path, const Oracle& oracle) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& [key, value] : oracle) out << key << ' ' << value << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

Oracle read_oracle(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing oracle " + path);
  Oracle oracle;
  std::string key, value;
  while (in >> key >> value) oracle[key] = value;
  return oracle;
}

dm::sim::ScenarioConfig scenario_config(const Options& options, std::size_t k,
                                        std::uint32_t vips, int days) {
  dm::sim::ScenarioConfig config = dm::sim::ScenarioConfig::paper_scale();
  // splitmix64 of (seed, k): distinct, well-mixed scenario seeds.
  std::uint64_t z = options.seed * 0x9e3779b97f4a7c15ull + k + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  config.seed = z ^ (z >> 31);
  config.vips.vip_count = vips;
  config.days = days;
  config.thread_count = options.threads;
  return config;
}

void sync_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot sync " + path);
  }
  ::close(fd);
}

std::string work_file(const Options& options, const std::string& stem, std::size_t k,
                      const std::string& ext) {
  return options.work_dir + "/" + stem + "-" + std::to_string(k) + ext;
}

namespace {

std::string cpuinfo_field(const std::string& field) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string value = line.substr(colon + 1);
    value.erase(0, value.find_first_not_of(" \t"));
    return value;
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string fingerprint(const Options& o) {
  std::ostringstream os;
  os << "{\"cpu_model\": \"" << json_escape(cpuinfo_field("model name"))
     << "\", \"cpu_mhz\": \"" << json_escape(cpuinfo_field("cpu MHz"))
     << "\", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << DM_PERFBENCH_COMPILER
     << "\", \"build_type\": \"" << DM_PERFBENCH_BUILD_TYPE
     << "\", \"optimized\": true, \"thread_count\": " << o.threads
     << ", \"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
     << ", \"seconds\": " << o.seconds << ", \"trace\": " << (o.trace ? 1 : 0)
     << "}";
  return os.str();
}

using Prepare = std::function<void(const Options&)>;
using Run = std::function<Result(const Options&)>;

const std::map<std::string, std::pair<Prepare, Run>>& workloads() {
  static const std::map<std::string, std::pair<Prepare, Run>> table = {
      {"study_batch", {prepare_study_batch, run_study_batch}},
      {"stream_serve", {prepare_stream_serve, run_stream_serve}},
      {"ingest_spill", {prepare_ingest_spill, run_ingest_spill}},
  };
  return table;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--work") o.work_dir = value;
    else if (key == "--spans-out") o.spans_out = value;
    else if (key == "--threads") o.threads = static_cast<unsigned>(std::stoul(value));
    else throw std::invalid_argument("unknown option " + key);
  }
  if (workloads().count(o.workload) == 0) {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  if (o.work_dir.empty()) throw std::invalid_argument("--work is required");
  if (o.threads == 0) throw std::invalid_argument("--threads must be >= 1");
  return o;
}

int main_impl(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "dm_perfbench: refusing to measure an unoptimised build\n");
  return 3;
#endif
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "selftest") {
    const int failures = run_selftests();
    std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
  }
  if (command != "prepare" && command != "run") {
    std::fprintf(stderr, "usage: dm_perfbench selftest|prepare|run [options]\n");
    return 2;
  }
  const Options options = parse(argc, argv);
  const auto& [prepare, run] = workloads().at(options.workload);
  if (command == "prepare") {
    prepare(options);
    return 0;
  }
  std::printf("host %s\n", fingerprint(options).c_str());
  const Result result = run(options);
  for (const std::string& error : result.errors()) {
    std::printf("check failed: %s\n", error.c_str());
  }
  std::printf("%s\n", result.json().c_str());
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dm_perfbench: %s\n", e.what());
    return 2;
  }
}
