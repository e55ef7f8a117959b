// main.cpp — the end-to-end benchmark binary, onfiber_perfbench.
//
//   onfiber_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--scale <x>]
//
// Repeats the workload (fresh set-up each rep, same seed) until
// `--seconds` of host time have passed, then prints a human-readable
// summary, the host fingerprint, the exact simulated results, and as its
// last line one JSON object:
//   {"correct": ..., "attempted": reps, "failed": reps that failed a
//    check, "metrics": {...}}
// Untraced runs (--trace 0) report the end-to-end metrics as medians over
// reps. Traced runs (--trace 1) alternate untraced and traced reps and
// report the per-layer split from the traced ones; tracing never changes
// a simulated result, which every traced run checks.
//
// Exit status: 0 when every check passed, 1 when a check failed, 2 on a
// usage error.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "photonics/simd.hpp"

namespace {

using perfbench::rep_result;
using perfbench::sim_result;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "onfiber_perfbench: %s\n"
               "usage: onfiber_perfbench --workload <wan_mixed|wan_sharded|"
               "inference_batch|flap_recovery> --seed <n> --seconds <s> "
               "--trace <0|1> [--scale <x>]\n",
               why);
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value after a flag");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      o.trace = std::string_view(value) == "1";
    } else if (arg == "--scale") {
      o.scale = std::strtod(value, &end);
    } else {
      usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') usage("malformed number");
  }
  if (o.workload != "wan_mixed" && o.workload != "wan_sharded" &&
      o.workload != "inference_batch" && o.workload != "flap_recovery") {
    usage("unknown or missing --workload");
  }
  if (!(o.seconds > 0.0) || !(o.scale > 0.0)) {
    usage("--seconds and --scale must be positive");
  }
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restrict the calling thread (and the threads it starts) to `cpus`.
void pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Host metrics are comparable only between runs whose fingerprints
/// match: same CPU, same CPUs available, same kernels, same build.
std::string fingerprint() {
  namespace simd = onfiber::phot::simd;
  return std::string("{\"cpu_model\": \"") + json_escape(cpu_model()) +
         "\", \"cpu_affinity\": " + std::to_string(allowed_cpus().size()) +
         ", \"hw_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd_detected\": \"" + simd::level_name(simd::detected_level()) +
         "\", \"simd_active\": \"" + simd::active().name +
         "\", \"compiler\": \"g++ " + json_escape(__VERSION__) +
         "\", \"build_type\": \"" ONFIBER_PERFBENCH_BUILD_TYPE
         "\", \"cxx_flags\": \"" +
         json_escape(ONFIBER_PERFBENCH_CXX_FLAGS) + "\"}";
}

std::string describe(const sim_result& s) {
  std::string out = "{\"requests\": " + std::to_string(s.requests) +
                    ", \"results\": " + std::to_string(s.results) +
                    ", \"correct\": " + std::to_string(s.correct) +
                    ", \"deferred\": " + std::to_string(s.deferred) +
                    ", \"emitted\": " + std::to_string(s.emitted) +
                    ", \"delivered\": " + std::to_string(s.delivered) +
                    ", \"drops\": [";
  for (int i = 0; i < 5; ++i) {
    out += (i ? ", " : "") + std::to_string(s.drops[i]);
  }
  return out + "], \"samples\": " + std::to_string(s.samples) +
         ", \"p50_s\": " + num(s.p50_s) + ", \"p99_s\": " + num(s.p99_s) +
         ", \"horizon_s\": " + num(s.horizon_s) + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// End-to-end metrics: host ones as medians over the untraced reps,
/// simulated ones from the (identical) simulated result.
std::vector<metric> end_to_end(const std::vector<rep_result>& reps,
                               const sim_result& s) {
  std::vector<double> results_per_s, delivered_per_s, cpu, setup;
  for (const rep_result& r : reps) {
    results_per_s.push_back(static_cast<double>(s.correct) / r.run_s);
    delivered_per_s.push_back(static_cast<double>(s.delivered) / r.run_s);
    cpu.push_back(r.cpu_s);
    setup.push_back(r.setup_s);
  }
  const auto frac = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double requests = static_cast<double>(s.requests);
  return {
      {"results_per_s", "1/s", median(results_per_s)},
      {"delivered_per_s", "1/s", median(delivered_per_s)},
      {"cpu_s", "s", median(cpu)},
      {"setup_s", "s", median(setup)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"p50_completion_ms", "ms", s.p50_s * 1e3},
      {"p99_completion_ms", "ms", s.p99_s * 1e3},
      {"goodput_pps", "pkt/s", static_cast<double>(s.results) / s.horizon_s},
      {"admitted_frac", "fraction",
       1.0 - frac(static_cast<double>(s.deferred), requests)},
      {"completed_frac", "fraction",
       frac(static_cast<double>(s.results), requests)},
      {"accuracy", "fraction",
       frac(static_cast<double>(s.correct), static_cast<double>(s.results))},
  };
}

/// Unit of each per-layer metric, by name suffix.
std::string layer_unit(const std::string& name) {
  const auto ends = [&name](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (ends("_s")) return "s";
  if (ends("us_per_result")) return "us";
  if (ends("_frac") || ends("_util") || ends("cpu_over_wall")) {
    return "fraction";
  }
  if (ends("_per_pkt") || ends("_per_window") || ends("_per_flush") ||
      ends("_per_task")) {
    return "ratio";
  }
  return "count";
}

/// Per-layer metrics: medians over the traced reps, plus the obs plane's
/// own overhead against the untraced reps of the same run.
std::vector<metric> per_layer(const std::vector<rep_result>& traced,
                              const std::vector<rep_result>& untraced) {
  std::map<std::string, std::vector<double>> values;
  std::vector<double> traced_run, untraced_run;
  for (const rep_result& r : traced) {
    for (const auto& [k, v] : r.layers) values[k].push_back(v);
    traced_run.push_back(r.run_s);
  }
  for (const rep_result& r : untraced) untraced_run.push_back(r.run_s);
  std::vector<metric> out;
  for (const auto& [k, v] : values) {
    out.push_back({k, layer_unit(k), median(v)});
  }
  out.push_back({"obs.overhead_frac", "fraction",
                 median(traced_run) / median(untraced_run) - 1.0});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse(argc, argv);
  using clock_type = std::chrono::steady_clock;
  std::vector<std::string> errors;
  const auto fail = [&errors](const std::string& what) {
    errors.push_back(what);
  };

  // The shard layer must not change a simulated result: every wan_sharded
  // rep is checked bit for bit against its 1-shard twin, run once here.
  std::optional<sim_result> reference;
  if (opt.workload == "wan_sharded") {
    const rep_result ref =
        perfbench::run_workload("wan_mixed", opt.seed, opt.scale, false);
    for (const auto& e : ref.errors) fail("wan_mixed reference: " + e);
    reference = ref.sim;
  }

  // Reps alternate untraced / traced in a traced run; an untraced run has
  // only untraced reps. Every rep must reproduce the first one (or the
  // 1-shard reference) exactly.
  std::vector<rep_result> untraced, traced;
  std::size_t attempted = 0, failed = 0;
  const std::size_t min_untraced = opt.trace ? 2 : 3;
  const std::size_t min_traced = opt.trace ? 2 : 0;
  const auto t0 = clock_type::now();
  const auto elapsed = [t0] {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
  };
  // Shared hosts run their CPUs at visibly different speeds (siblings
  // busy with other work). A single-threaded rep is pinned to the next
  // allowed CPU in turn, so every run samples all of them alike instead
  // of whichever CPU the scheduler happened to pick.
  const std::vector<int> cpus = allowed_cpus();
  const bool rotate = opt.workload != "wan_sharded" && !cpus.empty();
  while (elapsed() < opt.seconds || untraced.size() < min_untraced ||
         traced.size() < min_traced) {
    const bool traced_rep = opt.trace && attempted % 2 == 1;
    // A traced run moves on after each untraced/traced pair, so both
    // halves of obs.overhead_frac see every CPU alike.
    const std::size_t slot = opt.trace ? attempted / 2 : attempted;
    if (rotate) pin_to({cpus[slot % cpus.size()]});
    rep_result r = perfbench::run_workload(opt.workload, opt.seed, opt.scale,
                                           traced_rep);
    ++attempted;
    for (const auto& e : r.errors) {
      fail("rep " + std::to_string(attempted) + ": " + e);
    }
    if (!reference) reference = r.sim;
    if (!(*reference == r.sim)) {
      r.errors.push_back("changed a simulated result");
      fail(std::string(traced_rep ? "traced" : "untraced") + " rep " +
           std::to_string(attempted) +
           " changed a simulated result: " + describe(r.sim) + " vs " +
           describe(*reference));
    }
    if (!r.errors.empty()) ++failed;
    (traced_rep ? traced : untraced).push_back(std::move(r));
  }

  if (rotate) pin_to(cpus);

  const sim_result& sim = untraced.front().sim;
  if (sim.requests == 0 || sim.results == 0) {
    fail("workload produced no results");
  }

  std::printf("workload %s  seed %llu  scale %g  reps %zu untraced, %zu traced"
              "  (%.2f s)\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.scale, untraced.size(), traced.size(), elapsed());
  std::printf("  run phase per rep [s]:");
  for (const rep_result& r : untraced) std::printf(" %.4f", r.run_s);
  std::printf("\n");
  const std::vector<metric> e2e = end_to_end(untraced, sim);
  for (const metric& m : e2e) {
    std::printf("  %-22s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  completion percentiles over %llu samples\n",
              static_cast<unsigned long long>(sim.samples));
  std::vector<metric> layers;
  if (opt.trace) {
    layers = per_layer(traced, untraced);
    std::printf("  per-layer (traced reps):\n");
    for (const metric& m : layers) {
      std::printf("    %-28s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const auto& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("fingerprint: %s\n", fingerprint().c_str());
  std::printf("simulated: %s\n", describe(sim).c_str());

  std::string out = std::string("{\"correct\": ") +
                    (errors.empty() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  const char* sep = "";
  for (const metric& m : opt.trace ? layers : e2e) {
    out += sep + ("\"" + m.name + "\": {\"value\": " + num(m.value) +
                  ", \"unit\": \"" + m.unit + "\"}");
    sep = ", ";
  }
  std::printf("%s}}\n", out.c_str());
  return errors.empty() ? 0 : 1;
}
