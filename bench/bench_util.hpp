// bench_util.hpp — shared formatting helpers for the experiment harness.
//
// Each bench binary regenerates one paper artifact (figure, table row set,
// or quantitative claim) and prints it as a self-describing table so
// bench_output.txt reads as the reproduced evaluation.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "photonics/simd.hpp"

namespace onfiber::bench {

/// Short name of the SIMD tier the sample-plane kernels dispatched to
/// (differs from the detected tier under an ONFIBER_SIMD override).
inline const char* simd_active_name() {
  return phot::simd::active().name;
}

/// Record the host's detected SIMD tier and the tier actually dispatched
/// into a JSON report, next to the concurrency keys every bench writes.
/// Values are the numeric tiers of phot::simd::level (0 = scalar,
/// 1 = sse4, 2 = avx2, 3 = avx512) because the report format is flat
/// key -> number.
inline void record_simd_levels(class json_report& report);

inline void banner(const std::string& experiment_id,
                   const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s  %s\n", experiment_id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) {
  std::printf("  %s\n", text.c_str());
}

/// Engineering-notation seconds.
inline std::string fmt_time(double seconds) {
  char buf[64];
  if (seconds >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.3f s", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buf, sizeof buf, "%.3f ms", seconds * 1e3);
  } else if (seconds >= 1e-6) {
    std::snprintf(buf, sizeof buf, "%.3f us", seconds * 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.3f ns", seconds * 1e9);
  }
  return buf;
}

/// Engineering-notation joules.
inline std::string fmt_energy(double joules) {
  char buf[64];
  if (joules >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.3f J", joules);
  } else if (joules >= 1e-3) {
    std::snprintf(buf, sizeof buf, "%.3f mJ", joules * 1e3);
  } else if (joules >= 1e-6) {
    std::snprintf(buf, sizeof buf, "%.3f uJ", joules * 1e6);
  } else if (joules >= 1e-9) {
    std::snprintf(buf, sizeof buf, "%.3f nJ", joules * 1e9);
  } else if (joules >= 1e-12) {
    std::snprintf(buf, sizeof buf, "%.3f pJ", joules * 1e12);
  } else if (joules >= 1e-15) {
    std::snprintf(buf, sizeof buf, "%.3f fJ", joules * 1e15);
  } else {
    std::snprintf(buf, sizeof buf, "%.3f aJ", joules * 1e18);
  }
  return buf;
}

/// `--json <path>` from a bench binary's argv; empty if absent. All bench
/// mains accept this flag so the driver script can collect machine-readable
/// numbers next to the human-readable tables.
inline std::string json_path_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") return argv[i + 1];
  }
  return {};
}

/// Flat key -> number JSON report, e.g. BENCH_kernels.json. Several bench
/// binaries append to the same file: construction reads any existing
/// report (its own flat format only), set() upserts keys, write() rewrites
/// the whole file sorted (std::map) so reruns are deterministic.
class json_report {
 public:
  explicit json_report(std::string path) : path_(std::move(path)) {
    std::ifstream in(path_);
    if (!in) return;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    // Parse the flat format this class itself writes: "key": number pairs.
    std::size_t pos = 0;
    while ((pos = text.find('"', pos)) != std::string::npos) {
      const std::size_t end = text.find('"', pos + 1);
      if (end == std::string::npos) break;
      const std::string key = text.substr(pos + 1, end - pos - 1);
      std::size_t cursor = end + 1;
      while (cursor < text.size() &&
             (text[cursor] == ':' || text[cursor] == ' ')) {
        ++cursor;
      }
      char* parsed_end = nullptr;
      const double value = std::strtod(text.c_str() + cursor, &parsed_end);
      if (parsed_end != text.c_str() + cursor) values_[key] = value;
      pos = end + 1;
    }
  }

  void set(const std::string& key, double value) { values_[key] = value; }

  /// Rewrite the report file. Returns false if the file cannot be opened.
  bool write() const {
    std::ofstream out(path_);
    if (!out) return false;
    out << "{\n";
    const char* sep = "";
    for (const auto& [key, value] : values_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.9g", value);
      out << sep << "  \"" << key << "\": " << buf;
      sep = ",\n";
    }
    out << "\n}\n";
    return static_cast<bool>(out);
  }

  [[nodiscard]] const std::map<std::string, double>& values() const {
    return values_;
  }

 private:
  std::string path_;
  std::map<std::string, double> values_;
};

inline void record_simd_levels(json_report& report) {
  report.set("sys.simd_detected_level",
             static_cast<double>(phot::simd::detected_level()));
  report.set("sys.simd_active_level",
             static_cast<double>(phot::simd::active().lvl));
}

/// Wall-clock stopwatch for solver timing.
class stopwatch {
 public:
  stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace onfiber::bench
