/// \file common.hpp
/// Shared scaffolding for the figure/table harnesses in bench/: default
/// experiment configuration (the paper's full protocol), environment
/// overrides, and result emission.
///
/// Environment overrides (all optional):
///   SVO_SEED     root seed (default 20120910)
///   SVO_REPS     repetitions per sweep point (default 10, the paper's)
///   SVO_SIZES    comma-separated program sizes (default 256..8192)
///   SVO_CSV      directory to also write CSV files into (default: skip)
///   SVO_TRACE    write a Chrome trace of the run to this file
///   SVO_METRICS  write the metric registry JSON to this file
///
/// Malformed values warn on stderr and fall back to the defaults —
/// parsing is the strict util/env.hpp parser shared with svo_cli, not
/// the silent strtol of earlier revisions.
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sim/runner.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"

namespace svo::bench {

/// The paper's experimental setup (Section IV-A) with env overrides.
inline sim::ExperimentConfig paper_config() {
  sim::ExperimentConfig cfg;
  cfg.seed = util::env_u64_or("SVO_SEED", cfg.seed);
  cfg.repetitions = util::env_positive_size_or("SVO_REPS", cfg.repetitions);
  cfg.task_sizes = util::env_size_list_or("SVO_SIZES", cfg.task_sizes);
  // Node budget for the anytime IP-B&B in mechanism loops: identical for
  // TVOF and RVOF (DESIGN.md §4.4).
  cfg.solver.max_nodes = 20'000;
  return cfg;
}

/// Print the table and optionally persist a CSV next to it.
inline void emit(const util::Table& table, const std::string& csv_name) {
  table.write_pretty(std::cout);
  const std::string dir = util::env_string_or("SVO_CSV", "");
  if (!dir.empty()) {
    const std::string path = dir + "/" + csv_name;
    table.write_csv_file(path);
    std::printf("csv written: %s\n", path.c_str());
  }
}

/// Header banner shared by all harnesses.
inline void banner(const char* figure, const char* what) {
  std::printf("=== %s: %s ===\n", figure, what);
  std::printf(
      "(reproduction of Mashayekhy & Grosu, ICPP 2012; synthetic Atlas "
      "trace, m=16 GSPs, ER(16,0.1) trust)\n\n");
}

/// One per harness main(): prints the banner and holds an env-driven
/// obs::TraceSession, so EVERY bench binary honours SVO_TRACE /
/// SVO_METRICS without per-harness wiring. With neither variable set
/// the session (and the whole recorder) stays disabled and free.
class Session {
 public:
  Session(const char* figure, const char* what) { banner(figure, what); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

 private:
  obs::TraceSession trace_;
};

/// Structured BENCH_<name>.json emitter, shared by the harnesses that
/// publish machine-readable acceptance aggregates (warm-start,
/// attacks, ...). Backed by obs::JsonWriter, so the scaffolding cannot
/// produce syntactically invalid JSON the way per-binary fprintf did.
///
///   bench::Report report("warmstart");
///   report.json().kv("mechanism", "tvof");
///   ... nested objects/arrays via report.json() ...
///   report.write();
class Report {
 public:
  /// Opens the root object and stamps {"bench": <name>}.
  explicit Report(const std::string& name)
      : path_("BENCH_" + name + ".json"), writer_(buf_, /*pretty=*/true) {
    writer_.begin_object();
    writer_.kv("bench", name);
  }

  /// The underlying writer, positioned inside the root object.
  [[nodiscard]] obs::JsonWriter& json() noexcept { return writer_; }

  /// Close the root object and write the file next to the binary.
  /// Returns false (after an stderr note) when the file cannot be
  /// written — a bench must still print its human-readable summary.
  bool write() {
    writer_.end_object();
    std::ofstream f(path_);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    f << buf_.str() << '\n';
    f.close();
    std::printf("bench report written: %s\n", path_.c_str());
    return f.good();
  }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::ostringstream buf_;
  obs::JsonWriter writer_;
};

}  // namespace svo::bench
