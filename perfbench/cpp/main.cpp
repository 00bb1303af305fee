/// \file main.cpp
/// svo_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Runs one benchmark workload in this process and prints, as the last
/// line of stdout, {"correct", "attempted", "failed", "metrics"}: the
/// end-to-end metrics of an untraced pass, or with --trace 1 the
/// per-layer metrics of a traced pass that follows an untraced one.
/// Progress, the run banner and exact work counts go to stderr. See
/// perfbench/README.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"

namespace {

/// Recorded default workload seed (used when --seed is absent).
constexpr std::uint64_t kDefaultSeed = 20120910;

/// Variables that switch on the library's in-program tracing; the
/// benchmark measures the program as users run it, so it refuses them.
constexpr const char* kTracingHooks[] = {"SVO_TRACE", "SVO_METRICS"};

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

int usage(const char* why) {
  std::fprintf(stderr,
               "svo_perfbench: %s\nusage: svo_perfbench --workload "
               "<paper_fig9|svc_closed|stream_churn|trust_rounds> [--seed N] "
               "--seconds S [--trace 0|1]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.seed = kDefaultSeed;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      const auto seed = svo::util::parse_u64(value);
      if (!seed) return usage("--seed must be an unsigned integer");
      args.seed = *seed;
    } else if (flag == "--seconds") {
      const auto secs = svo::util::parse_positive_size(value);
      if (!secs) return usage("--seconds must be a positive integer");
      args.seconds = static_cast<double>(*secs);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else {
      return usage(("unknown option " + flag).c_str());
    }
  }
  if (args.seconds <= 0.0) return usage("--seconds is required");

  for (const char* hook : kTracingHooks) {
    if (std::getenv(hook) != nullptr) {
      std::fprintf(stderr,
                   "svo_perfbench: refusing to run with %s set: it turns on "
                   "in-program tracing, which the benchmark must not measure\n",
                   hook);
      return 3;
    }
  }
  if (svo::obs::Recorder::instance().enabled()) {
    std::fprintf(stderr, "svo_perfbench: in-program tracing is on; refusing to run\n");
    return 3;
  }

  using Runner = void (*)(const perfbench::Args&, perfbench::Report&);
  Runner runner = nullptr;
  if (args.workload == "paper_fig9") runner = perfbench::run_paper_fig9;
  if (args.workload == "svc_closed") runner = perfbench::run_svc_closed;
  if (args.workload == "stream_churn") runner = perfbench::run_stream_churn;
  if (args.workload == "trust_rounds") runner = perfbench::run_trust_rounds;
  if (runner == nullptr) return usage(("unknown workload '" + args.workload + "'").c_str());

  std::fprintf(stderr,
               "perfbench: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
               "build=%s compiler=\"%s\" threads=%zu\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
               PERFBENCH_BUILD_TYPE, kCompiler,
               perfbench::workload_threads(args.workload));

  perfbench::Report report;
  try {
    runner(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svo_perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "svo_perfbench: no operation completed\n");
    return 1;
  }
  report.print(args.trace);
  return 0;
}
