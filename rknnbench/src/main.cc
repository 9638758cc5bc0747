// Copyright (c) GRNN authors.
// rknn_bench: runs one benchmark workload and prints its metrics.
//
//   rknn_bench --workload <paper-disk|label-serve|mixed-update>
//              --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. With --out, the run
// also writes its report (metrics plus the build's provenance) and, when
// traced, its span file into that directory.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

// Timings from unoptimized or instrumented code are not results.
const char* BuildRefusal() {
#ifndef NDEBUG
  return "assertions are enabled (Debug-style build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(RKNNBENCH_SANITIZED)
  return "sanitizer build";
#endif
  if (std::strcmp(RKNNBENCH_BUILD_TYPE, "Debug") == 0) {
    return "Debug build";
  }
  return nullptr;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: rknn_bench --workload <paper-disk|label-serve|"
               "mixed-update> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rknnbench::RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage(("missing value for " + flag).c_str());
    }
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--out") {
      opts.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || opts.seconds <= 0) {
    return Usage("--workload and a positive --seconds are required");
  }
  if (const char* refusal = BuildRefusal()) {
    std::fprintf(stderr, "refusing to report from this build: %s\n",
                 refusal);
    return 3;
  }

  grnn::Result<rknnbench::RunResult> run = rknnbench::RunWorkload(opts);
  if (!run.ok()) {
    std::fprintf(stderr, "%s: %s\n", opts.workload.c_str(),
                 run.status().ToString().c_str());
    return 1;
  }
  const rknnbench::RunResult& r = *run;
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "problem: %s\n", p.c_str());
  }
  for (const rknnbench::Metric& m : r.metrics) {
    std::printf("%-32s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("error_rate %.6f (%llu failed of %llu attempted)\n",
              r.attempted == 0 ? 0.0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));

  if (!opts.out_dir.empty()) {
    // The shared bench report carries the provenance meta block (git
    // sha, compiler, build type, hardware concurrency, page size).
    grnn::bench::BenchArgs args;
    args.seed = opts.seed;
    args.json_path = opts.out_dir + "/report-" + opts.workload +
                     (opts.trace ? "-trace" : "") + ".json";
    grnn::bench::JsonReport report("rknnbench", args);
    grnn::bench::JsonReport::Metrics row = {
        {"correct", r.correct ? 1.0 : 0.0},
        {"attempted", static_cast<double>(r.attempted)},
        {"failed", static_cast<double>(r.failed)},
        {"seconds", opts.seconds}};
    for (const rknnbench::Metric& m : r.metrics) {
      row.emplace_back(m.name, m.value);
    }
    report.AddConfig(opts.workload + (opts.trace ? ",trace" : ""),
                     std::move(row));
    const grnn::Status written = report.WriteIfRequested();
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", r.metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + r.metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            r.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
