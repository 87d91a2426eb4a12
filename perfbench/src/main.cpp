// perfbench — the ecopatch benchmark's load generator.
//
//   perfbench --workload warm_sessions|fresh_sessions|table1_sweep --seed N
//             --seconds S --trace 0|1 --daemon PATH --run-dir DIR
//
// Prints the workload's metrics by name with unit and sample count, then
// as the last line one JSON object {"correct","attempted","failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// of the traced replay with --trace 1. Exits 1 when the outcome gate, the
// clock-bound guard or the percentile guard fails, 2 on bad arguments.
// perfbench/run.py builds this and runs it; README.md explains the design.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload warm_sessions|fresh_sessions|table1_sweep\n"
               "                 --seed N --seconds S --trace 0|1 --daemon PATH --run-dir DIR\n");
  return 2;
}

void print_metric(const perfbench::Metric& m) {
  std::printf("  %-26s %14.6g %-12s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
              m.samples.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) return usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      args.trace = value == "1";
    } else if (flag == "--daemon") {
      args.daemon = value;
    } else if (flag == "--run-dir") {
      dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || dir.empty() || args.daemon.empty() ||
      (args.workload != "warm_sessions" && args.workload != "fresh_sessions" &&
       args.workload != "table1_sweep"))
    return usage();

  // Inputs, socket and daemon log live in a per-run directory that is
  // removed at the end; the traced run's span file stays beside it.
  args.run_dir = dir + "/" + args.workload + "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(args.run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.run_dir.c_str());
    return 1;
  }

  std::printf("perfbench %s  seed %" PRIu64 "  seconds %g  trace %d\n", args.workload.c_str(),
              args.seed, args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);
  perfbench::Result res;
  try {
    res = args.workload == "table1_sweep" ? perfbench::run_table1(args)
                                          : perfbench::run_service(args, args.workload == "fresh_sessions");
  } catch (const std::exception& e) {
    res.errors.push_back(std::string("aborted: ") + e.what());
  }
  std::filesystem::remove_all(args.run_dir, ec);

  std::printf("inputs fingerprint %016" PRIx64 "\n", res.inputs_fingerprint);
  for (const std::string& note : res.notes) std::printf("  %s\n", note.c_str());
  std::printf("%s metrics (name, value, unit, samples):\n",
              args.trace ? "per-layer" : "end-to-end");
  for (const perfbench::Metric& m : res.metrics) print_metric(m);
  if (!res.report_only.empty()) {
    std::printf("service latency, printed only (see README.md):\n");
    for (const perfbench::Metric& m : res.report_only) print_metric(m);
  }
  for (const std::string& e : res.errors) std::printf("FAILED: %s\n", e.c_str());

  const bool correct = res.errors.empty() && res.failed == 0 && res.attempted > 0;
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", res.metrics[i].name.c_str(), res.metrics[i].value,
                  res.metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
