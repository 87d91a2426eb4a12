// The table1_sweep workload: the paper's Table 1 experiment in one thread,
// core::run_eco on every (unit, algorithm) row that finishes on its own.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <numeric>

#include <unistd.h>

#include "bench.hpp"
#include "benchgen/suite.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using eco::core::Algorithm;

constexpr uint64_t kSuiteSeed = 20170912;  // the committed Table-1 suite
constexpr int kSetups = 5;

struct Row {
  int unit = 0;  // 0-based make_unit index
  Algorithm algorithm = Algorithm::kBaseline;
  const char* algorithm_name = "";
  Reference ref;
};

/// Why a row is left out, or nullptr. Each of these rows' times measures
/// the clock, not the code, at bench_table1's committed settings.
const char* exclusion(int unit_number, Algorithm a) {
  if (unit_number == 12 || unit_number == 20)
    return "budget fallback: every algorithm falls back to the structural path";
  if (a == Algorithm::kBaseline && (unit_number == 9 || unit_number == 11 || unit_number == 14))
    return "budget fallback: the baseline falls back to the structural path";
  if (a == Algorithm::kSatPruneCegarMin &&
      (unit_number == 5 || unit_number == 6 || unit_number == 8 || unit_number == 9 ||
       unit_number == 10 || unit_number == 11 || unit_number == 14 || unit_number == 18 ||
       unit_number == 19))
    return "SAT_prune slice: runs exactly to half the remaining budget";
  return nullptr;
}

/// bench_table1's committed settings.
eco::core::EngineOptions table1_options(Algorithm a) {
  eco::core::EngineOptions o;
  o.algorithm = a;
  o.time_budget = 10;
  o.ladder = false;
  o.conflict_budget = 300000;
  o.max_expansion_nodes = 1500000;
  o.qbf.max_iterations = 3000;
  o.verify_time_budget = 60;
  return o;
}

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

}  // namespace

Result run_table1(const Args& args) {
  Result res;
  static constexpr Algorithm kAlgorithms[] = {Algorithm::kBaseline, Algorithm::kMinimize,
                                              Algorithm::kSatPruneCegarMin};
  static constexpr const char* kNames[] = {"baseline", "minimize", "satprune_cegarmin"};
  std::vector<Row> rows;
  for (int u = 0; u < eco::benchgen::kNumUnits; ++u)
    for (int a = 0; a < 3; ++a) {
      if (const char* why = exclusion(u + 1, kAlgorithms[a])) {
        res.notes.push_back("excluded unit" + std::to_string(u + 1) + " " + kNames[a] + ": " + why);
        continue;
      }
      rows.push_back({u, kAlgorithms[a], kNames[a], {}});
    }

  // Inputs: the suite units, and the seeded order of every sweep.
  std::vector<eco::benchgen::EcoUnit> units;
  for (int u = 0; u < eco::benchgen::kNumUnits; ++u)
    units.push_back(eco::benchgen::make_unit(u, kSuiteSeed, 1));
  eco::SplitMix64 order_rng(eco::SplitMix64::mix(args.seed));
  const auto next_order = [&] {
    std::vector<size_t> order(rows.size());
    std::iota(order.begin(), order.end(), 0);
    for (size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[order_rng.next() % i]);
    return order;
  };
  std::vector<std::vector<size_t>> orders;
  uint64_t fp = kSuiteSeed;
  for (int s = 0; s < 4; ++s) {
    orders.push_back(next_order());
    for (const size_t r : orders.back()) fp = eco::SplitMix64::mix(fp ^ r);
  }
  res.inputs_fingerprint = fp;
  // Peak RSS counts from here on, not the input generation.
  std::ofstream("/proc/self/clear_refs") << "5";

  // Set-up: building the suite problems, several times.
  std::vector<double> setups;
  std::vector<eco::core::EcoProblem> problems;
  for (int i = 0; i < kSetups; ++i) {
    const eco::Timer t;
    problems.clear();
    for (const eco::benchgen::EcoUnit& u : units)
      problems.push_back(eco::core::make_problem(u.impl, u.spec, u.weights));
    setups.push_back(t.seconds());
  }

  // Reference: each row once, before the clock.
  double untraced_ms = 0;
  for (Row& row : rows) {
    const eco::Timer t;
    const std::string why = solve_reference(problems[row.unit], table1_options(row.algorithm),
                                            args.seed ^ static_cast<uint64_t>(row.unit), row.ref);
    untraced_ms += t.seconds() * 1e3;
    if (!why.empty())
      res.errors.push_back("unit" + std::to_string(row.unit + 1) + " " + row.algorithm_name +
                           ": " + why);
  }
  if (!res.errors.empty()) return res;

  // Whole sweeps in the traced run; otherwise until --seconds, but never
  // less than one full sweep so that every row has a sample.
  const int traced_sweeps = std::max(1, std::min(3, static_cast<int>(args.seconds / 10)));
  std::vector<std::vector<double>> times(rows.size()), cpu_ms(rows.size());
  std::vector<JobLayers> layers;
  SpanRecorder rec(SpanRecorder::Clock::now(), 0);
  int job_id = 0;
  const eco::Timer wall;
  const auto done = [&](int sweep) {
    return args.trace ? sweep >= traced_sweeps : sweep > 0 && wall.seconds() >= args.seconds;
  };
  for (int sweep = 0; !done(sweep); ++sweep) {
    if (static_cast<size_t>(sweep) >= orders.size()) orders.push_back(next_order());
    for (const size_t r : orders[sweep]) {
      if (sweep > 0 && done(sweep)) break;
      const Row& row = rows[r];
      const eco::core::EngineOptions opts = table1_options(row.algorithm);
      eco::core::EcoOutcome o;
      JobLayers j;
      ++res.attempted;
      if (args.trace) {
        rec.set_job(job_id++);
        rec.time("job", &j.job_ms, [&] {
          o = rec.time("core::run_eco", &j.run_ms,
                       [&] { return eco::core::run_eco(problems[row.unit], opts); });
          rec.time("core::outcome_to_json", &j.serialize_ms,
                   [&] { return eco::core::outcome_to_json(o); });
        });
        add_engine_stats(o, j);
        if (!(j.sat == row.ref.sat))
          res.errors.push_back("unit" + std::to_string(row.unit + 1) + " " +
                               row.algorithm_name +
                               ": traced run did different SAT work than the reference");
        layers.push_back(j);
      } else {
        const double cpu0 = thread_cpu_ms();
        const eco::Timer t;
        o = eco::core::run_eco(problems[row.unit], opts);
        times[r].push_back(t.seconds() * 1e3);
        cpu_ms[r].push_back(thread_cpu_ms() - cpu0);
      }
      if (const std::string why = outcome_mismatch(o, row.ref); !why.empty()) {
        ++res.failed;
        if (res.errors.size() < 10)
          res.errors.push_back("unit" + std::to_string(row.unit + 1) + " " +
                               row.algorithm_name + ": " + why);
      }
    }
  }
  const double wall_s = wall.seconds();

  if (args.trace) {
    const double untraced_per_job = untraced_ms / static_cast<double>(rows.size());
    res.metrics = per_layer_metrics(layers, ServiceLayers{}, untraced_per_job);
    report_shares("table1_sweep", layers, res);
    const std::string path = args.run_dir + ".trace.json";
    if (write_chrome_trace(path, {&rec})) res.notes.push_back("spans written to " + path);
    return res;
  }
  // Per-row medians, each row weighed once: a sweep of the 42 rows.
  std::vector<double> row_medians, costs, gates;
  double sweep_ms = 0, sweep_cpu_ms = 0;
  size_t fewest = SIZE_MAX;
  for (size_t r = 0; r < rows.size(); ++r) {
    row_medians.push_back(median(times[r]));
    sweep_ms += row_medians.back();
    sweep_cpu_ms += median(cpu_ms[r]);
    fewest = std::min(fewest, times[r].size());
    costs.push_back(static_cast<double>(rows[r].ref.cost));
    gates.push_back(static_cast<double>(rows[r].ref.gates));
  }
  const double n_rows = static_cast<double>(rows.size());
  const std::string medians = std::to_string(rows.size()) + " row medians, " +
                              std::to_string(fewest) + "+ samples each, " +
                              std::to_string(res.attempted) + " jobs in " +
                              std::to_string(wall_s) + " s";
  res.metrics = {
      {"setup_s", median(setups), "s", std::to_string(setups.size()) + " set-ups"},
      {"jobs_per_s", n_rows / (sweep_ms / 1e3), "1/s", "rows / sum of " + medians},
      {"job_ms_geomean", geomean(row_medians), "ms", medians},
      {"cpu_ms_per_job", sweep_cpu_ms / n_rows, "ms", "thread CPU, " + medians},
      {"peak_rss_mb", peak_rss_mb(static_cast<int>(::getpid())), "MB", "VmHWM after inputs"},
      {"ok_share", (static_cast<double>(res.attempted) - static_cast<double>(res.failed)) /
                       static_cast<double>(res.attempted),
       "share", std::to_string(res.attempted) + " jobs"},
      {"patch_cost_mean", mean(costs), "cost", std::to_string(rows.size()) + " rows"},
      {"patch_gates_mean", mean(gates), "gates", std::to_string(rows.size()) + " rows"},
  };
  return res;
}

}  // namespace perfbench
