// bench_table1: regenerates Table 1 of "Efficient Computation of ECO Patch
// Functions" (DAC'18) on the synthetic contest-suite substitute.
//
// For each of the 20 units, three configurations are run:
//   A: w/o minimize_assumptions (supports/cubes from analyze_final cores),
//   B: w/ minimize_assumptions (the contest-winning configuration),
//   C: SAT_prune + CEGAR_min.
// Columns mirror the paper: resource cost, patch size (gates), runtime.
// The final row reports geometric means of the per-unit ratios vs. config A.
//
// Usage: bench_table1 [--seed N] [--unit K] [--budget SECONDS] [--jobs N]
//                     [--json FILE] [--ledger FILE] [--ladder 0|1]
//                     [--par-sat off|on]
//
// The strategy ladder is OFF by default here (unlike the engine default):
// Table 1 compares the three configurations as-is, so escalation to other
// strategies would blur the comparison and break run-to-run bit-identity.
//
// --par-sat enables intra-query parallel SAT (sat/parsolve.hpp): a solve
// stuck past the conflict trigger fans out over the same Executor the sweep
// runs on, and outcome fields stay deterministic (see the contract in
// docs/PARALLEL_SAT.md).
//
// The 60 (unit, configuration) runs are independent; `--jobs N` (or the
// ECO_JOBS environment variable; 0 = all hardware threads) sweeps them over
// a util::Executor thread pool. Each run regenerates its unit from the seed
// and executes single-threaded, so results are identical for every jobs
// value; only the schedule changes. Per-run `seconds` is wall-clock and
// `cpu_seconds` is the run's thread CPU time (CLOCK_THREAD_CPUTIME_ID), so
// oversubscribed sweeps stay interpretable.
//
// With --json FILE, one machine-readable record per (unit, configuration)
// run is written as a JSON array (schema `ecopatch-bench-table1-v1`,
// docs/OBSERVABILITY.md): unit shape, algorithm, outcome, phase breakdown,
// SAT conflict/propagation totals, a `sweep` stats block (all zero unless
// the final check escalated to SAT sweeping, docs/SWEEPING.md), cost, gates,
// seconds, cpu_seconds. This is the stable perf-trajectory format later
// changes compare against (BENCH_table1.json).

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "benchgen/weightgen.hpp"
#include "eco/engine.hpp"
#include "eco/problem.hpp"
#include "sat/parsolve.hpp"
#include "util/buildinfo.hpp"
#include "util/executor.hpp"
#include "util/jsonw.hpp"
#include "util/ledger.hpp"
#include "util/numparse.hpp"
#include "util/timer.hpp"

namespace {

using eco::util::parse_double;
using eco::util::parse_int;
using eco::util::parse_u64;

struct RunRow {
  bool ok = false;
  bool verified = false;
  int64_t cost = 0;
  uint32_t gates = 0;
  double seconds = 0;
  double cpu_seconds = 0;
  std::string method;
  std::string fail_reason;
  eco::core::EngineStats stats;
};

double thread_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

RunRow run_config(const eco::core::EcoProblem& problem, eco::core::Algorithm algorithm,
                  double budget, bool ladder) {
  eco::core::EngineOptions options;
  options.algorithm = algorithm;
  options.time_budget = budget;
  options.ladder = ladder;
  options.conflict_budget = 300000;
  // Moderate expansion cap: large multi-target units fall back to the
  // structural path, as the hard units do in the paper.
  options.max_expansion_nodes = 1500000;
  options.qbf.max_iterations = 3000;
  options.verify_time_budget = 60;
  const double cpu_before = thread_cpu_seconds();
  const eco::core::EcoOutcome outcome = eco::core::run_eco(problem, options);
  RunRow row;
  row.cpu_seconds = thread_cpu_seconds() - cpu_before;
  row.ok = outcome.status == eco::core::EcoOutcome::Status::kPatched;
  row.verified = outcome.verified;
  row.cost = outcome.total_cost;
  row.gates = outcome.patch_gates;
  row.seconds = outcome.seconds;
  row.method = outcome.method;
  row.fail_reason = eco::core::fail_reason_name(outcome.fail_reason);
  row.stats = outcome.stats;
  if (outcome.verification == eco::core::EcoOutcome::Verification::kInconclusive)
    row.method += " (verify?)";
  return row;
}

void append_record(eco::JsonWriter& w, const eco::benchgen::EcoUnit& unit,
                   const eco::core::EcoProblem& problem, const char* algorithm,
                   const RunRow& row) {
  w.begin_object();
  w.kv("unit", unit.name);
  w.kv("algorithm", algorithm);
  w.kv("pis", problem.num_shared_pis());
  w.kv("pos", problem.spec.num_pos());
  w.kv("gates_impl", static_cast<uint64_t>(unit.impl.num_gates()));
  w.kv("gates_spec", static_cast<uint64_t>(unit.spec.num_gates()));
  w.kv("targets", unit.num_targets);
  w.kv("weights", eco::benchgen::weight_type_name(unit.weight_type));
  w.kv("ok", row.ok);
  w.kv("verified", row.verified);
  w.kv("method", row.method);
  w.kv("fail_reason", row.fail_reason);
  w.kv("ladder_attempts", static_cast<uint64_t>(row.stats.ladder.size()));
  w.kv("cost", row.cost);
  w.kv("gates", row.gates);
  w.kv("seconds", row.seconds);
  w.kv("cpu_seconds", row.cpu_seconds);
  w.kv("qbf_iterations", row.stats.qbf_iterations);
  w.kv("support_sat_calls", row.stats.support_sat_calls);
  w.kv("satprune_iterations", row.stats.satprune_iterations);
  eco::core::write_json(w, row.stats);
  w.end_object();
}

double ratio_or_one(double num, double den) {
  const double a = std::max(num, 1.0);
  const double b = std::max(den, 1.0);
  return a / b;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--unit K] [--budget SECONDS] [--jobs N] [--json FILE]\n"
               "          [--ledger FILE] [--ladder 0|1] [--par-sat off|on]\n"
               "  --seed N          benchmark-suite generator seed (default 20170912)\n"
               "  --unit K          run only unit K (0..%d)\n"
               "  --budget SECONDS  per-run engine time budget > 0 (default 15)\n"
               "  --jobs N          parallel runs; 0 = all hardware threads\n"
               "                    (default: ECO_JOBS, else 1)\n"
               "  --json FILE       write machine-readable records to FILE\n"
               "  --ledger FILE     write the per-query JSONL ledger to FILE\n"
               "                    (ecopatch-ledger-v1; analyze with ecoprof)\n"
               "  --ladder 0|1      strategy-ladder fallback (default 0: compare\n"
               "                    the configurations as-is)\n"
               "  --par-sat MODE    intra-query parallel SAT: off | on\n"
               "                    (default: ECO_PAR_SAT, else off; 'on' keeps\n"
               "                    outcome fields deterministic)\n",
               argv0, eco::benchgen::kNumUnits - 1);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 20170912;
  int only_unit = -1;
  double budget = 15.0;
  int jobs = eco::util::default_jobs();
  bool ladder = false;
  eco::sat::ParSolveOptions par_opts = eco::sat::ParSolveOptions::defaults();
  std::string json_path, ledger_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* operand = i + 1 < argc ? argv[i + 1] : nullptr;
    if (!std::strcmp(arg, "--seed")) {
      if (!parse_u64(operand, seed)) {
        std::fprintf(stderr, "%s: --seed needs a non-negative integer\n", argv[0]);
        return usage(argv[0]);
      }
      ++i;
    } else if (!std::strcmp(arg, "--unit")) {
      if (!parse_int(operand, only_unit) || only_unit < 0 ||
          only_unit >= eco::benchgen::kNumUnits) {
        std::fprintf(stderr, "%s: --unit needs an integer in [0, %d]\n", argv[0],
                     eco::benchgen::kNumUnits - 1);
        return usage(argv[0]);
      }
      ++i;
    } else if (!std::strcmp(arg, "--budget")) {
      if (!parse_double(operand, budget) || !(budget > 0)) {
        std::fprintf(stderr, "%s: --budget needs a positive number of seconds\n", argv[0]);
        return usage(argv[0]);
      }
      ++i;
    } else if (!std::strcmp(arg, "--jobs")) {
      if (!parse_int(operand, jobs) || jobs < 0) {
        std::fprintf(stderr, "%s: --jobs needs a non-negative integer\n", argv[0]);
        return usage(argv[0]);
      }
      if (jobs == 0) jobs = eco::util::hardware_jobs();
      ++i;
    } else if (!std::strcmp(arg, "--ladder")) {
      if (operand == nullptr || (std::strcmp(operand, "0") && std::strcmp(operand, "1"))) {
        std::fprintf(stderr, "%s: --ladder needs 0 or 1\n", argv[0]);
        return usage(argv[0]);
      }
      ladder = operand[0] == '1';
      ++i;
    } else if (!std::strcmp(arg, "--par-sat")) {
      if (operand == nullptr || !eco::sat::parse_par_mode(operand, par_opts.mode)) {
        std::fprintf(stderr, "%s: --par-sat needs off or on\n", argv[0]);
        return usage(argv[0]);
      }
      ++i;
    } else if (!std::strcmp(arg, "--json")) {
      if (operand == nullptr || operand[0] == '\0') {
        std::fprintf(stderr, "%s: --json needs a file path\n", argv[0]);
        return usage(argv[0]);
      }
      json_path = operand;
      ++i;
    } else if (!std::strcmp(arg, "--ledger")) {
      if (operand == nullptr || operand[0] == '\0') {
        std::fprintf(stderr, "%s: --ledger needs a file path\n", argv[0]);
        return usage(argv[0]);
      }
      ledger_path = operand;
      ++i;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg);
      return usage(argv[0]);
    }
  }

  std::vector<int> units;
  for (int u = 0; u < eco::benchgen::kNumUnits; ++u)
    if (only_unit < 0 || u == only_unit) units.push_back(u);

  static constexpr const char* kAlgoNames[3] = {"baseline", "minimize", "satprune_cegarmin"};
  static constexpr eco::core::Algorithm kAlgos[3] = {
      eco::core::Algorithm::kBaseline, eco::core::Algorithm::kMinimize,
      eco::core::Algorithm::kSatPruneCegarMin};

  // One task per (unit, configuration): each regenerates its unit from the
  // seed, so tasks share nothing and any schedule gives identical results.
  struct Task {
    int unit;
    int cfg;
  };
  std::vector<Task> tasks;
  tasks.reserve(units.size() * 3);
  for (const int u : units)
    for (int cfg = 0; cfg < 3; ++cfg) tasks.push_back(Task{u, cfg});
  std::vector<RunRow> results(tasks.size());

  // Fail fast on an unwritable ledger path — the sink writes its header line
  // on open, well before the sweep burns hundreds of seconds.
  if (!ledger_path.empty() && !eco::ledger::set_sink(ledger_path)) {
    std::fprintf(stderr, "bench_table1: cannot write %s: %s\n", ledger_path.c_str(),
                 std::strerror(errno));
    return 2;
  }

  eco::util::Executor executor(jobs);
  eco::sat::ParSolveOptions::set_defaults(par_opts);
  if (par_opts.mode != eco::sat::ParMode::kOff) eco::sat::set_par_executor(&executor);
  eco::Timer sweep_timer;
  executor.parallel_for(tasks.size(), [&](size_t t) {
    const Task& task = tasks[t];
    const eco::benchgen::EcoUnit unit = eco::benchgen::make_unit(task.unit, seed);
    const eco::core::EcoProblem problem =
        eco::core::make_problem(unit.impl, unit.spec, unit.weights);
    results[t] = run_config(problem, kAlgos[task.cfg], budget, ladder);
  });
  const double sweep_wall = sweep_timer.seconds();

  eco::JsonWriter json;
  json.begin_object();
  json.kv("schema", "ecopatch-bench-table1-v1");
  // Provenance stamp (schema-additive): which build produced these numbers.
  json.kv("git_commit", eco::build::git_commit());
  json.kv("git_dirty", eco::build::git_dirty());
  json.kv("seed", seed);
  json.kv("budget_seconds", budget);
  json.kv("ladder", ladder);
  json.kv("par_sat", eco::sat::par_mode_name(par_opts.mode));
  json.kv("jobs", executor.jobs());
  json.kv("sweep_wall_seconds", sweep_wall);
  json.key("runs");
  json.begin_array();

  std::printf("Table 1 reproduction: comparison of the three algorithm configurations\n");
  std::printf("(synthetic ICCAD'17-suite substitute, seed %" PRIu64 ", %d job%s)\n\n", seed,
              executor.jobs(), executor.jobs() == 1 ? "" : "s");
  std::printf("%-7s %5s %5s %7s %7s %4s %3s | %8s %7s %8s | %8s %7s %8s | %8s %7s %8s %-12s\n",
              "unit", "#PI", "#PO", "#gateF", "#gateS", "#tgt", "wt",
              "A:cost", "A:gate", "A:time",
              "B:cost", "B:gate", "B:time",
              "C:cost", "C:gate", "C:time", "C:method");

  double log_cost_b = 0, log_gate_b = 0, log_time_b = 0;
  double log_cost_c = 0, log_gate_c = 0, log_time_c = 0;
  int counted = 0;
  int failures = 0;

  for (size_t ui = 0; ui < units.size(); ++ui) {
    const int u = units[ui];
    const eco::benchgen::EcoUnit unit = eco::benchgen::make_unit(u, seed);
    const eco::core::EcoProblem problem =
        eco::core::make_problem(unit.impl, unit.spec, unit.weights);

    const RunRow& a = results[ui * 3 + 0];
    const RunRow& b = results[ui * 3 + 1];
    const RunRow& c = results[ui * 3 + 2];
    append_record(json, unit, problem, kAlgoNames[0], a);
    append_record(json, unit, problem, kAlgoNames[1], b);
    append_record(json, unit, problem, kAlgoNames[2], c);

    std::printf("%-7s %5u %5u %7zu %7zu %4d %3s | %8" PRId64 " %7u %8.2f | %8" PRId64
                " %7u %8.2f | %8" PRId64 " %7u %8.2f %-12s\n",
                unit.name.c_str(), problem.num_shared_pis(), problem.spec.num_pos(),
                unit.impl.num_gates(), unit.spec.num_gates(), unit.num_targets,
                eco::benchgen::weight_type_name(unit.weight_type),
                a.cost, a.gates, a.seconds, b.cost, b.gates, b.seconds,
                c.cost, c.gates, c.seconds, c.method.c_str());

    if (!a.ok || !b.ok || !c.ok) {
      ++failures;
      std::printf("        ^ WARNING: not all configurations produced a verified patch "
                  "(A:%d B:%d C:%d)\n", a.ok, b.ok, c.ok);
      continue;
    }
    log_cost_b += std::log(ratio_or_one(static_cast<double>(b.cost), static_cast<double>(a.cost)));
    log_gate_b += std::log(ratio_or_one(b.gates, a.gates));
    log_time_b += std::log(ratio_or_one(b.seconds * 1000, a.seconds * 1000));
    log_cost_c += std::log(ratio_or_one(static_cast<double>(c.cost), static_cast<double>(a.cost)));
    log_gate_c += std::log(ratio_or_one(c.gates, a.gates));
    log_time_c += std::log(ratio_or_one(c.seconds * 1000, a.seconds * 1000));
    ++counted;
  }

  if (counted > 0) {
    std::printf("\nGeomean ratios vs. config A (paper: B = 0.26 cost / 0.47 gates / 2.12x time;"
                "\n                             C = 0.24 cost / 0.43 gates / 19.31x time)\n");
    std::printf("  B (minimize_assumptions): cost %.2f  gates %.2f  time %.2fx\n",
                std::exp(log_cost_b / counted), std::exp(log_gate_b / counted),
                std::exp(log_time_b / counted));
    std::printf("  C (SAT_prune+CEGAR_min) : cost %.2f  gates %.2f  time %.2fx\n",
                std::exp(log_cost_c / counted), std::exp(log_gate_c / counted),
                std::exp(log_time_c / counted));
  }
  double cpu_total = 0;
  for (const RunRow& r : results) cpu_total += r.cpu_seconds;
  std::printf("\nSweep: %.2fs wall, %.2fs total run CPU, %d job%s\n", sweep_wall, cpu_total,
              executor.jobs(), executor.jobs() == 1 ? "" : "s");

  json.end_array();
  json.end_object();
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str() << '\n';
    if (!out) {
      std::fprintf(stderr, "bench_table1: cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::printf("JSON records written to %s\n", json_path.c_str());
  }
  if (!ledger_path.empty()) {
    if (!eco::ledger::close_sink()) {
      std::fprintf(stderr, "bench_table1: cannot write %s\n", ledger_path.c_str());
      return 2;
    }
    std::printf("ledger written to %s\n", ledger_path.c_str());
  }

  if (failures) std::printf("\n%d unit(s) had unverified configurations.\n", failures);
  return failures == 0 ? 0 : 1;
}
