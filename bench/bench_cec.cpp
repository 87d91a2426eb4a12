// bench_cec: head-to-head of the two equivalence-checking backends on
// fraig-friendly miters — the monolithic SAT check (cec/cec.hpp) against the
// SAT-sweeping engine (cec/sweep.hpp, docs/SWEEPING.md).
//
// Workload: for each (unit, scale) size class, the unit's implementation
// netlist is elaborated to an AIG A, and a functionally identical copy B is
// built by re-expressing every AND as the equivalent but structurally
// disjoint decomposition a&b = (a|b)&(a XNOR b). Strashing shares nothing
// between the copies, so the monolithic check faces one opaque miter while
// the sweeper can rediscover the node-for-node equivalences bottom-up —
// exactly the structural similarity ECO verification exhibits (patched
// implementation vs. specification differ in a small region).
//
// Two cases per size class:
//   equivalent:   the plain A-vs-B miter (UNSAT; proof effort dominates),
//   inequivalent: copy B carries a single buried polarity bug — one internal
//                 node's fanin is complemented during the re-decomposition.
//                 That is the shape of a wrong ECO patch: a local functional
//                 error whose observation requires sensitizing a path to an
//                 output. The monolithic backend must hunt for the witness
//                 through the full double-cone miter; the sweeper refutes the
//                 buggy class locally, merges everything outside the bug's
//                 fanout, and hunts on the collapsed remainder.
// Both backends must agree on every verdict; `verified` records that the
// verdict matched the constructed ground truth.
//
// Usage: bench_cec [--seed N] [--unit K] [--scale N] [--jobs N]
//                  [--json FILE] [--ledger FILE]
//
// Runs are independent and `--jobs` sweeps them over a util::Executor; each
// run's sweep executes single-threaded so `seconds` measures the algorithm,
// not the machine. With --json FILE the records are written under schema
// `ecopatch-bench-cec-v1` — field-compatible with `ecoprof diff` (keyed by
// unit/weights/algorithm; weights carries the case name). BENCH_cec.json at
// the repo root is the committed baseline; the perf-smoke CI job diffs a
// regenerated subset against it.

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "aig/ops.hpp"
#include "benchgen/suite.hpp"
#include "cec/cec.hpp"
#include "cec/sweep.hpp"
#include "net/elaborate.hpp"
#include "util/buildinfo.hpp"
#include "util/executor.hpp"
#include "util/jsonw.hpp"
#include "util/ledger.hpp"
#include "util/numparse.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace {

using eco::util::parse_int;
using eco::util::parse_u64;

namespace aig = eco::aig;

/// Appends src into dst like aig::append, but re-expresses every AND node
/// through the equivalent decomposition a&b = (a|b)&(a XNOR b). The result
/// computes the same functions while sharing no internal structure with a
/// plain append of the same source (strashing cannot unify the copies), so
/// a miter between the two is the sweeper's home turf.
///
/// With \p mutate set to an internal src node, that node's translated fanin0
/// is complemented — a single buried polarity bug, the shape of a wrong ECO
/// patch.
std::vector<aig::Lit> append_redecomposed(const aig::Aig& src, aig::Aig& dst,
                                          std::span<const aig::Lit> pi_map,
                                          aig::Node mutate = 0) {
  std::vector<aig::Lit> map(src.num_nodes(), aig::kLitInvalid);
  map[0] = aig::kLitFalse;
  for (uint32_t i = 0; i < src.num_pis(); ++i) map[src.pi_node(i)] = pi_map[i];
  const auto xlate = [&map](aig::Lit l) {
    return aig::lit_notif(map[aig::lit_node(l)], aig::lit_compl(l));
  };
  for (aig::Node n = src.num_pis() + 1; n < src.num_nodes(); ++n) {
    aig::Lit a = xlate(src.fanin0(n));
    const aig::Lit b = xlate(src.fanin1(n));
    if (n == mutate) a = aig::lit_notif(a, true);
    map[n] = dst.add_and(dst.add_or(a, b), dst.add_xnor(a, b));
  }
  std::vector<aig::Lit> outs;
  outs.reserve(src.num_pos());
  for (uint32_t i = 0; i < src.num_pos(); ++i) outs.push_back(xlate(src.po_lit(i)));
  return outs;
}

struct Miter {
  aig::Aig g;
  aig::Lit out = aig::kLitFalse;
};

/// A-vs-redecomposed-A miter; with \p mutated, copy B carries a buried
/// polarity bug on one internal node (deterministically chosen at 3/5 of the
/// internal node range, deep enough that its observation needs path
/// sensitization rather than luck).
Miter build_workload(const aig::Aig& a, bool mutated) {
  Miter m;
  std::vector<aig::Lit> pis;
  pis.reserve(a.num_pis());
  for (uint32_t i = 0; i < a.num_pis(); ++i) pis.push_back(m.g.add_pi(a.pi_name(i)));
  const std::vector<aig::Lit> outs_a = aig::append(a, m.g, pis);
  aig::Node mutate = 0;
  if (mutated) {
    const aig::Node first = a.num_pis() + 1;
    mutate = first + (a.num_nodes() - first) * 3 / 5;
  }
  const std::vector<aig::Lit> outs_b = append_redecomposed(a, m.g, pis, mutate);
  std::vector<aig::Lit> diffs;
  diffs.reserve(outs_a.size());
  for (size_t i = 0; i < outs_a.size(); ++i)
    diffs.push_back(m.g.add_xor(outs_a[i], outs_b[i]));
  m.out = m.g.add_or_multi(diffs);
  m.g.add_po(m.out, "miter");
  return m;
}

struct RunRow {
  eco::cec::Status status = eco::cec::Status::kUnknown;
  bool verified = false;  ///< verdict matches the constructed ground truth
  uint32_t pis = 0;
  uint32_t gates = 0;  ///< miter AND count (deterministic per case)
  double seconds = 0;
  double cpu_seconds = 0;
  eco::telemetry::SolverTotals sat;
  eco::cec::SweepStats sweep;  ///< zero for the monolithic backend
};

double thread_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

RunRow run_case(const aig::Aig& unit_aig, bool mutated, bool sweeping) {
  const Miter m = build_workload(unit_aig, mutated);
  RunRow row;
  row.pis = unit_aig.num_pis();
  row.gates = m.g.num_ands();
  eco::telemetry::SolverTotalsAccumulator acc;
  eco::Timer timer;
  const double cpu_before = thread_cpu_seconds();
  {
    const eco::telemetry::ScopedSolverCapture capture(acc);
    if (sweeping) {
      const eco::cec::SweepResult r = eco::cec::sweep_check(m.g, m.out);
      row.status = r.cec.status;
      row.sweep = r.stats;
    } else {
      row.status = eco::cec::check_const0(m.g, m.out).status;
    }
  }
  row.cpu_seconds = thread_cpu_seconds() - cpu_before;
  row.seconds = timer.seconds();
  row.sat = acc.totals();
  row.verified = row.status == (mutated ? eco::cec::Status::kNotEquivalent
                                       : eco::cec::Status::kEquivalent);
  return row;
}

const char* status_name(eco::cec::Status s) {
  switch (s) {
    case eco::cec::Status::kEquivalent: return "equivalent";
    case eco::cec::Status::kNotEquivalent: return "not_equivalent";
    case eco::cec::Status::kUnknown: return "unknown";
  }
  return "unknown";
}

void append_record(eco::JsonWriter& w, const std::string& unit_name, const char* case_name,
                   const char* algorithm, const RunRow& row) {
  w.begin_object();
  w.kv("unit", unit_name);
  w.kv("weights", case_name);  // diff key slot; the case plays the role
  w.kv("algorithm", algorithm);
  w.kv("pis", row.pis);
  w.kv("ok", row.status != eco::cec::Status::kUnknown);
  w.kv("verified", row.verified);
  w.kv("method", status_name(row.status));
  w.kv("cost", static_cast<int64_t>(0));  // exact-compare slot: always 0
  w.kv("gates", row.gates);
  w.kv("seconds", row.seconds);
  w.kv("cpu_seconds", row.cpu_seconds);
  w.key("sat");
  w.begin_object();
  eco::telemetry::write_json(w, row.sat);
  w.end_object();
  w.key("sweep");
  w.begin_object();
  eco::cec::write_json(w, row.sweep);
  w.end_object();
  w.end_object();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--unit K] [--scale N] [--jobs N] [--json FILE]\n"
               "          [--ledger FILE]\n"
               "  --seed N    benchmark-suite generator seed (default 20170912)\n"
               "  --unit K    run only size classes of unit K (0..%d)\n"
               "  --scale N   run only size classes at scale N (>= 1)\n"
               "  --jobs N    parallel runs; 0 = all hardware threads\n"
               "              (default: ECO_JOBS, else 1)\n"
               "  --json FILE write machine-readable records (ecopatch-bench-cec-v1)\n"
               "  --ledger FILE write the per-query JSONL ledger\n",
               argv0, eco::benchgen::kNumUnits - 1);
  return 2;
}

/// The committed size-class matrix (BENCH_cec.json): one linear-cost family
/// scaled through three sizes plus two structurally distinct mid units, so
/// the sweep-vs-mono gap is shown growing with size rather than at a point.
struct SizeClass {
  int unit;
  int scale;
};
constexpr SizeClass kMatrix[] = {
    {1, 1}, {1, 4}, {1, 16},  // unit2 comparator bank: the scaling spine
    {3, 4},                   // unit4 random logic, mid size
    {14, 4},                  // unit15 comparator lanes, mid size
};

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 20170912;
  int only_unit = -1, only_scale = -1;
  int jobs = eco::util::default_jobs();
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
    } else if (!std::strcmp(arg, "--scale")) {
      if (!parse_int(operand, only_scale) || only_scale < 1) {
        std::fprintf(stderr, "%s: --scale needs an integer >= 1\n", argv[0]);
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

  std::vector<SizeClass> classes;
  for (const SizeClass& sc : kMatrix) {
    if (only_unit >= 0 && sc.unit != only_unit) continue;
    if (only_scale >= 1 && sc.scale != only_scale) continue;
    classes.push_back(sc);
  }
  if (classes.empty() && only_unit >= 0 && only_scale >= 1)
    classes.push_back(SizeClass{only_unit, only_scale});
  if (classes.empty()) {
    std::fprintf(stderr, "%s: no size classes selected\n", argv[0]);
    return 2;
  }

  if (!ledger_path.empty() && !eco::ledger::set_sink(ledger_path)) {
    std::fprintf(stderr, "bench_cec: cannot write %s: %s\n", ledger_path.c_str(),
                 std::strerror(errno));
    return 2;
  }

  // One task per (size class, case, backend). Each regenerates its unit and
  // miter from the seed, so tasks share nothing; the sweep inside each task
  // runs single-threaded (no executor) so seconds measures the algorithm.
  struct Task {
    size_t cls;
    bool mutated;
    bool sweeping;
  };
  std::vector<Task> tasks;
  tasks.reserve(classes.size() * 4);
  for (size_t c = 0; c < classes.size(); ++c)
    for (const bool mutated : {false, true})
      for (const bool sweeping : {false, true}) tasks.push_back(Task{c, mutated, sweeping});
  std::vector<RunRow> results(tasks.size());

  eco::util::Executor executor(jobs);
  eco::Timer sweep_timer;
  executor.parallel_for(tasks.size(), [&](size_t t) {
    const Task& task = tasks[t];
    const SizeClass& sc = classes[task.cls];
    const eco::benchgen::EcoUnit unit = eco::benchgen::make_unit(sc.unit, seed, sc.scale);
    const eco::net::ElaboratedAig ea = eco::net::elaborate(unit.impl);
    results[t] = run_case(ea.aig, task.mutated, task.sweeping);
  });
  const double sweep_wall = sweep_timer.seconds();

  eco::JsonWriter json;
  json.begin_object();
  json.kv("schema", "ecopatch-bench-cec-v1");
  json.kv("git_commit", eco::build::git_commit());
  json.kv("git_dirty", eco::build::git_dirty());
  json.kv("seed", seed);
  json.kv("jobs", executor.jobs());
  json.kv("sweep_wall_seconds", sweep_wall);
  json.key("runs");
  json.begin_array();

  std::printf("CEC backends: monolithic SAT vs. SAT sweeping (docs/SWEEPING.md)\n");
  std::printf("(seed %" PRIu64 ", %d job%s; per-run times are single-threaded)\n\n", seed,
              executor.jobs(), executor.jobs() == 1 ? "" : "s");
  std::printf("%-12s %-12s %8s | %10s %14s | %10s %14s | %7s\n", "unit", "case", "gates",
              "mono_s", "mono_verdict", "sweep_s", "sweep_verdict", "speedup");

  int failures = 0;
  for (size_t c = 0; c < classes.size(); ++c) {
    const SizeClass& sc = classes[c];
    const eco::benchgen::EcoUnit unit = eco::benchgen::make_unit(sc.unit, seed, sc.scale);
    for (const bool mutated : {false, true}) {
      const char* case_name = mutated ? "inequivalent" : "equivalent";
      const RunRow& mono = results[c * 4 + (mutated ? 2 : 0)];
      const RunRow& swp = results[c * 4 + (mutated ? 2 : 0) + 1];
      append_record(json, unit.name, case_name, "mono", mono);
      append_record(json, unit.name, case_name, "sweep", swp);
      std::printf("%-12s %-12s %8u | %10.3f %14s | %10.3f %14s | %6.2fx\n", unit.name.c_str(),
                  case_name, mono.gates, mono.seconds, status_name(mono.status), swp.seconds,
                  status_name(swp.status), swp.seconds > 0 ? mono.seconds / swp.seconds : 0.0);
      if (mono.status != swp.status || !mono.verified || !swp.verified) {
        ++failures;
        std::printf("        ^ ERROR: verdicts disagree or miss the constructed ground truth\n");
      }
    }
  }

  json.end_array();
  json.end_object();
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str() << '\n';
    if (!out) {
      std::fprintf(stderr, "bench_cec: cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::printf("\nJSON records written to %s\n", json_path.c_str());
  }
  if (!ledger_path.empty()) {
    if (!eco::ledger::close_sink()) {
      std::fprintf(stderr, "bench_cec: cannot write %s\n", ledger_path.c_str());
      return 2;
    }
    std::printf("ledger written to %s\n", ledger_path.c_str());
  }

  if (failures) std::printf("\n%d case(s) FAILED verdict agreement.\n", failures);
  return failures == 0 ? 0 : 1;
}
