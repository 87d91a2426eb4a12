// ecopatch — command-line front end for the library.
//
//   ecopatch solve <impl.v> <spec.v> <weights.txt> [options]
//       Runs the ECO engine on a contest-style instance and writes the
//       patch. Options:
//         --algo baseline|minimize|satprune   (default minimize)
//         --budget SECONDS                    (default 60; 0 = unlimited)
//         --patch FILE                        (default patch.v)
//         --patched FILE                      write the patched netlist
//         --force-structural
//         --stats-json FILE                   outcome + telemetry snapshot JSON
//         --trace FILE                        Chrome trace_event JSON
//         --ledger FILE                       per-query JSONL ledger
//                                             (ecopatch-ledger-v1; analyze
//                                             with `ecoprof report`)
//         --sim-bank 0|1                      counterexample simulation bank
//                                             (default: ECO_SIM_BANK, else on)
//         --jobs N                            thread pool for the run
//                                             (0 = all hardware threads;
//                                             default: ECO_JOBS, else 1)
//         --ladder 0|1                        strategy-ladder fallback
//                                             (default on; docs/ROBUSTNESS.md)
//         --par-sat off|on                    intra-query parallel SAT
//                                             (default: ECO_PAR_SAT, else off;
//                                             docs/PARALLEL_SAT.md)
//   ecopatch gen <unit 1..20> <outdir> [--seed N] [--scale N]
//
// Global options (any command): -v/--verbose raises the log level to info,
// -vv to debug, and routes the telemetry phase/counter summary through the
// logger; --fault SPEC arms fault-injection sites (same syntax as ECO_FAULT,
// docs/ROBUSTNESS.md). See docs/OBSERVABILITY.md for the JSON schemas.
// SIGINT/SIGTERM request cooperative cancellation: the run winds down and
// reports status "unknown" with fail_reason "cancelled".
//       Materializes a synthetic suite unit as impl.v/spec.v/weights.txt.
//   ecopatch stats <circuit>
//       Parses a circuit (.v, .blif, .aag/.aig) and prints statistics.
//   ecopatch cec <a> <b>
//       Combinational equivalence check between two circuit files.
//   ecopatch convert <in> <out>
//       Converts between formats; both chosen by file extension.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "aig/aiger.hpp"
#include "aig/window.hpp"
#include "benchgen/suite.hpp"
#include "cec/cec.hpp"
#include "eco/engine.hpp"
#include "net/aignet.hpp"
#include "net/blif.hpp"
#include "net/elaborate.hpp"
#include "net/verilog.hpp"
#include "net/weights.hpp"
#include "sat/parsolve.hpp"
#include "service/artifacts.hpp"
#include "util/cancel.hpp"
#include "util/executor.hpp"
#include "util/faultpoint.hpp"
#include "util/log.hpp"
#include "util/numparse.hpp"
#include "util/telemetry.hpp"

namespace {

/// Tripped by SIGINT/SIGTERM; the engine observes it cooperatively and
/// winds down with FailReason::kCancelled instead of being killed mid-write.
eco::CancelToken g_stop = eco::CancelToken::stoppable();

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ecopatch solve <impl.v> <spec.v> <weights.txt> [--algo A] [--budget S]\n"
               "                 [--patch FILE] [--patched FILE] [--force-structural]\n"
               "                 [--stats-json FILE] [--trace FILE] [--ledger FILE]\n"
               "                 [--jobs N] [--sim-bank 0|1] [--ladder 0|1]\n"
               "                 [--par-sat off|on]\n"
               "  ecopatch gen <unit 1..20> <outdir> [--seed N] [--scale N]\n"
               "  ecopatch stats <circuit.{v,blif,aag,aig}>\n"
               "  ecopatch cec <a> <b> [--jobs N]\n"
               "  ecopatch convert <in> <out>\n"
               "global options: -v/--verbose (info), -vv (debug),\n"
               "                --fault SITE[:PROB[:SEED]],... (inject faults)\n"
               "exit codes: 0 patched, 1 infeasible/not-equivalent, 2 usage,\n"
               "            3 unknown, 4 front-end error, 5 engine error,\n"
               "            6 observability output (--stats-json/--trace/--ledger)\n"
               "              could not be written (overrides a success exit)\n");
  return 2;
}

std::string extension_of(const std::string& path) {
  const auto dot = path.rfind('.');
  return dot == std::string::npos ? "" : path.substr(dot + 1);
}

/// Parses a `--jobs` operand: non-negative integer, 0 = all hardware
/// threads. Returns -1 on a malformed operand.
int parse_jobs(const char* s) {
  int v = 0;
  if (!eco::util::parse_int(s, v) || v < 0 || v > 4096) return -1;
  return v == 0 ? eco::util::hardware_jobs() : v;
}

/// Loads any supported circuit format as an AIG.
eco::aig::Aig load_circuit(const std::string& path) {
  const std::string ext = extension_of(path);
  if (ext == "v") return eco::net::elaborate(eco::net::parse_verilog_file(path)).aig;
  if (ext == "blif") return eco::net::parse_blif_file(path);
  if (ext == "aag" || ext == "aig") return eco::aig::read_aiger_file(path);
  throw std::runtime_error("unsupported circuit format: ." + ext);
}

void save_circuit(const std::string& path, const eco::aig::Aig& g) {
  const std::string ext = extension_of(path);
  if (ext == "v") {
    eco::net::write_verilog_file(path, eco::net::aig_to_network(g, "top"));
  } else if (ext == "blif") {
    eco::net::write_blif_file(path, g);
  } else if (ext == "aag" || ext == "aig") {
    eco::aig::write_aiger_file(path, g, /*binary=*/ext == "aig");
  } else {
    throw std::runtime_error("unsupported output format: ." + ext);
  }
}

int cmd_solve(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string impl_path = argv[2], spec_path = argv[3], weights_path = argv[4];
  eco::core::EngineOptions options;
  options.time_budget = 60;
  int jobs = eco::util::default_jobs();
  eco::sat::ParSolveOptions par_opts = eco::sat::ParSolveOptions::defaults();
  std::string patch_path = "patch.v", patched_path, stats_json_path, trace_path, ledger_path;
  for (int i = 5; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      jobs = parse_jobs(argv[++i]);
      if (jobs < 0) return usage();
    } else if (arg == "--algo" && i + 1 < argc) {
      const std::string algo = argv[++i];
      if (algo == "baseline") options.algorithm = eco::core::Algorithm::kBaseline;
      else if (algo == "minimize") options.algorithm = eco::core::Algorithm::kMinimize;
      else if (algo == "satprune") options.algorithm = eco::core::Algorithm::kSatPruneCegarMin;
      else return usage();
    } else if (arg == "--budget" && i + 1 < argc) {
      if (!eco::util::parse_double(argv[++i], options.time_budget) || options.time_budget < 0)
        return usage();
    } else if (arg == "--patch" && i + 1 < argc) {
      patch_path = argv[++i];
    } else if (arg == "--patched" && i + 1 < argc) {
      patched_path = argv[++i];
    } else if (arg == "--force-structural") {
      options.force_structural = true;
    } else if (arg == "--sim-bank" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage();
      options.simfilter.enabled = v == "1";
    } else if (arg == "--ladder" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return usage();
      options.ladder = v == "1";
    } else if (arg == "--par-sat" && i + 1 < argc) {
      if (!eco::sat::parse_par_mode(argv[++i], par_opts.mode)) return usage();
    } else if (arg == "--stats-json" && i + 1 < argc) {
      stats_json_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--ledger" && i + 1 < argc) {
      ledger_path = argv[++i];
    } else {
      return usage();
    }
  }
  // Telemetry recording is off by default; any observability output (or an
  // explicit ECO_TELEMETRY=1 in the environment) turns it on for the run.
  if (!stats_json_path.empty() || !trace_path.empty()) eco::telemetry::set_enabled(true);
  // The ledger sink writes its header line on open, so an unwritable path
  // fails here — before the solve burns its budget — with exit code 6.
  if (!ledger_path.empty() && !eco::ledger::set_sink(ledger_path)) {
    std::fprintf(stderr, "ecopatch: cannot write %s: %s\n", ledger_path.c_str(),
                 std::strerror(errno));
    return 6;
  }

  // The shared front-end path of CLI and ecopatchd (service/artifacts.hpp);
  // budget 0 is the one-shot mode: parse fresh, cache nothing. Parse errors
  // propagate as net::ParseError to main's exit-4 mapping, unchanged.
  eco::service::SessionCache cache(0);
  const eco::service::LoadedInputs inputs =
      eco::service::load_inputs(cache, impl_path, spec_path, weights_path);
  const eco::net::Network& impl = inputs.impl->network;
  const eco::net::Network& spec = inputs.spec->network;
  const eco::net::WeightMap& weights = inputs.weights->weights;
  eco::util::Executor executor(jobs);
  options.executor = &executor;
  // run_eco registers the pool for intra-query parallel SAT; the mode knob
  // (default off, env ECO_PAR_SAT, flag --par-sat) decides whether it fires.
  eco::sat::ParSolveOptions::set_defaults(par_opts);
  options.cancel = g_stop;  // Ctrl-C / SIGTERM aborts the run cooperatively
  const eco::core::EcoOutcome outcome = eco::core::run_eco(impl, spec, weights, options);

  // Observability outputs are written for every status, including failures —
  // where the time went matters most when no patch came out.
  eco::log_info("solve: phases window %.2fs qbf %.2fs sat %.2fs structural %.2fs "
                "assemble %.2fs verify %.2fs | %llu sat conflicts in %llu solvers",
                outcome.stats.window_seconds, outcome.stats.qbf_seconds,
                outcome.stats.sat_path_seconds, outcome.stats.structural_seconds,
                outcome.stats.assemble_seconds, outcome.stats.verify_seconds,
                static_cast<unsigned long long>(outcome.stats.sat_conflicts),
                static_cast<unsigned long long>(outcome.stats.sat_solvers));
  eco::telemetry::log_summary();
  // A failed observability write is a hard error (exit 6), not a warning —
  // a monitoring pipeline must not read a truncated/absent file as success.
  bool io_error = false;
  if (!stats_json_path.empty()) {
    // One document: the outcome block plus the flat telemetry snapshot.
    std::string doc = "{\"outcome\":" + eco::core::outcome_to_json(outcome) +
                      ",\"telemetry\":" + eco::telemetry::snapshot_json() + "}";
    std::ofstream out(stats_json_path);
    out << doc << '\n';
    out.flush();
    if (!out) {
      std::fprintf(stderr, "ecopatch: cannot write %s: %s\n", stats_json_path.c_str(),
                   std::strerror(errno));
      io_error = true;
    } else {
      std::printf("stats written to %s\n", stats_json_path.c_str());
    }
  }
  if (!trace_path.empty()) {
    if (!eco::telemetry::write_trace_json(trace_path)) {
      std::fprintf(stderr, "ecopatch: cannot write %s: %s\n", trace_path.c_str(),
                   std::strerror(errno));
      io_error = true;
    } else {
      std::printf("trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n",
                  trace_path.c_str());
    }
  }
  if (!ledger_path.empty()) {
    if (!eco::ledger::close_sink()) {
      std::fprintf(stderr, "ecopatch: cannot write %s: %s\n", ledger_path.c_str(),
                   std::strerror(errno));
      io_error = true;
    } else {
      std::printf("ledger written to %s (analyze with `ecoprof report`)\n",
                  ledger_path.c_str());
    }
  }

  using Status = eco::core::EcoOutcome::Status;
  if (outcome.stats.ladder.size() > 1) {
    std::printf("ladder: %zu attempts (", outcome.stats.ladder.size());
    for (size_t i = 0; i < outcome.stats.ladder.size(); ++i)
      std::printf("%s%s=%s", i ? ", " : "", outcome.stats.ladder[i].rung.c_str(),
                  outcome.stats.ladder[i].result.c_str());
    std::printf(")\n");
  }
  if (outcome.status == Status::kError) {
    std::fprintf(stderr, "ecopatch: engine error (%s): %s\n",
                 eco::core::fail_reason_name(outcome.fail_reason),
                 outcome.fail_detail.c_str());
    return 5;
  }
  if (outcome.status == Status::kInfeasible) {
    std::printf("INFEASIBLE: the targets cannot rectify the implementation (method %s)\n",
                outcome.method.c_str());
    return 1;
  }
  if (outcome.status == Status::kUnknown) {
    std::printf("UNKNOWN (%s): no answer within the budgets%s%s\n",
                eco::core::fail_reason_name(outcome.fail_reason),
                outcome.fail_detail.empty() ? "" : ": ",
                outcome.fail_detail.c_str());
    return 3;
  }
  const char* verification =
      outcome.verified ? "verified"
      : outcome.verification == eco::core::EcoOutcome::Verification::kInconclusive
          ? "verification inconclusive"
          : "VERIFICATION REFUTED";
  std::printf("PATCHED (%s) in %.2fs — method %s, cost %lld, %u gates\n", verification,
              outcome.seconds, outcome.method.c_str(),
              static_cast<long long>(outcome.total_cost), outcome.patch_gates);
  for (const auto& target : outcome.targets) {
    std::printf("  %-16s <= %s\n", target.target_name.c_str(),
                target.sop.empty() ? "(structural circuit)" : target.sop.c_str());
  }
  eco::net::write_verilog_file(patch_path,
                               eco::net::aig_to_network(outcome.patch_module, "patch"));
  std::printf("patch written to %s\n", patch_path.c_str());
  if (!patched_path.empty()) {
    save_circuit(patched_path, outcome.patched_impl);
    std::printf("patched implementation written to %s\n", patched_path.c_str());
  }
  return io_error ? 6 : 0;
}

int cmd_gen(int argc, char** argv) {
  int unit_number = 0;  // 1-based, as in the unit names
  if (argc < 4 || !eco::util::parse_int(argv[2], unit_number) || unit_number < 1 ||
      unit_number > eco::benchgen::kNumUnits)
    return usage();
  const std::string outdir = argv[3];
  uint64_t seed = 20170912;
  int scale = 1;
  for (int i = 4; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      if (!eco::util::parse_u64(argv[++i], seed)) return usage();
    } else if (!std::strcmp(argv[i], "--scale") && i + 1 < argc) {
      if (!eco::util::parse_int(argv[++i], scale) || scale < 1 || scale > 1000) return usage();
    } else {
      return usage();
    }
  }
  const eco::benchgen::EcoUnit unit = eco::benchgen::make_unit(unit_number - 1, seed, scale);
  std::filesystem::create_directories(outdir);
  eco::net::write_verilog_file(outdir + "/impl.v", unit.impl);
  eco::net::write_verilog_file(outdir + "/spec.v", unit.spec);
  eco::net::write_weights_file(outdir + "/weights.txt", unit.weights);
  std::printf("%s: %zu-gate impl, %zu-gate spec, %d target(s), weights %s -> %s/\n",
              unit.name.c_str(), unit.impl.num_gates(), unit.spec.num_gates(),
              unit.num_targets, eco::benchgen::weight_type_name(unit.weight_type),
              outdir.c_str());
  return 0;
}

int cmd_stats(int argc, char** argv) {
  if (argc < 3) return usage();
  const eco::aig::Aig g = load_circuit(argv[2]);
  const auto levels = g.levels();
  uint32_t depth = 0;
  for (uint32_t o = 0; o < g.num_pos(); ++o)
    depth = std::max(depth, levels[eco::aig::lit_node(g.po_lit(o))]);
  std::printf("%s: %u PIs, %u POs, %u AND nodes, depth %u\n", argv[2], g.num_pis(),
              g.num_pos(), g.num_ands(), depth);
  return 0;
}

int cmd_cec(int argc, char** argv) {
  if (argc < 4) return usage();
  int jobs = eco::util::default_jobs();
  for (int i = 4; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
      jobs = parse_jobs(argv[++i]);
      if (jobs < 0) return usage();
    } else {
      return usage();
    }
  }
  const eco::aig::Aig a = load_circuit(argv[2]);
  const eco::aig::Aig b = load_circuit(argv[3]);
  eco::util::Executor executor(jobs);
  const auto result = eco::cec::check_equivalence(a, b, /*conflict_budget=*/-1,
                                                  /*sim_rounds=*/8, {}, &executor);
  switch (result.status) {
    case eco::cec::Status::kEquivalent:
      std::printf("EQUIVALENT\n");
      return 0;
    case eco::cec::Status::kNotEquivalent: {
      std::printf("NOT EQUIVALENT; counterexample:");
      for (uint32_t i = 0; i < a.num_pis(); ++i)
        std::printf(" %s=%d", a.pi_name(i).empty() ? ("i" + std::to_string(i)).c_str()
                                                   : a.pi_name(i).c_str(),
                    result.counterexample[i] ? 1 : 0);
      std::printf("\n");
      return 1;
    }
    case eco::cec::Status::kUnknown:
      std::printf("UNKNOWN (budget)\n");
      return 3;
  }
  return 3;
}

int cmd_convert(int argc, char** argv) {
  if (argc < 4) return usage();
  save_circuit(argv[3], load_circuit(argv[2]).cleanup());
  std::printf("%s -> %s\n", argv[2], argv[3]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip global flags (valid in any position) before dispatch.
  int verbosity = 0;
  int out_argc = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-v" || arg == "--verbose") {
      ++verbosity;
    } else if (arg == "-vv") {
      verbosity += 2;
    } else if (arg == "--fault" && i + 1 < argc) {
      std::string error;
      if (!eco::fault::arm(argv[++i], &error)) {
        std::fprintf(stderr, "ecopatch: --fault: %s\n", error.c_str());
        return 2;
      }
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;
  if (verbosity >= 2) eco::set_log_level(eco::LogLevel::kDebug);
  else if (verbosity == 1) eco::set_log_level(eco::LogLevel::kInfo);

  // Cooperative shutdown: the handler performs one atomic store; the engine
  // notices at its next cancellation poll.
  std::signal(SIGINT, [](int) { g_stop.request_stop(); });
  std::signal(SIGTERM, [](int) { g_stop.request_stop(); });

  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "solve") return cmd_solve(argc, argv);
    if (command == "gen") return cmd_gen(argc, argv);
    if (command == "stats") return cmd_stats(argc, argv);
    if (command == "cec") return cmd_cec(argc, argv);
    if (command == "convert") return cmd_convert(argc, argv);
  } catch (const eco::net::ParseError& e) {
    std::fprintf(stderr, "ecopatch: parse error: %s\n", e.what());
    return 4;
  } catch (const eco::net::InputError& e) {
    std::fprintf(stderr, "ecopatch: invalid input: %s\n", e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecopatch: %s\n", e.what());
    return 4;
  }
  return usage();
}
