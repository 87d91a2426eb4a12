// bench_service: cold-process vs warm-daemon replay through the patch
// service (src/service/, docs/SERVICE.md).
//
// Workload: K sessions (distinct benchmark-suite units materialized as
// impl.v/spec.v/weights.txt) receive M solve jobs each, submitted
// round-robin — the repeated-session job mix an ECO daemon actually sees
// (iterating on the same netlist pair while other sessions interleave).
// Both modes drive the *identical* Daemon::submit_line path:
//
//   cold: session cache disabled (budget 0) and no warm patterns — every
//         job parses both netlists, re-elaborates the problem, and starts
//         verification from scratch, exactly like one CLI process per job.
//         (Conservative baseline: real cold starts also pay process exec
//         and library init, which this harness does not charge.)
//   warm: the daemon as deployed — content-hash session cache plus
//         harvested-pattern reuse.
//
// Every job must produce the identical patch either way: the harness
// compares ok/verified/method/cost/gates per job across modes and fails
// (exit 1) on any divergence, so the speedup is proven not to change
// results. With --json FILE a two-row `ecopatch-bench-service-v1` document
// is written (runs keyed unit/weights/algorithm like the other bench
// schemas; weights carries the mode): throughput, p50/p95/p99 latency, and
// cache hit rates per mode. BENCH_service.json at the repo root is the
// committed baseline; `ecoprof diff` understands the schema (throughput
// regresses downward, latency upward).
//
// Usage: bench_service [--sessions K] [--per-session M] [--scale N]
//                      [--jobs N] [--isolate N] [--seed N] [--budget S]
//                      [--json FILE] [--dir PATH] [--keep]
//
// --isolate N runs both modes with the process-isolated worker pool
// (service/worker.hpp): the identity check then proves isolation does not
// change outcomes either, and comparing two --json files (with and without
// the flag) proves it across processes.

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "net/verilog.hpp"
#include "net/weights.hpp"
#include "service/daemon.hpp"
#include "util/buildinfo.hpp"
#include "util/jsonr.hpp"
#include "util/jsonw.hpp"
#include "util/numparse.hpp"
#include "util/timer.hpp"

namespace {

using eco::util::parse_double;
using eco::util::parse_int;
using eco::util::parse_u64;

struct JobResult {
  bool responded = false;
  bool ok = false;        // service envelope "ok" (an outcome was produced)
  bool verified = false;
  std::string status;
  std::string method;
  double cost = 0;
  double gates = 0;
  double latency_ms = 0;  // submit-to-response, the client-visible latency
  bool problem_hit = false;
};

struct ModeResult {
  std::vector<JobResult> jobs;
  double wall_seconds = 0;
  double throughput_jps = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  eco::service::CacheStats cache;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(v.size() - 1, static_cast<size_t>(p * (v.size() - 1) + 0.5));
  return v[idx];
}

/// Runs the whole job mix through one daemon instance. \p warm selects the
/// deployed configuration; cold zeroes the cache and pattern reuse. The
/// submission loop is serial (client-side), the daemon spreads execution
/// over its workers; latency includes queue wait by design.
ModeResult run_mode(bool warm, int daemon_jobs, int isolate, double budget_seconds,
                    const std::vector<std::array<std::string, 3>>& session_files,
                    int per_session) {
  eco::service::ServiceOptions opts;
  opts.jobs = daemon_jobs;
  opts.queue_depth = session_files.size() * static_cast<size_t>(per_session) + 8;
  opts.default_budget_seconds = budget_seconds;
  opts.cache_budget_bytes = warm ? (256ull << 20) : 0;
  opts.warm_patterns = warm;
  opts.worker.workers = isolate;
  eco::service::Daemon daemon(opts);

  const size_t total = session_files.size() * static_cast<size_t>(per_session);
  ModeResult mode;
  mode.jobs.resize(total);
  std::mutex mu;
  std::vector<eco::Timer> submitted(total);

  const eco::Timer wall;
  for (int m = 0; m < per_session; ++m) {
    for (size_t s = 0; s < session_files.size(); ++s) {
      const size_t index = static_cast<size_t>(m) * session_files.size() + s;
      eco::JsonWriter req;
      req.begin_object();
      req.kv("op", "solve");
      req.kv("id", std::to_string(index));
      req.kv("impl", session_files[s][0]);
      req.kv("spec", session_files[s][1]);
      req.kv("weights", session_files[s][2]);
      req.kv("budget", budget_seconds);
      req.end_object();
      submitted[index].reset();
      daemon.submit_line(req.str(), [&, index](std::string line) {
        const double ms = submitted[index].seconds() * 1e3;
        const auto doc = eco::json_parse(line);
        std::lock_guard<std::mutex> lock(mu);
        JobResult& r = mode.jobs[index];
        r.responded = true;
        r.latency_ms = ms;
        if (!doc) return;
        r.ok = (*doc)["ok"].as_bool();
        const eco::JsonValue& outcome = (*doc)["outcome"];
        r.status = outcome["status"].as_string();
        r.verified = outcome["verification"].as_string() == "verified";
        r.method = outcome["method"].as_string();
        r.cost = outcome["total_cost"].as_number();
        r.gates = outcome["patch_gates"].as_number();
        r.problem_hit = (*doc)["service"]["cache"]["problem_hit"].as_bool();
      });
    }
  }
  daemon.drain();  // blocks until every admitted job has responded
  mode.wall_seconds = wall.seconds();
  mode.cache = daemon.cache().stats();
  mode.throughput_jps = mode.wall_seconds > 0 ? total / mode.wall_seconds : 0;
  std::vector<double> lat;
  lat.reserve(total);
  for (const JobResult& r : mode.jobs) lat.push_back(r.latency_ms);
  mode.p50_ms = percentile(lat, 0.50);
  mode.p95_ms = percentile(lat, 0.95);
  mode.p99_ms = percentile(lat, 0.99);
  return mode;
}

void append_row(eco::JsonWriter& w, const std::string& mix, const char* mode_name,
                const ModeResult& m) {
  bool all_ok = !m.jobs.empty(), all_verified = !m.jobs.empty();
  double cost = 0, gates = 0;
  std::string method = m.jobs.empty() ? "" : m.jobs.front().method;
  for (const JobResult& r : m.jobs) {
    all_ok = all_ok && r.responded && r.ok && r.status == "patched";
    all_verified = all_verified && r.verified;
    cost += r.cost;
    gates += r.gates;
    if (r.method != method) method = "mixed";
  }
  const uint64_t hits = m.cache.netlist_hits + m.cache.weights_hits + m.cache.problem_hits;
  const uint64_t misses =
      m.cache.netlist_misses + m.cache.weights_misses + m.cache.problem_misses;
  w.begin_object();
  w.kv("unit", mix);
  w.kv("weights", mode_name);  // the ecoprof diff key slot for the mode
  w.kv("algorithm", "minimize");
  w.kv("ok", all_ok);
  w.kv("verified", all_verified);
  w.kv("method", method);
  w.kv("cost", cost);    // summed across the mix: exact, mode-invariant
  w.kv("gates", gates);
  w.kv("jobs_completed", static_cast<uint64_t>(m.jobs.size()));
  w.kv("seconds", m.wall_seconds);
  w.kv("throughput_jps", m.throughput_jps);
  w.kv("p50_ms", m.p50_ms);
  w.kv("p95_ms", m.p95_ms);
  w.kv("p99_ms", m.p99_ms);
  w.kv("cache_hit_rate",
       hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0);
  w.kv("problem_hits", m.cache.problem_hits);
  w.kv("problem_misses", m.cache.problem_misses);
  w.kv("evictions", m.cache.evictions);
  w.end_object();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--sessions K] [--per-session M] [--scale N] [--jobs N]\n"
               "          [--isolate N] [--seed N] [--budget S] [--json FILE]\n"
               "          [--dir PATH] [--keep]\n"
               "  --sessions K     distinct (impl, spec, weights) sessions (default 3)\n"
               "  --per-session M  jobs per session, round-robin (default 20)\n"
               "  --scale N        benchmark-suite unit scale (default 16)\n"
               "  --jobs N         daemon worker threads (default 2)\n"
               "  --isolate N      process-isolated worker pool of N (default 0 = off)\n"
               "  --seed N         suite generator seed (default 20170912)\n"
               "  --budget S       per-job wall budget (default 30)\n"
               "  --json FILE      write ecopatch-bench-service-v1 records\n"
               "  --dir PATH       input-file directory (default: a temp dir)\n"
               "  --keep           keep the input files\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int sessions = 3, per_session = 20, scale = 16, jobs = 2, isolate = 0;
  uint64_t seed = 20170912;
  double budget = 30;
  std::string json_path, dir;
  bool keep = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* operand = i + 1 < argc ? argv[i + 1] : nullptr;
    int parsed = 0;
    if (!std::strcmp(arg, "--sessions") && parse_int(operand, parsed) && parsed > 0) {
      sessions = parsed;
      ++i;
    } else if (!std::strcmp(arg, "--per-session") && parse_int(operand, parsed) &&
               parsed > 0) {
      per_session = parsed;
      ++i;
    } else if (!std::strcmp(arg, "--scale") && parse_int(operand, parsed) && parsed > 0) {
      scale = parsed;
      ++i;
    } else if (!std::strcmp(arg, "--jobs") && parse_int(operand, parsed) && parsed > 0) {
      jobs = parsed;
      ++i;
    } else if (!std::strcmp(arg, "--isolate") && parse_int(operand, parsed) &&
               parsed >= 0) {
      isolate = parsed;
      ++i;
    } else if (!std::strcmp(arg, "--seed") && parse_u64(operand, seed)) {
      ++i;
    } else if (!std::strcmp(arg, "--budget") && parse_double(operand, budget) &&
               budget >= 0) {
      ++i;
    } else if (!std::strcmp(arg, "--json") && operand != nullptr) {
      json_path = operand;
      ++i;
    } else if (!std::strcmp(arg, "--dir") && operand != nullptr) {
      dir = operand;
      ++i;
    } else if (!std::strcmp(arg, "--keep")) {
      keep = true;
    } else {
      std::fprintf(stderr, "%s: bad argument '%s'\n", argv[0], arg);
      return usage(argv[0]);
    }
  }

  namespace fs = std::filesystem;
  if (dir.empty())
    dir = (fs::temp_directory_path() / "ecopatch_bench_service").string();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "bench_service: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  // Materialize the session inputs once; both modes read the same bytes.
  // Fixed unit table: suite units whose patches resolve on the SAT path
  // well inside any sane budget, so the bench measures service overhead —
  // parse, elaborate, verify startup — not one unit's structural-fallback
  // tail burning its whole budget and flattening both modes equally.
  static constexpr int kSessionUnits[] = {1, 14, 3, 15, 2, 0};
  constexpr int kNumSessionUnits = static_cast<int>(std::size(kSessionUnits));
  std::vector<std::array<std::string, 3>> session_files;
  for (int s = 0; s < sessions; ++s) {
    const int unit_index = kSessionUnits[s % kNumSessionUnits];
    const eco::benchgen::EcoUnit unit =
        eco::benchgen::make_unit(unit_index, seed, scale);
    const std::string base = dir + "/" + unit.name;
    std::array<std::string, 3> files = {base + "_impl.v", base + "_spec.v",
                                        base + "_weights.txt"};
    eco::net::write_verilog_file(files[0], unit.impl);
    eco::net::write_verilog_file(files[1], unit.spec);
    eco::net::write_weights_file(files[2], unit.weights);
    session_files.push_back(std::move(files));
  }

  const int total = sessions * per_session;
  std::printf("patch service: cold process-per-job vs warm daemon (docs/SERVICE.md)\n");
  std::printf("(%d session(s) x %d job(s), scale %d, seed %" PRIu64
              ", %d worker(s), isolate %d)\n\n",
              sessions, per_session, scale, seed, jobs, isolate);

  const ModeResult cold =
      run_mode(false, jobs, isolate, budget, session_files, per_session);
  const ModeResult warm =
      run_mode(true, jobs, isolate, budget, session_files, per_session);

  // Identity: the warm path must change performance only. Any verdict or
  // patch-quality drift between modes is a correctness failure.
  int mismatches = 0;
  for (int i = 0; i < total; ++i) {
    const JobResult& c = cold.jobs[static_cast<size_t>(i)];
    const JobResult& w = warm.jobs[static_cast<size_t>(i)];
    if (!c.responded || !w.responded || c.ok != w.ok || c.status != w.status ||
        c.verified != w.verified || c.method != w.method || c.cost != w.cost ||
        c.gates != w.gates) {
      ++mismatches;
      std::printf("MISMATCH job %d: cold %s/%s/%s cost %.0f gates %.0f | "
                  "warm %s/%s/%s cost %.0f gates %.0f\n",
                  i, c.status.c_str(), c.verified ? "verified" : "unverified",
                  c.method.c_str(), c.cost, c.gates, w.status.c_str(),
                  w.verified ? "verified" : "unverified", w.method.c_str(), w.cost,
                  w.gates);
    }
  }

  const auto print_mode = [total](const char* name, const ModeResult& m) {
    std::printf("%-5s %4d jobs in %7.3fs | %8.1f jobs/s | p50 %7.2fms p95 %7.2fms "
                "p99 %7.2fms | problem hits %" PRIu64 "/%" PRIu64 "\n",
                name, total, m.wall_seconds, m.throughput_jps, m.p50_ms, m.p95_ms,
                m.p99_ms, m.cache.problem_hits,
                m.cache.problem_hits + m.cache.problem_misses);
  };
  print_mode("cold", cold);
  print_mode("warm", warm);
  const double ratio =
      cold.throughput_jps > 0 ? warm.throughput_jps / cold.throughput_jps : 0;
  std::printf("\nwarm/cold throughput: %.2fx\n", ratio);
  if (mismatches > 0)
    std::printf("%d job(s) DIVERGED between modes.\n", mismatches);

  if (!json_path.empty()) {
    const std::string mix = "mix_s" + std::to_string(sessions) + "x" +
                            std::to_string(per_session) + "@" + std::to_string(scale);
    eco::JsonWriter w;
    w.begin_object();
    w.kv("schema", "ecopatch-bench-service-v1");
    w.kv("git_commit", eco::build::git_commit());
    w.kv("git_dirty", eco::build::git_dirty());
    w.kv("seed", seed);
    w.kv("sessions", sessions);
    w.kv("per_session", per_session);
    w.kv("scale", scale);
    w.kv("daemon_jobs", jobs);
    w.kv("isolate", isolate);
    w.kv("warm_over_cold_throughput", ratio);
    w.key("runs");
    w.begin_array();
    append_row(w, mix, "cold", cold);
    append_row(w, mix, "warm", warm);
    w.end_array();
    w.end_object();
    std::ofstream out(json_path);
    out << w.str() << '\n';
    if (!out) {
      std::fprintf(stderr, "bench_service: cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::printf("JSON records written to %s\n", json_path.c_str());
  }

  if (!keep) fs::remove_all(dir, ec);
  return mismatches == 0 ? 0 : 1;
}
