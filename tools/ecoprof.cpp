/// \file ecoprof.cpp
/// \brief Hotspot and regression analyzer over the observability artifacts.
///
/// Two subcommands:
///
///   ecoprof report <ledger.jsonl> [--top K]
///     Reads an `ecopatch-ledger-v1` query ledger and prints a hotspot
///     table by purpose, a phase breakdown, log-bucketed latency
///     histograms, and the top-K slowest queries with their instance
///     fingerprints. Exit 0 on success, 2 on unreadable/invalid input.
///
///   ecoprof diff <old.json> <new.json> [--warn-only] [--threshold M=F]
///     Noise-aware comparison of two bench files (`ecopatch-bench-table1-v1`,
///     `ecopatch-bench-cec-v1`, or `ecopatch-bench-service-v1`).
///     Runs are matched by (unit, weights, algorithm); exact metrics
///     (ok/verified/method/cost/gates) regress on any change for the worse,
///     timing and counter metrics regress past per-metric relative
///     thresholds with absolute floors that discard measurement noise.
///     Exit 0 when clean (or --warn-only), 1 on regression, 2 on a
///     schema/usage error, including a metric the baseline run has and the
///     new run lacks.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/jsonr.hpp"
#include "util/ledger.hpp"
#include "util/numparse.hpp"
#include "util/telemetry.hpp"

namespace {

using eco::JsonValue;

int usage() {
  std::fprintf(stderr,
               "usage: ecoprof report <ledger.jsonl> [--top K]\n"
               "       ecoprof diff <old.json> <new.json> [--warn-only]\n"
               "                    [--threshold METRIC=FRACTION]...\n"
               "\n"
               "report: hotspot table, latency histograms, and slowest queries\n"
               "        from an ecopatch-ledger-v1 JSONL file.\n"
               "diff:   noise-aware regression check between two\n"
               "        ecopatch-bench-table1-v1, ecopatch-bench-cec-v1, or\n"
               "        ecopatch-bench-service-v1 files (old = baseline;\n"
               "        both sides one schema).\n"
               "        Exits 1 on regression, 2 on schema/usage errors.\n"
               "        Tunable metrics: seconds cpu_seconds conflicts\n"
               "        decisions propagations p50_ms p95_ms p99_ms\n"
               "        throughput_jps (regresses downward)\n");
  return 2;
}

// ---- report -------------------------------------------------------------

struct LedgerRow {
  std::string kind, purpose, result, phase, cancel;
  double wall = 0, cpu = 0;
  uint64_t conflicts = 0, decisions = 0, propagations = 0;
  uint64_t vars = 0, clauses = 0, seq = 0;
  bool sim_hit = false;
  // portfolio_attempt rows only (sat/parsolve.hpp workers).
  bool par_winner = false;
};

struct Agg {
  uint64_t count = 0;
  uint64_t sim_hits = 0;
  double wall = 0, cpu = 0;
  uint64_t conflicts = 0;
  double max_wall = 0;
};

/// Power-of-10 latency bucket index for \p seconds: 0 = <1us, then one per
/// decade up to >=10s.
constexpr int kNumBuckets = 9;
const char* const kBucketLabels[kNumBuckets] = {
    "   <1us", "1-10us", "10-100us", "0.1-1ms", "1-10ms",
    "10-100ms", "0.1-1s", "1-10s", "  >=10s"};

int bucket_of(double seconds) {
  if (seconds < 1e-6) return 0;
  const int b = static_cast<int>(std::floor(std::log10(seconds))) + 7;  // 1e-6 -> 1
  return std::min(std::max(b, 1), kNumBuckets - 1);
}

int cmd_report(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string path = argv[0];
  size_t top_k = 10;
  for (int i = 1; i < argc; i += 2) {
    // argv[argc] is null, so a trailing "--top" fails parse_u64.
    uint64_t k = 0;
    if (std::strcmp(argv[i], "--top") != 0 || !eco::util::parse_u64(argv[i + 1], k)) {
      std::fprintf(stderr, "ecoprof: bad report option '%s' (want --top K)\n", argv[i]);
      return usage();
    }
    top_k = static_cast<size_t>(k);
  }

  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "ecoprof: cannot open %s\n", path.c_str());
    return 2;
  }
  std::string content;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);

  std::vector<LedgerRow> rows;
  std::string git_commit = "unknown";
  bool git_dirty = false;
  bool saw_header = false;
  size_t pos = 0, lineno = 0;
  while (pos < content.size()) {
    size_t end = content.find('\n', pos);
    if (end == std::string::npos) end = content.size();
    const std::string_view line(content.data() + pos, end - pos);
    pos = end + 1;
    ++lineno;
    if (line.empty()) continue;
    std::string err;
    const std::optional<JsonValue> v = eco::json_parse(line, &err);
    if (!v) {
      std::fprintf(stderr, "ecoprof: %s:%zu: %s\n", path.c_str(), lineno, err.c_str());
      return 2;
    }
    if (!saw_header) {
      saw_header = true;
      const std::string& schema = (*v)["schema"].as_string();
      if (schema != "ecopatch-ledger-v1") {
        std::fprintf(stderr, "ecoprof: %s: expected schema ecopatch-ledger-v1, got '%s'\n",
                     path.c_str(), schema.c_str());
        return 2;
      }
      if (v->contains("git_commit")) git_commit = (*v)["git_commit"].as_string();
      git_dirty = (*v)["git_dirty"].as_bool();
      continue;
    }
    LedgerRow r;
    r.kind = (*v)["kind"].as_string();
    r.purpose = (*v)["purpose"].as_string();
    r.result = (*v)["result"].as_string();
    r.phase = (*v)["phase"].as_string();
    r.cancel = (*v)["cancel"].as_string();
    r.wall = (*v)["wall_seconds"].as_number();
    r.cpu = (*v)["cpu_seconds"].as_number();
    r.conflicts = static_cast<uint64_t>((*v)["conflicts"].as_number());
    r.decisions = static_cast<uint64_t>((*v)["decisions"].as_number());
    r.propagations = static_cast<uint64_t>((*v)["propagations"].as_number());
    r.vars = static_cast<uint64_t>((*v)["vars"].as_number());
    r.clauses = static_cast<uint64_t>((*v)["clauses"].as_number());
    r.seq = static_cast<uint64_t>((*v)["seq"].as_number());
    r.sim_hit = (*v)["sim_hit"].as_bool();
    if (v->contains("par_winner")) r.par_winner = (*v)["par_winner"].as_bool();
    rows.push_back(std::move(r));
  }
  if (!saw_header) {
    std::fprintf(stderr, "ecoprof: %s: empty ledger (no header line)\n", path.c_str());
    return 2;
  }

  // Attribution totals come from solve records only: iteration/check records
  // aggregate the same underlying solves and would double-count.
  double solve_wall = 0, tagged_wall = 0;
  uint64_t solves = 0;
  std::map<std::string, Agg> by_purpose;
  std::map<std::string, Agg> by_phase;
  std::vector<const LedgerRow*> solve_rows;
  uint64_t buckets[kNumBuckets] = {};
  // Parallel-SAT worker rows aggregate separately: a portfolio_attempt row
  // is speculative CPU burned alongside the solve record its escalation
  // belongs to, so folding it into the solve attribution would double-count
  // the query's wall time.
  struct ParAgg {
    uint64_t count = 0, winners = 0, conflicts = 0;
    double wall = 0, cpu = 0;
  } par;
  for (const LedgerRow& r : rows) {
    if (r.kind == "sim_hit") {
      Agg& a = by_purpose[r.purpose];
      ++a.count;
      ++a.sim_hits;
      continue;
    }
    if (r.kind == "portfolio_attempt") {
      ++par.count;
      par.winners += r.par_winner ? 1 : 0;
      par.conflicts += r.conflicts;
      par.wall += r.wall;
      par.cpu += r.cpu;
      continue;
    }
    if (r.kind != "solve") continue;
    ++solves;
    solve_wall += r.wall;
    if (r.purpose != "unknown") tagged_wall += r.wall;
    Agg& a = by_purpose[r.purpose];
    ++a.count;
    a.wall += r.wall;
    a.cpu += r.cpu;
    a.conflicts += r.conflicts;
    a.max_wall = std::max(a.max_wall, r.wall);
    Agg& p = by_phase[r.phase.empty() ? "(none)" : r.phase];
    ++p.count;
    p.wall += r.wall;
    p.conflicts += r.conflicts;
    ++buckets[bucket_of(r.wall)];
    solve_rows.push_back(&r);
  }

  std::printf("ledger: %s\n", path.c_str());
  std::printf("built from commit %s%s\n", git_commit.c_str(), git_dirty ? " (dirty)" : "");
  std::printf("%zu records, %" PRIu64 " solves, %.3fs total solver wall time\n\n",
              rows.size(), solves, solve_wall);

  // Hotspot table by purpose, heaviest first.
  std::vector<std::pair<std::string, Agg>> purposes(by_purpose.begin(), by_purpose.end());
  std::sort(purposes.begin(), purposes.end(),
            [](const auto& a, const auto& b) { return a.second.wall > b.second.wall; });
  std::printf("%-14s %8s %8s %10s %10s %12s %10s %7s\n", "purpose", "queries", "sim_hits",
              "wall_s", "cpu_s", "conflicts", "max_s", "wall%");
  for (const auto& [name, a] : purposes) {
    std::printf("%-14s %8" PRIu64 " %8" PRIu64 " %10.3f %10.3f %12" PRIu64 " %10.3f %6.1f%%\n",
                name.c_str(), a.count, a.sim_hits, a.wall, a.cpu, a.conflicts, a.max_wall,
                solve_wall > 0 ? 100.0 * a.wall / solve_wall : 0.0);
  }
  std::printf("\ntagged attribution: %.1f%% of solver wall time\n",
              solve_wall > 0 ? 100.0 * tagged_wall / solve_wall : 100.0);

  // Parallel-SAT workers (speculative CPU, excluded from the tables above).
  if (par.count > 0) {
    std::printf("\nparallel SAT workers (not counted in solve attribution):\n");
    std::printf("%-18s %8s %8s %10s %10s %12s\n", "kind", "workers", "winners", "wall_s",
                "cpu_s", "conflicts");
    std::printf("%-18s %8" PRIu64 " %8" PRIu64 " %10.3f %10.3f %12" PRIu64 "\n",
                "portfolio_attempt", par.count, par.winners, par.wall, par.cpu, par.conflicts);
  }

  // Phase breakdown (top 12 by wall time).
  std::vector<std::pair<std::string, Agg>> phases(by_phase.begin(), by_phase.end());
  std::sort(phases.begin(), phases.end(),
            [](const auto& a, const auto& b) { return a.second.wall > b.second.wall; });
  std::printf("\n%-40s %8s %10s %12s\n", "phase path", "solves", "wall_s", "conflicts");
  for (size_t i = 0; i < phases.size() && i < 12; ++i)
    std::printf("%-40s %8" PRIu64 " %10.3f %12" PRIu64 "\n", phases[i].first.c_str(),
                phases[i].second.count, phases[i].second.wall, phases[i].second.conflicts);

  // Log-bucketed latency histogram.
  std::printf("\nsolve latency histogram:\n");
  uint64_t max_count = 1;
  for (const uint64_t c : buckets) max_count = std::max(max_count, c);
  for (int b = 0; b < kNumBuckets; ++b) {
    const int bar = static_cast<int>(50.0 * static_cast<double>(buckets[b]) /
                                     static_cast<double>(max_count));
    std::printf("  %-9s %8" PRIu64 " %.*s\n", kBucketLabels[b], buckets[b], bar,
                "##################################################");
  }

  // Top-K slowest queries with instance fingerprints.
  std::sort(solve_rows.begin(), solve_rows.end(),
            [](const LedgerRow* a, const LedgerRow* b) { return a->wall > b->wall; });
  std::printf("\ntop %zu slowest queries:\n", std::min(top_k, solve_rows.size()));
  std::printf("  %8s %-14s %10s %8s %8s %10s %-6s %s\n", "seq", "purpose", "wall_s", "vars",
              "clauses", "conflicts", "result", "phase");
  for (size_t i = 0; i < solve_rows.size() && i < top_k; ++i) {
    const LedgerRow& r = *solve_rows[i];
    std::printf("  %8" PRIu64 " %-14s %10.4f %8" PRIu64 " %8" PRIu64 " %10" PRIu64
                " %-6s %s%s\n",
                r.seq, r.purpose.c_str(), r.wall, r.vars, r.clauses, r.conflicts,
                r.result.c_str(), r.phase.c_str(),
                r.cancel != "none" ? (" [" + r.cancel + "]").c_str() : "");
  }
  return 0;
}

// ---- diff ---------------------------------------------------------------

/// Relative threshold + noise floors for one noisy metric. A new value
/// regresses when it exceeds baseline * (1 + rel) AND the baseline is above
/// `min_base` (tiny baselines are pure noise) AND the absolute growth is
/// above `min_delta`.
struct NoisePolicy {
  double rel;
  double min_base;
  double min_delta;
  /// Throughput-style metric: shrinking is the regression direction.
  bool lower_is_worse = false;
};

std::map<std::string, NoisePolicy> default_policies() {
  return {
      {"seconds", {0.15, 0.5, 0.1}},
      {"cpu_seconds", {0.15, 0.5, 0.1}},
      {"conflicts", {0.10, 1000, 200}},
      {"decisions", {0.10, 5000, 1000}},
      {"propagations", {0.10, 50000, 10000}},
      // ecopatch-bench-service-v1 latency/throughput rows (bench_service).
      // Wider thresholds than the solver counters: scheduling jitter under
      // concurrent load is real, and the tails especially so. Absent on
      // table1/cec rows, so they simply never match there.
      {"p50_ms", {0.25, 1.0, 1.0}},
      {"p95_ms", {0.30, 1.0, 2.0}},
      {"p99_ms", {0.35, 1.0, 5.0}},
      {"throughput_jps", {0.20, 0.5, 0.1, /*lower_is_worse=*/true}},
  };
}

/// True for the metrics that live under a run's `sat` object.
bool in_sat_block(const std::string& metric) {
#define ECO_X(name) if (metric == #name) return true;
  ECO_SOLVER_TOTALS(ECO_X)
#undef ECO_X
  return false;
}

struct DiffStats {
  int regressions = 0;
  int improvements = 0;
  int compared = 0;
};

void report_regression(DiffStats& st, const std::string& run, const char* metric,
                       const std::string& from, const std::string& to) {
  ++st.regressions;
  std::printf("REGRESSION %-28s %-12s %s -> %s\n", run.c_str(), metric, from.c_str(),
              to.c_str());
}

std::string fmt_num(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15)
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  else
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

int cmd_diff(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string old_path = argv[0];
  const std::string new_path = argv[1];
  bool warn_only = false;
  std::map<std::string, NoisePolicy> policies = default_policies();
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--warn-only") == 0) {
      warn_only = true;
    } else if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      const std::string spec = argv[++i];
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "ecoprof: bad --threshold '%s' (want METRIC=FRACTION)\n",
                     spec.c_str());
        return 2;
      }
      const std::string metric = spec.substr(0, eq);
      const auto it = policies.find(metric);
      if (it == policies.end()) {
        std::fprintf(stderr, "ecoprof: unknown metric '%s' in --threshold\n", metric.c_str());
        return 2;
      }
      double frac = 0;
      if (!eco::util::parse_double(spec.c_str() + eq + 1, frac) || frac < 0) {
        std::fprintf(stderr, "ecoprof: bad fraction in --threshold '%s'\n", spec.c_str());
        return 2;
      }
      it->second.rel = frac;
    } else {
      std::fprintf(stderr, "ecoprof: unknown diff option '%s'\n", argv[i]);
      return usage();
    }
  }

  const auto load = [](const std::string& p) -> std::optional<JsonValue> {
    std::string err;
    const std::optional<JsonValue> v = eco::json_parse_file(p, &err);
    if (!v) {
      std::fprintf(stderr, "ecoprof: %s: %s\n", p.c_str(), err.c_str());
      return std::nullopt;
    }
    const std::string& schema = (*v)["schema"].as_string();
    if (schema != "ecopatch-bench-table1-v1" && schema != "ecopatch-bench-cec-v1" &&
        schema != "ecopatch-bench-service-v1") {
      std::fprintf(stderr,
                   "ecoprof: %s: expected schema ecopatch-bench-table1-v1, "
                   "ecopatch-bench-cec-v1, or ecopatch-bench-service-v1, got '%s'\n",
                   p.c_str(), schema.c_str());
      return std::nullopt;
    }
    return v;
  };
  const std::optional<JsonValue> old_doc = load(old_path);
  const std::optional<JsonValue> new_doc = load(new_path);
  if (!old_doc || !new_doc) return 2;
  // Both documents must speak the same schema; the record key and metric
  // fields line up within a schema, not across them.
  if ((*old_doc)["schema"].as_string() != (*new_doc)["schema"].as_string()) {
    std::fprintf(stderr, "ecoprof: %s (%s) and %s (%s) use different schemas\n", old_path.c_str(),
                 (*old_doc)["schema"].as_string().c_str(), new_path.c_str(),
                 (*new_doc)["schema"].as_string().c_str());
    return 2;
  }

  const auto label = [](const JsonValue& doc) {
    std::string s = doc.contains("git_commit") ? doc["git_commit"].as_string() : "unknown";
    if (s.size() > 12) s.resize(12);
    if (doc["git_dirty"].as_bool()) s += "+dirty";
    return s;
  };
  std::printf("diff: %s (%s) -> %s (%s)\n", old_path.c_str(), label(*old_doc).c_str(),
              new_path.c_str(), label(*new_doc).c_str());

  // Index runs by (unit, weights, algorithm); only the intersection is
  // compared, so subset regeneration diffs cleanly against the full table.
  const auto key_of = [](const JsonValue& run) {
    return run["unit"].as_string() + "/" + run["weights"].as_string() + "/" +
           run["algorithm"].as_string();
  };
  std::map<std::string, const JsonValue*> old_runs;
  for (const JsonValue& run : (*old_doc)["runs"].as_array()) old_runs[key_of(run)] = &run;

  DiffStats st;
  size_t matched = 0, unmatched = 0;
  for (const JsonValue& nr : (*new_doc)["runs"].as_array()) {
    const std::string key = key_of(nr);
    const auto it = old_runs.find(key);
    if (it == old_runs.end()) {
      ++unmatched;
      continue;
    }
    ++matched;
    const JsonValue& orun = *it->second;

    // Exact metrics: verdict-level drift is a correctness change, not noise.
    const bool ok_old = orun["ok"].as_bool(), ok_new = nr["ok"].as_bool();
    if (ok_old && !ok_new) report_regression(st, key, "ok", "true", "false");
    if (!ok_old && ok_new) ++st.improvements;
    const bool v_old = orun["verified"].as_bool(), v_new = nr["verified"].as_bool();
    if (v_old && !v_new) report_regression(st, key, "verified", "true", "false");
    if (!v_old && v_new) ++st.improvements;
    if (orun["method"].as_string() != nr["method"].as_string())
      std::printf("note       %-28s method       %s -> %s\n", key.c_str(),
                  orun["method"].as_string().c_str(), nr["method"].as_string().c_str());
    // Cost and gates: only meaningful between two successful runs.
    if (ok_old && ok_new) {
      const double c_old = orun["cost"].as_number(), c_new = nr["cost"].as_number();
      if (c_new > c_old)
        report_regression(st, key, "cost", fmt_num(c_old), fmt_num(c_new));
      else if (c_new < c_old)
        ++st.improvements;
      const double g_old = orun["gates"].as_number(), g_new = nr["gates"].as_number();
      if (g_new > g_old) report_regression(st, key, "gates", fmt_num(g_old), fmt_num(g_new));
    }

    // Noisy metrics, relative thresholds with floors. A metric the baseline
    // run has must not vanish: a dropped block would otherwise compare clean.
    for (const auto& [metric, pol] : policies) {
      const bool nested = in_sat_block(metric);
      const JsonValue& ov = nested ? orun["sat"][metric] : orun[metric];
      const JsonValue& nv = nested ? nr["sat"][metric] : nr[metric];
      if (!ov.is_number()) continue;
      if (!nv.is_number()) {
        std::fprintf(stderr, "ecoprof: %s: run %s has no numeric %s%s (the baseline has)\n",
                     new_path.c_str(), key.c_str(), nested ? "sat." : "", metric.c_str());
        return 2;
      }
      ++st.compared;
      const double o = ov.as_number(), nw = nv.as_number();
      if (o < pol.min_base) continue;  // too small to measure reliably
      if (pol.lower_is_worse) {
        if (nw < o * (1.0 - pol.rel) && o - nw > pol.min_delta)
          report_regression(st, key, metric.c_str(), fmt_num(o), fmt_num(nw));
      } else if (nw > o * (1.0 + pol.rel) && nw - o > pol.min_delta) {
        report_regression(st, key, metric.c_str(), fmt_num(o), fmt_num(nw));
      }
    }
  }

  std::printf("%zu run(s) compared, %zu new-only skipped, %d metric value(s) checked\n",
              matched, unmatched, st.compared);
  if (matched == 0) {
    std::fprintf(stderr, "ecoprof: no runs matched between the two files\n");
    return 2;
  }
  if (st.regressions > 0) {
    std::printf("%d regression(s), %d improvement(s)%s\n", st.regressions, st.improvements,
                warn_only ? " [warn-only]" : "");
    return warn_only ? 0 : 1;
  }
  std::printf("no regressions, %d improvement(s)\n", st.improvements);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "report") == 0) return cmd_report(argc - 2, argv + 2);
  if (std::strcmp(argv[1], "diff") == 0) return cmd_diff(argc - 2, argv + 2);
  std::fprintf(stderr, "ecoprof: unknown subcommand '%s'\n", argv[1]);
  return usage();
}
