#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include <unistd.h>

#include "aig/sim.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

bool guarded_percentile(const std::vector<double>& samples, double p, double bound,
                        const std::string& name, const std::string& unit,
                        std::vector<Metric>& out, std::vector<std::string>& errors) {
  std::vector<double> v = samples;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  // Nearest rank: the smallest sample with at least p*n samples at or below.
  const size_t rank = std::max<size_t>(1, static_cast<size_t>(std::ceil(p * static_cast<double>(n))));
  const size_t beyond = n - std::min(rank, n);
  char buf[160];
  if (n == 0 || beyond < 10) {
    std::snprintf(buf, sizeof buf, "%s refused: %zu samples, %zu beyond it (need 10)",
                  name.c_str(), n, beyond);
    errors.push_back(buf);
    return false;
  }
  const size_t i = rank - 1;
  const double below = v[i > 0 ? i - 1 : 0];
  const double above = v[i + 1];
  if (below > 0 && (above - below) / below > bound) {
    std::snprintf(buf, sizeof buf,
                  "%s sits on a cliff: neighbours %.4g and %.4g differ by more than %.0f%%",
                  name.c_str(), below, above, bound * 100);
    errors.push_back(buf);
    return false;
  }
  std::snprintf(buf, sizeof buf, "%zu jobs, %zu beyond", n, beyond);
  out.push_back({name, v[i], unit, buf});
  return true;
}

SatCounts sat_counts(const eco::core::EngineStats& s) {
  return {s.sat_solves, s.sat_conflicts, s.sat_propagations, s.sat_decisions};
}

namespace {

/// Empty when \p o finished on its own; otherwise why its time measures
/// the clock rather than the work.
std::string clock_bound_violation(const eco::core::EcoOutcome& o) {
  if (o.fail_reason != eco::core::FailReason::kNone)
    return std::string("fail_reason ") + eco::core::fail_reason_name(o.fail_reason);
  if (o.stats.ladder.size() > 1)
    return std::to_string(o.stats.ladder.size()) + " ladder attempts";
  if (o.stats.structural_seconds != 0) return "structural fallback ran";
  return "";
}

}  // namespace

bool simulation_agrees(const eco::core::EcoProblem& p, const eco::aig::Aig& patched_impl,
                       uint64_t seed) {
  namespace aig = eco::aig;
  constexpr size_t kWords = 64;  // 4096 patterns
  const uint32_t shared = p.num_shared_pis();
  if (patched_impl.num_pis() < shared || patched_impl.num_pos() != p.spec.num_pos())
    return false;
  const std::vector<uint64_t> spec_words = aig::random_pi_words(p.spec, seed, kWords);
  std::vector<uint64_t> impl_words(static_cast<size_t>(patched_impl.num_pis()) * kWords, 0);
  std::copy(spec_words.begin(), spec_words.end(), impl_words.begin());
  const aig::SimWords spec_sim = aig::simulate_words(p.spec, spec_words, kWords);
  const aig::SimWords impl_sim = aig::simulate_words(patched_impl, impl_words, kWords);
  for (uint32_t o = 0; o < p.spec.num_pos(); ++o) {
    const aig::Lit a = p.spec.po_lit(o), b = patched_impl.po_lit(o);
    const auto ra = spec_sim.row(aig::lit_node(a)), rb = impl_sim.row(aig::lit_node(b));
    const uint64_t flip = (aig::lit_compl(a) != aig::lit_compl(b)) ? ~uint64_t{0} : 0;
    for (size_t w = 0; w < kWords; ++w)
      if ((ra[w] ^ rb[w] ^ flip) != 0) return false;
  }
  return true;
}

std::string outcome_mismatch(const eco::core::EcoOutcome& o, const Reference& ref) {
  if (o.status != eco::core::EcoOutcome::Status::kPatched || !o.verified)
    return "not patched and verified";
  if (o.method != ref.method || o.total_cost != ref.cost || o.patch_gates != ref.gates)
    return "patch differs from the reference";
  if (const std::string why = clock_bound_violation(o); !why.empty()) return "clock-bound: " + why;
  return "";
}

std::string solve_reference(const eco::core::EcoProblem& problem,
                            const eco::core::EngineOptions& options, uint64_t sim_seed,
                            Reference& ref) {
  const eco::core::EcoOutcome o = eco::core::run_eco(problem, options);
  ref = {o.method, o.total_cost, o.patch_gates, sat_counts(o.stats)};
  if (const std::string why = outcome_mismatch(o, ref); !why.empty())
    return "reference solve " + why;
  if (!simulation_agrees(problem, o.patched_impl, sim_seed))
    return "reference patch disagrees with the spec under random simulation";
  return "";
}

double process_cpu_seconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

int SpanRecorder::open(const char* name) {
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  spans_.push_back({name, now, now, open_.empty() ? -1 : open_.back(), job_});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::close(int index) {
  spans_[index].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  open_.pop_back();
}

bool write_chrome_trace(const std::string& path, const std::vector<const SpanRecorder*>& recs) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecorder* rec : recs) {
    const std::vector<Span>& spans = rec->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"job\":%d,\"span\":%zu,\"parent\":%d}}",
                    first ? "" : ",", s.name, rec->thread(), s.start_us,
                    s.end_us - s.start_us, s.job, i, s.parent);
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void add_engine_stats(const eco::core::EcoOutcome& o, JobLayers& j) {
  const eco::core::EngineStats& s = o.stats;
  j.window_ms = s.window_seconds * 1e3;
  j.qbf_ms = s.qbf_seconds * 1e3;
  j.sat_path_ms = s.sat_path_seconds * 1e3;
  j.assemble_ms = s.assemble_seconds * 1e3;
  j.verify_ms = s.verify_seconds * 1e3;
  j.qbf_iterations = s.qbf_iterations;
  j.support_sat_calls = s.support_sat_calls;
  j.satprune_iterations = s.satprune_iterations;
  j.ladder_retries = static_cast<int>(s.ladder.size()) - 1;
  j.sat = sat_counts(s);
  j.sim_answered = s.sim_refuted_support + s.sim_filtered_resub + s.sim_irredundant_hits;
}

std::vector<Metric> per_layer_metrics(const std::vector<JobLayers>& jobs,
                                      const ServiceLayers& service,
                                      double untraced_ms_per_job) {
  const auto avg = [&jobs](auto field) {
    double sum = 0;
    for (const JobLayers& j : jobs) sum += static_cast<double>(field(j));
    return jobs.empty() ? 0.0 : sum / static_cast<double>(jobs.size());
  };
  double parsed_bytes = 0, parse_ms = 0, props = 0, run_ms = 0, answered = 0, solves = 0;
  for (const JobLayers& j : jobs) {
    if (j.parsed_bytes > 0) {
      parsed_bytes += static_cast<double>(j.parsed_bytes);
      parse_ms += j.load_ms;
    }
    props += static_cast<double>(j.sat.propagations);
    run_ms += j.run_ms;
    answered += static_cast<double>(j.sim_answered);
    solves += static_cast<double>(j.sat.solves);
  }
  const std::string n = std::to_string(jobs.size()) + " traced jobs";
  const double traced_ms = avg([](const JobLayers& j) { return j.job_ms; });
  return {
      {"service.overhead_ms", service.overhead_ms, "ms", "untraced run"},
      {"service.queue_ms", service.queue_ms, "ms", "untraced run"},
      {"service.problem_hit_share", service.problem_hit_share, "share.exact", "untraced run"},
      {"service.evictions_per_job", service.evictions_per_job, "evict/job", "untraced run"},
      {"service.cache_mb", service.cache_mb, "MB", "untraced run"},
      {"service.load_ms", avg([](const JobLayers& j) { return j.load_ms; }), "ms", n},
      {"service.problem_ms", avg([](const JobLayers& j) { return j.problem_ms; }), "ms", n},
      {"net.parse_mb_per_s", parse_ms > 0 ? parsed_bytes / (1 << 20) / (parse_ms / 1e3) : 0,
       "MB/s", n},
      {"eco.run_ms", avg([](const JobLayers& j) { return j.run_ms; }), "ms", n},
      {"eco.window_ms", avg([](const JobLayers& j) { return j.window_ms; }), "ms", n},
      {"qbf.feasibility_ms", avg([](const JobLayers& j) { return j.qbf_ms; }), "ms", n},
      {"qbf.iterations", avg([](const JobLayers& j) { return j.qbf_iterations; }),
       "count.exact", n},
      {"eco.sat_path_ms", avg([](const JobLayers& j) { return j.sat_path_ms; }), "ms", n},
      {"eco.support_sat_calls", avg([](const JobLayers& j) { return j.support_sat_calls; }),
       "count.exact", n},
      {"eco.satprune_iterations",
       avg([](const JobLayers& j) { return j.satprune_iterations; }), "count.exact", n},
      {"eco.assemble_ms", avg([](const JobLayers& j) { return j.assemble_ms; }), "ms", n},
      {"cec.verify_ms", avg([](const JobLayers& j) { return j.verify_ms; }), "ms", n},
      {"eco.serialize_ms", avg([](const JobLayers& j) { return j.serialize_ms; }), "ms", n},
      {"eco.ladder_retries", avg([](const JobLayers& j) { return j.ladder_retries; }),
       "count.exact", n},
      {"sat.solves", avg([](const JobLayers& j) { return j.sat.solves; }), "count.exact", n},
      {"sat.conflicts", avg([](const JobLayers& j) { return j.sat.conflicts; }), "count.exact",
       n},
      {"sat.propagations", avg([](const JobLayers& j) { return j.sat.propagations; }),
       "count.exact", n},
      {"sat.decisions", avg([](const JobLayers& j) { return j.sat.decisions; }), "count.exact",
       n},
      {"sat.mprops_per_s", run_ms > 0 ? props / 1e6 / (run_ms / 1e3) : 0, "Mprop/s", n},
      {"aig.sim_answered_share", answered + solves > 0 ? answered / (answered + solves) : 0,
       "share.exact", n},
      {"trace.overhead_share",
       untraced_ms_per_job > 0 ? traced_ms / untraced_ms_per_job - 1 : 0, "share", n},
  };
}

void report_shares(const std::string& workload, const std::vector<JobLayers>& jobs,
                   Result& res) {
  double job = 0, front = 0, window = 0, sat_path = 0, qbf = 0, run = 0;
  for (const JobLayers& j : jobs) {
    job += j.job_ms;
    front += j.load_ms + j.problem_ms;
    window += j.window_ms;
    sat_path += j.sat_path_ms;
    qbf += j.qbf_ms;
    run += j.run_ms;
  }
  if (job <= 0) return;
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "layer shares of traced job time: front end %.1f%%, engine %.1f%% "
                "(window %.1f%%, qbf %.1f%%, SAT path %.1f%%)",
                100 * front / job, 100 * run / job, 100 * window / job, 100 * qbf / job,
                100 * sat_path / job);
  res.notes.push_back(buf);
  // The predictions of README.md, each with the band it is checked against.
  struct Prediction {
    const char* text;
    double share, lo, hi;
  };
  std::vector<Prediction> predictions;
  if (workload == "warm_sessions") {
    predictions.push_back({"front end is a few percent of warm_sessions", front / job, 0, 0.10});
    predictions.push_back({"window is a large share of warm_sessions", window / job, 0.15, 1});
  } else if (workload == "fresh_sessions") {
    predictions.push_back({"front end is about half of fresh_sessions", front / job, 0.3, 0.7});
  } else {
    predictions.push_back({"SAT path is the bulk of table1_sweep", sat_path / job, 0.5, 1});
  }
  for (const Prediction& p : predictions) {
    std::snprintf(buf, sizeof buf, "prediction %s: %s (measured %.1f%%)",
                  p.share >= p.lo && p.share <= p.hi ? "holds" : "DOES NOT HOLD", p.text,
                  100 * p.share);
    res.notes.push_back(buf);
  }
}

}  // namespace perfbench
