#include "service/daemon.hpp"

#include <unistd.h>

#include <algorithm>
#include <exception>
#include <utility>

#include "util/jsonr.hpp"
#include "util/jsonw.hpp"
#include "util/ledger.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace eco::service {

namespace {

constexpr const char* kSchema = "ecopatch-service-v1";

/// Starts the service envelope shared by every response flavor.
JsonWriter begin_envelope(const std::string& id, bool ok) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", kSchema);
  w.kv("id", id);
  w.kv("ok", ok);
  return w;
}

}  // namespace

std::string error_response(const std::string& id, const std::string& code,
                           const std::string& message) {
  JsonWriter w = begin_envelope(id, false);
  w.key("error");
  w.begin_object();
  w.kv("code", code);
  w.kv("message", message);
  w.end_object();
  w.end_object();
  return w.take();
}

/// One admitted solve job: everything run_job needs, captured at admission
/// time so the submitting thread returns immediately.
struct Daemon::Job {
  std::string id;
  std::string impl_path, spec_path, weights_path;
  double budget_seconds = 0;
  core::Algorithm algorithm{};
  bool has_algorithm = false;
  Timer queued;  ///< started at admission; read when execution begins
  std::function<void(std::string)> respond;
  // worker_mode metadata forwarded by the supervisor (-1 = absent): the
  // parent's queue time and the dispatch retry/respawn counts, so the
  // response a client sees reports the whole journey, not the inner hop.
  double queue_offset = 0;
  int64_t meta_retries = -1;
  int64_t meta_respawns = -1;
};

Daemon::Daemon(const ServiceOptions& options)
    : options_(options),
      cache_(options.cache_budget_bytes),
      // Executor(n) keeps n-1 dedicated workers (the caller is the nth slot
      // in parallel_for, which the daemon never uses at the job level), so
      // jobs+1 yields exactly `jobs` threads pulling from the queue.
      exec_(std::max(1, options.jobs) + 1) {
  if (options_.worker.workers > 0 && !options_.worker_mode) {
    // Each worker child re-enters this same class through its own
    // single-job inner Daemon (worker_child_loop), so isolated and
    // in-process jobs run the exact same engine path — the basis of the
    // bit-identical-outcomes guarantee.
    ServiceOptions child = options_;
    pool_ = std::make_unique<WorkerPool>(
        options_.worker, [child](int fd) { worker_child_loop(fd, child); });
  }
}

Daemon::~Daemon() { drain(); }

DaemonCounters Daemon::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void Daemon::submit_line(const std::string& line,
                         std::function<void(std::string)> respond) {
  std::string err;
  const auto doc = json_parse(line, &err);
  if (!doc || !doc->is_object()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.bad_requests;
    }
    respond(error_response("", "bad_request",
                           err.empty() ? "request is not a JSON object" : err));
    return;
  }
  const JsonValue& req = *doc;
  const std::string id = req["id"].as_string();
  const std::string op =
      req.contains("op") ? req["op"].as_string() : std::string("solve");

  if (op == "ping" || op == "stats" || op == "drain") {
    respond(control_response(op, id));
    return;
  }
  if (op != "solve") {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.bad_requests;
    }
    respond(error_response(id, "bad_request", "unknown op: " + op));
    return;
  }

  auto job = std::make_shared<Job>();
  job->id = id;
  job->impl_path = req["impl"].as_string();
  job->spec_path = req["spec"].as_string();
  job->weights_path = req["weights"].as_string();
  job->respond = std::move(respond);
  if (job->impl_path.empty() || job->spec_path.empty() ||
      job->weights_path.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.bad_requests;
    }
    job->respond(error_response(
        id, "bad_request", "solve requires impl, spec, and weights paths"));
    return;
  }
  job->budget_seconds = req["budget"].as_number(options_.default_budget_seconds);
  if (options_.max_budget_seconds > 0)
    job->budget_seconds =
        std::min(job->budget_seconds, options_.max_budget_seconds);
  if (req.contains("algo")) {
    const std::string& algo = req["algo"].as_string();
    if (algo == "baseline") job->algorithm = core::Algorithm::kBaseline;
    else if (algo == "minimize") job->algorithm = core::Algorithm::kMinimize;
    else if (algo == "satprune") job->algorithm = core::Algorithm::kSatPruneCegarMin;
    else {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.bad_requests;
      }
      job->respond(error_response(id, "bad_request", "unknown algo: " + algo));
      return;
    }
    job->has_algorithm = true;
  }
  if (options_.worker_mode) {
    job->queue_offset = req["_queue"].as_number(0);
    if (req.contains("_retries"))
      job->meta_retries = static_cast<int64_t>(req["_retries"].as_number(-1));
    if (req.contains("_respawns"))
      job->meta_respawns = static_cast<int64_t>(req["_respawns"].as_number(-1));
  }

  // Admission: draining beats queue_full, and the slot is taken before the
  // submit so in_flight() always covers queued + running.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_.load(std::memory_order_acquire)) {
      ++counters_.rejected;
      job->respond(error_response(id, "draining", "daemon is draining"));
      return;
    }
    if (admitted_.load(std::memory_order_acquire) >= options_.queue_depth) {
      ++counters_.rejected;
      job->respond(error_response(
          id, "queue_full",
          "queue depth " + std::to_string(options_.queue_depth) + " reached"));
      return;
    }
    ++counters_.submitted;
    admitted_.fetch_add(1, std::memory_order_acq_rel);
  }
  job->queued.reset();
  exec_.submit([this, job] { run_job(job); });
}

void Daemon::run_job(std::shared_ptr<Job> job) {
  const double queue_seconds = job->queue_offset + job->queued.seconds();
  Timer exec_timer;
  std::string response;
  bool cancelled = false;
  bool handled = false;
  // Isolation path: hand the job to a forked worker. A degraded pool
  // (spawn circuit breaker) falls through to the in-process body below —
  // reduced isolation beats refusing service.
  if (pool_ != nullptr)
    handled = run_job_isolated(*job, queue_seconds, response, cancelled);
  if (!handled) try {
    Timer layer_timer;
    const LoadedInputs in =
        load_inputs(cache_, job->impl_path, job->spec_path, job->weights_path);
    const double load_seconds = layer_timer.seconds();
    layer_timer.reset();
    bool problem_hit = false;
    const auto problem = cache_.problem(*in.impl, *in.spec, *in.weights, &problem_hit);
    const double problem_seconds = layer_timer.seconds();

    core::EngineOptions opts = options_.engine;
    if (job->has_algorithm) opts.algorithm = job->algorithm;
    opts.time_budget = job->budget_seconds;
    // The job's token is a child slice of the daemon root: its own deadline
    // plus the daemon-wide stop (drain past grace, SIGTERM escalation).
    opts.cancel = root_.child(job->budget_seconds);
    opts.executor = options_.engine_parallel ? &exec_ : nullptr;

    std::vector<std::vector<bool>> warm;
    if (options_.warm_patterns) warm = problem->warm_patterns();
    opts.warm_patterns = warm.empty() ? nullptr : &warm;

    const core::EcoOutcome outcome = core::run_eco(problem->problem, opts);
    cancelled = outcome.fail_reason == core::FailReason::kCancelled;

    size_t absorbed = 0;
    if (options_.warm_patterns)
      absorbed = problem->absorb_patterns(outcome.harvested_patterns,
                                          options_.warm_pattern_cap);

    JsonWriter w = begin_envelope(job->id, true);
    w.key("service");
    w.begin_object();
    w.kv("queue_seconds", queue_seconds);
    w.kv("exec_seconds", exec_timer.seconds());
    w.kv("load_seconds", load_seconds);
    w.kv("problem_seconds", problem_seconds);
    w.kv("session", hash_hex(problem->key));
    w.key("cache");
    w.begin_object();
    w.kv("impl_hit", in.impl_hit);
    w.kv("spec_hit", in.spec_hit);
    w.kv("weights_hit", in.weights_hit);
    w.kv("problem_hit", problem_hit);
    w.end_object();
    w.kv("warm_patterns_in", static_cast<uint64_t>(warm.size()));
    w.kv("warm_patterns_absorbed", static_cast<uint64_t>(absorbed));
    if (options_.worker_mode) {
      w.key("worker");
      w.begin_object();
      w.kv("pid", static_cast<int64_t>(::getpid()));
      w.kv("retries", job->meta_retries < 0 ? int64_t{0} : job->meta_retries);
      w.kv("respawns", job->meta_respawns < 0 ? int64_t{0} : job->meta_respawns);
      w.end_object();
    }
    w.end_object();
    w.end_object();
    response = w.take();
    // Splice the full ecopatch-outcome-v1 object in as the last member —
    // the envelope adds service context, it never rewrites outcome fields.
    response.pop_back();  // trailing '}'
    response += ",\"outcome\":";
    response += core::outcome_to_json(outcome);
    response += '}';
  } catch (const net::ParseError& e) {
    response = error_response(job->id, "parse", e.what());
  } catch (const net::InputError& e) {
    response = error_response(job->id, "inconsistent_input", e.what());
  } catch (const std::exception& e) {
    response = error_response(job->id, "internal", e.what());
  } catch (...) {
    response = error_response(job->id, "internal", "unknown exception");
  }

  // Counters first, delivery second: once a client sees the response, the
  // daemon's own accounting (stats op, tests) already reflects the job.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.completed;
    if (cancelled) ++counters_.cancelled;
  }
  try {
    job->respond(response);
  } catch (const std::exception& e) {
    log_error("service: response delivery for job '%s' failed: %s",
              job->id.c_str(), e.what());
  }
  finish_job();
}

bool Daemon::run_job_isolated(const Job& job, double queue_seconds,
                              std::string& response, bool& cancelled) {
  // Rebuild the validated request for the worker (never echo raw client
  // bytes into a child) and carry the parent-side queue time across.
  JsonWriter req;
  req.begin_object();
  req.kv("op", "solve");
  req.kv("id", job.id);
  req.kv("impl", job.impl_path);
  req.kv("spec", job.spec_path);
  req.kv("weights", job.weights_path);
  req.kv("budget", job.budget_seconds);
  if (job.has_algorithm) {
    switch (job.algorithm) {
      case core::Algorithm::kBaseline: req.kv("algo", "baseline"); break;
      case core::Algorithm::kMinimize: req.kv("algo", "minimize"); break;
      case core::Algorithm::kSatPruneCegarMin: req.kv("algo", "satprune"); break;
    }
  }
  req.kv("_queue", queue_seconds);
  req.end_object();

  const DispatchResult r = pool_->execute(req.take(), job.budget_seconds, root_);
  if (r.degraded_fallback) return false;
  if (r.ok) {
    response = r.response;
    // The worker's inner daemon produced the complete response line; only
    // the parent's cancelled counter needs a peek at the outcome.
    const auto doc = json_parse(response);
    cancelled =
        doc && (*doc)["outcome"]["fail_reason"].as_string() == "cancelled";
    return true;
  }

  // Every attempt died. The crash cost this one job, not the daemon — that
  // is the whole point of the pool — and the client learns exactly how.
  std::string detail = "worker pid " + std::to_string(r.pid);
  if (r.watchdog_killed)
    detail += " hard-killed by the wall watchdog";
  else if (r.term_signal != 0)
    detail += " died on signal " + std::to_string(r.term_signal);
  else
    detail += " exited with status " + std::to_string(r.exit_code);
  if (r.retries_used > 0)
    detail += " (after " + std::to_string(r.retries_used) + " retries)";

  JsonWriter w = begin_envelope(job.id, false);
  w.key("error");
  w.begin_object();
  w.kv("code", "worker_crashed");
  w.kv("message", detail);
  w.kv("signal", r.term_signal);
  w.kv("exit_code", r.exit_code);
  w.kv("watchdog", r.watchdog_killed);
  w.end_object();
  w.key("service");
  w.begin_object();
  w.kv("queue_seconds", queue_seconds);
  w.key("worker");
  w.begin_object();
  w.kv("pid", static_cast<int64_t>(r.pid));
  w.kv("retries", r.retries_used);
  w.kv("respawns", r.respawns);
  w.end_object();
  w.end_object();
  w.end_object();
  response = w.take();
  return true;
}

void Daemon::finish_job() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  admitted_.fetch_sub(1, std::memory_order_acq_rel);
  idle_cv_.notify_all();
}

std::string Daemon::control_response(const std::string& op, const std::string& id) {
  if (op == "drain") {
    // Stops admission only; the front end owns the blocking drain() call
    // (it must keep pumping responses while jobs wind down).
    draining_.store(true, std::memory_order_release);
    JsonWriter w = begin_envelope(id, true);
    w.kv("op", "drain");
    w.kv("in_flight", static_cast<uint64_t>(in_flight()));
    w.end_object();
    return w.take();
  }
  JsonWriter w = begin_envelope(id, true);
  w.kv("op", op);
  if (op == "stats") {
    const DaemonCounters c = counters();
    const CacheStats cs = cache_.stats();
    w.key("counters");
    w.begin_object();
    w.kv("submitted", c.submitted);
    w.kv("completed", c.completed);
    w.kv("rejected", c.rejected);
    w.kv("bad_requests", c.bad_requests);
    w.kv("cancelled", c.cancelled);
    w.end_object();
    w.kv("in_flight", static_cast<uint64_t>(in_flight()));
    w.kv("draining", draining());
    w.key("cache");
    w.begin_object();
    w.kv("netlist_hits", cs.netlist_hits);
    w.kv("netlist_misses", cs.netlist_misses);
    w.kv("weights_hits", cs.weights_hits);
    w.kv("weights_misses", cs.weights_misses);
    w.kv("problem_hits", cs.problem_hits);
    w.kv("problem_misses", cs.problem_misses);
    w.kv("evictions", cs.evictions);
    w.kv("memory_used", cache_.memory_used());
    w.kv("entries", static_cast<uint64_t>(cache_.entries()));
    w.end_object();
    if (pool_ != nullptr) {
      const WorkerStats ws = pool_->stats();
      w.key("worker");
      w.begin_object();
      w.kv("workers", options_.worker.workers);
      w.kv("live", static_cast<uint64_t>(ws.live));
      w.kv("degraded", ws.degraded);
      w.kv("spawned", ws.spawned);
      w.kv("spawn_failures", ws.spawn_failures);
      w.kv("dispatched", ws.dispatched);
      w.kv("crashed", ws.crashed);
      w.kv("watchdog_kills", ws.watchdog_kills);
      w.kv("retries", ws.retries);
      w.kv("recycled", ws.recycled);
      w.kv("degraded_jobs", ws.degraded_jobs);
      w.end_object();
    }
  }
  w.end_object();
  return w.take();
}

std::string Daemon::submit_and_wait(const std::string& line) {
  std::mutex m;
  std::condition_variable cv;
  std::string out;
  bool done = false;
  submit_line(line, [&](std::string response) {
    std::lock_guard<std::mutex> lock(m);
    out = std::move(response);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return done; });
  return out;
}

void Daemon::drain() {
  draining_.store(true, std::memory_order_release);
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto all_done = [this] {
      return admitted_.load(std::memory_order_acquire) == 0;
    };
    if (!idle_cv_.wait_for(
            lock, std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::duration<double>(
                          std::max(0.0, options_.drain_grace_seconds))),
            all_done)) {
      // Grace expired: cancel cooperatively and keep waiting. Every job
      // still delivers its (now cancelled) outcome before the slot frees.
      root_.request_stop();
      idle_cv_.wait(lock, all_done);
    }
  }
  // All outcomes delivered. Reap the worker processes BEFORE the ledger
  // flush: nothing service-owned outlives drain, and a wedged child must
  // not be able to sit between the last response and a durable ledger.
  if (pool_ != nullptr) pool_->shutdown();
  ledger::flush();
}

}  // namespace eco::service
