// Tests for the patch service layer (src/service/): the content-addressed
// session cache with LRU eviction under its memory account, and the daemon's
// admission control, concurrent execution, error taxonomy, warm-pattern
// flow, and graceful drain. Suite names carry the Service prefix so the TSan
// CI job picks the concurrency tests up.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "benchgen/suite.hpp"
#include "net/verilog.hpp"
#include "net/weights.hpp"
#include "service/artifacts.hpp"
#include "service/daemon.hpp"
#include "util/jsonr.hpp"
#include "util/ledger.hpp"
#include "util/rng.hpp"

namespace eco::service {
namespace {

namespace fs = std::filesystem;

/// Materializes one suite unit under a fresh subdirectory of the gtest temp
/// dir; returns {impl, spec, weights} paths.
std::array<std::string, 3> write_unit(const std::string& tag, int index, int scale = 1) {
  const fs::path dir = fs::path(testing::TempDir()) / ("svc_" + tag);
  fs::create_directories(dir);
  const benchgen::EcoUnit unit = benchgen::make_unit(index, 20170912, scale);
  std::array<std::string, 3> files = {(dir / "impl.v").string(),
                                      (dir / "spec.v").string(),
                                      (dir / "weights.txt").string()};
  net::write_verilog_file(files[0], unit.impl);
  net::write_verilog_file(files[1], unit.spec);
  net::write_weights_file(files[2], unit.weights);
  return files;
}

std::string solve_request(const std::string& id, const std::array<std::string, 3>& f,
                          double budget = 20) {
  return "{\"op\":\"solve\",\"id\":\"" + id + "\",\"impl\":\"" + f[0] +
         "\",\"spec\":\"" + f[1] + "\",\"weights\":\"" + f[2] +
         "\",\"budget\":" + std::to_string(budget) + "}";
}

JsonValue parse_response(const std::string& line) {
  std::string err;
  const auto doc = json_parse(line, &err);
  EXPECT_TRUE(doc.has_value()) << err << " in: " << line;
  return doc ? *doc : JsonValue();
}

// ---- SessionCache -------------------------------------------------------

TEST(ServiceCache, HitThenEvictThenReparse) {
  const auto a = write_unit("evict_a", 1);
  const auto b = write_unit("evict_b", 2);
  // Measure what one netlist artifact charges, then budget the cache under
  // test to hold one comfortably but not two: loading `b` must evict `a`.
  uint64_t one_netlist = 0;
  {
    SessionCache probe(1ull << 30);
    probe.netlist(a[0]);
    one_netlist = probe.memory_used();
  }
  ASSERT_GT(one_netlist, 0u);
  SessionCache small(one_netlist + one_netlist / 2);
  bool hit = true;
  const auto first = small.netlist(a[0], &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(first, nullptr);
  small.netlist(a[0], &hit);
  EXPECT_TRUE(hit) << "second load of identical bytes must hit";
  // Crowd the cache until `a` (now the LRU entry) is evicted...
  small.netlist(b[0], &hit);
  EXPECT_FALSE(hit);
  EXPECT_GT(small.stats().evictions, 0u);
  EXPECT_LE(small.memory_used(), small.memory_budget());
  // ... so the next load re-parses instead of serving stale state. The
  // shared_ptr from before eviction stays valid throughout.
  small.netlist(a[0], &hit);
  EXPECT_FALSE(hit) << "evicted entry must be re-parsed";
  EXPECT_FALSE(first->network.gates.empty());
}

// Threads load netlists through a cache that holds about one, so inserts
// evict while other threads look up, and one thread also clears. Evicted
// and cleared artifacts are freed after the cache lock is released; the
// counters and the memory account must still add up.
TEST(ServiceCache, ConcurrentLoadsEvictAndClear) {
  std::vector<std::array<std::string, 3>> units;
  for (int i = 0; i < 3; ++i) units.push_back(write_unit("conc_" + std::to_string(i), i + 1));
  uint64_t one_netlist = 0;
  {
    SessionCache probe(1ull << 30);
    probe.netlist(units[0][0]);
    one_netlist = probe.memory_used();
  }
  SessionCache cache(one_netlist + one_netlist / 2);
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const auto& files = units[static_cast<size_t>(t + r) % units.size()];
        EXPECT_FALSE(cache.netlist(files[0])->network.gates.empty());
        if (t == 0 && r % 5 == 4) cache.clear();
      }
    });
  for (std::thread& th : threads) th.join();
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.netlist_hits + s.netlist_misses, static_cast<uint64_t>(kThreads * kRounds));
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(cache.memory_used(), cache.memory_budget());
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.memory_used(), 0u);
}

TEST(ServiceCache, ContentKeyedAcrossPaths) {
  const auto a = write_unit("content", 1);
  // A byte-identical copy under a different name must hit: keys are content
  // hashes, not paths.
  const std::string copy = a[0] + ".copy.v";
  fs::copy_file(a[0], copy, fs::copy_options::overwrite_existing);
  SessionCache cache(64ull << 20);
  bool hit = true;
  cache.netlist(a[0], &hit);
  EXPECT_FALSE(hit);
  cache.netlist(copy, &hit);
  EXPECT_TRUE(hit);
  // And an edit-in-place must miss: the bytes changed, so the key changed.
  std::ofstream(a[0], std::ios::app) << "\n// trailing comment\n";
  cache.netlist(a[0], &hit);
  EXPECT_FALSE(hit);
}

TEST(ServiceCache, BudgetZeroDisablesCaching) {
  const auto a = write_unit("disabled", 1);
  SessionCache off(0);
  bool hit = true;
  off.netlist(a[0], &hit);
  EXPECT_FALSE(hit);
  off.netlist(a[0], &hit);
  EXPECT_FALSE(hit) << "budget 0 must never cache";
  EXPECT_EQ(off.entries(), 0u);
  EXPECT_EQ(off.memory_used(), 0u);
}

TEST(ServiceCache, ProblemArtifactAndSessionKey) {
  const auto a = write_unit("problem", 1);
  SessionCache cache(64ull << 20);
  const LoadedInputs in = load_inputs(cache, a[0], a[1], a[2]);
  bool hit = true;
  const auto p1 = cache.problem(*in.impl, *in.spec, *in.weights, &hit);
  EXPECT_FALSE(hit);
  const auto p2 = cache.problem(*in.impl, *in.spec, *in.weights, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(p1->key, p2->key);
  // The warm-pattern store deduplicates and honors its cap.
  const std::vector<std::vector<bool>> fresh = {{true, false}, {false, true}, {true, false}};
  EXPECT_EQ(p1->absorb_patterns(fresh, 16), 2u);
  EXPECT_EQ(p1->absorb_patterns(fresh, 16), 0u);
  EXPECT_EQ(p1->num_patterns(), 2u);
  EXPECT_EQ(p1->absorb_patterns({{false, false}}, 2), 1u);
  EXPECT_EQ(p1->num_patterns(), 2u) << "cap evicts oldest";
}

/// The warm-pattern store as a linear scan: each fresh pattern is looked up
/// with std::find over every stored one.
size_t absorb_by_scan(std::vector<std::vector<bool>>& stored,
                      const std::vector<std::vector<bool>>& fresh, size_t cap) {
  if (fresh.empty() || cap == 0) return 0;
  size_t adopted = 0;
  for (const auto& p : fresh) {
    if (p.empty()) continue;
    if (std::find(stored.begin(), stored.end(), p) != stored.end()) continue;
    stored.push_back(p);
    ++adopted;
  }
  if (stored.size() > cap)
    stored.erase(stored.begin(), stored.begin() + static_cast<ptrdiff_t>(stored.size() - cap));
  return adopted;
}

TEST(ServiceCache, AbsorbPatternsMatchesLinearScan) {
  // Harvests drawn from a small pool repeat each other and themselves, as a
  // session's harvests do; a cap of 20 on every seventh call, below the
  // size of many harvests, exercises first-in-first-out eviction.
  ProblemArtifact artifact;
  std::vector<std::vector<bool>> reference;
  SplitMix64 rng(7);
  std::vector<std::vector<bool>> pool(300);
  for (auto& p : pool) {
    p.resize(70);
    for (size_t i = 0; i < p.size(); ++i) p[i] = (rng.next() & 1) != 0;
  }
  pool[0].clear();  // empty patterns are skipped
  std::vector<size_t> adopted;
  for (int call = 0; call < 200; ++call) {
    std::vector<std::vector<bool>> fresh(rng.next() % 80);
    for (auto& p : fresh) p = pool[rng.next() % (50 + call)];
    const size_t cap = call % 7 == 6 ? 20 : 256;
    const size_t expect = absorb_by_scan(reference, fresh, cap);
    ASSERT_EQ(artifact.absorb_patterns(fresh, cap), expect) << "call " << call;
    ASSERT_EQ(artifact.warm_patterns(), reference) << "call " << call;
    adopted.push_back(expect);
  }
  EXPECT_EQ(artifact.num_patterns(), reference.size());
  // The counts themselves, pinned so a change in both copies shows.
  const std::vector<size_t> first = {41, 5, 1, 3, 1, 1, 1, 15, 13, 7, 4, 0};
  EXPECT_EQ(std::vector<size_t>(adopted.begin(), adopted.begin() + 12), first);
}

TEST(ServiceHash, KnownAnswers) {
  // Published xxHash64 values (seed 0), then one pinned longer input.
  EXPECT_EQ(content_hash(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(content_hash("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(content_hash("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(content_hash("Nobody inspects the spammish repetition"), 0xfbcea83c8a378bf1ULL);
  std::string alphabet;
  for (int i = 0; i < 100; ++i) alphabet += static_cast<char>('a' + i % 26);
  EXPECT_EQ(content_hash(alphabet), 0x79c9fa152bb53c71ULL);
}

TEST(ServiceHash, EveryBitFlipChangesTheHash) {
  std::string bytes(4096, '\0');
  SplitMix64 rng(3);
  for (char& c : bytes) c = static_cast<char>(rng.next());
  const uint64_t base = content_hash(bytes);
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    ASSERT_NE(content_hash(bytes), base) << "bit " << bit;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
  }
}

TEST(ServiceHash, EveryPrefixLengthHashesDifferently) {
  // A run of equal bytes: only the length tells the prefixes apart.
  const std::string bytes(100, 'x');
  std::set<uint64_t> seen;
  for (size_t n = 0; n <= bytes.size(); ++n)
    EXPECT_TRUE(seen.insert(content_hash(std::string_view(bytes).substr(0, n))).second)
        << "length " << n;
}

TEST(ServiceHash, IndependentOfAlignment) {
  std::string payload(77, '\0');
  SplitMix64 rng(5);
  for (char& c : payload) c = static_cast<char>(rng.next());
  const uint64_t expect = content_hash(payload);
  std::string buffer(payload.size() + 16, '#');
  for (size_t offset = 0; offset < 16; ++offset) {
    std::copy(payload.begin(), payload.end(), buffer.begin() + static_cast<ptrdiff_t>(offset));
    EXPECT_EQ(content_hash(std::string_view(buffer).substr(offset, payload.size())), expect)
        << "offset " << offset;
  }
}

TEST(ServiceCache, OneScratchBufferReadsEachFileWhole) {
  // load_inputs reads three files of different sizes through one string: a
  // short file read after a long one must not keep the long one's tail.
  const auto a = write_unit("scratch", 1);
  std::string scratch;
  SessionCache cache(0);
  std::array<uint64_t, 3> hashes{};
  for (size_t i = 0; i < 3; ++i) {
    std::ifstream in(a[i], std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    hashes[i] = content_hash(bytes);
  }
  EXPECT_EQ(cache.netlist(a[0], nullptr, &scratch)->hash, hashes[0]);
  EXPECT_EQ(cache.weights(a[2], nullptr, &scratch)->hash, hashes[2]);
  EXPECT_EQ(cache.netlist(a[1], nullptr, &scratch)->hash, hashes[1]);
  const LoadedInputs in = load_inputs(cache, a[0], a[1], a[2]);
  EXPECT_EQ(in.impl->hash, hashes[0]);
  EXPECT_EQ(in.spec->hash, hashes[1]);
  EXPECT_EQ(in.weights->hash, hashes[2]);
}

TEST(ServiceCache, MissingFileThrowsParseError) {
  SessionCache cache(0);
  EXPECT_THROW(cache.netlist("/nonexistent/impl.v"), net::ParseError);
}

// ---- Daemon -------------------------------------------------------------

TEST(ServiceDaemon, SolveThenCacheHitSameSession) {
  const auto f = write_unit("daemon_basic", 1);
  ServiceOptions opts;
  opts.jobs = 1;
  Daemon daemon(opts);
  const JsonValue r1 = parse_response(daemon.submit_and_wait(solve_request("j1", f)));
  EXPECT_TRUE(r1["ok"].as_bool());
  EXPECT_EQ(r1["outcome"]["status"].as_string(), "patched");
  EXPECT_EQ(r1["outcome"]["verification"].as_string(), "verified");
  EXPECT_FALSE(r1["service"]["cache"]["problem_hit"].as_bool());
  const JsonValue r2 = parse_response(daemon.submit_and_wait(solve_request("j2", f)));
  EXPECT_TRUE(r2["service"]["cache"]["impl_hit"].as_bool());
  EXPECT_TRUE(r2["service"]["cache"]["spec_hit"].as_bool());
  EXPECT_TRUE(r2["service"]["cache"]["weights_hit"].as_bool());
  EXPECT_TRUE(r2["service"]["cache"]["problem_hit"].as_bool());
  EXPECT_EQ(r1["service"]["session"].as_string(), r2["service"]["session"].as_string());
  // Identical outcome either way: the cache changes performance only.
  EXPECT_EQ(r1["outcome"]["total_cost"].as_number(),
            r2["outcome"]["total_cost"].as_number());
  EXPECT_EQ(r1["id"].as_string(), "j1");
  EXPECT_EQ(r2["id"].as_string(), "j2");
  // Front-end layer timings: read+hash+parse, then the problem lookup or
  // build, both inside the job's exec time.
  for (const JsonValue* r : {&r1, &r2}) {
    const JsonValue& svc = (*r)["service"];
    ASSERT_TRUE(svc["load_seconds"].is_number());
    ASSERT_TRUE(svc["problem_seconds"].is_number());
    EXPECT_GE(svc["load_seconds"].as_number(), 0.0);
    EXPECT_GE(svc["problem_seconds"].as_number(), 0.0);
    EXPECT_LE(svc["load_seconds"].as_number() + svc["problem_seconds"].as_number(),
              svc["exec_seconds"].as_number());
  }
}

TEST(ServiceDaemon, BadRequestsAreRejectedInline) {
  ServiceOptions opts;
  opts.jobs = 1;
  Daemon daemon(opts);
  const auto code = [&](const std::string& line) {
    return parse_response(daemon.submit_and_wait(line))["error"]["code"].as_string();
  };
  EXPECT_EQ(code("this is not json"), "bad_request");
  EXPECT_EQ(code("[1,2,3]"), "bad_request");
  EXPECT_EQ(code("{\"op\":\"explode\",\"id\":\"x\"}"), "bad_request");
  EXPECT_EQ(code("{\"op\":\"solve\",\"id\":\"x\"}"), "bad_request");  // no paths
  EXPECT_EQ(code("{\"op\":\"solve\",\"id\":\"x\",\"impl\":\"a\",\"spec\":\"b\","
                 "\"weights\":\"c\",\"algo\":\"quantum\"}"),
            "bad_request");
  EXPECT_EQ(daemon.counters().bad_requests, 5u);
  EXPECT_EQ(daemon.counters().submitted, 0u);
}

TEST(ServiceDaemon, MissingInputFileYieldsParseErrorResponse) {
  ServiceOptions opts;
  opts.jobs = 1;
  Daemon daemon(opts);
  const std::array<std::string, 3> bogus = {"/nonexistent/impl.v", "/nonexistent/spec.v",
                                            "/nonexistent/weights.txt"};
  // An implementation whose assign nests 100,000 parentheses: a parse
  // error, not a stack overflow in the job's thread.
  const std::array<std::string, 3> deep = write_unit("deep_nesting", 1);
  {
    std::ofstream out(deep[0]);
    out << "module deep (a, y); input a; output y; assign y = " << std::string(100000, '(')
        << 'a' << std::string(100000, ')') << "; endmodule\n";
  }
  const std::pair<std::array<std::string, 3>, std::string> cases[] = {
      {bogus, "cannot open file"}, {deep, "expression nested too deeply"}};
  for (const auto& [files, why] : cases) {
    const JsonValue r = parse_response(daemon.submit_and_wait(solve_request("bad", files)));
    EXPECT_FALSE(r["ok"].as_bool());
    EXPECT_EQ(r["error"]["code"].as_string(), "parse");
    EXPECT_NE(r["error"]["message"].as_string().find(why), std::string::npos)
        << r["error"]["message"].as_string();
    // The fault stayed inside the job: the daemon keeps serving.
    const JsonValue ping =
        parse_response(daemon.submit_and_wait("{\"op\":\"ping\",\"id\":\"p\"}"));
    EXPECT_TRUE(ping["ok"].as_bool());
  }
}

TEST(ServiceDaemon, QueueFullRejectionWhenSaturated) {
  // Scale 8 makes each job's parse+solve far slower than a submit_line
  // call, so with one worker and queue depth 1 the later submissions always
  // find the slot taken.
  const auto f = write_unit("queue_full", 1, /*scale=*/8);
  ServiceOptions opts;
  opts.jobs = 1;
  opts.queue_depth = 1;
  Daemon daemon(opts);
  std::mutex mu;
  std::vector<std::string> async_responses;
  daemon.submit_line(solve_request("slow", f), [&](std::string line) {
    std::lock_guard<std::mutex> lock(mu);
    async_responses.push_back(std::move(line));
  });
  const JsonValue rejected = parse_response(daemon.submit_and_wait(solve_request("r1", f)));
  EXPECT_EQ(rejected["error"]["code"].as_string(), "queue_full");
  EXPECT_GE(daemon.counters().rejected, 1u);
  daemon.drain();
  ASSERT_EQ(async_responses.size(), 1u);
  EXPECT_EQ(parse_response(async_responses[0])["outcome"]["status"].as_string(), "patched");
}

TEST(ServiceDaemon, ConcurrentJobsWithMixedDeadlines) {
  const auto fast = write_unit("mixed_fast", 1);
  const auto big = write_unit("mixed_big", 1, /*scale=*/4);
  ServiceOptions opts;
  opts.jobs = 4;
  Daemon daemon(opts);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> responses;
  const int kJobs = 12;
  for (int i = 0; i < kJobs; ++i) {
    // Every third job gets a microscopic budget. Its deadline is expired on
    // arrival, so it must either fail with a budget taxonomy or degrade to
    // the grace-windowed structural fallback (docs/ROBUSTNESS.md) — while
    // neighbors with sane budgets run the same problems to completion.
    const bool doomed = i % 3 == 2;
    daemon.submit_line(solve_request("m" + std::to_string(i), doomed ? big : fast,
                                     doomed ? 1e-6 : 20),
                       [&](std::string line) {
                         std::lock_guard<std::mutex> lock(mu);
                         responses.push_back(std::move(line));
                         cv.notify_all();
                       });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return responses.size() == kJobs; });
  }
  int sane_patched = 0, doomed_degraded = 0, doomed_failed = 0;
  std::vector<double> sane_costs;
  for (const std::string& line : responses) {
    const JsonValue r = parse_response(line);
    ASSERT_TRUE(r["ok"].as_bool()) << line;
    const std::string& id = r["id"].as_string();
    ASSERT_GE(id.size(), 2u);
    const bool doomed = (std::stoi(id.substr(1)) % 3) == 2;
    const std::string& status = r["outcome"]["status"].as_string();
    if (!doomed) {
      EXPECT_EQ(status, "patched") << line;
      EXPECT_EQ(r["outcome"]["verification"].as_string(), "verified");
      sane_costs.push_back(r["outcome"]["total_cost"].as_number());
      ++sane_patched;
    } else if (status == "patched") {
      // Starved but rescued: only the structural fallback runs on an
      // already-expired deadline (its grace window is deliberate).
      EXPECT_EQ(r["outcome"]["method"].as_string(), "structural") << line;
      ++doomed_degraded;
    } else {
      const std::string& reason = r["outcome"]["fail_reason"].as_string();
      EXPECT_TRUE(reason == "budget" || reason == "cancelled") << line;
      ++doomed_failed;
    }
  }
  EXPECT_EQ(sane_patched, 8) << "every sane-budget job must complete";
  EXPECT_EQ(doomed_degraded + doomed_failed, 4);
  // Same problem, same budget, concurrent execution: identical cost.
  for (const double c : sane_costs) EXPECT_EQ(c, sane_costs.front());
  EXPECT_EQ(daemon.counters().completed, static_cast<uint64_t>(kJobs));
}

TEST(ServiceDaemon, DrainDeliversEveryAdmittedOutcomeAndFlushesLedger) {
  const auto f = write_unit("drain", 1, /*scale=*/4);
  const fs::path ledger_path = fs::path(testing::TempDir()) / "svc_drain_ledger.jsonl";
  fs::remove(ledger_path);
  ASSERT_TRUE(ledger::set_sink(ledger_path.string()));
  std::atomic<int> delivered{0};
  {
    ServiceOptions opts;
    opts.jobs = 2;
    opts.drain_grace_seconds = 30;
    Daemon daemon(opts);
    for (int i = 0; i < 6; ++i)
      daemon.submit_line(solve_request("d" + std::to_string(i), f),
                         [&](std::string) { delivered.fetch_add(1); });
    daemon.drain();  // under load: jobs are still queued/running here
    EXPECT_EQ(delivered.load(), 6) << "no admitted outcome may be lost";
    EXPECT_EQ(daemon.in_flight(), 0u);
    // Post-drain admission is rejected, but control ops still answer.
    const JsonValue late = parse_response(daemon.submit_and_wait(solve_request("late", f)));
    EXPECT_EQ(late["error"]["code"].as_string(), "draining");
    EXPECT_TRUE(daemon.draining());
  }
  ASSERT_TRUE(ledger::close_sink());
  // drain() flushed before returning, so the sink already holds the story
  // of every job (close_sink above only finalizes).
  std::ifstream in(ledger_path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_GT(lines, 6u) << "ledger must hold header + per-query records";
}

TEST(ServiceDaemon, WarmPatternsReachLaterJobs) {
  const auto f = write_unit("warm", 2);
  ServiceOptions opts;
  opts.jobs = 1;
  Daemon daemon(opts);
  const JsonValue r1 = parse_response(daemon.submit_and_wait(solve_request("w1", f)));
  const JsonValue r2 = parse_response(daemon.submit_and_wait(solve_request("w2", f)));
  ASSERT_TRUE(r1["ok"].as_bool());
  ASSERT_TRUE(r2["ok"].as_bool());
  EXPECT_EQ(r1["service"]["warm_patterns_in"].as_number(), 0.0);
  // Whatever job 1 harvested is on job 2's plate; identical verdict.
  EXPECT_GE(r2["service"]["warm_patterns_in"].as_number(),
            r1["service"]["warm_patterns_absorbed"].as_number());
  EXPECT_EQ(r1["outcome"]["status"].as_string(), r2["outcome"]["status"].as_string());
  EXPECT_EQ(r1["outcome"]["total_cost"].as_number(),
            r2["outcome"]["total_cost"].as_number());
}

TEST(ServiceDaemon, StatsAndDrainControlOps) {
  const auto f = write_unit("stats", 1);
  ServiceOptions opts;
  opts.jobs = 1;
  Daemon daemon(opts);
  parse_response(daemon.submit_and_wait(solve_request("s1", f)));
  const JsonValue stats = parse_response(daemon.submit_and_wait("{\"op\":\"stats\",\"id\":\"st\"}"));
  EXPECT_TRUE(stats["ok"].as_bool());
  EXPECT_EQ(stats["counters"]["submitted"].as_number(), 1.0);
  EXPECT_EQ(stats["counters"]["completed"].as_number(), 1.0);
  EXPECT_GE(stats["cache"]["entries"].as_number(), 1.0);
  const JsonValue drain = parse_response(daemon.submit_and_wait("{\"op\":\"drain\",\"id\":\"dr\"}"));
  EXPECT_TRUE(drain["ok"].as_bool());
  EXPECT_TRUE(daemon.draining());
  const JsonValue rejected = parse_response(daemon.submit_and_wait(solve_request("s2", f)));
  EXPECT_EQ(rejected["error"]["code"].as_string(), "draining");
}

}  // namespace
}  // namespace eco::service
