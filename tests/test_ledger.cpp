// Tests for util/ledger: purpose scoping (strong/weak, innermost wins),
// append/collect ordering, ring-wrap drop accounting, lossless JSONL sink,
// solver chokepoint instrumentation — plus the two integration properties
// the observability PR promises: a parallel engine sweep produces the same
// record multiset as a serial one, and a chaos-injected engine error always
// carries a flight-recorder dump in the outcome.

#include "util/ledger.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "aig/aig.hpp"
#include "benchgen/suite.hpp"
#include "cec/cec.hpp"
#include "cec/sweep.hpp"
#include "eco/engine.hpp"
#include "eco/problem.hpp"
#include "sat/solver.hpp"
#include "util/executor.hpp"
#include "util/faultpoint.hpp"
#include "util/jsonr.hpp"

namespace led = eco::ledger;

namespace {

class LedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    led::reset();
    led::set_enabled(true);
  }
  void TearDown() override {
    led::close_sink();
    led::set_enabled(false);
    led::set_ring_capacity(4096);
    led::reset();
    eco::fault::disarm_all();
  }
};

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

}  // namespace

TEST_F(LedgerTest, PurposeScopesNestInnermostWins) {
  EXPECT_EQ(led::current_purpose(), led::Purpose::kUnknown);
  {
    led::ScopedPurpose outer(led::Purpose::kVerify);
    EXPECT_EQ(led::current_purpose(), led::Purpose::kVerify);
    {
      led::ScopedPurpose inner(led::Purpose::kSupport);
      EXPECT_EQ(led::current_purpose(), led::Purpose::kSupport);
    }
    EXPECT_EQ(led::current_purpose(), led::Purpose::kVerify);
  }
  EXPECT_EQ(led::current_purpose(), led::Purpose::kUnknown);
}

TEST_F(LedgerTest, WeakScopeDoesNotShadowButAppliesWhenUnset) {
  {
    auto weak = led::ScopedPurpose::weak(led::Purpose::kCec);
    EXPECT_EQ(led::current_purpose(), led::Purpose::kCec);  // nothing was set
  }
  {
    led::ScopedPurpose strong(led::Purpose::kVerify);
    auto weak = led::ScopedPurpose::weak(led::Purpose::kCec);
    EXPECT_EQ(led::current_purpose(), led::Purpose::kVerify);  // not shadowed
  }
  EXPECT_EQ(led::current_purpose(), led::Purpose::kUnknown);
}

TEST_F(LedgerTest, AppendFillsSeqThreadAndScopedPurpose) {
  {
    led::ScopedPurpose scope(led::Purpose::kSatPrune);
    led::Record r;
    r.result = led::QueryResult::kUnsat;
    led::append(r);
  }
  led::append_sim_hit(led::Purpose::kSupport, led::QueryResult::kSat);
  const std::vector<led::Record> records = led::collect();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].purpose, led::Purpose::kSatPrune);
  EXPECT_EQ(records[0].result, led::QueryResult::kUnsat);
  EXPECT_GT(records[0].thread, 0u);
  EXPECT_LT(records[0].seq, records[1].seq);
  EXPECT_EQ(records[1].kind, led::Kind::kSimHit);
  EXPECT_EQ(records[1].purpose, led::Purpose::kSupport);
  EXPECT_NE(records[1].sim_hit, 0);
}

TEST_F(LedgerTest, DisabledAppendIsNoop) {
  led::set_enabled(false);
  led::append(led::Record{});
  led::append_sim_hit(led::Purpose::kCec, led::QueryResult::kSat);
  EXPECT_TRUE(led::collect().empty());
}

TEST_F(LedgerTest, RingWrapWithoutSinkCountsDropped) {
  led::set_ring_capacity(4);
  led::reset();  // shrink this thread's already-grown ring
  for (int i = 0; i < 10; ++i) led::append(led::Record{});
  EXPECT_EQ(led::dropped(), 6u);
  const std::vector<led::Record> records = led::collect();
  ASSERT_EQ(records.size(), 4u);  // the newest 4 survive, in order
  for (size_t i = 1; i < records.size(); ++i)
    EXPECT_LT(records[i - 1].seq, records[i].seq);
}

TEST_F(LedgerTest, TailReturnsNewestRecordsInOrder) {
  for (int i = 0; i < 8; ++i) led::append(led::Record{});
  const std::vector<led::Record> t = led::tail(3);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.back().seq, led::collect().back().seq);
  EXPECT_LT(t[0].seq, t[1].seq);
}

TEST_F(LedgerTest, SinkIsLosslessDespiteTinyRing) {
  const std::string path = temp_path("ledger_lossless.jsonl");
  led::set_ring_capacity(2);
  led::reset();
  ASSERT_TRUE(led::set_sink(path));
  constexpr int kRecords = 25;
  {
    led::ScopedPurpose scope(led::Purpose::kQbf);
    for (int i = 0; i < kRecords; ++i) {
      led::Record r;
      r.conflicts = static_cast<uint64_t>(i);
      led::append(r);
    }
  }
  EXPECT_TRUE(led::close_sink());
  EXPECT_EQ(led::dropped(), 0u);

  // Every record reached the file: header + kRecords lines, seq contiguous.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);

  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < content.size()) {
    const size_t end = content.find('\n', pos);
    ASSERT_NE(end, std::string::npos);
    lines.push_back(content.substr(pos, end - pos));
    pos = end + 1;
  }
  ASSERT_EQ(lines.size(), 1u + kRecords);

  std::string err;
  const auto header = eco::json_parse(lines[0], &err);
  ASSERT_TRUE(header.has_value()) << err;
  EXPECT_EQ((*header)["schema"].as_string(), "ecopatch-ledger-v1");
  EXPECT_TRUE(header->contains("git_commit"));
  for (int i = 0; i < kRecords; ++i) {
    const auto rec = eco::json_parse(lines[1 + static_cast<size_t>(i)], &err);
    ASSERT_TRUE(rec.has_value()) << err;
    EXPECT_EQ((*rec)["conflicts"].as_number(), i);
    EXPECT_EQ((*rec)["purpose"].as_string(), "qbf");
  }
}

TEST_F(LedgerTest, SetSinkFailsFastOnUnwritablePath) {
  EXPECT_FALSE(led::set_sink("/nonexistent-dir/ledger.jsonl"));
}

TEST_F(LedgerTest, SolverSolveAppendsOneTaggedRecord) {
  led::ScopedPurpose scope(led::Purpose::kIrredundancy);
  eco::sat::Solver solver;
  const eco::sat::Var a = solver.new_var();
  const eco::sat::Var b = solver.new_var();
  // All-binary UNSAT core: unit clauses would be absorbed into the level-0
  // trail and not counted as stored problem clauses.
  solver.add_clause({eco::sat::mk_lit(a), eco::sat::mk_lit(b)});
  solver.add_clause({~eco::sat::mk_lit(a), eco::sat::mk_lit(b)});
  solver.add_clause({eco::sat::mk_lit(a), ~eco::sat::mk_lit(b)});
  solver.add_clause({~eco::sat::mk_lit(a), ~eco::sat::mk_lit(b)});
  EXPECT_TRUE(solver.solve().is_false());
  const std::vector<led::Record> records = led::collect();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, led::Kind::kSolve);
  EXPECT_EQ(records[0].purpose, led::Purpose::kIrredundancy);
  EXPECT_EQ(records[0].result, led::QueryResult::kUnsat);
  EXPECT_EQ(records[0].vars, 2u);
  EXPECT_EQ(records[0].clauses, 4u);
  EXPECT_EQ(records[0].cancel, led::CancelCause::kNone);
}

TEST_F(LedgerTest, PurposeScopeIsPerThread) {
  led::ScopedPurpose scope(led::Purpose::kVerify);
  led::Purpose other = led::Purpose::kVerify;
  std::thread t([&] { other = led::current_purpose(); });
  t.join();
  EXPECT_EQ(other, led::Purpose::kUnknown);
}

// A cec_check record carries the search work of the check's own solves:
// its counters equal the sum of the `solve` records the check appended.
TEST_F(LedgerTest, CecCheckRecordCarriesTheWorkOfItsSolves) {
  // x0 ^ ... ^ x9 as a left chain against a balanced tree: equivalent, and
  // XOR structure makes the solver search.
  eco::aig::Aig g;
  std::vector<eco::aig::Lit> x;
  for (int i = 0; i < 10; ++i) x.push_back(g.add_pi("x" + std::to_string(i)));
  eco::aig::Lit chain = x[0];
  for (size_t i = 1; i < x.size(); ++i) chain = g.add_xor(chain, x[i]);
  std::vector<eco::aig::Lit> level = x;
  while (level.size() > 1) {
    std::vector<eco::aig::Lit> next;
    for (size_t i = 0; i + 1 < level.size(); i += 2) next.push_back(g.add_xor(level[i], level[i + 1]));
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  const eco::aig::Lit root = g.add_xor(chain, level[0]);

  const auto check_records = [](const char* what) {
    uint64_t conflicts = 0, decisions = 0, propagations = 0;
    int checks = 0;
    for (const led::Record& r : led::collect()) {
      if (r.kind == led::Kind::kSolve) {
        conflicts += r.conflicts;
        decisions += r.decisions;
        propagations += r.propagations;
      } else if (r.kind == led::Kind::kCecCheck) {
        ++checks;
        EXPECT_EQ(r.conflicts, conflicts) << what;
        EXPECT_EQ(r.decisions, decisions) << what;
        EXPECT_EQ(r.propagations, propagations) << what;
        EXPECT_EQ(r.vars, 10u) << what;  // the miter's PI count
        EXPECT_GE(r.conflicts, 1u) << what;
      }
    }
    EXPECT_EQ(checks, 1) << what;
  };

  led::reset();
  EXPECT_EQ(eco::cec::check_const0(g, root).status, eco::cec::Status::kEquivalent);
  check_records("check_const0");

  led::reset();
  eco::cec::SweepOptions no_merges;
  no_merges.max_rounds = 0;  // leave the whole miter to the final root query
  EXPECT_EQ(eco::cec::sweep_check(g, root, -1, {}, {}, {}, nullptr, no_merges).cec.status,
            eco::cec::Status::kEquivalent);
  check_records("sweep_check, root query only");

  led::reset();
  EXPECT_EQ(eco::cec::sweep_check(g, root).cec.status, eco::cec::Status::kEquivalent);
  check_records("sweep_check");
}

// ---- engine integration --------------------------------------------------

namespace {

/// The schedule-independent fields of a record: everything except seq,
/// thread, times, and phase path (which legitimately vary across runs).
using StableTuple = std::tuple<led::Kind, led::Purpose, led::QueryResult, uint32_t, uint32_t,
                               uint64_t, uint64_t, uint64_t, uint8_t>;

StableTuple stable_tuple(const led::Record& r) {
  return {r.kind,      r.purpose,   r.result,       r.vars,   r.clauses,
          r.conflicts, r.decisions, r.propagations, r.sim_hit};
}

eco::core::EngineOptions sweep_options() {
  eco::core::EngineOptions options;
  options.time_budget = 60;  // far above what these tiny units need
  options.conflict_budget = 100000;
  return options;
}

/// Runs (unit, algorithm) pairs — serially or on \p executor — and returns
/// the multiset of stable record tuples the sweep appended.
std::multiset<StableTuple> sweep_tuples(eco::util::Executor* executor) {
  struct Task {
    int unit;
    eco::core::Algorithm algorithm;
  };
  const std::vector<Task> tasks = {
      {0, eco::core::Algorithm::kMinimize},
      {1, eco::core::Algorithm::kMinimize},
      {2, eco::core::Algorithm::kSatPruneCegarMin},
      {3, eco::core::Algorithm::kBaseline},
  };
  led::reset();
  const auto run_one = [&](size_t t) {
    const eco::benchgen::EcoUnit unit = eco::benchgen::make_unit(tasks[t].unit, 20170912);
    const eco::core::EcoProblem problem =
        eco::core::make_problem(unit.impl, unit.spec, unit.weights);
    eco::core::EngineOptions options = sweep_options();
    options.algorithm = tasks[t].algorithm;
    const eco::core::EcoOutcome outcome = eco::core::run_eco(problem, options);
    EXPECT_EQ(outcome.status, eco::core::EcoOutcome::Status::kPatched);
  };
  if (executor != nullptr) {
    executor->parallel_for(tasks.size(), run_one);
  } else {
    for (size_t t = 0; t < tasks.size(); ++t) run_one(t);
  }
  std::multiset<StableTuple> tuples;
  for (const led::Record& r : led::collect()) tuples.insert(stable_tuple(r));
  return tuples;
}

}  // namespace

TEST_F(LedgerTest, ParallelSweepRecordsSameMultisetAsSerial) {
  // The 4 runs are independent and each single-threaded, so the schedule
  // must not change what was recorded — only seq/thread/timing interleave.
  const std::multiset<StableTuple> serial = sweep_tuples(nullptr);
  ASSERT_FALSE(serial.empty());
  eco::util::Executor executor(4);
  const std::multiset<StableTuple> parallel = sweep_tuples(&executor);
  EXPECT_EQ(serial.size(), parallel.size());
  EXPECT_TRUE(serial == parallel);
  EXPECT_EQ(led::dropped(), 0u);
}

TEST_F(LedgerTest, EngineErrorCarriesFlightRecorderDump) {
  // A deterministic injected fault ends the run kError; the outcome must
  // carry the last ledger records so the failure is diagnosable post mortem.
  const eco::benchgen::EcoUnit unit = eco::benchgen::make_unit(0, 20170912);
  const eco::core::EcoProblem problem =
      eco::core::make_problem(unit.impl, unit.spec, unit.weights);
  ASSERT_TRUE(eco::fault::arm("window.extract"));
  eco::core::EngineOptions options = sweep_options();
  options.ladder = false;
  const eco::core::EcoOutcome outcome = eco::core::run_eco(problem, options);
  eco::fault::disarm_all();
  ASSERT_EQ(outcome.status, eco::core::EcoOutcome::Status::kError);
  EXPECT_FALSE(outcome.flight_recorder.empty());
  // The dump lands in the outcome JSON as a parseable array.
  std::string err;
  const auto doc = eco::json_parse(eco::core::outcome_to_json(outcome), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ((*doc)["schema"].as_string(), "ecopatch-outcome-v1");
  EXPECT_TRUE(doc->contains("git_commit"));
  EXPECT_GE((*doc)["flight_recorder"].as_array().size(), 1u);
}

TEST_F(LedgerTest, RecoveredFaultStillTriggersFlightRecorder) {
  // With the ladder on, the run recovers — but a fault fired, so the dump
  // is still captured (the interesting evidence is from the failed attempt).
  const eco::benchgen::EcoUnit unit = eco::benchgen::make_unit(0, 20170912);
  const eco::core::EcoProblem problem =
      eco::core::make_problem(unit.impl, unit.spec, unit.weights);
  ASSERT_TRUE(eco::fault::arm("window.extract:0.99:7"));
  eco::core::EngineOptions options = sweep_options();
  options.ladder = true;
  const eco::core::EcoOutcome outcome = eco::core::run_eco(problem, options);
  eco::fault::disarm_all();
  EXPECT_FALSE(outcome.flight_recorder.empty());
}

TEST_F(LedgerTest, CleanRunWithLedgerOffLeavesOutcomeLean) {
  led::set_enabled(false);
  const eco::benchgen::EcoUnit unit = eco::benchgen::make_unit(0, 20170912);
  const eco::core::EcoProblem problem =
      eco::core::make_problem(unit.impl, unit.spec, unit.weights);
  const eco::core::EcoOutcome outcome = eco::core::run_eco(problem, sweep_options());
  EXPECT_EQ(outcome.status, eco::core::EcoOutcome::Status::kPatched);
  EXPECT_TRUE(outcome.flight_recorder.empty());
  EXPECT_TRUE(led::collect().empty());
}
