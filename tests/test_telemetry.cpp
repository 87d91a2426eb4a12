// Tests for util/telemetry: counter/gauge/timer registry correctness,
// hierarchical phase nesting, thread-safety, runtime-disabled no-ops, and
// validity of the emitted JSON (snapshot + Chrome trace), checked with the
// minimal JSON parser below.

#include "util/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "eco/engine.hpp"
#include "sat/solver.hpp"
#include "util/jsonw.hpp"

namespace tel = eco::telemetry;

namespace {

// ---- minimal JSON parser (validation only) -------------------------------

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == s_.size();  // no trailing garbage
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool parse_value(JsonValue& out) {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.kind = JsonValue::kString;
      return parse_string(out.string);
    }
    if (c == 't') {
      out.kind = JsonValue::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.kind = JsonValue::kBool;
      out.boolean = false;
      return literal("false");
    }
    if (c == 'n') {
      out.kind = JsonValue::kNull;
      return literal("null");
    }
    return parse_number(out);
  }
  bool parse_string(std::string& out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        const char e = s_[pos_ + 1];
        if (e == 'u') {
          if (pos_ + 5 >= s_.size()) return false;
          out += '?';  // decoded value irrelevant for these tests
          pos_ += 6;
          continue;
        }
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          default: return false;
        }
        pos_ += 2;
      } else {
        out += s_[pos_++];
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool parse_number(JsonValue& out) {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) return false;
    out.kind = JsonValue::kNumber;
    out.number = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }
  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      skip_ws();
      if (!parse_value(v)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || !parse_string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!parse_value(v)) return false;
      out.object.emplace(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tel::reset();
    tel::set_enabled(true);
  }
  void TearDown() override {
    tel::set_enabled(false);
    tel::reset();
  }
};

}  // namespace

TEST_F(TelemetryTest, CountersAccumulate) {
  EXPECT_EQ(tel::counter_value("t.c"), 0u);
  tel::counter_add("t.c");
  tel::counter_add("t.c", 41);
  EXPECT_EQ(tel::counter_value("t.c"), 42u);
  tel::reset();
  EXPECT_EQ(tel::counter_value("t.c"), 0u);
}

TEST_F(TelemetryTest, GaugesSetAndMax) {
  tel::gauge_set("t.g", 7);
  tel::gauge_set("t.g", 3);
  EXPECT_EQ(tel::gauge_value("t.g"), 3);
  tel::gauge_max("t.m", 5);
  tel::gauge_max("t.m", 2);
  tel::gauge_max("t.m", 9);
  EXPECT_EQ(tel::gauge_value("t.m"), 9);
}

TEST_F(TelemetryTest, TimersAccumulateCountAndSeconds) {
  tel::timer_add("t.t", 0.5);
  tel::timer_add("t.t", 0.25);
  const tel::TimerStat t = tel::timer_value("t.t");
  EXPECT_EQ(t.count, 2u);
  EXPECT_DOUBLE_EQ(t.seconds, 0.75);
}

TEST_F(TelemetryTest, ScopedTimerRecords) {
  {
    tel::ScopedTimer timer("t.scoped");
    volatile unsigned sink = 0;  // unsigned: the sum wraps instead of overflowing
    for (unsigned i = 0; i < 100000; ++i) sink = sink + i;
  }
  const tel::TimerStat t = tel::timer_value("t.scoped");
  EXPECT_EQ(t.count, 1u);
  EXPECT_GT(t.seconds, 0.0);
}

TEST_F(TelemetryTest, PhasesNestHierarchically) {
  {
    tel::ScopedPhase outer("outer");
    {
      tel::ScopedPhase inner("inner");
      tel::ScopedTimer spin("t.spin");
      volatile unsigned sink = 0;  // unsigned: the sum wraps instead of overflowing
      for (unsigned i = 0; i < 100000; ++i) sink = sink + i;
    }
    { tel::ScopedPhase inner2("inner"); }
  }
  EXPECT_EQ(tel::timer_value("outer").count, 1u);
  EXPECT_EQ(tel::timer_value("outer/inner").count, 2u);
  EXPECT_EQ(tel::timer_value("inner").count, 0u);  // only the joined path
  // The outer phase's time covers the inner phases'.
  EXPECT_GE(tel::timer_value("outer").seconds, tel::timer_value("outer/inner").seconds);
}

TEST_F(TelemetryTest, RuntimeDisabledIsNoop) {
  tel::set_enabled(false);
  tel::counter_add("t.off");
  tel::gauge_set("t.off.g", 1);
  tel::timer_add("t.off.t", 1.0);
  { tel::ScopedPhase p("t.off.phase"); }
  EXPECT_EQ(tel::counter_value("t.off"), 0u);
  EXPECT_EQ(tel::gauge_value("t.off.g"), 0);
  EXPECT_EQ(tel::timer_value("t.off.t").count, 0u);
  EXPECT_EQ(tel::timer_value("t.off.phase").count, 0u);
  const tel::Snapshot s = tel::snapshot();
  EXPECT_TRUE(s.counters.empty());
  EXPECT_TRUE(s.timers.empty());
}

TEST_F(TelemetryTest, PhaseOpenAcrossDisableStillClosesSafely) {
  auto phase = std::make_unique<tel::ScopedPhase>("t.toggle");
  tel::set_enabled(false);
  phase.reset();  // must not crash; slice recorded from the active ctor
  EXPECT_EQ(tel::timer_value("t.toggle").count, 1u);
}

TEST_F(TelemetryTest, ThreadSafetySmoke) {
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      for (int j = 0; j < kIters; ++j) {
        tel::counter_add("t.mt");
        if ((j & 1023) == 0) {
          tel::ScopedPhase p("mt_phase");
          tel::gauge_max("t.mt.max", j);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tel::counter_value("t.mt"), static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(tel::gauge_value("t.mt.max"), 9216);
  EXPECT_EQ(tel::timer_value("mt_phase").count, static_cast<uint64_t>(kThreads) * 10);
}

TEST_F(TelemetryTest, SolverStatsRollIntoTotals) {
  // Pigeonhole php(6,5) behind a selector, with small reduction intervals
  // and eager EMA blocking, then assumption solves sharing a prefix: every
  // listed counter but the parallel-SAT ones ends up nonzero, so a roll-up
  // that drops a field fails the comparison below. (Parallel escalation
  // would credit its clones' stats to the capture too.)
  eco::sat::SolverOptions opts;
  opts.restart = eco::sat::RestartPolicy::kEma;
  opts.blocking_margin = 0.5;
  opts.local_cap_base = 50;
  opts.tier2_shrink_interval = 100;
  opts.tier2_unused_demote = 100;
  const tel::SolverTotals before = tel::solver_totals();
  tel::SolverTotalsAccumulator acc;
  eco::sat::SolverStats own;
  {
    const tel::ScopedSolverCapture capture(acc);
    eco::sat::Solver solver(opts);
    const int holes = 6, pigeons = holes + 1;
    std::vector<eco::sat::Lit> x;
    for (int i = 0; i < pigeons * holes; ++i) x.push_back(eco::sat::mk_lit(solver.new_var()));
    const eco::sat::Lit sel = eco::sat::mk_lit(solver.new_var());
    for (int p = 0; p < pigeons; ++p) {
      std::vector<eco::sat::Lit> clause{~sel};
      for (int h = 0; h < holes; ++h) clause.push_back(x[p * holes + h]);
      solver.add_clause(clause);
    }
    for (int h = 0; h < holes; ++h)
      for (int p1 = 0; p1 < pigeons; ++p1)
        for (int p2 = p1 + 1; p2 < pigeons; ++p2)
          solver.add_clause({~x[p1 * holes + h], ~x[p2 * holes + h]});
    EXPECT_TRUE(solver.solve({sel}).is_false());
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(solver.solve({~sel, x[0], x[7 + i]}).is_true());
    own = solver.stats();
  }  // destructor publishes the stats
  const tel::SolverTotals t = acc.totals();
  EXPECT_EQ(t.solvers, 1u);
#define ECO_X(name)                                   \
  EXPECT_EQ(t.name, own.name) << #name;               \
  if (!std::string_view(#name).starts_with("par_")) { \
    EXPECT_GT(own.name, 0u) << #name;                 \
  }
  ECO_SOLVER_STATS(ECO_X)
#undef ECO_X
  const tel::SolverTotals after = tel::solver_totals();
  EXPECT_EQ(after.solvers, before.solvers + 1);
  EXPECT_EQ(after.solves, before.solves + own.solves);
}

TEST_F(TelemetryTest, ScopedSolverCaptureCreditsInnermostAccumulator) {
  // A capture receives the totals of every solver destroyed in its scope on
  // this thread; an inner capture shadows the outer one (a solver belongs
  // to exactly one run), and solvers destroyed outside any capture are
  // credited to nobody.
  auto burn_one_solver = [] {
    eco::sat::Solver solver;
    const eco::sat::Var a = solver.new_var();
    solver.add_clause({eco::sat::mk_lit(a)});
    EXPECT_TRUE(solver.solve().is_true());
  };

  tel::SolverTotalsAccumulator outer, inner;
  burn_one_solver();  // before any capture: untracked
  {
    tel::ScopedSolverCapture outer_capture(outer);
    burn_one_solver();
    {
      tel::ScopedSolverCapture inner_capture(inner);
      burn_one_solver();
      burn_one_solver();
    }
    burn_one_solver();
  }
  burn_one_solver();  // after the capture closed: untracked

  EXPECT_EQ(outer.totals().solvers, 2u);
  EXPECT_EQ(outer.totals().solves, 2u);
  EXPECT_EQ(inner.totals().solvers, 2u);
  EXPECT_EQ(inner.totals().solves, 2u);
}

TEST_F(TelemetryTest, SnapshotJsonRoundTrips) {
  tel::counter_add("alpha", 3);
  tel::counter_add("needs \"escaping\"\n", 1);
  tel::gauge_set("g1", -5);
  tel::timer_add("engine/window", 0.125);
  { tel::ScopedPhase p("solo"); }

  const std::string text = tel::snapshot_json();
  JsonValue root;
  ASSERT_TRUE(JsonParser(text).parse(root)) << text;
  ASSERT_EQ(root.kind, JsonValue::kObject);
  ASSERT_NE(root.find("schema"), nullptr);
  EXPECT_EQ(root.find("schema")->string, "ecopatch-telemetry-v1");

  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("alpha"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("alpha")->number, 3.0);
  EXPECT_NE(counters->find("needs \"escaping\"\n"), nullptr);

  const JsonValue* gauges = root.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("g1")->number, -5.0);

  const JsonValue* timers = root.find("timers");
  ASSERT_NE(timers, nullptr);
  const JsonValue* window = timers->find("engine/window");
  ASSERT_NE(window, nullptr);
  EXPECT_DOUBLE_EQ(window->find("seconds")->number, 0.125);
  EXPECT_DOUBLE_EQ(window->find("count")->number, 1.0);
  EXPECT_NE(timers->find("solo"), nullptr);

  const JsonValue* sat = root.find("sat");
  ASSERT_NE(sat, nullptr);
#define ECO_X(name) EXPECT_NE(sat->find(#name), nullptr) << #name;
  ECO_SOLVER_TOTALS(ECO_X)
#undef ECO_X

  // The outcome JSON writes the same lists through the same writers.
  JsonValue outcome;
  const std::string outcome_text = eco::core::outcome_to_json(eco::core::EcoOutcome{});
  ASSERT_TRUE(JsonParser(outcome_text).parse(outcome)) << outcome_text;
  const JsonValue* osat = outcome.find("sat");
  const JsonValue* osweep = outcome.find("sweep");
  const JsonValue* osim = outcome.find("sim");
  ASSERT_TRUE(osat != nullptr && osweep != nullptr && osim != nullptr) << outcome_text;
#define ECO_X(name) EXPECT_NE(osat->find(#name), nullptr) << #name;
  ECO_SOLVER_TOTALS(ECO_X)
#undef ECO_X
#define ECO_X(name) EXPECT_NE(osweep->find(#name), nullptr) << #name;
  ECO_SWEEP_STATS(ECO_X)
#undef ECO_X
#define ECO_X(name) EXPECT_NE(osim->find(#name), nullptr) << #name;
  ECO_SIM_STATS(ECO_X)
#undef ECO_X
}

TEST_F(TelemetryTest, TraceJsonRoundTripsAsCatapultFormat) {
  {
    tel::ScopedPhase outer("engine");
    tel::ScopedPhase inner("window");
    volatile int sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  }
  const std::string text = tel::trace_json();
  JsonValue root;
  ASSERT_TRUE(JsonParser(text).parse(root)) << text;
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::kArray);
  ASSERT_EQ(events->array.size(), 2u);
  for (const JsonValue& e : events->array) {
    EXPECT_EQ(e.find("ph")->string, "X");
    EXPECT_NE(e.find("name"), nullptr);
    EXPECT_GE(e.find("ts")->number, 0.0);
    EXPECT_GE(e.find("dur")->number, 0.0);
    EXPECT_NE(e.find("pid"), nullptr);
    EXPECT_NE(e.find("tid"), nullptr);
  }
  // Inner slice closes first, so it is recorded first and nests inside.
  const JsonValue& inner = events->array[0];
  const JsonValue& outer = events->array[1];
  EXPECT_EQ(inner.find("name")->string, "window");
  EXPECT_EQ(outer.find("name")->string, "engine");
  EXPECT_LE(outer.find("ts")->number, inner.find("ts")->number);
  EXPECT_GE(outer.find("ts")->number + outer.find("dur")->number,
            inner.find("ts")->number + inner.find("dur")->number);
}

TEST_F(TelemetryTest, TraceCapacityBoundsMemory) {
  tel::set_trace_capacity(4);
  for (int i = 0; i < 10; ++i) tel::ScopedPhase p("spam");
  const tel::Snapshot s = tel::snapshot();
  EXPECT_EQ(s.trace_events, 4u);
  EXPECT_EQ(s.dropped_trace_events, 6u);
  tel::set_trace_capacity(1u << 20);
}

TEST_F(TelemetryTest, TraceCapacityZeroDisablesTracingWithoutDropCounting) {
  // Capacity 0 means "tracing off", not "drop everything": no events are
  // retained AND the dropped counter stays put, so a capacity-0 snapshot
  // does not read as data loss. Timers/phase paths keep working.
  tel::set_trace_capacity(0);
  for (int i = 0; i < 10; ++i) tel::ScopedPhase p("spam0");
  const tel::Snapshot s = tel::snapshot();
  EXPECT_EQ(s.trace_events, 0u);
  EXPECT_EQ(s.dropped_trace_events, 0u);
  EXPECT_EQ(tel::timer_value("spam0").count, 10u);
  tel::set_trace_capacity(1u << 20);
}

TEST_F(TelemetryTest, ShrinkingTraceCapacityTrimsOldestAndCountsThemDropped) {
  tel::set_trace_capacity(8);
  for (int i = 0; i < 8; ++i) tel::ScopedPhase p("trim");
  tel::set_trace_capacity(3);
  const tel::Snapshot s = tel::snapshot();
  EXPECT_EQ(s.trace_events, 3u);
  EXPECT_EQ(s.dropped_trace_events, 5u);
  tel::set_trace_capacity(1u << 20);
}

TEST_F(TelemetryTest, CurrentPhasePathReflectsOpenScopes) {
  EXPECT_EQ(tel::current_phase_path(), "");
  tel::ScopedPhase outer("engine");
  EXPECT_EQ(tel::current_phase_path(), "engine");
  {
    tel::ScopedPhase inner("verify");
    EXPECT_EQ(tel::current_phase_path(), "engine/verify");
  }
  EXPECT_EQ(tel::current_phase_path(), "engine");
}

TEST_F(TelemetryTest, JsonWriterEscapesAndNests) {
  eco::JsonWriter w;
  w.begin_object();
  w.kv("s", "a\"b\\c\nd");
  w.kv("i", -12);
  w.kv("u", 12u);
  w.kv("d", 1.5);
  w.kv("b", true);
  w.key("arr");
  w.begin_array();
  w.value(1);
  w.value("two");
  w.begin_object();
  w.kv("k", 3);
  w.end_object();
  w.end_array();
  w.end_object();
  JsonValue root;
  ASSERT_TRUE(JsonParser(w.str()).parse(root)) << w.str();
  EXPECT_EQ(root.find("s")->string, "a\"b\\c\nd");
  EXPECT_DOUBLE_EQ(root.find("i")->number, -12.0);
  EXPECT_TRUE(root.find("b")->boolean);
  ASSERT_EQ(root.find("arr")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(root.find("arr")->array[2].find("k")->number, 3.0);
}

// Declared in test_telemetry_disabled.cpp, a TU compiled with
// ECO_TELEMETRY=0: returns the value of counter "disabled.count" after
// running the compiled-out instrumentation macros.
uint64_t run_compiled_out_instrumentation();

TEST_F(TelemetryTest, CompileTimeDisabledMacrosAreZeroCost) {
  EXPECT_EQ(run_compiled_out_instrumentation(), 0u);
  EXPECT_EQ(tel::timer_value("disabled.phase").count, 0u);
}
