#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/log.hpp"
#include "util/numparse.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace eco {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit with overwhelming probability
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0, 10));
    EXPECT_TRUE(rng.chance(10, 10));
  }
}

TEST(Timer, MeasuresForwardTime) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(Deadline, UnlimitedNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining()));
}

TEST(Deadline, TinyBudgetExpires) {
  Deadline d(1e-9);
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_TRUE(d.expired());
}

TEST(Log, LevelRoundTrip) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kDebug);
  EXPECT_TRUE(log_enabled(LogLevel::kDebug));
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  set_log_level(LogLevel::kError);
  EXPECT_FALSE(log_enabled(LogLevel::kWarn));
  set_log_level(before);
}

TEST(NumParse, AcceptsWholeOperandsOnly) {
  int i = 7;
  EXPECT_TRUE(util::parse_int("-42", i));
  EXPECT_EQ(i, -42);
  for (const char* bad : {"", "4x", "abc", "1.5", "99999999999"}) {
    EXPECT_FALSE(util::parse_int(bad, i)) << bad;
  }
  EXPECT_FALSE(util::parse_int(nullptr, i));
  EXPECT_EQ(i, -42);  // untouched on failure

  uint64_t u = 3;
  EXPECT_TRUE(util::parse_u64("18446744073709551615", u));
  EXPECT_EQ(u, UINT64_MAX);
  for (const char* bad : {"-1", " -1", "+1", "18446744073709551616", "1 "}) {
    EXPECT_FALSE(util::parse_u64(bad, u)) << bad;
  }

  double d = 0;
  EXPECT_TRUE(util::parse_double("2.5e1", d));
  EXPECT_EQ(d, 25.0);
  for (const char* bad : {"nan", "inf", "-inf", "1e999", "5s"}) {
    EXPECT_FALSE(util::parse_double(bad, d)) << bad;
  }
  EXPECT_EQ(d, 25.0);
}

}  // namespace
}  // namespace eco
