// QuantileSketch: the streaming aggregation substrate of the shared
// world.  The load-bearing property is the *bit-exact associative
// merge* — shard a stream any way, merge in any order, read identical
// bits — because the MN_THREADS golden test of the world depends on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mn {
namespace {

const double kQs[] = {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0};

/// Exact-equality comparison of every observable: two sketches that
/// pass this are indistinguishable to any caller.
void expect_identical(const QuantileSketch& a, const QuantileSketch& b) {
  ASSERT_EQ(a.count(), b.count());
  ASSERT_EQ(a.rejected(), b.rejected());
  for (const double q : kQs) {
    const double qa = a.quantile(q);
    const double qb = b.quantile(q);
    if (std::isnan(qa)) {
      EXPECT_TRUE(std::isnan(qb));
    } else {
      EXPECT_EQ(qa, qb) << "q=" << q;  // bit-exact, not approximate
    }
  }
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.mean(), b.mean());
}

std::vector<double> mixed_samples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Span many octaves, both signs, with zeros sprinkled in.
    const double mag = std::exp(rng.uniform(-8.0, 12.0));
    const double u = rng.uniform();
    xs.push_back(u < 0.05 ? 0.0 : (u < 0.30 ? -mag : mag));
  }
  return xs;
}

TEST(QuantileSketch, EmptySketchReturnsQuietNaN) {
  QuantileSketch s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(std::isnan(s.quantile(0.0)));
  EXPECT_TRUE(std::isnan(s.quantile(0.5)));
  EXPECT_TRUE(std::isnan(s.quantile(1.0)));
  EXPECT_TRUE(std::isnan(s.median()));
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_TRUE(std::isnan(s.mean()));
}

TEST(QuantileSketch, SingleElementIsExactAtEveryQuantile) {
  for (const double x : {3.25, -17.5, 0.0, 1e-9, 2.5e11}) {
    QuantileSketch s;
    s.add(x);
    ASSERT_EQ(s.count(), 1u);
    EXPECT_EQ(s.min(), x);
    EXPECT_EQ(s.max(), x);
    for (const double q : kQs) {
      EXPECT_EQ(s.quantile(q), x) << "x=" << x << " q=" << q;
    }
  }
}

TEST(QuantileSketch, NonFiniteInputsAreRejectedNotCounted) {
  QuantileSketch s;
  s.add(std::numeric_limits<double>::quiet_NaN());
  s.add(std::numeric_limits<double>::infinity());
  s.add(-std::numeric_limits<double>::infinity());
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.rejected(), 3u);
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.median(), 5.0);
}

TEST(QuantileSketch, QuantilesTrackExactWithinRelativeErrorBound) {
  const auto xs = mixed_samples(20000, 42);
  QuantileSketch sketch;
  EmpiricalDistribution exact;
  for (const double x : xs) {
    sketch.add(x);
    exact.add(x);
  }
  // 1/32 sub-bucketing bounds relative error by ~3.1%; allow a hair of
  // slack for interpolation-rule differences between the two containers.
  for (const double q : {0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95}) {
    const double want = exact.quantile(q);
    const double got = sketch.quantile(q);
    EXPECT_NEAR(got, want, std::abs(want) * 0.035 + 1e-12) << "q=" << q;
  }
  EXPECT_EQ(sketch.min(), exact.min());  // extremes are tracked exactly
  EXPECT_EQ(sketch.max(), exact.max());
}

TEST(QuantileSketch, MergeIsBitExactAcrossShardCountsAndOrders) {
  const auto xs = mixed_samples(9973, 7);  // prime: shards never align
  QuantileSketch serial;
  for (const double x : xs) serial.add(x);

  for (const std::size_t shards : {2u, 4u, 8u}) {
    std::vector<QuantileSketch> parts(shards);
    for (std::size_t i = 0; i < xs.size(); ++i) parts[i % shards].add(xs[i]);

    QuantileSketch fwd;
    for (const auto& p : parts) fwd.merge_from(p);
    expect_identical(fwd, serial);

    QuantileSketch rev;
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) rev.merge_from(*it);
    expect_identical(rev, serial);

    // Tree-shaped merge (pairwise reduce) — associativity, not just
    // commutativity.
    while (parts.size() > 1) {
      std::vector<QuantileSketch> next;
      for (std::size_t i = 0; i + 1 < parts.size(); i += 2) {
        parts[i].merge_from(parts[i + 1]);
        next.push_back(std::move(parts[i]));
      }
      if (parts.size() % 2) next.push_back(std::move(parts.back()));
      parts = std::move(next);
    }
    expect_identical(parts[0], serial);
  }
}

TEST(QuantileSketch, MergeWithEmptySketchIsIdentity) {
  QuantileSketch s;
  for (const double x : {1.0, 2.0, 3.0}) s.add(x);
  QuantileSketch empty;
  s.merge_from(empty);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 3.0);

  QuantileSketch other;
  other.merge_from(s);
  expect_identical(other, s);
}

TEST(QuantileSketch, NegativeSamplesOrderBelowPositive) {
  QuantileSketch s;
  for (int i = 1; i <= 100; ++i) {
    s.add(static_cast<double>(i));
    s.add(static_cast<double>(-i));
  }
  EXPECT_LT(s.quantile(0.25), 0.0);
  EXPECT_GT(s.quantile(0.75), 0.0);
  EXPECT_EQ(s.min(), -100.0);
  EXPECT_EQ(s.max(), 100.0);
  // Median of a sign-symmetric set sits near zero, well inside (-1, 1).
  EXPECT_GT(s.median(), -1.5);
  EXPECT_LT(s.median(), 1.5);
}

TEST(QuantileSketch, OutOfRangeMagnitudesClampButStayOrdered) {
  QuantileSketch s;
  s.add(1e-300);  // below 2^-32: zero bucket
  s.add(1.0);
  s.add(1e300);  // above 2^40: top bucket, exact max still tracked
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.min(), 1e-300);
  EXPECT_EQ(s.max(), 1e300);
  EXPECT_LE(s.quantile(0.0), s.quantile(0.5));
  EXPECT_LE(s.quantile(0.5), s.quantile(1.0));
}

TEST(QuantileSketch, MemoryIsBoundedAndLazyForNegatives) {
  QuantileSketch s;
  const std::size_t base = s.memory_bytes();
  for (int i = 0; i < 100000; ++i) s.add(static_cast<double>(i % 977) + 0.5);
  EXPECT_EQ(s.memory_bytes(), base) << "positive-only stream must not grow";
  s.add(-1.0);
  EXPECT_GT(s.memory_bytes(), base);  // negative array materialized once
  const std::size_t with_neg = s.memory_bytes();
  for (int i = 0; i < 100000; ++i) s.add(-static_cast<double>(i % 977) - 0.5);
  EXPECT_EQ(s.memory_bytes(), with_neg);
}

// Pins the exact layout (5 sub-bits, a zero bucket below 2^-32, a top
// bucket that clamps at 2^40) through every observable, recorded before
// the sketch and the obs histogram share one type.  Tiny draws span the
// octaves 2^-34..2^-31, half of them below 2^-32; q0.2375, q0.2625 and
// q0.2875 sit in the bands on either side of the zero-bucket edge.
// Inputs are exact binary fractions (ldexp of Rng draws), so no libm
// rounding enters.
TEST(QuantileSketch, LayoutGolden) {
  Rng rng(20141105);
  QuantileSketch s;
  for (int i = 0; i < 5000; ++i) {
    const double mantissa = 1.0 + rng.uniform();  // [1, 2)
    const double u = rng.uniform();
    if (u < 0.2) {
      s.add(-std::ldexp(mantissa, static_cast<int>(rng.uniform_int(-12, 24))));
    } else if (u < 0.3) {
      s.add(std::ldexp(mantissa, static_cast<int>(rng.uniform_int(-34, -31))));
    } else if (u < 0.4) {
      s.add(std::ldexp(mantissa, static_cast<int>(rng.uniform_int(40, 60))));
    } else {
      s.add(std::ldexp(mantissa, static_cast<int>(rng.uniform_int(-12, 24))));
    }
  }
  std::string text = "count " + std::to_string(s.count()) + "\n";
  const auto line = [&text](const char* name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s %.17g\n", name, v);
    text += buf;
  };
  line("min", s.min());
  line("max", s.max());
  line("mean", s.mean());
  for (const double q : {0.001, 0.05, 0.1, 0.15, 0.2375, 0.2625, 0.2875, 0.35, 0.45, 0.5,
                         0.55, 0.65, 0.75, 0.85, 0.95, 0.999}) {
    char name[16];
    std::snprintf(name, sizeof(name), "q%g", q);
    line(name, s.quantile(q));
  }
  EXPECT_EQ(text,
            "count 5000\n"
            "min -31807972.941994347\n"
            "max 2.2569008192338552e+18\n"
            "mean 112147397466.70558\n"
            "q0.001 -27000832\n"
            "q0.05 -27392\n"
            "q0.1 -49.099999999999966\n"
            "q0.15 -0.066552734374999978\n"
            "q0.2375 0\n"
            "q0.2625 4.2526153265498572e-10\n"
            "q0.2875 8.2563929026946359e-10\n"
            "q0.35 0.0037017822265624917\n"
            "q0.45 0.29830729166666714\n"
            "q0.5 1.953125\n"
            "q0.55 19.908333333333378\n"
            "q0.65 1483.1999999999971\n"
            "q0.75 81152\n"
            "q0.85 5640028.1599999908\n"
            "q0.95 1091141046289.5657\n"
            "q0.999 1099344216146.2714\n");
}

}  // namespace
}  // namespace mn
