#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

namespace mn::obs {
namespace {

TEST(Metrics, CountersGaugesAndHistogramsRecord) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("test.counter");
  const MetricId g = reg.gauge("test.gauge");
  const MetricId h = reg.histogram("test.hist");

  reg.add(c);
  reg.add(c, 4);
  reg.set(g, 7);
  reg.set(g, 3);  // gauges overwrite
  reg.observe(h, 100);
  reg.observe(h, 200);

  EXPECT_EQ(reg.value(c), 5);
  EXPECT_EQ(reg.value(g), 3);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value_of("test.counter"), 5);
  EXPECT_EQ(snap.value_of("test.gauge"), 3);
  const SnapshotEntry* hist = snap.find("test.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->kind, MetricKind::kHistogram);
  EXPECT_EQ(hist->hist.count, 2u);
  EXPECT_EQ(hist->hist.sum, 300);
}

TEST(Metrics, DuplicateNameThrows) {
  MetricsRegistry reg;
  (void)reg.counter("dup");
  EXPECT_THROW((void)reg.counter("dup"), std::invalid_argument);
  EXPECT_THROW((void)reg.gauge("dup"), std::invalid_argument);
}

TEST(Metrics, CapacityIsEnforcedAtRegistrationTime) {
  MetricsRegistry reg;
  for (std::size_t i = 0; i < MetricsRegistry::kMaxMetrics; ++i) {
    (void)reg.counter("c" + std::to_string(i));
  }
  EXPECT_THROW((void)reg.counter("one-too-many"), std::length_error);

  MetricsRegistry hreg;
  for (std::size_t i = 0; i < MetricsRegistry::kMaxHistograms; ++i) {
    (void)hreg.histogram("h" + std::to_string(i));
  }
  EXPECT_THROW((void)hreg.histogram("hist-too-many"), std::length_error);
}

TEST(Metrics, BucketFloorInvertsBucketOf) {
  // bucket_floor(b) must be the smallest value mapping to bucket b, for
  // every reachable bucket.
  for (std::int64_t v : {0L, 1L, 7L, 8L, 9L, 100L, 1023L, 1024L, 999'983L,
                         (1L << 40) + 12345L}) {
    const std::uint32_t b = MetricsRegistry::bucket_of(v);
    EXPECT_LE(MetricsRegistry::bucket_floor(b), v) << v;
    EXPECT_GT(MetricsRegistry::bucket_floor(b + 1), v) << v;
  }
  EXPECT_EQ(MetricsRegistry::bucket_of(-5), 0u);  // negatives clamp
}

TEST(Metrics, BucketRelativeErrorIsBounded) {
  // Log-linear with 8 sub-buckets per octave: bucket width / floor
  // <= 2^-3 = 12.5% at any magnitude.
  for (std::int64_t v = 8; v < (1L << 50); v = v * 3 + 7) {
    const std::uint32_t b = MetricsRegistry::bucket_of(v);
    const double lo = static_cast<double>(MetricsRegistry::bucket_floor(b));
    const double hi = static_cast<double>(MetricsRegistry::bucket_floor(b + 1));
    EXPECT_LE((hi - lo) / lo, 0.125 + 1e-12) << v;
  }
}

TEST(Metrics, SnapshotIsSortedByNameRegardlessOfRegistrationOrder) {
  MetricsRegistry a;
  (void)a.counter("zeta");
  (void)a.counter("alpha");
  (void)a.counter("mid");
  MetricsRegistry b;
  (void)b.counter("mid");
  (void)b.counter("zeta");
  (void)b.counter("alpha");
  EXPECT_EQ(a.snapshot().prometheus_text(), b.snapshot().prometheus_text());
  const auto snap = a.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "alpha");
  EXPECT_EQ(snap.entries[2].name, "zeta");
}

MetricsSnapshot make_snapshot(std::int64_t counter, std::int64_t gauge,
                              std::int64_t hist_value) {
  MetricsRegistry reg;
  const MetricId c = reg.counter("x.counter");
  const MetricId g = reg.gauge("x.gauge");
  const MetricId h = reg.histogram("x.hist");
  reg.add(c, counter);
  reg.set(g, gauge);
  reg.observe(h, hist_value);
  return reg.snapshot();
}

TEST(Metrics, MergeAddsCountersMaxesGaugesAndMergesHistograms) {
  MetricsSnapshot a = make_snapshot(3, 10, 100);
  const MetricsSnapshot b = make_snapshot(4, 7, 100'000);
  a.merge_from(b);

  EXPECT_EQ(a.value_of("x.counter"), 7);
  EXPECT_EQ(a.value_of("x.gauge"), 10);  // max, not sum
  const SnapshotEntry* h = a.find("x.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->hist.count, 2u);
  EXPECT_EQ(h->hist.sum, 100'100);
  EXPECT_EQ(h->hist.buckets.size(), 2u);  // two distinct buckets, sorted
  EXPECT_LT(h->hist.buckets[0].first, h->hist.buckets[1].first);
}

TEST(Metrics, MergeCopiesEntriesAbsentOnOneSide) {
  MetricsRegistry ra;
  const MetricId ca = ra.counter("only.a");
  ra.add(ca, 2);
  MetricsSnapshot a = ra.snapshot();

  MetricsRegistry rb;
  const MetricId cb = rb.counter("only.b");
  rb.add(cb, 5);
  a.merge_from(rb.snapshot());

  EXPECT_EQ(a.value_of("only.a"), 2);
  EXPECT_EQ(a.value_of("only.b"), 5);
  ASSERT_EQ(a.entries.size(), 2u);
  EXPECT_EQ(a.entries[0].name, "only.a");  // still sorted after insert
}

TEST(Metrics, ValueOfFallbackAndPrefixSum) {
  MetricsRegistry reg;
  reg.add(reg.counter("drop.loss"), 3);
  reg.add(reg.counter("drop.overflow"), 4);
  reg.add(reg.counter("other"), 100);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value_of("absent", -1), -1);
  EXPECT_EQ(snap.sum_with_prefix("drop."), 7);
  EXPECT_EQ(snap.sum_with_prefix("nope."), 0);
}

TEST(Metrics, PrometheusTextExposesAllKindsDeterministically) {
  MetricsRegistry reg;
  reg.add(reg.counter("sim.events"), 12);
  reg.set(reg.gauge("util.fallbacks"), 0);
  const MetricId h = reg.histogram("tcp.rtt-usec");
  reg.observe(h, 50);
  reg.observe(h, 50);
  reg.observe(h, 5000);

  const std::string text = reg.snapshot().prometheus_text();
  // Names are flattened to the prometheus charset.
  EXPECT_NE(text.find("# TYPE sim_events counter"), std::string::npos);
  EXPECT_NE(text.find("sim_events 12"), std::string::npos);
  EXPECT_NE(text.find("# TYPE util_fallbacks gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tcp_rtt_usec histogram"), std::string::npos);
  EXPECT_NE(text.find("tcp_rtt_usec_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("tcp_rtt_usec_sum 5100"), std::string::npos);
  EXPECT_NE(text.find("tcp_rtt_usec_count 3"), std::string::npos);
  // Deterministic byte-for-byte.
  EXPECT_EQ(text, reg.snapshot().prometheus_text());
}

/// 64-bit FNV-1a of a text record.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Pins the log-linear layout (3 sub-bits) exactly, recorded before the
// obs histogram and QuantileSketch share one type: bucket_of and
// bucket_floor at every octave edge +-1 from 0 to 2^62, and the
// Prometheus le labels of a histogram holding one observation per octave.
TEST(Metrics, BucketLayoutGolden) {
  std::string edges;
  for (int k = 0; k <= 62; ++k) {
    const std::int64_t edge = std::int64_t{1} << k;
    for (const std::int64_t v : {edge - 1, edge, edge + 1}) {
      const std::uint32_t b = MetricsRegistry::bucket_of(v);
      edges += std::to_string(v) + " " + std::to_string(b) + " " +
               std::to_string(MetricsRegistry::bucket_floor(b)) + "\n";
    }
  }
  EXPECT_EQ(fnv1a(edges), 0x12885bc72ceba1c2ull) << edges;

  MetricsRegistry reg;
  const MetricId h = reg.histogram("layout");
  for (int k = 0; k <= 62; ++k) reg.observe(h, std::int64_t{1} << k);
  const std::string text = reg.snapshot().prometheus_text();
  EXPECT_EQ(fnv1a(text), 0x73b49f7c85d8b350ull) << text;
}

}  // namespace
}  // namespace mn::obs
