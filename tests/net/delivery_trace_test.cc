#include "net/delivery_trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace mn {
namespace {

TEST(DeliveryTrace, ValidatesInput) {
  EXPECT_THROW(DeliveryTrace({}, msec(10)), std::invalid_argument);
  EXPECT_THROW(DeliveryTrace({msec(1)}, Duration{0}), std::invalid_argument);
  EXPECT_THROW(DeliveryTrace({msec(5), msec(2)}, msec(10)), std::invalid_argument);
  EXPECT_THROW(DeliveryTrace({msec(15)}, msec(10)), std::invalid_argument);
}

TEST(DeliveryTrace, NextOpportunityWithinPeriod) {
  DeliveryTrace t{{msec(2), msec(5), msec(9)}, msec(10)};
  EXPECT_EQ(t.next_opportunity(TimePoint{0}).usec(), msec(2).usec());
  EXPECT_EQ(t.next_opportunity(TimePoint{msec(2).usec()}).usec(), msec(2).usec());
  EXPECT_EQ(t.next_opportunity(TimePoint{msec(3).usec()}).usec(), msec(5).usec());
}

TEST(DeliveryTrace, WrapsAcrossPeriods) {
  DeliveryTrace t{{msec(2), msec(5)}, msec(10)};
  // After the last in-period opportunity, wrap to 10ms + 2ms.
  EXPECT_EQ(t.next_opportunity(TimePoint{msec(6).usec()}).usec(), msec(12).usec());
  // Far in the future: cycle 3 (30ms) + 2ms.
  EXPECT_EQ(t.next_opportunity(TimePoint{msec(31).usec()}).usec(), msec(32).usec());
}

TEST(DeliveryTrace, AverageRate) {
  // 10 opportunities of 1500 bytes over 10 ms = 12 Mbit/s.
  std::vector<Duration> opp;
  for (int i = 1; i <= 10; ++i) opp.push_back(msec(i));
  DeliveryTrace t{std::move(opp), msec(10)};
  EXPECT_NEAR(t.average_rate_mbps(), 12.0, 1e-9);
}

TEST(DeliveryTrace, MahimahiRoundTrip) {
  DeliveryTrace t{{msec(1), msec(3), msec(3), msec(7)}, msec(7)};
  const std::string text = t.to_mahimahi();
  EXPECT_EQ(text, "1\n3\n3\n7\n");
  const DeliveryTrace back = DeliveryTrace::from_mahimahi(text);
  EXPECT_EQ(back.opportunities_per_period(), 4u);
  EXPECT_EQ(back.period().usec(), msec(7).usec());
}

TEST(DeliveryTrace, MahimahiRejectsBadInput) {
  EXPECT_THROW(DeliveryTrace::from_mahimahi(""), std::runtime_error);
  EXPECT_THROW(DeliveryTrace::from_mahimahi("abc\n"), std::runtime_error);
  EXPECT_THROW(DeliveryTrace::from_mahimahi("5\n3\n"), std::runtime_error);
  EXPECT_THROW(DeliveryTrace::from_mahimahi("5 junk\n"), std::runtime_error);
  // Timestamps past a quarter of the int64 microsecond range, whose cap
  // is 2305843009213693 ms: INT64_MAX, the first ms whose microsecond
  // value overflows, the last one that fits (a cursor looking one period
  // ahead overflows), and the first past the cap.  The error quotes the
  // line.
  for (const std::string line :
       {"9223372036854775807", "9223372036854776", "9223372036854775", "2305843009213694"}) {
    try {
      (void)DeliveryTrace::from_mahimahi("1\n" + line + "\n");
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos) << e.what();
    }
  }
  EXPECT_NO_THROW((void)DeliveryTrace::from_mahimahi("2305843009213693\n"));
  // CRLF line endings still parse.
  EXPECT_EQ(DeliveryTrace::from_mahimahi("1\r\n3\r\n").opportunities_per_period(), 2u);
}

TEST(DeliveryTrace, FileSaveLoadRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "mn_trace_test.trace").string();
  DeliveryTrace t{{msec(1), msec(4), msec(9)}, msec(9)};
  t.save(path);
  const DeliveryTrace back = DeliveryTrace::load(path);
  EXPECT_EQ(back.to_mahimahi(), t.to_mahimahi());
  EXPECT_EQ(back.period().usec(), t.period().usec());
  std::remove(path.c_str());
}

TEST(DeliveryTrace, LoadMissingFileThrows) {
  EXPECT_THROW(DeliveryTrace::load("/nonexistent/nope.trace"), std::runtime_error);
}

TEST(DeliveryTrace, MahimahiZeroOnlyTraceGetsMinimumPeriod) {
  const DeliveryTrace t = DeliveryTrace::from_mahimahi("0\n");
  EXPECT_GE(t.period().usec(), msec(1).usec());
}

}  // namespace
}  // namespace mn
