#include "eval/cdf.hpp"
#include "eval/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace roarray::eval {
namespace {

TEST(Cdf, EmptyBehaviour) {
  const Cdf c;
  EXPECT_TRUE(c.empty());
  EXPECT_THROW(c.median(), std::domain_error);
  EXPECT_THROW(c.mean(), std::domain_error);
  EXPECT_THROW(c.fraction_below(1.0), std::domain_error);
}

TEST(Cdf, RejectsNonFinite) {
  EXPECT_THROW(Cdf({1.0, std::nan("")}), std::invalid_argument);
  EXPECT_THROW(Cdf({INFINITY}), std::invalid_argument);
}

TEST(Cdf, SingleSample) {
  const Cdf c({3.0});
  EXPECT_DOUBLE_EQ(c.median(), 3.0);
  EXPECT_DOUBLE_EQ(c.percentile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(c.percentile(1.0), 3.0);
}

TEST(Cdf, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Cdf({3.0, 1.0, 2.0}).median(), 2.0);
  EXPECT_DOUBLE_EQ(Cdf({4.0, 1.0, 2.0, 3.0}).median(), 2.5);
}

TEST(Cdf, PercentileInterpolatesLinearly) {
  const Cdf c({0.0, 10.0});
  EXPECT_DOUBLE_EQ(c.percentile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(c.percentile(0.9), 9.0);
}

TEST(Cdf, PercentileArgChecked) {
  const Cdf c({1.0});
  EXPECT_THROW(c.percentile(-0.1), std::invalid_argument);
  EXPECT_THROW(c.percentile(1.1), std::invalid_argument);
}

TEST(Cdf, MinMaxMean) {
  const Cdf c({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(c.min(), 1.0);
  EXPECT_DOUBLE_EQ(c.max(), 5.0);
  EXPECT_DOUBLE_EQ(c.mean(), 3.0);
}

TEST(Cdf, FractionBelow) {
  const Cdf c({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(c.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.fraction_below(2.0), 0.5);
  EXPECT_DOUBLE_EQ(c.fraction_below(10.0), 1.0);
}

TEST(Cdf, MonotonePercentiles) {
  const Cdf c({0.3, 2.0, 0.7, 5.5, 1.1, 4.2, 3.3});
  double prev = c.percentile(0.0);
  for (double f = 0.05; f <= 1.0; f += 0.05) {
    const double v = c.percentile(f);
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
}

TEST(Report, CdfTableContainsCurvesAndRows) {
  std::ostringstream os;
  print_cdf_table(os, "Fig test", {{"roarray", Cdf({0.5, 1.0})},
                                   {"spotfi", Cdf({1.5, 3.0})}},
                  {0.5, 0.9}, "m");
  const std::string s = os.str();
  EXPECT_NE(s.find("Fig test"), std::string::npos);
  EXPECT_NE(s.find("roarray"), std::string::npos);
  EXPECT_NE(s.find("50%"), std::string::npos);
  EXPECT_NE(s.find("90%"), std::string::npos);
}

TEST(Report, CdfTableHandlesEmptyCurve) {
  std::ostringstream os;
  print_cdf_table(os, "t", {{"empty", Cdf{}}}, {0.5}, "m");
  EXPECT_NE(os.str().find("n/a"), std::string::npos);
}

TEST(Report, SummaryListsAllCurves) {
  std::ostringstream os;
  print_cdf_summary(os, {{"a", Cdf({1.0})}, {"b", Cdf({2.0, 4.0})}}, "deg");
  const std::string s = os.str();
  EXPECT_NE(s.find("median"), std::string::npos);
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("n=2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JsonWriter edge cases: escaping, non-finite doubles, structure checks.

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("a\"b\\c");
  w.value(std::string_view("line\nbreak\ttab \x01 bell\x07"));
  w.end_object();
  const std::string s = os.str();
  EXPECT_NE(s.find("a\\\"b\\\\c"), std::string::npos);
  EXPECT_NE(s.find("line\\nbreak\\ttab \\u0001 bell\\u0007"), std::string::npos);
  EXPECT_TRUE(w.complete());
}

TEST(JsonWriter, NonFiniteDoublesEmitNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  w.value(std::nan(""));
  w.value(INFINITY);
  w.value(-INFINITY);
  w.value(1.5);
  w.end_array();
  const std::string s = os.str();
  // Three nulls, and never the invalid bare tokens printf would emit.
  std::size_t nulls = 0;
  for (std::size_t pos = s.find("null"); pos != std::string::npos;
       pos = s.find("null", pos + 1)) {
    ++nulls;
  }
  EXPECT_EQ(nulls, 3u);
  EXPECT_EQ(s.find("nan"), std::string::npos);
  EXPECT_EQ(s.find("inf"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
}

TEST(JsonWriter, DoublesRoundTripThroughShortestForm) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  w.value(0.1);
  w.value(1.0 / 3.0);
  w.end_array();
  const std::string s = os.str();
  EXPECT_NE(s.find("0.1"), std::string::npos);
  // The parsed-back value must equal the original exactly.
  const auto third_pos = s.find("0.3");
  ASSERT_NE(third_pos, std::string::npos);
  EXPECT_DOUBLE_EQ(std::stod(s.substr(third_pos)), 1.0 / 3.0);
}

TEST(JsonWriter, StructuralMisuseThrows) {
  {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.value(1.0), std::logic_error);  // value without a key.
  }
  {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close.
  }
  {
    std::ostringstream os;
    JsonWriter w(os);
    w.value(1.0);
    EXPECT_THROW(w.value(2.0), std::logic_error);  // two top-level values.
  }
  {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_array();
    EXPECT_FALSE(w.complete());  // unbalanced: not complete.
  }
}

TEST(Report, SketchProducesRows) {
  std::ostringstream os;
  print_spectrum_sketch(os, {0.0, 1.0, 2.0, 3.0}, {0.0, 1.0, 0.3, 0.0}, 4);
  // Four sketch rows plus axis line.
  int lines = 0;
  for (char ch : os.str()) {
    if (ch == '\n') ++lines;
  }
  EXPECT_GE(lines, 5);
}

}  // namespace
}  // namespace roarray::eval
