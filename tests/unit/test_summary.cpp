// Unit tests for the column-statistics engine (analysis/summary.hpp):
// Welford accumulation against hand-computed mean/stddev/cov, the
// single-sample and zero-mean edge cases, non-numeric label columns
// (pass-through and group-by) in ColumnSummary, --stats list parsing, and
// the expanded header/row shape the replicated sweep aggregate is built
// from.

#include "analysis/summary.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

namespace tfmcc::summary {
namespace {

TEST(Welford, MatchesHandComputedStatistics) {
  // Samples 2, 4, 4, 4, 5, 5, 7, 9: mean 5, sample variance 32/7.
  Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_EQ(w.count(), 8u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_NEAR(w.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_NEAR(w.cov(), std::sqrt(32.0 / 7.0) / 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 9.0);
}

TEST(Welford, SingleSampleHasZeroDispersion) {
  Welford w;
  w.add(42.5);
  EXPECT_DOUBLE_EQ(w.mean(), 42.5);
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(w.cov(), 0.0);
  EXPECT_DOUBLE_EQ(w.min(), 42.5);
  EXPECT_DOUBLE_EQ(w.max(), 42.5);
}

TEST(Welford, ZeroMeanYieldsZeroCov) {
  // stddev/|mean| is undefined at mean 0; the engine pins it to 0 instead
  // of emitting inf/nan into the aggregate CSV.
  Welford w;
  w.add(-1.0);
  w.add(1.0);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_GT(w.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(w.cov(), 0.0);
}

TEST(Welford, NegativeMeanUsesAbsoluteValueForCov) {
  Welford w;
  w.add(-4.0);
  w.add(-6.0);
  EXPECT_DOUBLE_EQ(w.mean(), -5.0);
  EXPECT_NEAR(w.cov(), std::sqrt(2.0) / 5.0, 1e-12);
}

TEST(Welford, EmptyAccumulatorReportsZeros) {
  const Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(w.min(), 0.0);
  EXPECT_DOUBLE_EQ(w.max(), 0.0);
}

TEST(Welford, ValueDispatchesByStat) {
  Welford w;
  w.add(1.0);
  w.add(3.0);
  EXPECT_DOUBLE_EQ(w.value(Stat::kMean), w.mean());
  EXPECT_DOUBLE_EQ(w.value(Stat::kStddev), w.stddev());
  EXPECT_DOUBLE_EQ(w.value(Stat::kCov), w.cov());
  EXPECT_DOUBLE_EQ(w.value(Stat::kMin), 1.0);
  EXPECT_DOUBLE_EQ(w.value(Stat::kMax), 3.0);
}

TEST(StatsParse, AcceptsNamesInGivenOrder) {
  std::vector<Stat> stats;
  std::ostringstream err;
  ASSERT_TRUE(parse_stats("max,mean,cov", stats, err)) << err.str();
  EXPECT_EQ(stats, (std::vector<Stat>{Stat::kMax, Stat::kMean, Stat::kCov}));
}

TEST(StatsParse, RejectsUnknownEmptyAndDuplicate) {
  std::vector<Stat> stats;
  std::ostringstream err;
  EXPECT_FALSE(parse_stats("mean,median", stats, err));
  EXPECT_NE(err.str().find("unknown statistic 'median'"), std::string::npos);
  err.str({});
  EXPECT_FALSE(parse_stats("", stats, err));
  EXPECT_NE(err.str().find("unknown statistic"), std::string::npos);
  err.str({});
  EXPECT_FALSE(parse_stats("mean,cov,mean", stats, err));
  EXPECT_NE(err.str().find("duplicate statistic 'mean'"), std::string::npos);
}

TEST(SplitCsv, KeepsEmptyCells) {
  EXPECT_EQ(split_csv("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_csv("a,,c"), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split_csv("x"), (std::vector<std::string>{"x"}));
}

ColumnSummary feed(std::vector<std::string> columns,
                   const std::vector<std::vector<std::string>>& rows) {
  ColumnSummary acc{std::move(columns)};
  std::ostringstream err;
  for (const auto& row : rows) {
    EXPECT_TRUE(acc.add_row(row, err)) << err.str();
  }
  return acc;
}

TEST(ColumnSummary, ExpandsNumericColumnsPerStat) {
  const ColumnSummary acc =
      feed({"t", "kbps"}, {{"1", "100"}, {"2", "300"}, {"3", "200"}});
  const std::vector<Stat> stats{Stat::kMean, Stat::kCov};
  EXPECT_EQ(acc.row_count(), 3u);
  EXPECT_EQ(acc.header(stats), (std::vector<std::string>{
                                   "t_mean", "t_cov", "kbps_mean",
                                   "kbps_cov"}));
  const auto rows = acc.summarize(stats);
  ASSERT_EQ(rows.size(), 1u);  // all-numeric trace: exactly one group
  ASSERT_EQ(rows[0].size(), 4u);
  EXPECT_EQ(rows[0][0], "2");    // mean of 1,2,3
  EXPECT_EQ(rows[0][2], "200");  // mean of 100,300,200
  EXPECT_EQ(rows[0][3], "0.5");  // stddev 100 / mean 200
}

TEST(ColumnSummary, SingleLabelValuePassesThroughUnchanged) {
  const ColumnSummary acc = feed(
      {"proto", "kbps"}, {{"tfmcc", "100"}, {"tfmcc", "200"}});
  const std::vector<Stat> stats{Stat::kMean};
  EXPECT_EQ(acc.header(stats),
            (std::vector<std::string>{"proto", "kbps_mean"}));
  EXPECT_EQ(acc.summarize(stats),
            (std::vector<std::vector<std::string>>{{"tfmcc", "150"}}));
}

TEST(ColumnSummary, LabelColumnGroupsRowsPerDistinctValue) {
  // A per-flow trace must not pool flows into one row under the first
  // flow's label: each distinct label tuple gets its own statistics, in
  // first-appearance order.
  const ColumnSummary acc = feed({"flow", "kbps"}, {{"TFMCC", "100"},
                                                    {"TCP 1", "400"},
                                                    {"TFMCC", "300"},
                                                    {"TCP 1", "600"}});
  const std::vector<Stat> stats{Stat::kMean};
  EXPECT_EQ(acc.header(stats),
            (std::vector<std::string>{"flow", "kbps_mean"}));
  EXPECT_EQ(acc.summarize(stats),
            (std::vector<std::vector<std::string>>{{"TFMCC", "200"},
                                                   {"TCP 1", "500"}}));
}

TEST(ColumnSummary, LateNonNumericCellDemotesTheColumn) {
  // The first rows parse, a later one does not: the column must become a
  // label (grouping rows), not report a half-fed mean.
  const ColumnSummary acc = feed({"v"}, {{"1"}, {"2"}, {"n/a"}, {"2"}});
  const std::vector<Stat> stats{Stat::kMean};
  EXPECT_EQ(acc.header(stats), (std::vector<std::string>{"v"}));
  EXPECT_EQ(acc.summarize(stats),
            (std::vector<std::vector<std::string>>{{"1"}, {"2"}, {"n/a"}}));
}

TEST(ColumnSummary, NonFiniteCellIsNonNumeric) {
  const ColumnSummary acc = feed({"v"}, {{"inf"}, {"2"}});
  EXPECT_EQ(acc.header({Stat::kMean}), (std::vector<std::string>{"v"}));
}

TEST(ColumnSummary, RejectsArityMismatch) {
  ColumnSummary acc{{"a", "b"}};
  std::ostringstream err;
  EXPECT_FALSE(acc.add_row({"1"}, err));
  EXPECT_NE(err.str().find("declares 2 columns"), std::string::npos);
  EXPECT_EQ(acc.row_count(), 0u);
}

TEST(ColumnSummary, DefaultStatsAreMeanAndCov) {
  EXPECT_EQ(default_stats(), (std::vector<Stat>{Stat::kMean, Stat::kCov}));
}

TEST(WelfordMerge, EmptySideCopiesTheOtherBitForBit) {
  Welford a;
  for (double x : {0.1, 0.2, 0.30000000000000004}) a.add(x);
  Welford empty_into_a = a;
  empty_into_a.merge(Welford{});
  Welford b;
  b.merge(a);
  // Serialize both ways: the text carries raw IEEE-754 bit patterns, so
  // equal strings mean bitwise-equal state.
  std::ostringstream sa, sb, sc;
  a.save(sa);
  b.save(sb);
  empty_into_a.save(sc);
  EXPECT_EQ(sb.str(), sa.str());
  EXPECT_EQ(sc.str(), sa.str());
}

TEST(WelfordMerge, DisjointHalvesMatchSequentialFeedClosely) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  Welford whole, left, right;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    whole.add(xs[i]);
    (i < xs.size() / 2 ? left : right).add(xs[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.stddev(), whole.stddev(), 1e-12);
  // Count and extrema combine exactly, not approximately.
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(WelfordSerialize, SaveLoadRoundTripIsBitExact) {
  Welford w;
  for (double x : {1e-300, -0.0, 3.5, 1e300}) w.add(x);
  std::ostringstream os;
  w.save(os);
  std::istringstream is{os.str()};
  Welford back;
  ASSERT_TRUE(Welford::load(is, back));
  std::ostringstream os2;
  back.save(os2);
  EXPECT_EQ(os2.str(), os.str());
  EXPECT_EQ(back.count(), w.count());
  EXPECT_EQ(back.mean(), w.mean());
}

TEST(WelfordSerialize, LoadRejectsTruncatedAndForeignStreams) {
  std::ostringstream os;
  Welford{}.save(os);
  const std::string text = os.str();
  for (std::size_t len = 0; len < text.size(); ++len) {
    std::istringstream is{text.substr(0, len)};
    Welford out;
    EXPECT_FALSE(Welford::load(is, out)) << "prefix " << len;
  }
  std::istringstream wrong{"CS1 0  0"};
  Welford out;
  EXPECT_FALSE(Welford::load(wrong, out));
}

TEST(StrIo, RoundTripsEmptyAndBinaryishStrings) {
  for (const std::string& s :
       {std::string{}, std::string{"plain"}, std::string{"with spaces\nand "
                                                         "newlines:colons"}}) {
    std::ostringstream os;
    write_str(os, s);
    std::istringstream is{os.str()};
    std::string back;
    ASSERT_TRUE(read_str(is, back));
    EXPECT_EQ(back, s);
  }
}

TEST(StrIo, RejectsTruncatedPayload) {
  std::istringstream is{"10:short"};
  std::string out;
  EXPECT_FALSE(read_str(is, out));
}

ColumnSummary sample_summary() {
  ColumnSummary cs{{"flow", "kbps"}};
  std::ostringstream err;
  EXPECT_TRUE(cs.add_row({"alpha", "100"}, err));
  EXPECT_TRUE(cs.add_row({"beta", "not-a-number"}, err));
  EXPECT_TRUE(cs.add_row({"alpha", "300"}, err));
  return cs;
}

std::string saved(const ColumnSummary& cs) {
  std::ostringstream os;
  cs.save(os);
  return os.str();
}

TEST(ColumnSummarySerialize, SaveLoadRoundTripReproducesStateExactly) {
  const ColumnSummary cs = sample_summary();
  std::istringstream is{saved(cs)};
  ColumnSummary back{{}};
  std::string err;
  ASSERT_TRUE(ColumnSummary::load(is, back, err)) << err;
  EXPECT_EQ(saved(back), saved(cs));
  EXPECT_EQ(back.columns(), cs.columns());
  EXPECT_EQ(back.numeric_mask(), cs.numeric_mask());
  EXPECT_EQ(back.rows(), cs.rows());
}

TEST(ColumnSummarySerialize, RaggedUncheckedRowsSurviveTheRoundTrip) {
  ColumnSummary cs{{"a", "b"}};
  cs.add_row_unchecked({"1", "2", "3"});
  cs.add_row_unchecked({"only"});
  std::istringstream is{saved(cs)};
  ColumnSummary back{{}};
  std::string err;
  ASSERT_TRUE(ColumnSummary::load(is, back, err)) << err;
  EXPECT_EQ(back.rows(), cs.rows());
}

TEST(ColumnSummarySerialize, LoadDiagnosesTruncation) {
  // Every proper prefix except the one missing only the cosmetic trailing
  // newline (token parsing does not need it) must fail with a diagnostic.
  const std::string text = saved(sample_summary());
  for (std::size_t len = 0; len + 1 < text.size(); ++len) {
    std::istringstream is{text.substr(0, len)};
    ColumnSummary out{{}};
    std::string err;
    EXPECT_FALSE(ColumnSummary::load(is, out, err)) << "prefix " << len;
    EXPECT_FALSE(err.empty());
  }
}

TEST(ColumnSummaryAbsorb, EqualsFeedingAllRowsToOneAccumulator) {
  ColumnSummary whole{{"flow", "kbps"}};
  ColumnSummary left{{"flow", "kbps"}};
  ColumnSummary right{{"flow", "kbps"}};
  std::ostringstream err;
  const std::vector<std::vector<std::string>> rows{
      {"alpha", "10"}, {"beta", "oops"}, {"alpha", "30"}, {"beta", "40"}};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(whole.add_row(rows[i], err));
    ASSERT_TRUE((i < 2 ? left : right).add_row(rows[i], err));
  }
  ASSERT_TRUE(left.absorb(right, err)) << err.str();
  EXPECT_EQ(saved(left), saved(whole));
}

TEST(ColumnSummaryAbsorb, IsExactlyAssociative) {
  // ((a+b)+c) and (a+(b+c)) must serialize identically: merge order across
  // shards must not leak into the output bytes.
  auto make = [](std::initializer_list<const char*> values) {
    ColumnSummary cs{{"v"}};
    std::ostringstream err;
    for (const char* v : values) EXPECT_TRUE(cs.add_row({v}, err));
    return cs;
  };
  const ColumnSummary a = make({"1.25", "2.5"});
  const ColumnSummary b = make({"7e-3"});
  const ColumnSummary c = make({"42", "mixed", "0"});
  std::ostringstream err;
  ColumnSummary ab_c = a;
  ASSERT_TRUE(ab_c.absorb(b, err));
  ASSERT_TRUE(ab_c.absorb(c, err));
  ColumnSummary bc = b;
  ASSERT_TRUE(bc.absorb(c, err));
  ColumnSummary a_bc = a;
  ASSERT_TRUE(a_bc.absorb(bc, err));
  std::ostringstream s1, s2;
  ab_c.save(s1);
  a_bc.save(s2);
  EXPECT_EQ(s1.str(), s2.str());
}

TEST(ColumnSummaryAbsorb, RefusesMismatchedHeaders) {
  ColumnSummary a{{"x"}};
  ColumnSummary b{{"y"}};
  std::ostringstream err;
  EXPECT_FALSE(a.absorb(b, err));
  EXPECT_NE(err.str().find("different headers"), std::string::npos);
}

}  // namespace
}  // namespace tfmcc::summary
