// Tests for the snapshot diff library (src/obs/stats_diff): the JSON
// parser over the snapshot grammar, BENCH-wrapper unwrapping, regression
// detection with thresholds and ignore prefixes, and malformed-input
// rejection — the gate scripts/check.sh relies on (ISSUE 9).
#include "obs/stats_diff.h"

#include <string>

#include <gtest/gtest.h>

namespace gelc {
namespace {

obs::ParsedSnapshot MustParse(const std::string& json) {
  obs::ParsedSnapshot snap;
  Status s = obs::ParseSnapshotJson(json, &snap);
  EXPECT_TRUE(s.ok()) << s.message();
  return snap;
}

TEST(JsonParserTest, ParsesScalarsArraysAndObjects) {
  obs::JsonValue v;
  ASSERT_TRUE(obs::ParseJson("  {\"a\": [1, -2.5, true, null, \"x\"]} ", &v)
                  .ok());
  ASSERT_EQ(v.kind, obs::JsonValue::Kind::kObject);
  const obs::JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 5u);
  EXPECT_TRUE(a->array[0].is_int);
  EXPECT_EQ(a->array[0].int_value, 1);
  EXPECT_FALSE(a->array[1].is_int);
  EXPECT_EQ(a->array[1].number_value, -2.5);
  EXPECT_EQ(a->array[2].kind, obs::JsonValue::Kind::kBool);
  EXPECT_TRUE(a->array[2].bool_value);
  EXPECT_EQ(a->array[3].kind, obs::JsonValue::Kind::kNull);
  EXPECT_EQ(a->array[4].string_value, "x");
}

TEST(JsonParserTest, UnescapesStringEscapes) {
  obs::JsonValue v;
  ASSERT_TRUE(obs::ParseJson("\"a\\\"b\\\\c\\n\\u0041\"", &v).ok());
  EXPECT_EQ(v.string_value, "a\"b\\c\nA");
}

TEST(JsonParserTest, LargeCounterValuesKeepIntegerExactness) {
  obs::JsonValue v;
  // 2^53 + 1 is not representable as a double; is_int must preserve it.
  ASSERT_TRUE(obs::ParseJson("9007199254740993", &v).ok());
  ASSERT_TRUE(v.is_int);
  EXPECT_EQ(v.int_value, 9007199254740993LL);
}

TEST(JsonParserTest, RejectsMalformedInput) {
  obs::JsonValue v;
  EXPECT_FALSE(obs::ParseJson("", &v).ok());
  EXPECT_FALSE(obs::ParseJson("{", &v).ok());
  EXPECT_FALSE(obs::ParseJson("{\"a\": }", &v).ok());
  EXPECT_FALSE(obs::ParseJson("{\"a\": 1} trailing", &v).ok());
  EXPECT_FALSE(obs::ParseJson("{\"a\" 1}", &v).ok());
  EXPECT_FALSE(obs::ParseJson("\"unterminated", &v).ok());
  EXPECT_FALSE(obs::ParseJson("\"bad \\u00zz escape\"", &v).ok());
  // Numbers that overflow to infinity are rejected, as in GEL's lexer.
  EXPECT_FALSE(obs::ParseJson("{\"a\":1e999}", &v).ok());
  EXPECT_FALSE(obs::ParseJson("[-1e999]", &v).ok());
}

TEST(ParseSnapshotTest, ReadsAllFourSections) {
  obs::ParsedSnapshot snap = MustParse(
      "{\"counters\": {\"x.calls\": 3}, \"gauges\": {\"g\": 1.5}, "
      "\"histograms\": {\"h\": {\"bounds\": [1], \"counts\": [1, 0], "
      "\"total\": 1, \"sum\": 1}}, "
      "\"timings\": {\"t\": {\"count\": 2, \"sum_ns\": 10, \"p50_ns\": 4, "
      "\"p90_ns\": 5, \"p99_ns\": 5}}}");
  EXPECT_EQ(snap.counters.at("x.calls"), 3);
  EXPECT_EQ(snap.gauges.at("g"), 1.5);
  ASSERT_EQ(snap.histograms.count("h"), 1u);
  ASSERT_EQ(snap.timings.count("t"), 1u);
  EXPECT_EQ(snap.timings.at("t").Find("count")->int_value, 2);
}

TEST(ParseSnapshotTest, UnwrapsBenchWrapper) {
  obs::ParsedSnapshot snap = MustParse(
      "{\"gelc_metrics\": {\"counters\": {\"spmm.calls\": 7}, "
      "\"gauges\": {}, \"histograms\": {}}, "
      "\"benchmarks\": [{\"name\": \"BM_SpMM\", \"real_time\": 1.0}]}");
  EXPECT_EQ(snap.counters.at("spmm.calls"), 7);
}

TEST(ParseSnapshotTest, RejectsNonObjectAndBadWrapper) {
  obs::ParsedSnapshot snap;
  EXPECT_FALSE(obs::ParseSnapshotJson("[1, 2]", &snap).ok());
  EXPECT_FALSE(
      obs::ParseSnapshotJson("{\"gelc_metrics\": 5}", &snap).ok());
}

TEST(DiffTest, InjectedCounterRegressionExitsNonzeroPath) {
  // The acceptance-criteria case: a counter grew past the threshold, the
  // report names it, and the regression list is non-empty (gelc_stats
  // --diff maps that to a nonzero exit).
  obs::ParsedSnapshot old_snap =
      MustParse("{\"counters\": {\"matmul.flops\": 1000, \"spmm.calls\": 4}}");
  obs::ParsedSnapshot new_snap =
      MustParse("{\"counters\": {\"matmul.flops\": 1500, \"spmm.calls\": 4}}");
  obs::DiffOptions options;
  options.threshold = 0.1;
  obs::DiffReport report = obs::DiffSnapshots(old_snap, new_snap, options);
  ASSERT_EQ(report.regressions.size(), 1u);
  EXPECT_EQ(report.regressions[0], "matmul.flops");
  EXPECT_NE(report.text.find("REGRESSION"), std::string::npos);
}

TEST(DiffTest, EqualSnapshotsAndWithinThresholdAreClean) {
  obs::ParsedSnapshot snap =
      MustParse("{\"counters\": {\"matmul.flops\": 1000}}");
  obs::DiffReport same = obs::DiffSnapshots(snap, snap, {});
  EXPECT_TRUE(same.regressions.empty());
  // +50% under a 0.6 threshold: reported as a delta, not a regression.
  obs::ParsedSnapshot grown =
      MustParse("{\"counters\": {\"matmul.flops\": 1500}}");
  obs::DiffOptions loose;
  loose.threshold = 0.6;
  EXPECT_TRUE(obs::DiffSnapshots(snap, grown, loose).regressions.empty());
}

TEST(DiffTest, DecreasesNewAndVanishedCountersNeverGate) {
  obs::ParsedSnapshot old_snap =
      MustParse("{\"counters\": {\"a\": 100, \"gone\": 5}}");
  obs::ParsedSnapshot new_snap =
      MustParse("{\"counters\": {\"a\": 50, \"fresh\": 9}}");
  obs::DiffReport report = obs::DiffSnapshots(old_snap, new_snap, {});
  EXPECT_TRUE(report.regressions.empty());
  EXPECT_NE(report.text.find("+ fresh"), std::string::npos);
  EXPECT_NE(report.text.find("- gone"), std::string::npos);
}

TEST(DiffTest, IgnorePrefixesExcludeFromGateAndReport) {
  obs::ParsedSnapshot old_snap = MustParse(
      "{\"counters\": {\"parallel.tasks_scheduled\": 3, \"x\": 1}}");
  obs::ParsedSnapshot new_snap = MustParse(
      "{\"counters\": {\"parallel.tasks_scheduled\": 30, \"x\": 1}}");
  obs::DiffOptions options;
  options.ignore = {"parallel."};
  obs::DiffReport report = obs::DiffSnapshots(old_snap, new_snap, options);
  EXPECT_TRUE(report.regressions.empty());
  EXPECT_EQ(report.text.find("parallel.tasks_scheduled"), std::string::npos);
}

TEST(DiffTest, TimingsArePrintedButNeverGated) {
  obs::ParsedSnapshot old_snap = MustParse(
      "{\"counters\": {}, \"timings\": {\"plan_exec\": {\"count\": 5, "
      "\"sum_ns\": 100, \"p50_ns\": 10, \"p90_ns\": 20, \"p99_ns\": 20}}}");
  obs::ParsedSnapshot new_snap = MustParse(
      "{\"counters\": {}, \"timings\": {\"plan_exec\": {\"count\": 5, "
      "\"sum_ns\": 900, \"p50_ns\": 90, \"p90_ns\": 180, "
      "\"p99_ns\": 180}}}");
  obs::DiffReport report = obs::DiffSnapshots(old_snap, new_snap, {});
  EXPECT_TRUE(report.regressions.empty());  // a 9x p50 blowup never gates
  EXPECT_NE(report.text.find("plan_exec"), std::string::npos);
}

TEST(DiffTest, ReportIsDeterministic) {
  obs::ParsedSnapshot a = MustParse("{\"counters\": {\"m\": 2, \"a\": 1}}");
  obs::ParsedSnapshot b = MustParse("{\"counters\": {\"a\": 1, \"m\": 3}}");
  obs::DiffReport r1 = obs::DiffSnapshots(a, b, {});
  obs::DiffReport r2 = obs::DiffSnapshots(a, b, {});
  EXPECT_EQ(r1.text, r2.text);
  // Sorted by name: "a" reported before "m".
  EXPECT_LT(r1.text.find("a: 1"), r1.text.find("m: 2"));
}

}  // namespace
}  // namespace gelc
