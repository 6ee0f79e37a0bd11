// Scenario layer: clang-style diagnostics (file:line:col + did-you-mean),
// canonical serialization round-trips, family validation, gate semantics
// and the shipped gates against the committed records, thread-count
// determinism of RunScenario, and the path-addressed result store's glob
// queries (docs/SCENARIOS.md).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "scenario/diagnostics.h"
#include "scenario/json.h"
#include "scenario/result_store.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sweep/result_table.h"

namespace pw::scenario {
namespace {

// --- diagnostics -----------------------------------------------------------

TEST(Diagnostics, EditDistanceCountsTransposes) {
  EXPECT_EQ(EditDistance("quick", "quick"), 0u);
  EXPECT_EQ(EditDistance("quick", "quik"), 1u);    // delete
  EXPECT_EQ(EditDistance("quick", "qiuck"), 1u);   // transpose
  EXPECT_EQ(EditDistance("quick", "brick"), 2u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
}

TEST(Diagnostics, DidYouMeanBoundsTheSuggestion) {
  const std::vector<std::string> keys = {"name", "family", "sweep"};
  EXPECT_EQ(DidYouMean("famly", keys), "family");
  EXPECT_EQ(DidYouMean("zzzzzz", keys), "");  // nothing plausible
  EXPECT_EQ(DidYouMeanSuffix("famly", keys), "; did you mean 'family'?");
  EXPECT_EQ(DidYouMeanSuffix("zzzzzz", keys), "");
}

TEST(Diagnostics, HeaderCarriesFileLineCol) {
  DiagnosticEngine diags("test.json", "{\n  \"bad\": 1\n}\n");
  diags.Error({2, 3}, "unknown key 'bad'");
  ASSERT_EQ(diags.diagnostics().size(), 1u);
  EXPECT_EQ(diags.diagnostics()[0].Header(),
            "test.json:2:3: error: unknown key 'bad'");
  // Render excerpts the offending line with a caret under column 3.
  const std::string render = diags.Render();
  EXPECT_NE(render.find("  \"bad\": 1"), std::string::npos);
  EXPECT_NE(render.find("^"), std::string::npos);
  EXPECT_FALSE(diags.ok());
}

TEST(Diagnostics, LongLineExcerptIsClippedAroundTheCaret) {
  // A minified one-line file: the excerpt shows a window around the error
  // column, not the whole line, and the caret stays under that column.
  std::string line(200000, 'x');
  line[100000] = '!';
  DiagnosticEngine diags("big.json", line);
  diags.Error({1, 100001}, "unexpected '!'");
  const std::string render = diags.Render();
  EXPECT_LT(render.size(), 512u) << render.size();
  const std::size_t excerpt = render.find('\n') + 1;
  const std::size_t caret_line = render.find('\n', excerpt) + 1;
  const std::string text = render.substr(excerpt, caret_line - 1 - excerpt);
  const std::string caret =
      render.substr(caret_line, render.find('\n', caret_line) - caret_line);
  EXPECT_EQ(text.substr(0, 5), "  ...");
  EXPECT_EQ(text.substr(text.size() - 3), "...");
  ASSERT_EQ(caret.back(), '^');
  EXPECT_EQ(text[caret.size() - 1], '!');
  // Near the start of the line only the tail is cut.
  DiagnosticEngine head("big.json", line);
  head.Error({1, 3}, "bad");
  const std::string head_render = head.Render();
  EXPECT_NE(head_render.find("\n  xxx"), std::string::npos);
  EXPECT_NE(head_render.find("...\n    ^\n"), std::string::npos);
  EXPECT_LT(head_render.size(), 512u);
}

TEST(Diagnostics, NumbersThatOverflowAreRejected) {
  const std::pair<const char*, const char*> cases[] = {
      {"1e999", "number out of range"},
      {"-1e999", "number out of range"},
      {"99999999999999999999", "integer out of range"},
  };
  for (const auto& [number, message] : cases) {
    const std::string text = std::string("{\n  \"x\": ") + number + "\n}\n";
    DiagnosticEngine diags("test.json", text);
    Json root;
    EXPECT_FALSE(ParseJson(text, &root, &diags)) << number;
    ASSERT_EQ(diags.diagnostics().size(), 1u) << number;
    EXPECT_EQ(diags.diagnostics()[0].Header(),
              std::string("test.json:2:8: error: ") + message);
  }
  // Underflow is not an error: the nearest double is a fine stand-in.
  const std::string text = "{ \"x\": 1e-999 }";
  DiagnosticEngine diags("test.json", text);
  Json root;
  ASSERT_TRUE(ParseJson(text, &root, &diags)) << diags.Render();
  EXPECT_EQ(root.Find("x")->number_value(), 0.0);
}

// Parses `text` expecting failure; returns the rendered diagnostics.
std::string ParseExpectingErrors(const std::string& text, Scenario* out,
                                 DiagnosticEngine* diags) {
  *diags = DiagnosticEngine("test.json", text);
  EXPECT_FALSE(ParseScenario(text, out, diags));
  EXPECT_FALSE(diags->ok());
  return diags->Render();
}

TEST(ScenarioParse, SyntaxErrorPointsAtTheOffendingToken) {
  Scenario s;
  DiagnosticEngine diags;
  ParseExpectingErrors("{\n  \"name\": ,\n}\n", &s, &diags);
  ASSERT_GE(diags.diagnostics().size(), 1u);
  EXPECT_EQ(diags.diagnostics()[0].loc.line, 2);
  EXPECT_GT(diags.diagnostics()[0].loc.col, 0);
}

TEST(ScenarioParse, UnknownTopLevelKeySuggestsTheRightOne) {
  Scenario s;
  DiagnosticEngine diags;
  const std::string render = ParseExpectingErrors(
      "{\n"
      "  \"name\": \"t\",\n"
      "  \"famly\": \"faults\",\n"
      "  \"sweep\": { \"axes\": [ { \"name\": \"island_devices\","
      " \"values\": [4] } ] }\n"
      "}\n",
      &s, &diags);
  EXPECT_NE(render.find("unknown key 'famly'; did you mean 'family'?"),
            std::string::npos);
  bool found = false;
  for (const auto& d : diags.diagnostics()) {
    if (d.message.find("'famly'") != std::string::npos) {
      EXPECT_EQ(d.loc.line, 3);
      EXPECT_GT(d.loc.col, 0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ScenarioParse, MissingRequiredSectionsAreErrors) {
  Scenario s;
  DiagnosticEngine diags;
  std::string render = ParseExpectingErrors(
      "{ \"name\": \"t\", \"family\": \"faults\" }\n", &s, &diags);
  EXPECT_NE(render.find("scenario requires a 'sweep' section"),
            std::string::npos);

  render = ParseExpectingErrors(
      "{ \"family\": \"faults\",\n"
      "  \"sweep\": { \"axes\": [ { \"name\": \"a\", \"values\": [1] } ] } }\n",
      &s, &diags);
  EXPECT_NE(render.find("scenario requires a non-empty 'name'"),
            std::string::npos);
}

TEST(ScenarioParse, MistypedFieldReportsWantedAndActualType) {
  Scenario s;
  DiagnosticEngine diags;
  const std::string render = ParseExpectingErrors(
      "{\n"
      "  \"name\": \"t\",\n"
      "  \"family\": \"faults\",\n"
      "  \"faults\": { \"horizon_ms\": \"fast\" },\n"
      "  \"sweep\": { \"axes\": [ { \"name\": \"island_devices\","
      " \"values\": [4] },\n"
      "               { \"name\": \"faults_per_sec\", \"values\": [25] } ] }\n"
      "}\n",
      &s, &diags);
  EXPECT_NE(render.find("key 'horizon_ms' expects number"),
            std::string::npos);
  EXPECT_NE(render.find("test.json:4:"), std::string::npos);
}

// Parses a network scenario whose cluster section is `cluster` and returns
// the diagnostic headers.
std::vector<std::string> ClusterDiagnostics(const std::string& cluster) {
  const std::string text =
      "{ \"name\": \"t\", \"family\": \"network\",\n"
      "  \"cluster\": " + cluster + ",\n"
      "  \"sweep\": { \"axes\": [ { \"name\": \"fan_in\","
      " \"values\": [1] } ] } }\n";
  Scenario s;
  DiagnosticEngine diags("test.json", text);
  ParseScenario(text, &s, &diags);
  std::vector<std::string> headers;
  for (const auto& d : diags.diagnostics()) headers.push_back(d.Header());
  return headers;
}

// hw::Cluster dies on an empty HBM or DRAM pool and on more hosts than a
// paper configuration holds; the parser rejects those values at the value,
// so `pwsim validate` fails and `pwsim run` never reaches the abort.
TEST(ScenarioParse, SubByteHbmCapacityIsRejected) {
  EXPECT_EQ(ClusterDiagnostics(R"({ "hbm_capacity_mib": 0 })"),
            std::vector<std::string>{
                "test.json:2:36: error: key 'hbm_capacity_mib' must be at "
                "least one byte (>= 1/1048576 MiB)"});
  // One byte is enough; 2^63 bytes would overflow the conversion.
  EXPECT_TRUE(ClusterDiagnostics(R"({ "hbm_capacity_mib": 1e-6 })").empty());
  EXPECT_EQ(ClusterDiagnostics(R"({ "hbm_capacity_mib": 8796093022208 })"),
            std::vector<std::string>{
                "test.json:2:36: error: key 'hbm_capacity_mib' must be under "
                "2^63 bytes"});
}

TEST(ScenarioParse, SubByteHostDramCapacityIsRejected) {
  EXPECT_EQ(ClusterDiagnostics(R"({ "host_dram_capacity_mib": 0 })"),
            std::vector<std::string>{
                "test.json:2:42: error: key 'host_dram_capacity_mib' must be "
                "at least one byte (>= 1/1048576 MiB)"});
  // A positive value under one byte truncates to an empty pool.
  EXPECT_EQ(ClusterDiagnostics(R"({ "host_dram_capacity_mib": 1e-7 })").size(),
            1u);
}

TEST(ScenarioParse, HostsBeyondThePresetLimitAreRejected) {
  EXPECT_EQ(
      ClusterDiagnostics(
          R"({ "preset": "config_b", "hosts_per_island": 100 })"),
      std::vector<std::string>{
          "test.json:2:58: error: preset 'config_b' takes at most 64 "
          "hosts_per_island (got 100)"});
  EXPECT_EQ(
      ClusterDiagnostics(
          R"({ "preset": "config_a", "hosts_per_island": 513 })"),
      std::vector<std::string>{
          "test.json:2:58: error: preset 'config_a' takes at most 512 "
          "hosts_per_island (got 513)"});
  // Each limit itself is fine, and the uniform presets have none.
  EXPECT_TRUE(ClusterDiagnostics(
                  R"({ "preset": "config_b", "hosts_per_island": 64 })")
                  .empty());
  EXPECT_TRUE(ClusterDiagnostics(
                  R"({ "preset": "config_a", "hosts_per_island": 512 })")
                  .empty());
  EXPECT_TRUE(ClusterDiagnostics(R"({ "hosts_per_island": 100 })").empty());
}

TEST(ScenarioParse, UnknownFamilyAxisSuggestsDeclaredAxis) {
  Scenario s;
  DiagnosticEngine diags("test.json", "");
  const std::string text =
      "{\n"
      "  \"name\": \"t\",\n"
      "  \"family\": \"multitenant\",\n"
      "  \"sweep\": { \"axes\": [\n"
      "    { \"name\": \"clientz\", \"values\": [2] },\n"
      "    { \"name\": \"rate_scale\", \"values\": [0.5] },\n"
      "    { \"name\": \"policy\", \"values\": [\"drop-tail\"],\n"
      "      \"quick_values\": [\"reject-retyr\"] }\n"
      "  ] }\n"
      "}\n";
  diags = DiagnosticEngine("test.json", text);
  ASSERT_TRUE(ParseScenario(text, &s, &diags)) << diags.Render();
  EXPECT_FALSE(ValidateForFamily(&s, &diags));
  const std::string render = diags.Render();
  EXPECT_NE(render.find("no axis 'clientz'"), std::string::npos);
  EXPECT_NE(render.find("did you mean 'clients'?"), std::string::npos);
  EXPECT_NE(render.find("test.json:5:"), std::string::npos);
  // A table-backed string axis checks its quick values too.
  EXPECT_NE(render.find("test.json:7:5: error: axis 'policy' of family "
                        "'multitenant' has no value 'reject-retyr'; did you "
                        "mean 'reject-retry'?"),
            std::string::npos)
      << render;
}

TEST(ScenarioParse, MissingFamilyAxisIsAnError) {
  Scenario s;
  DiagnosticEngine diags;
  const std::string text =
      "{ \"name\": \"t\", \"family\": \"multitenant\",\n"
      "  \"sweep\": { \"axes\": [ { \"name\": \"clients\","
      " \"values\": [2] } ] } }\n";
  diags = DiagnosticEngine("test.json", text);
  ASSERT_TRUE(ParseScenario(text, &s, &diags)) << diags.Render();
  EXPECT_FALSE(ValidateForFamily(&s, &diags));
  EXPECT_NE(diags.Render().find("rate_scale"), std::string::npos);
}

TEST(ScenarioParse, WholeNumberValuesPromoteOnDoubleAxes) {
  Scenario s;
  DiagnosticEngine diags;
  const std::string text =
      "{ \"name\": \"t\", \"family\": \"multitenant\",\n"
      "  \"sweep\": { \"axes\": [\n"
      "    { \"name\": \"clients\", \"values\": [2] },\n"
      "    { \"name\": \"rate_scale\", \"values\": [1, 4] },\n"
      "    { \"name\": \"policy\", \"values\": [\"drop-tail\"] } ] } }\n";
  diags = DiagnosticEngine("test.json", text);
  ASSERT_TRUE(ParseScenario(text, &s, &diags)) << diags.Render();
  ASSERT_TRUE(ValidateForFamily(&s, &diags)) << diags.Render();
  const auto points = s.Grid(false).Points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].GetDouble("rate_scale"), 1.0);
  EXPECT_DOUBLE_EQ(points[1].GetDouble("rate_scale"), 4.0);
}

// --- declarative fault plans ----------------------------------------------

TEST(ScenarioFaultPlan, ParsesEventsAndRelaxesTheRateAxis) {
  const std::string text =
      "{ \"name\": \"t\", \"family\": \"faults\",\n"
      "  \"faults\": { \"fault_plan\": [\n"
      "    { \"kind\": \"device_crash\", \"at_ms\": 5, \"window_ms\": 2,"
      " \"device\": 1 },\n"
      "    { \"kind\": \"link_degrade\", \"at_ms\": 8, \"window_ms\": 3,"
      " \"host\": 0, \"severity\": 0.5 } ] },\n"
      "  \"sweep\": { \"axes\": [ { \"name\": \"island_devices\","
      " \"values\": [4] } ] } }\n";
  Scenario s;
  DiagnosticEngine diags("test.json", text);
  ASSERT_TRUE(ParseScenario(text, &s, &diags)) << diags.Render();
  ASSERT_EQ(s.faults.full.fault_plan.size(), 2u);
  EXPECT_EQ(s.faults.full.fault_plan[0].kind, "device_crash");
  EXPECT_EQ(s.faults.full.fault_plan[0].device, 1);
  EXPECT_DOUBLE_EQ(s.faults.full.fault_plan[0].at_ms, 5.0);
  EXPECT_EQ(s.faults.full.fault_plan[1].kind, "link_degrade");
  EXPECT_DOUBLE_EQ(s.faults.full.fault_plan[1].severity, 0.5);

  // An explicit plan supersedes the axis-derived one, so faults_per_sec is
  // no longer a required axis (and no deprecation note is emitted).
  ASSERT_TRUE(ValidateForFamily(&s, &diags)) << diags.Render();
  EXPECT_TRUE(diags.diagnostics().empty()) << diags.Render();

  // The plan participates in the canonical fixed point.
  const std::string canon = s.Serialize();
  EXPECT_NE(canon.find("\"fault_plan\""), std::string::npos);
  Scenario s2;
  DiagnosticEngine d2("test.json (canonical)", canon);
  ASSERT_TRUE(ParseScenario(canon, &s2, &d2)) << d2.Render();
  EXPECT_EQ(s2.Serialize(), canon);
  EXPECT_TRUE(s2.faults.full.fault_plan == s.faults.full.fault_plan);
}

TEST(ScenarioFaultPlan, RejectsUnknownKindsAndMisappliedFields) {
  Scenario s;
  DiagnosticEngine diags;
  std::string render = ParseExpectingErrors(
      "{ \"name\": \"t\", \"family\": \"faults\",\n"
      "  \"faults\": { \"fault_plan\": [\n"
      "    { \"kind\": \"device_crsh\", \"at_ms\": 1, \"window_ms\": 1,"
      " \"device\": 0 } ] },\n"
      "  \"sweep\": { \"axes\": [ { \"name\": \"island_devices\","
      " \"values\": [4] } ] } }\n",
      &s, &diags);
  EXPECT_NE(render.find("unknown fault kind 'device_crsh'"),
            std::string::npos);
  EXPECT_NE(render.find("did you mean 'device_crash'?"), std::string::npos);

  render = ParseExpectingErrors(
      "{ \"name\": \"t\", \"family\": \"faults\",\n"
      "  \"faults\": { \"fault_plan\": [\n"
      "    { \"kind\": \"partition\", \"at_ms\": 1, \"window_ms\": 1,"
      " \"host\": 0, \"severity\": 0.5 },\n"
      "    { \"kind\": \"device_crash\", \"at_ms\": 1, \"window_ms\": 1,"
      " \"host\": 0 },\n"
      "    { \"kind\": \"straggler\", \"at_ms\": 1, \"window_ms\": 1,"
      " \"device\": 0, \"severity\": 0.5 } ] },\n"
      "  \"sweep\": { \"axes\": [ { \"name\": \"island_devices\","
      " \"values\": [4] } ] } }\n",
      &s, &diags);
  EXPECT_NE(render.find("'severity' does not apply to kind 'partition'"),
            std::string::npos);
  EXPECT_NE(render.find("'host' does not apply to kind 'device_crash'"),
            std::string::npos);
  EXPECT_NE(render.find("must be >= 1"), std::string::npos);
}

TEST(ScenarioFaultPlan, AxisDerivedPlansStillValidateWithDeprecationNote) {
  const std::string text =
      "{ \"name\": \"t\", \"family\": \"faults\",\n"
      "  \"sweep\": { \"axes\": [\n"
      "    { \"name\": \"island_devices\", \"values\": [4] },\n"
      "    { \"name\": \"faults_per_sec\", \"values\": [25] } ] } }\n";
  Scenario s;
  DiagnosticEngine diags("test.json", text);
  ASSERT_TRUE(ParseScenario(text, &s, &diags)) << diags.Render();
  ASSERT_TRUE(ValidateForFamily(&s, &diags)) << diags.Render();
  bool noted = false;
  for (const auto& d : diags.diagnostics()) {
    noted |= d.severity == Diagnostic::Severity::kNote &&
             d.message.find("fault_plan") != std::string::npos;
  }
  EXPECT_TRUE(noted) << diags.Render();
}

// --- canonical serialization ----------------------------------------------

// Every scenarios/*.json, sorted, so a new file cannot skip the checks.
std::vector<std::string> ShippedScenarioPaths() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(ScenarioDir())) {
    if (entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(ScenarioSerialize, ShippedScenariosRoundTripByteIdentically) {
  const std::vector<std::string> paths = ShippedScenarioPaths();
  ASSERT_FALSE(paths.empty()) << "no scenarios in " << ScenarioDir();
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    Scenario s1;
    DiagnosticEngine d1;
    ASSERT_TRUE(LoadScenarioFile(path, &s1, &d1)) << d1.Render();

    // Serialize is the canonical fixed point: parsing the serialized form
    // and serializing again must be byte-identical.
    const std::string canon = s1.Serialize();
    Scenario s2;
    DiagnosticEngine d2(path + " (canonical)", canon);
    ASSERT_TRUE(ParseScenario(canon, &s2, &d2)) << d2.Render();
    EXPECT_EQ(s2.Serialize(), canon);

    // And the canonical form validates for the same family with the same
    // grid as the hand-written file.
    DiagnosticEngine d3;
    ASSERT_TRUE(ValidateForFamily(&s1, &d3)) << d3.Render();
    ASSERT_TRUE(ValidateForFamily(&s2, &d3)) << d3.Render();
    EXPECT_EQ(s2.family, s1.family);
    for (const bool quick : {false, true}) {
      const auto p1 = s1.Grid(quick).Points();
      const auto p2 = s2.Grid(quick).Points();
      ASSERT_EQ(p1.size(), p2.size());
      for (std::size_t i = 0; i < p1.size(); ++i) {
        EXPECT_EQ(p1[i].Label(), p2[i].Label());
      }
    }
  }
}

// One section key with its value in the full section and in "quick".
struct FieldValues {
  const char* key;
  const char* full;
  const char* quick;
};

// Parses a `family` scenario whose section sets `fields`, and whose cluster
// sets every cluster knob, all to non-default values. Checks that the table
// of S left no field at its default (and "quick" overrides every one), then
// that the specs survive Serialize -> Parse and the canonical form is a
// fixed point. A key missing from S's table fails the first parse.
template <typename S>
void ExpectEveryFieldRoundTrips(const std::string& family,
                                WithQuick<S> Scenario::*section,
                                const std::vector<FieldValues>& fields) {
  SCOPED_TRACE(family);
  std::string full, quick;
  for (const FieldValues& f : fields) {
    full += std::string("    \"") + f.key + "\": " + f.full + ",\n";
    quick += std::string(quick.empty() ? "" : ",\n") + "      \"" + f.key +
             "\": " + f.quick;
  }
  const std::string text =
      "{ \"name\": \"t\", \"family\": \"" + family + "\",\n"
      "  \"cluster\": { \"preset\": \"config_a\", \"islands\": 3,\n"
      "    \"hosts_per_island\": 5, \"devices_per_host\": 4,\n"
      "    \"host_jitter_frac\": 0.25, \"hbm_capacity_mib\": 1536.5,\n"
      "    \"host_dram_capacity_mib\": 8192,\n"
      "    \"ici_flow\": { \"enabled\": true, \"dims\": 3 },\n"
      "    \"dcn_clos\": { \"enabled\": true, \"hosts_per_leaf\": 4,\n"
      "                  \"num_spines\": 2, \"oversubscription\": 2.5 } },\n"
      "  \"" + family + "\": {\n" + full + "    \"quick\": {\n" + quick +
      " } },\n"
      "  \"sweep\": { \"axes\": [ { \"name\": \"a\", \"values\": [1] } ] } }\n";
  Scenario s1;
  DiagnosticEngine d1("test.json", text);
  ASSERT_TRUE(ParseScenario(text, &s1, &d1)) << d1.Render() << text;
  const WithQuick<S>& parsed = s1.*section;
  EXPECT_FALSE(s1.cluster == ClusterSpec{});
  std::apply(
      [&](const auto&... f) {
        const S defaults;
        const auto check = [&](const auto& field) {
          EXPECT_TRUE(parsed.full.*field.member != defaults.*field.member)
              << field.key << " is left at its default";
          EXPECT_TRUE(parsed.quick.*field.member != parsed.full.*field.member)
              << field.key << " is not overridden by quick";
        };
        (check(f), ...);
      },
      S::kFields);

  const std::string canon = s1.Serialize();
  Scenario s2;
  DiagnosticEngine d2("test.json (canonical)", canon);
  ASSERT_TRUE(ParseScenario(canon, &s2, &d2)) << d2.Render() << canon;
  EXPECT_TRUE((s2.*section).full == parsed.full);
  EXPECT_TRUE((s2.*section).quick == parsed.quick);
  EXPECT_TRUE(s2.cluster == s1.cluster);
  EXPECT_EQ(s2.Serialize(), canon);
}

TEST(ScenarioSerialize, EveryFieldRoundTripsInFullAndQuick) {
  ExpectEveryFieldRoundTrips<MultitenantSpec>(
      "multitenant", &Scenario::multitenant,
      {{"warmup_ms", "7.5", "1"}, {"horizon_ms", "90.5", "10.5"}});
  ExpectEveryFieldRoundTrips<FaultsSpec>(
      "faults", &Scenario::faults,
      {{"horizon_ms", "120.5", "40"},
       {"fault_plan",
        R"([ { "kind": "device_crash", "at_ms": 5, "window_ms": 0,)"
        R"( "device": 1 },)"
        R"( { "kind": "straggler", "at_ms": 6, "window_ms": 1, "device": 2,)"
        R"( "severity": 2.5 },)"
        R"( { "kind": "link_degrade", "at_ms": 7.5, "window_ms": 2,)"
        R"( "host": 1, "severity": 0.25 },)"
        R"( { "kind": "partition", "at_ms": 8, "window_ms": 3, "host": 0 } ])",
        R"([ { "kind": "partition", "at_ms": 1, "window_ms": 1, "host": 2 } ])"}});
  ExpectEveryFieldRoundTrips<OversubSpec>(
      "oversub", &Scenario::oversub, {{"requests_per_tenant", "12", "3"}});
  ExpectEveryFieldRoundTrips<ServingSpec>("serving", &Scenario::serving,
                                          {{"horizon_ms", "6.5", "2"}});
  ExpectEveryFieldRoundTrips<DisaggSpec>("serving_disagg", &Scenario::disagg,
                                         {{"horizon_ms", "250.5", "20"}});
}

// A section field exists only while a shipped scenario sets it: every field
// of every family section is set to a non-default value by some
// scenarios/*.json, in the full section or in its "quick" overlay. A field
// no scenario sets belongs in its family_*.cpp as a named constant.
TEST(ScenarioSchema, EverySectionFieldIsSetByAShippedScenario) {
  std::vector<Scenario> shipped;
  for (const std::string& path : ShippedScenarioPaths()) {
    Scenario s;
    DiagnosticEngine diags;
    ASSERT_TRUE(LoadScenarioFile(path, &s, &diags)) << diags.Render();
    shipped.push_back(std::move(s));
  }
  ASSERT_FALSE(shipped.empty()) << "no scenarios in " << ScenarioDir();
  const auto check_section = [&](const auto& section) {
    using Spec =
        std::remove_cvref_t<decltype((Scenario{}.*section.member).full)>;
    const auto check_field = [&](const auto& field) {
      const Spec defaults;
      bool set = false;
      for (const Scenario& s : shipped) {
        const auto& sec = s.*section.member;
        set |= sec.full.*field.member != defaults.*field.member ||
               sec.quick.*field.member != defaults.*field.member;
      }
      EXPECT_TRUE(set) << section.key << "." << field.key
                       << " is set by no shipped scenario";
    };
    std::apply([&](const auto&... f) { (check_field(f), ...); },
               Spec::kFields);
  };
  std::apply([&](const auto&... sec) { (check_section(sec), ...); },
             kSections);
}

// --- gates -----------------------------------------------------------------

TEST(ScenarioGates, MalformedGatesAreDiagnosed) {
  Scenario s;
  DiagnosticEngine diags;
  const std::string render = ParseExpectingErrors(
      "{ \"name\": \"t\", \"family\": \"network\",\n"
      "  \"sweep\": { \"axes\": [ { \"name\": \"fan_in\", \"values\": [1] } ] },\n"
      "  \"gates\": [\n"
      "    { \"max\": 1 },\n"
      "    { \"select\": \"summary/a\" },\n"
      "    { \"select\": \"summary/a\", \"mx\": 1 },\n"
      "    { \"select\": \"summary/a\", \"min\": 2, \"max\": 1 },\n"
      "    { \"select\": \"summary/a\", \"max\": \"summary/*\" } ] }\n",
      &s, &diags);
  const std::pair<int, const char*> expected[] = {
      {4, "gate requires a non-empty 'select' path"},
      {5, "gate requires a 'min' or 'max' bound"},
      {6, "unknown key 'mx'; did you mean 'max'?"},
      {7, "gate 'min' is greater than 'max'"},
      {8, "gate 'max' must be a literal result path, not a glob"},
  };
  for (const auto& [line, message] : expected) {
    bool found = false;
    for (const auto& d : diags.diagnostics()) {
      found |= d.loc.line == line && d.message == message;
    }
    EXPECT_TRUE(found) << "line " << line << ": " << message << "\n"
                       << render;
  }
}

// Parses a network scenario named `name` whose "gates" array is `gates`.
Scenario ScenarioWithGates(const std::string& name, const std::string& gates) {
  const std::string text =
      "{ \"name\": \"" + name + "\", \"family\": \"network\",\n"
      "  \"sweep\": { \"axes\": [ { \"name\": \"fan_in\", \"values\": [1] } ] },\n"
      "  \"gates\": [" + gates + "] }\n";
  Scenario s;
  DiagnosticEngine diags("test.json", text);
  EXPECT_TRUE(ParseScenario(text, &s, &diags)) << diags.Render();
  return s;
}

TEST(ScenarioGates, SemanticsOverTheResultStore) {
  ResultStore store;
  std::string error;
  ASSERT_TRUE(store.LoadBenchText(
      "{ \"bench\": \"g\", \"schema_version\": 1,\n"
      "  \"summary\": { \"ok\": 1, \"tol\": 0.1, \"err\": 0.1 },\n"
      "  \"series\": [ { \"params\": { \"n\": 1 }, \"metrics\": { \"x\": 2 } },\n"
      "              { \"params\": { \"n\": 2 }, \"metrics\": { \"x\": 3 } } ] }\n",
      "inline", &error))
      << error;
  const struct {
    const char* gate;
    bool pass;
  } cases[] = {
      // Bounds are inclusive, on numbers and on result paths.
      {R"({ "select": "summary/ok", "min": 1, "max": 1 })", true},
      {R"({ "select": "summary/ok", "min": 1.5 })", false},
      {R"({ "select": "summary/err", "max": "summary/tol" })", true},
      {R"({ "select": "summary/ok", "max": "summary/err" })", false},
      // A literal select or path bound must resolve to exactly one value.
      {R"({ "select": "summary/missing", "min": 0 })", false},
      {R"({ "select": "summary/ok", "max": "summary/missing" })", false},
      // A glob checks every match, and may match none.
      {R"({ "select": "*/x", "min": 2, "max": 3 })", true},
      {R"({ "select": "*/x", "max": 2.5 })", false},
      {R"({ "select": "*/nothing", "min": 5 })", true},
  };
  for (const auto& c : cases) {
    const std::vector<GateResult> r =
        CheckGates(ScenarioWithGates("g", c.gate), store);
    ASSERT_EQ(r.size(), 1u) << c.gate;
    EXPECT_EQ(r[0].pass, c.pass) << r[0].line;
    EXPECT_EQ(r[0].line.rfind(c.pass ? "PASS " : "FAIL ", 0), 0u) << r[0].line;
  }
  // The failing glob value is named by its full path.
  const auto r = CheckGates(
      ScenarioWithGates("g", R"({ "select": "*/x", "max": 2.5 })"), store);
  EXPECT_NE(r[0].line.find("g/n=2/x = 3"), std::string::npos) << r[0].line;
  // Paths are relative to the scenario's own root.
  EXPECT_FALSE(CheckGates(ScenarioWithGates(
                              "h", R"({ "select": "summary/ok", "min": 0 })"),
                          store)[0]
                   .pass);
}

TEST(ScenarioGates, NonFiniteMetricsFailEveryGate) {
  const Scenario s = ScenarioWithGates(
      "g", R"({ "select": "summary/x", "min": 0 }, )"
           R"({ "select": "summary/y", "max": 1 })");
  RunResult result;
  result.summary = {{"x", std::nan("")}, {"y", 0.5}};
  const std::vector<GateResult> r = CheckGates(s, result);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_FALSE(r[0].pass) << r[0].line;
  EXPECT_FALSE(r[1].pass) << r[1].line;

  result.summary["x"] = 0.0;
  for (const GateResult& g : CheckGates(s, result)) {
    EXPECT_TRUE(g.pass) << g.line;
  }
}

// Every shipped scenario has gates and a committed full-size
// BENCH_<name>.json at the repo root. Against that record every gate
// passes, its select matches at least one value, and each bound fails once
// moved just past the measured value (while the measured value itself
// still passes).
TEST(ScenarioGates, ShippedGatesHoldOnCommittedRecordsAndBite) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::string> paths = ShippedScenarioPaths();
  ASSERT_FALSE(paths.empty()) << "no scenarios in " << ScenarioDir();
  for (const std::string& path : paths) {
    Scenario s;
    DiagnosticEngine diags;
    ASSERT_TRUE(LoadScenarioFile(path, &s, &diags)) << diags.Render();
    SCOPED_TRACE(s.name);
    EXPECT_FALSE(s.gates.empty()) << path << " declares no gates";
    ResultStore store;
    std::string error;
    ASSERT_TRUE(store.LoadBenchFile(
        ScenarioDir() + "/../BENCH_" + s.name + ".json", &error))
        << error;
    for (const GateResult& r : CheckGates(s, store)) {
      EXPECT_TRUE(r.pass) << r.line;
    }

    for (const Gate& g : s.gates) {
      SCOPED_TRACE(g.select);
      std::vector<double> values;
      for (const ResultEntry& e : store.Select(s.name + "/" + g.select)) {
        values.push_back(e.value);
      }
      ASSERT_FALSE(values.empty());
      const double lo = *std::min_element(values.begin(), values.end());
      const double hi = *std::max_element(values.begin(), values.end());
      for (const bool min_side : {true, false}) {
        if (!(min_side ? g.min : g.max).set) continue;
        Scenario one = s;
        one.gates = {g};
        GateBound& bound = min_side ? one.gates[0].min : one.gates[0].max;
        bound = {true, min_side ? lo : hi, ""};
        EXPECT_TRUE(CheckGates(one, store)[0].pass);
        bound.number = min_side ? std::nextafter(lo, kInf)
                                : std::nextafter(hi, -kInf);
        const GateResult tightened = CheckGates(one, store)[0];
        EXPECT_FALSE(tightened.pass) << tightened.line;
      }
    }
  }
}

// --- runner determinism ----------------------------------------------------

TEST(ScenarioRunner, ByteIdenticalAcrossThreadCounts) {
  const std::string text =
      "{ \"name\": \"t\", \"family\": \"multitenant\",\n"
      "  \"multitenant\": { \"warmup_ms\": 5, \"horizon_ms\": 30 },\n"
      "  \"sweep\": { \"axes\": [\n"
      "    { \"name\": \"clients\", \"values\": [2] },\n"
      "    { \"name\": \"rate_scale\", \"values\": [0.5, 4.0] },\n"
      "    { \"name\": \"policy\", \"values\": [\"drop-tail\"] } ] } }\n";
  Scenario s;
  DiagnosticEngine diags("inline", text);
  ASSERT_TRUE(ParseScenario(text, &s, &diags)) << diags.Render();
  ASSERT_TRUE(ValidateForFamily(&s, &diags)) << diags.Render();

  std::string csv[2];
  const int threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    RunOptions opts;
    opts.threads = threads[i];
    opts.check_determinism = false;  // this test is the comparison
    opts.write_json = false;
    RunResult result;
    std::string error;
    ASSERT_TRUE(RunScenario(s, opts, &result, &error)) << error;
    ASSERT_EQ(result.table.rows().size(), 2u);
    std::ostringstream os;
    result.table.WriteCsv(os);
    csv[i] = os.str();
  }
  EXPECT_EQ(csv[0], csv[1]);
}

TEST(ScenarioRunner, UnknownFamilyFailsWithError) {
  Scenario s;
  s.name = "t";
  s.family = "nope";
  RunResult result;
  std::string error;
  EXPECT_FALSE(RunScenario(s, RunOptions{}, &result, &error));
  EXPECT_NE(error.find("nope"), std::string::npos);
}

// --- simcore family --------------------------------------------------------

// 2,560 events give each of the 256 chains of the chained workloads a
// budget of 10.
TEST(SimcoreFamily, MeasuresEveryWorkloadOnBothEngines) {
  const std::string text =
      "{ \"name\": \"t\", \"family\": \"simcore\",\n"
      "  \"sweep\": { \"axes\": [\n"
      "    { \"name\": \"events\", \"values\": [2560] } ] } }\n";
  Scenario s;
  DiagnosticEngine diags("inline", text);
  ASSERT_TRUE(ParseScenario(text, &s, &diags)) << diags.Render();
  ASSERT_TRUE(ValidateForFamily(&s, &diags)) << diags.Render();

  RunOptions opts;
  opts.write_json = false;
  RunResult result;
  std::string error;
  ASSERT_TRUE(RunScenario(s, opts, &result, &error)) << error;
  ASSERT_EQ(result.table.rows().size(), 1u);
  const sweep::ResultRow& row = result.table.rows()[0];
  const auto positive = [](double v) { return std::isfinite(v) && v > 0; };
  for (const std::string w :
       {"empty", "capture40", "churn", "zerodelay", "mixed"}) {
    SCOPED_TRACE(w);
    for (const std::string metric :
         {"_legacy_events_per_sec", "_pooled_events_per_sec", "_speedup"}) {
      EXPECT_TRUE(positive(row.Metric(w + metric))) << w + metric;
    }
  }
  EXPECT_TRUE(positive(row.Metric("cancel_half_pooled_events_per_sec")));
  for (const char* key :
       {"events_per_sec", "legacy_events_per_sec", "speedup_vs_legacy"}) {
    ASSERT_EQ(result.summary.count(key), 1u) << key;
    EXPECT_TRUE(positive(result.summary.at(key))) << key;
  }
}

// --- result store ----------------------------------------------------------

TEST(ResultStore, GlobMatchIsSlashAware) {
  // `*` and `?` stay within one segment.
  EXPECT_TRUE(ResultStore::GlobMatch("a/*/c", "a/b/c"));
  EXPECT_FALSE(ResultStore::GlobMatch("a/*/c", "a/b/x/c"));
  EXPECT_TRUE(ResultStore::GlobMatch("a/b?/c", "a/bb/c"));
  EXPECT_FALSE(ResultStore::GlobMatch("a?b", "a/b"));
  // Greedy `*` backtracks within the segment.
  EXPECT_TRUE(ResultStore::GlobMatch("*_us", "ttft_p99_us"));
  EXPECT_TRUE(ResultStore::GlobMatch("*p99*", "ttft_p99_us"));
  EXPECT_FALSE(ResultStore::GlobMatch("p99_*", "ttft_p99_us"));
  // `**` spans any number of whole segments, including zero.
  EXPECT_TRUE(ResultStore::GlobMatch("a/**/d", "a/b/c/d"));
  EXPECT_TRUE(ResultStore::GlobMatch("a/**/d", "a/d"));
  EXPECT_TRUE(ResultStore::GlobMatch("**", "a/b/c"));
  EXPECT_TRUE(
      ResultStore::GlobMatch("serving/**/ttft_p99_*",
                             "serving/rate_per_s=1500/policy_continuous=1/"
                             "kv_scale=0.5/ttft_p99_us"));
  EXPECT_FALSE(ResultStore::GlobMatch("serving/**/p50_*",
                                      "serving/summary/deadlocks"));
}

TEST(ResultStore, ManyDoubleStarsMatchInPolynomialTime) {
  // A backtracking matcher tries every split of the path between the
  // `**`s: this select used to hang `pwsim query` for minutes.
  std::string stars;
  for (int i = 0; i < 40; ++i) stars += "**/";
  const std::string path = "s/a=1/b=2/c=3/d/e/f/g/h/i/j/ttft_p99_us";
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(ResultStore::GlobMatch(stars + "nope", path));
  EXPECT_TRUE(ResultStore::GlobMatch(stars + "ttft_p99_us", path));
  EXPECT_TRUE(ResultStore::GlobMatch("s/**/**/c=3/**/*_us", path));
  EXPECT_FALSE(ResultStore::GlobMatch("s/**/**/c=3/**/x/*_us", path));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

TEST(ResultStore, LoadsBenchJsonIntoAddressedEntries) {
  const std::string dir = ::testing::TempDir();
  sweep::ResultTable table;
  table.Add({{"rate", sweep::ParamValue{std::int64_t{1500}}},
             {"kv_scale", sweep::ParamValue{0.5}}},
            {{"p99_us", 243.0}, {"goodput", 439.0}});
  table.Add({{"rate", sweep::ParamValue{std::int64_t{24000}}},
             {"kv_scale", sweep::ParamValue{0.5}}},
            {{"p99_us", 21631.0}, {"goodput", 1448.0}});
  const std::string path = sweep::WriteBenchJsonFile(
      "store_test", {{"deadlocks", 0.0}, {"speedup", 1.74}}, table, dir);
  ASSERT_FALSE(path.empty());

  ResultStore store;
  std::string error;
  ASSERT_TRUE(store.LoadBenchFile(path, &error)) << error;

  const auto summary = store.Select("store_test/summary/*");
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary[0].path, "store_test/summary/deadlocks");
  EXPECT_DOUBLE_EQ(summary[0].value, 0.0);
  EXPECT_EQ(summary[1].path, "store_test/summary/speedup");
  EXPECT_DOUBLE_EQ(summary[1].value, 1.74);

  const auto p99 = store.Select("store_test/**/p99_us");
  ASSERT_EQ(p99.size(), 2u);
  EXPECT_EQ(p99[0].path, "store_test/rate=1500/kv_scale=0.5/p99_us");
  EXPECT_DOUBLE_EQ(p99[0].value, 243.0);
  EXPECT_EQ(p99[1].path, "store_test/rate=24000/kv_scale=0.5/p99_us");

  EXPECT_TRUE(store.Select("other_bench/**").empty());

  // LoadDir picks the file up again (entries append).
  ResultStore store2;
  const int n = store2.LoadDir(dir, &error);
  ASSERT_GE(n, 1) << error;
  EXPECT_FALSE(store2.Select("store_test/summary/speedup").empty());
  std::remove(path.c_str());
}

TEST(ResultStore, ParsesAggregationSelectors) {
  auto agg = ResultStore::ParseAggregation("p99 over serving/**/ttft_*");
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->kind, Aggregation::Kind::kPercentile);
  EXPECT_DOUBLE_EQ(agg->percentile, 99.0);
  EXPECT_EQ(agg->glob, "serving/**/ttft_*");

  agg = ResultStore::ParseAggregation("mean over a/*/b");
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->kind, Aggregation::Kind::kMean);

  // Plain globs and malformed forms fall through to a normal Select.
  EXPECT_FALSE(ResultStore::ParseAggregation("serving/**/ttft_*").has_value());
  EXPECT_FALSE(ResultStore::ParseAggregation("median over x").has_value());
  EXPECT_FALSE(ResultStore::ParseAggregation("p101 over x").has_value());
  EXPECT_FALSE(ResultStore::ParseAggregation("p99 over ").has_value());
  EXPECT_FALSE(ResultStore::ParseAggregation("p99 x").has_value());
}

TEST(ResultStore, AggregatesOverMatchingValues) {
  const std::string dir = ::testing::TempDir();
  sweep::ResultTable table;
  for (int i = 1; i <= 4; ++i) {
    table.Add({{"n", sweep::ParamValue{std::int64_t{i}}}},
              {{"lat_us", 100.0 * i}});
  }
  const std::string path =
      sweep::WriteBenchJsonFile("agg_test", {}, table, dir);
  ASSERT_FALSE(path.empty());

  ResultStore store;
  std::string error;
  ASSERT_TRUE(store.LoadBenchFile(path, &error)) << error;

  auto value = [&](const std::string& select) {
    const auto agg = ResultStore::ParseAggregation(select);
    EXPECT_TRUE(agg.has_value()) << select;
    const auto v = store.Aggregate(*agg);
    EXPECT_TRUE(v.has_value()) << select;
    return v.value_or(-1);
  };
  EXPECT_DOUBLE_EQ(value("min over agg_test/**/lat_us"), 100.0);
  EXPECT_DOUBLE_EQ(value("max over agg_test/**/lat_us"), 400.0);
  EXPECT_DOUBLE_EQ(value("mean over agg_test/**/lat_us"), 250.0);
  EXPECT_DOUBLE_EQ(value("sum over agg_test/**/lat_us"), 1000.0);
  EXPECT_DOUBLE_EQ(value("count over agg_test/**/lat_us"), 4.0);
  EXPECT_DOUBLE_EQ(value("p0 over agg_test/**/lat_us"), 100.0);
  EXPECT_DOUBLE_EQ(value("p50 over agg_test/**/lat_us"), 250.0);
  EXPECT_DOUBLE_EQ(value("p100 over agg_test/**/lat_us"), 400.0);

  // Empty matches: count is 0, everything else has no value.
  const auto none = ResultStore::ParseAggregation("mean over missing/**");
  EXPECT_FALSE(store.Aggregate(*none).has_value());
  const auto zero = ResultStore::ParseAggregation("count over missing/**");
  EXPECT_DOUBLE_EQ(store.Aggregate(*zero).value_or(-1), 0.0);
  std::remove(path.c_str());
}

TEST(ResultStore, RejectsNonBenchJson) {
  const std::string path = ::testing::TempDir() + "/BENCH_bad.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << "{ \"not_a_bench\": true }\n";
  }
  ResultStore store;
  std::string error;
  EXPECT_FALSE(store.LoadBenchFile(path, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pw::scenario
