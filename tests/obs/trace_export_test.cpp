#include "obs/trace_export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace rsm::obs {
namespace {

// Hand-built span trees make chrome_trace_document deterministic and
// independent of whether tracing is compiled in.
SpanStats node(std::string name, std::uint64_t count, double total,
               std::vector<SpanStats> children = {}) {
  SpanStats stats;
  stats.name = std::move(name);
  stats.count = count;
  stats.total_seconds = total;
  stats.min_seconds = total / 2;
  stats.max_seconds = total;
  stats.cpu_seconds = total / 4;
  stats.children = std::move(children);
  return stats;
}

std::vector<ThreadSpanStats> two_thread_fixture() {
  ThreadSpanStats t1;
  t1.thread_ordinal = 1;
  t1.tree = node("", 0, 0,
                 {node("fit", 2, 1.0, {node("fit.qr", 4, 0.4)}),
                  node("validate", 1, 0.5)});
  ThreadSpanStats t2;
  t2.thread_ordinal = 2;
  t2.tree = node("", 0, 0, {node("row", 8, 2.0)});
  return {std::move(t1), std::move(t2)};
}

const JsonValue* find_event(const JsonValue& doc, const std::string& name) {
  for (const JsonValue& event : doc.find("traceEvents")->items())
    if (event.find("name")->as_string() == name) return &event;
  return nullptr;
}

TEST(TraceExportTest, DocumentCarriesMetadataAndSyntheticTimeline) {
  const JsonValue doc =
      chrome_trace_document(two_thread_fixture(), "unit_test");

  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("displayTimeUnit")->as_string(), "ms");
  const JsonValue* other = doc.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->find("process_name")->as_string(), "unit_test");
  EXPECT_EQ(other->find("threads")->as_int(), 2);

  // Metadata: process name at tid 0, one thread_name per ordinal.
  const JsonValue& events = *doc.find("traceEvents");
  ASSERT_TRUE(events.is_array());
  EXPECT_EQ(events.items()[0].find("name")->as_string(), "process_name");
  EXPECT_EQ(events.items()[0].find("tid")->as_int(), 0);
  const JsonValue* thread1 = nullptr;
  for (const JsonValue& event : events.items())
    if (event.find("ph")->as_string() == "M" &&
        event.find("name")->as_string() == "thread_name" &&
        event.find("tid")->as_int() == 1)
      thread1 = &event;
  ASSERT_NE(thread1, nullptr);
  EXPECT_EQ(thread1->find("args")->find("name")->as_string(), "rsm-thread-1");

  // Timeline: top-level spans laid out back to back from t = 0, children
  // nested from their parent's start.
  const JsonValue* fit = find_event(doc, "fit");
  ASSERT_NE(fit, nullptr);
  EXPECT_EQ(fit->find("ph")->as_string(), "X");
  EXPECT_EQ(fit->find("tid")->as_int(), 1);
  EXPECT_DOUBLE_EQ(fit->find("ts")->as_double(), 0.0);
  EXPECT_DOUBLE_EQ(fit->find("dur")->as_double(), 1.0e6);
  EXPECT_EQ(fit->find("args")->find("count")->as_int(), 2);
  EXPECT_DOUBLE_EQ(fit->find("args")->find("cpu_ms")->as_double(), 250.0);

  const JsonValue* qr = find_event(doc, "fit.qr");
  ASSERT_NE(qr, nullptr);
  EXPECT_DOUBLE_EQ(qr->find("ts")->as_double(), 0.0);
  EXPECT_DOUBLE_EQ(qr->find("dur")->as_double(), 0.4e6);

  const JsonValue* validate = find_event(doc, "validate");
  ASSERT_NE(validate, nullptr);
  EXPECT_DOUBLE_EQ(validate->find("ts")->as_double(), 1.0e6);
  EXPECT_DOUBLE_EQ(validate->find("dur")->as_double(), 0.5e6);

  const JsonValue* row = find_event(doc, "row");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->find("tid")->as_int(), 2);
  EXPECT_DOUBLE_EQ(row->find("ts")->as_double(), 0.0);
}

TEST(TraceExportTest, ParentPrunedMidSpanStillContainsItsChildren) {
  // A node reset while open carries completed children but zero own time;
  // the layout must widen it so the children still nest inside.
  ThreadSpanStats t;
  t.thread_ordinal = 1;
  t.tree = node("", 0, 0,
                {node("open", 0, 0.0, {node("a", 1, 0.3), node("b", 1, 0.2)}),
                 node("after", 1, 0.1)});
  const JsonValue doc = chrome_trace_document({t}, "unit_test");

  const JsonValue* open = find_event(doc, "open");
  ASSERT_NE(open, nullptr);
  EXPECT_DOUBLE_EQ(open->find("dur")->as_double(), 0.5e6);
  const JsonValue* b = find_event(doc, "b");
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(b->find("ts")->as_double(), 0.3e6);
  // The sibling after the widened span starts after it, not inside it.
  const JsonValue* after = find_event(doc, "after");
  ASSERT_NE(after, nullptr);
  EXPECT_DOUBLE_EQ(after->find("ts")->as_double(), 0.5e6);
}

TEST(TraceExportTest, IdenticalTreesSerializeIdentically) {
  const JsonValue a = chrome_trace_document(two_thread_fixture(), "p");
  const JsonValue b = chrome_trace_document(two_thread_fixture(), "p");
  EXPECT_EQ(a.dump(), b.dump());
}

TEST(TraceExportTest, EmptySnapshotStillProducesAValidDocument) {
  const JsonValue doc = chrome_trace_document({}, "idle");
  EXPECT_EQ(doc.find("otherData")->find("threads")->as_int(), 0);
  ASSERT_TRUE(doc.find("traceEvents")->is_array());
  EXPECT_EQ(doc.find("traceEvents")->size(), 1u);  // process_name only
}

TEST(TraceExportTest, WriteChromeTraceProducesParseableFile) {
  set_tracing_enabled(true);
  reset_tracing();
  if (kTracingCompiled) {
    RSM_TRACE_SPAN("export_test.outer");
    RSM_TRACE_SPAN("export_test.inner");
  }
  const std::string path = ::testing::TempDir() + "/rsm_trace_export.json";
  ASSERT_TRUE(write_chrome_trace(path, "unit_test"));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  if (kTracingCompiled) {
    EXPECT_NE(content.find("export_test.inner"), std::string::npos);
  }
  std::remove(path.c_str());
  reset_tracing();
  set_tracing_enabled(kTracingCompiled);
}

TEST(TraceExportTest, WriteChromeTraceFailsGracefullyOnBadPath) {
  EXPECT_FALSE(write_chrome_trace("/nonexistent-dir/x/trace.json", "t"));
}

TEST(TraceExportTest, ExportIfConfiguredFollowsTheEnvironment) {
  // The path is latched on first use; whatever it latched to, the export
  // call must agree with it.
  const std::string& path = trace_export_path();
  EXPECT_EQ(&path, &trace_export_path());  // stable reference
  if (path.empty()) {
    EXPECT_FALSE(export_trace_if_configured("unit_test"));
  }
}

}  // namespace
}  // namespace rsm::obs
