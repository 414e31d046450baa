// FlightRecorder: the bounded ring of per-batch completion records, its
// JSON/text dumps, and the EstimationService integration — every
// EstimateBatch leaves a record (including shed and not-found batches)
// and slow batches append to the structured slow-query log.

#include "service/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/telemetry/trace.h"
#include "service/service.h"

namespace xcluster {
namespace {

FlightRecord MakeRecord(uint64_t trace_id, uint64_t wall_ns) {
  FlightRecord record;
  record.trace_id = trace_id;
  record.collection = "books";
  record.lane = Lane::kInteractive;
  record.queries = 4;
  record.ok = 4;
  record.wall_ns = wall_ns;
  record.queue_ns = wall_ns / 10;
  record.service_ns = wall_ns / 2;
  record.bytes = 128;
  return record;
}

TEST(FlightRecorderTest, RetainsNewestUpToCapacity) {
  FlightRecorder recorder(3);
  EXPECT_EQ(recorder.capacity(), 3u);
  for (uint64_t i = 1; i <= 7; ++i) {
    recorder.Record(MakeRecord(i, i * 1000));
  }
  EXPECT_EQ(recorder.total_recorded(), 7u);
  const std::vector<FlightRecord> window = recorder.Snapshot();
  ASSERT_EQ(window.size(), 3u);
  // Oldest → newest within the retained window.
  EXPECT_EQ(window[0].trace_id, 5u);
  EXPECT_EQ(window[1].trace_id, 6u);
  EXPECT_EQ(window[2].trace_id, 7u);
  // A bounded snapshot returns only the newest records.
  const std::vector<FlightRecord> newest = recorder.Snapshot(2);
  ASSERT_EQ(newest.size(), 2u);
  EXPECT_EQ(newest[0].trace_id, 6u);
  EXPECT_EQ(newest[1].trace_id, 7u);
}

TEST(FlightRecorderTest, ToJsonParsesAndCarriesFields) {
  FlightRecorder recorder(8);
  FlightRecord record = MakeRecord(0xbeef, 123456);
  record.status = FlightStatus::kPartialError;
  record.ok = 3;
  recorder.Record(record);

  Result<JsonValue> parsed = ParseJson(recorder.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* records = parsed.value().Find("flight_records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->items().size(), 1u);
  const JsonValue& item = records->items()[0];
  EXPECT_EQ(item.Find("trace_id")->as_string(), telemetry::TraceIdHex(0xbeef));
  EXPECT_EQ(item.Find("collection")->as_string(), "books");
  EXPECT_EQ(item.Find("lane")->as_string(), "interactive");
  EXPECT_EQ(item.Find("status")->as_string(), "partial_error");
  EXPECT_DOUBLE_EQ(item.Find("queries")->as_number(), 4.0);
  EXPECT_DOUBLE_EQ(item.Find("ok")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(item.Find("wall_ns")->as_number(), 123456.0);
  EXPECT_DOUBLE_EQ(parsed.value().Find("capacity")->as_number(), 8.0);
  EXPECT_DOUBLE_EQ(parsed.value().Find("recorded")->as_number(), 1.0);
}

TEST(FlightRecorderTest, ToTextIsNewestFirst) {
  FlightRecorder recorder(4);
  recorder.Record(MakeRecord(0xaaaa, 1000));
  recorder.Record(MakeRecord(0xbbbb, 2000));
  const std::string text = recorder.ToText();
  const size_t newest = text.find(telemetry::TraceIdHex(0xbbbb));
  const size_t older = text.find(telemetry::TraceIdHex(0xaaaa));
  ASSERT_NE(newest, std::string::npos);
  ASSERT_NE(older, std::string::npos);
  EXPECT_LT(newest, older);
}

TEST(FlightStatusTest, NamesAreStable) {
  EXPECT_STREQ(FlightStatusName(FlightStatus::kOk), "ok");
  EXPECT_STREQ(FlightStatusName(FlightStatus::kPartialError), "partial_error");
  EXPECT_STREQ(FlightStatusName(FlightStatus::kNotFound), "not_found");
  EXPECT_STREQ(FlightStatusName(FlightStatus::kShedQuota), "shed_quota");
  EXPECT_STREQ(FlightStatusName(FlightStatus::kShedDeadline),
               "shed_deadline");
  EXPECT_STREQ(FlightStatusName(FlightStatus::kShedOther), "shed_other");
  EXPECT_STREQ(FlightStatusName(FlightStatus::kShutdown), "shutdown");
}

/// Tiny two-node synopsis so service batches do real work.
XCluster MakeFixture() {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNone, 10.0);
  synopsis.AddEdge(r, a, 10.0);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return XCluster(std::move(synopsis));
}

TEST(ServiceFlightTest, EveryBatchLeavesARecord) {
  ServiceOptions options;
  options.executor.num_threads = 0;  // inline: deterministic, no workers
  options.flight_recorder_capacity = 16;
  EstimationService service(options);
  service.store().Install("books", MakeFixture());

  BatchOptions batch_options;
  batch_options.trace.trace_id = 0x77;
  batch_options.trace.sampled = false;
  BatchResult batch =
      service.EstimateBatch("books", {"/A", "bad["}, batch_options);
  ASSERT_EQ(batch.results.size(), 2u);

  // Unknown collections still record (status not_found).
  service.EstimateBatch("missing", {"/A"});

  const std::vector<FlightRecord> records = service.flight().Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].trace_id, 0x77u);
  EXPECT_EQ(records[0].collection, "books");
  EXPECT_EQ(records[0].queries, 2u);
  EXPECT_EQ(records[0].ok, 1u);
  EXPECT_EQ(records[0].status, FlightStatus::kPartialError);
  EXPECT_GT(records[0].wall_ns, 0u);
  EXPECT_GT(records[0].service_ns, 0u);
  EXPECT_EQ(records[1].collection, "missing");
  EXPECT_EQ(records[1].status, FlightStatus::kNotFound);
}

TEST(ServiceFlightTest, ShedBatchesClassifyAsQuota) {
  ServiceOptions options;
  options.executor.num_threads = 0;
  EstimationService service(options);
  service.store().Install("books", MakeFixture());
  // One query of burst and a negligible refill: the second batch sheds.
  service.admission().SetQuota("books", /*rate_per_sec=*/1e-6, /*burst=*/1.0);

  service.EstimateBatch("books", {"/A"});
  BatchResult shed = service.EstimateBatch("books", {"/A"});
  ASSERT_FALSE(shed.admission.ok());

  const std::vector<FlightRecord> records = service.flight().Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].status, FlightStatus::kOk);
  EXPECT_EQ(records[1].status, FlightStatus::kShedQuota);
  EXPECT_EQ(records[1].ok, 0u);
  EXPECT_GT(records[1].retry_after_ms, 0u);
}

TEST(ServiceFlightTest, SlowQueryLogAppendsJsonLines) {
  const std::string log_path =
      ::testing::TempDir() + "/xcluster_slow_query_test.log";
  std::remove(log_path.c_str());
  {
    ServiceOptions options;
    options.executor.num_threads = 0;
    options.slow_query_ns = 1;  // everything is "slow"
    options.slow_query_log_path = log_path;
    EstimationService service(options);
    service.store().Install("books", MakeFixture());
    BatchOptions batch_options;
    batch_options.trace.trace_id = 0x5105;
    service.EstimateBatch("books", {"/A", "/A"}, batch_options);
    service.EstimateBatch("books", {"/A"});
  }
  std::ifstream in(log_path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    Result<JsonValue> parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_NE(parsed.value().Find("trace_id"), nullptr);
    EXPECT_NE(parsed.value().Find("wall_us"), nullptr);
    EXPECT_NE(parsed.value().Find("queue_us"), nullptr);
    EXPECT_NE(parsed.value().Find("service_us"), nullptr);
    // No per-query durations: a query inside a lane group has none.
    EXPECT_EQ(parsed.value().Find("p95_us"), nullptr);
    EXPECT_EQ(parsed.value().Find("slowest_us"), nullptr);
    EXPECT_EQ(parsed.value().Find("slowest_index"), nullptr);
    EXPECT_EQ(parsed.value().Find("collection")->as_string(), "books");
    if (lines == 0) {
      EXPECT_EQ(parsed.value().Find("trace_id")->as_string(),
                telemetry::TraceIdHex(0x5105));
      EXPECT_DOUBLE_EQ(parsed.value().Find("queries")->as_number(), 2.0);
    }
    ++lines;
  }
  ASSERT_EQ(lines, 2u);
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace xcluster
