#include "service/harness.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/service.h"

namespace xcluster {
namespace {

XCluster MakeFixture() {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNone, 10.0);
  SynNodeId b = synopsis.AddNode("B", ValueType::kNone, 100.0);
  synopsis.AddEdge(r, a, 10.0);
  synopsis.AddEdge(a, b, 10.0);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return XCluster(std::move(synopsis));
}

/// Runs `script` through a fresh harness and returns the response lines.
std::vector<std::string> RunScript(EstimationService* service,
                                   const std::string& script) {
  std::istringstream in(script);
  std::ostringstream out;
  ServiceHarness harness(service);
  EXPECT_EQ(harness.Run(in, out), 0);
  std::vector<std::string> lines;
  std::istringstream reader(out.str());
  std::string line;
  while (std::getline(reader, line)) lines.push_back(line);
  return lines;
}

bool StartsWith(const std::string& line, const std::string& prefix) {
  return line.rfind(prefix, 0) == 0;
}

TEST(ServiceHarnessTest, EstimateAndListOverPreloadedSynopsis) {
  EstimationService service;
  service.store().Install("books", MakeFixture());

  std::vector<std::string> lines = RunScript(
      &service,
      "list\n"
      "estimate books /A\n"
      "estimate books /A/B\n"
      "estimate books ][broken\n"
      "estimate missing /A\n"
      "quit\n");
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[0], "ok list 1");
  EXPECT_TRUE(StartsWith(lines[1], "synopsis books gen=")) << lines[1];
  EXPECT_TRUE(StartsWith(lines[2], "ok estimate 10 us=")) << lines[2];
  EXPECT_TRUE(StartsWith(lines[3], "ok estimate 100 us=")) << lines[3];
  EXPECT_TRUE(StartsWith(lines[4], "err InvalidArgument")) << lines[4];
  EXPECT_TRUE(StartsWith(lines[5], "err NotFound")) << lines[5];
  EXPECT_EQ(lines[6], "ok bye");
}

TEST(ServiceHarnessTest, BatchEmitsHeaderAndExactlyKItems) {
  ServiceOptions options;
  options.executor.num_threads = 2;
  EstimationService service(options);
  service.store().Install("books", MakeFixture());

  std::vector<std::string> lines = RunScript(
      &service,
      "batch books 3\n"
      "/A\n"
      "not a query ][\n"
      "/A/B\n"
      "quit\n");
  ASSERT_EQ(lines.size(), 5u);
  // The header's wall time is the batch's one duration; items carry none.
  const std::string header = "ok batch n=3 ok=2 err=1 us=";
  ASSERT_TRUE(StartsWith(lines[0], header)) << lines[0];
  EXPECT_EQ(lines[0].find_first_not_of("0123456789", header.size()),
            std::string::npos)
      << lines[0];
  EXPECT_EQ(lines[1], "0 ok 10");
  EXPECT_TRUE(StartsWith(lines[2], "1 err InvalidArgument")) << lines[2];
  EXPECT_EQ(lines[3], "2 ok 100");
}

TEST(ServiceHarnessTest, BatchExplainAttachesCommentLines) {
  EstimationService service;
  service.store().Install("books", MakeFixture());

  std::vector<std::string> lines = RunScript(&service,
                                             "batch books 1 explain\n"
                                             "/A\n"
                                             "quit\n");
  ASSERT_GE(lines.size(), 3u);
  EXPECT_TRUE(StartsWith(lines[0], "ok batch n=1 ok=1 err=0")) << lines[0];
  EXPECT_EQ(lines[1], "0 ok 10");
  // At least one explanation line, all `#`-prefixed, before `ok bye`.
  size_t comments = 0;
  for (size_t i = 2; i + 1 < lines.size(); ++i) {
    EXPECT_TRUE(StartsWith(lines[i], "# ")) << lines[i];
    ++comments;
  }
  EXPECT_GT(comments, 0u);
  EXPECT_EQ(lines.back(), "ok bye");
}

TEST(ServiceHarnessTest, MalformedRequestsGetErrNotCrash) {
  EstimationService service;
  std::vector<std::string> lines = RunScript(
      &service,
      "\n"
      "# a comment\n"
      "bogus\n"
      "load onlyname\n"
      "drop nothere\n"
      "estimate\n"
      "batch books -1\n"
      "batch books 2 frobnicate\n"
      "/A\n"
      "/A\n"
      "quit\n");
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_TRUE(StartsWith(lines[0], "err unknown command 'bogus'"));
  EXPECT_EQ(lines[1], "err load needs <name> <path>");
  EXPECT_TRUE(StartsWith(lines[2], "err NotFound"));
  EXPECT_EQ(lines[3], "err estimate needs <name> <query>");
  EXPECT_EQ(lines[4], "err batch needs <name> <count>");
  EXPECT_TRUE(StartsWith(lines[5], "err unknown batch option"));
  EXPECT_EQ(lines[6], "ok bye");
}

TEST(ServiceHarnessTest, TruncatedBatchReportsShortfall) {
  EstimationService service;
  service.store().Install("books", MakeFixture());
  // EOF after one of three promised query lines.
  std::vector<std::string> lines = RunScript(&service,
                                             "batch books 3\n"
                                             "/A\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "err batch truncated: got 1 of 3 queries");
}

// The declared count is the client's word: nothing is allocated for it
// before the query lines arrive.
TEST(ServiceHarnessTest, HugeDeclaredBatchCountAllocatesNothingUpFront) {
  EstimationService service;
  service.store().Install("books", MakeFixture());
  std::vector<std::string> lines = RunScript(&service,
                                             "batch books 99999999999\n"
                                             "/A\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "err batch truncated: got 1 of 99999999999 queries");
}

// A header whose options fail still promised its query lines: they are
// read and dropped with it, so a query line that spells a command never
// runs as one.
TEST(ServiceHarnessTest, RejectedBatchHeaderConsumesItsQueryLines) {
  EstimationService service;
  service.store().Install("books", MakeFixture());
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"batch books 2 deadline_us=abc", "err bad deadline_us 'abc'"},
      {"batch books 2 frobnicate", "err unknown batch option 'frobnicate'"},
      {"batch books 2 priority=nope", "err bad priority 'nope'"},
  };
  for (const auto& [header, error] : cases) {
    std::vector<std::string> lines =
        RunScript(&service, header + "\n//book\nlist\n");
    ASSERT_EQ(lines.size(), 1u) << header;
    EXPECT_TRUE(StartsWith(lines[0], error)) << lines[0];
  }
  // The session goes on after the promised lines.
  std::vector<std::string> lines = RunScript(
      &service, "batch books 1 frobnicate\nlist\nestimate books /A\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(StartsWith(lines[1], "ok estimate 10")) << lines[1];
}

// Dropping a rejected batch's lines stops at EOF and keeps none of them.
TEST(ServiceHarnessTest, HugeCountOnARejectedHeaderAllocatesNothing) {
  EstimationService service;
  std::vector<std::string> lines =
      RunScript(&service, "batch books 99999999999 bogus\n/A\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "err unknown batch option 'bogus'");
}

TEST(ServiceHarnessTest, OversizedLineIsAProtocolErrorNotATruncatedCommand) {
  EstimationService service;
  service.store().Install("books", MakeFixture());
  ServiceHarness harness(&service, /*max_line_bytes=*/64);

  // An over-budget line must never be silently truncated into a different
  // command; it draws a clean protocol error and the session continues.
  std::istringstream in("estimate books " + std::string(200, 'x') +
                        "\n"
                        "estimate books /A\n"
                        "quit\n");
  std::ostringstream out;
  EXPECT_EQ(harness.Run(in, out), 0);
  std::vector<std::string> lines;
  std::string line;
  std::istringstream reader(out.str());
  while (std::getline(reader, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "err line too long (exceeds 64 bytes)");
  EXPECT_TRUE(StartsWith(lines[1], "ok estimate 10 us=")) << lines[1];
  EXPECT_EQ(lines[2], "ok bye");
}

TEST(ServiceHarnessTest, InputEndingMidLineReportsTruncation) {
  EstimationService service;
  service.store().Install("books", MakeFixture());
  ServiceHarness harness(&service);

  // No trailing newline: a partial command must not execute.
  std::istringstream in("estimate books /A\nestimate books /A/B");
  std::ostringstream out;
  EXPECT_EQ(harness.Run(in, out), 1);
  std::vector<std::string> lines;
  std::string line;
  std::istringstream reader(out.str());
  while (std::getline(reader, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(StartsWith(lines[0], "ok estimate 10 us=")) << lines[0];
  EXPECT_EQ(lines[1], "err truncated request: input ended before newline");
}

TEST(ServiceHarnessTest, OversizedBatchQueryAbortsTheWholeBatch) {
  EstimationService service;
  service.store().Install("books", MakeFixture());
  ServiceHarness harness(&service, /*max_line_bytes=*/64);

  // Query 1 of 3 blows the budget: the whole batch fails (a truncated
  // query must not estimate as something else), the remaining promised
  // lines are consumed, and the session stays parseable.
  std::istringstream in("batch books 3\n"
                        "/A\n" +
                        std::string(200, 'q') +
                        "\n"
                        "/A/B\n"
                        "estimate books /A\n"
                        "quit\n");
  std::ostringstream out;
  EXPECT_EQ(harness.Run(in, out), 0);
  std::vector<std::string> lines;
  std::string line;
  std::istringstream reader(out.str());
  while (std::getline(reader, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "err batch aborted: query 1 exceeds 64 bytes");
  EXPECT_TRUE(StartsWith(lines[1], "ok estimate 10 us=")) << lines[1];
  EXPECT_EQ(lines[2], "ok bye");
}

TEST(ServiceHarnessTest, ReadBoundedLineClassifiesEveryCase) {
  std::istringstream in("short\n" + std::string(100, 'a') + "\nlast");
  std::string line;
  EXPECT_EQ(ReadBoundedLine(in, &line, 10), LineStatus::kOk);
  EXPECT_EQ(line, "short");
  EXPECT_EQ(ReadBoundedLine(in, &line, 10), LineStatus::kTooLong);
  EXPECT_EQ(ReadBoundedLine(in, &line, 10), LineStatus::kEofMidLine);
  EXPECT_EQ(ReadBoundedLine(in, &line, 10), LineStatus::kEof);
}

TEST(ServiceHarnessTest, LoadDropRoundTripsThroughSaveFile) {
  const std::string path =
      ::testing::TempDir() + "/harness_roundtrip.xcsf";
  ASSERT_TRUE(MakeFixture().Save(path).ok());

  EstimationService service;
  std::vector<std::string> lines =
      RunScript(&service,
                "load books " + path +
                    "\n"
                    "estimate books /A/B\n"
                    "stats\n"
                    "drop books\n"
                    "estimate books /A\n"
                    "load books /nonexistent/file.xcsf\n"
                    "quit\n");
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_TRUE(StartsWith(lines[0], "ok load books gen=")) << lines[0];
  EXPECT_TRUE(StartsWith(lines[1], "ok estimate 100 us=")) << lines[1];
  EXPECT_TRUE(StartsWith(lines[2], "ok stats synopses=1 workers="))
      << lines[2];
  EXPECT_EQ(lines[3], "ok drop books");
  EXPECT_TRUE(StartsWith(lines[4], "err NotFound")) << lines[4];
  EXPECT_TRUE(StartsWith(lines[5], "err ")) << lines[5];
  EXPECT_EQ(lines[6], "ok bye");
}

TEST(ServiceHarnessTest, DeadlineOptionParsesAndApplies) {
  ServiceOptions options;
  options.executor.num_threads = 1;
  EstimationService service(options);
  service.store().Install("books", MakeFixture());

  // deadline_us=0 means unbounded — everything succeeds.
  std::vector<std::string> lines = RunScript(&service,
                                             "batch books 2 deadline_us=0\n"
                                             "/A\n"
                                             "/A/B\n"
                                             "quit\n");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_TRUE(StartsWith(lines[0], "ok batch n=2 ok=2 err=0")) << lines[0];

  // The largest budget that fits in nanoseconds runs past the end of the
  // clock: unbounded in effect, not expired.
  lines = RunScript(&service,
                    "batch books 2 deadline_us=18446744073709551\n"
                    "/A\n"
                    "/A/B\n"
                    "quit\n");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_TRUE(StartsWith(lines[0], "ok batch n=2 ok=2 err=0")) << lines[0];
}

TEST(ServiceHarnessTest, MalformedDeadlineIsAnError) {
  EstimationService service;
  service.store().Install("books", MakeFixture());
  for (const std::string value :
       {"abc", "-1", "18446744073709552", "99999999999999999999999", "",
        "5x"}) {
    std::vector<std::string> lines = RunScript(
        &service, "batch books 1 deadline_us=" + value + "\n/A\nquit\n");
    ASSERT_EQ(lines.size(), 2u) << value;
    EXPECT_EQ(lines[0], "err bad deadline_us '" + value +
                            "' (microseconds, 0 = unbounded)");
  }
}

TEST(ServiceHarnessTest, QuotaCommandInstallsAndClearsBuckets) {
  EstimationService service;
  service.store().Install("books", MakeFixture());

  std::vector<std::string> lines = RunScript(
      &service,
      "quota books 1 4\n"
      "batch books 2\n"
      "/A\n"
      "/A/B\n"
      "batch books 3\n"  // bucket has 2 of 4 tokens left: whole batch shed
      "/A\n"
      "/A\n"
      "/A\n"
      "quota books off\n"
      "quota books off\n"
      "quota books -5 2\n"
      "quota books\n"
      "stats\n"
      "quit\n");
  ASSERT_EQ(lines.size(), 14u);
  EXPECT_EQ(lines[0], "ok quota books rate=1 burst=4");
  EXPECT_TRUE(StartsWith(lines[1], "ok batch n=2 ok=2 err=0")) << lines[1];
  // The shed batch still answers one line per query, all Unavailable.
  EXPECT_TRUE(StartsWith(lines[4], "ok batch n=3 ok=0 err=3")) << lines[4];
  EXPECT_TRUE(StartsWith(lines[5], "0 err Unavailable")) << lines[5];
  EXPECT_EQ(lines[8], "ok quota books off");
  EXPECT_EQ(lines[9], "err NotFound: no quota on 'books'");
  EXPECT_EQ(lines[10], "err quota needs positive numeric <rate_qps> <burst>");
  EXPECT_EQ(lines[11],
            "err quota needs <name> <rate_qps> <burst> (or <name> off)");
  EXPECT_TRUE(lines[12].find(" admitted=") != std::string::npos) << lines[12];
  EXPECT_TRUE(lines[12].find(" shed_quota=1") != std::string::npos)
      << lines[12];
  EXPECT_TRUE(lines[12].find(" shed_deadline=0") != std::string::npos)
      << lines[12];
  EXPECT_TRUE(lines[12].find(" queue_depth=0") != std::string::npos)
      << lines[12];
  EXPECT_EQ(lines[12].find("admission_pending"), std::string::npos)
      << lines[12];
}

TEST(ServiceHarnessTest, BatchPriorityOptionParses) {
  EstimationService service;
  service.store().Install("books", MakeFixture());

  std::vector<std::string> lines = RunScript(&service,
                                             "batch books 1 priority=bulk\n"
                                             "/A\n"
                                             "batch books 1 priority=nope\n"
                                             "/A\n"
                                             "quit\n");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_TRUE(StartsWith(lines[0], "ok batch n=1 ok=1 err=0")) << lines[0];
  EXPECT_EQ(lines[2], "err bad priority 'nope' (interactive|bulk)");
  const AdmissionController::Stats stats = service.admission().stats();
  EXPECT_EQ(stats.lane_admitted[static_cast<size_t>(Lane::kBulk)], 1u);
}

// `stats` raced against concurrent load/drop churn and batch traffic must
// keep answering well-formed lines (run under TSan in CI: this is the
// torn-read probe for the stats plumbing end to end).
TEST(ServiceHarnessTest, StatsStaysConsistentUnderConcurrentChurn) {
  const std::string path = ::testing::TempDir() + "/harness_churn.xcsf";
  ASSERT_TRUE(MakeFixture().Save(path).ok());

  ServiceOptions options;
  options.executor.num_threads = 2;
  EstimationService service(options);
  service.store().Install("books", MakeFixture());

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)service.store().LoadFile("churn", path);
      service.store().Remove("churn");
    }
  });
  std::thread traffic([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)service.EstimateBatch("books", {"/A", "/A/B"}, BatchOptions{});
    }
  });

  for (int i = 0; i < 200; ++i) {
    std::vector<std::string> lines = RunScript(&service, "stats\nquit\n");
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_TRUE(StartsWith(lines[0], "ok stats synopses=")) << lines[0];
    // Executed never outruns submitted in any observed snapshot.
    const size_t sub_pos = lines[0].find(" submitted=");
    const size_t exe_pos = lines[0].find(" executed=");
    ASSERT_NE(sub_pos, std::string::npos);
    ASSERT_NE(exe_pos, std::string::npos);
    const uint64_t submitted =
        std::strtoull(lines[0].c_str() + sub_pos + 11, nullptr, 10);
    const uint64_t executed =
        std::strtoull(lines[0].c_str() + exe_pos + 10, nullptr, 10);
    EXPECT_LE(executed, submitted) << lines[0];
  }
  stop.store(true, std::memory_order_release);
  churn.join();
  traffic.join();
  std::remove(path.c_str());
}

/// Parses the integer following `key` in a harness stats line.
uint64_t StatsField(const std::string& line, const std::string& key) {
  const size_t pos = line.find(key);
  EXPECT_NE(pos, std::string::npos) << key << " missing from: " << line;
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + key.size(), nullptr, 10);
}

TEST(ServiceHarnessTest, StatsReportsPerLaneLatencyFields) {
  // The lane histograms live in the process-global metrics registry, so
  // other tests in this binary contribute — assert on the delta.
  EstimationService service;
  service.store().Install("books", MakeFixture());
  std::vector<std::string> before = RunScript(&service, "stats\nquit\n");
  ASSERT_EQ(before.size(), 2u);
  const uint64_t interactive0 =
      StatsField(before[0], " lane_interactive_n=");
  const uint64_t bulk0 = StatsField(before[0], " lane_bulk_n=");

  BatchOptions bulk;
  bulk.lane = Lane::kBulk;
  service.EstimateBatch("books", {"/A", "/A/B"}, BatchOptions{});
  service.EstimateBatch("books", {"/A"}, bulk);

  std::vector<std::string> lines = RunScript(&service, "stats\nquit\n");
  ASSERT_EQ(lines.size(), 2u);
  // One more sample per lane, each a batch's wall time; every lane always
  // exports count + p50/p95 fields.
  EXPECT_EQ(StatsField(lines[0], " lane_interactive_n="), interactive0 + 1)
      << lines[0];
  EXPECT_EQ(StatsField(lines[0], " lane_bulk_n="), bulk0 + 1) << lines[0];
  EXPECT_NE(lines[0].find(" lane_interactive_p50_us="), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find(" lane_bulk_p95_us="), std::string::npos)
      << lines[0];
}

TEST(ServiceHarnessTest, FlightCommandDumpsTheRing) {
  EstimationService service;
  service.store().Install("books", MakeFixture());
  BatchOptions options;
  options.trace.trace_id = 0xf11e;
  service.EstimateBatch("books", {"/A"}, options);
  service.EstimateBatch("books", {"/A/B"});

  std::vector<std::string> lines =
      RunScript(&service, "flight\nflight 1\nflight -1\nquit\n");
  // Header + 2 records, header + 1 record, error, goodbye.
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_TRUE(StartsWith(lines[0], "ok flight n=2 recorded=2 capacity="))
      << lines[0];
  // Newest first; the traced batch is the older of the two.
  EXPECT_NE(lines[1].find("trace=0000000000000000"), std::string::npos)
      << lines[1];
  EXPECT_NE(lines[2].find("trace=000000000000f11e"), std::string::npos)
      << lines[2];
  EXPECT_NE(lines[2].find("status=ok"), std::string::npos) << lines[2];
  EXPECT_TRUE(StartsWith(lines[3], "ok flight n=1")) << lines[3];
  EXPECT_NE(lines[4].find("trace=0000000000000000"), std::string::npos)
      << lines[4];
  EXPECT_TRUE(StartsWith(lines[5], "err flight")) << lines[5];
}

}  // namespace
}  // namespace xcluster
