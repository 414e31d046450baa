// Golden XNET payloads: every payload encoder, fed one fixed input, must
// produce the bytes in net_golden.h, and the router's reply re-encoder
// must reproduce what the daemon's reply encoder wrote.

#include <gtest/gtest.h>

#include <string>

#include "net/protocol.h"
#include "net_golden.h"

namespace xcluster {
namespace net {
namespace {

using golden::FromHex;
using golden::ToHex;

BatchResult FixedBatch() {
  BatchResult batch;
  QueryResult explained;
  explained.status = Status::OK();
  explained.estimate = 0.1 + 0.2;
  explained.explanation = "line one\nline two";
  QueryResult failed;
  failed.status = Status::InvalidArgument("bad query");
  QueryResult plain;
  plain.status = Status::OK();
  plain.estimate = 150.0;
  batch.results = {explained, failed, plain};
  batch.stats.wall_ns = 777;
  batch.stats.ok = 2;
  batch.stats.failed = 1;
  return batch;
}

TEST(NetGoldenTest, Hello) {
  HelloRequest hello;
  hello.min_version = 1;
  hello.max_version = 4;
  EXPECT_EQ(ToHex(EncodeHello(hello)), golden::kHello);
}

TEST(NetGoldenTest, HelloAck) {
  HelloAckFrame ack;
  ack.version = 4;
  ack.role = "replica";
  ack.server = "xclusterd";
  EXPECT_EQ(ToHex(EncodeHelloAck(ack)), golden::kHelloAck);
  Result<HelloAckFrame> decoded = DecodeHelloAck(FromHex(golden::kHelloAck));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().version, 4u);
  EXPECT_EQ(decoded.value().role, "replica");
  EXPECT_EQ(decoded.value().server, "xclusterd");
}

TEST(NetGoldenTest, BatchRequest) {
  BatchRequestFrame request;
  request.collection = "books";
  request.options.deadline_ns = 1500000;
  request.options.explain = true;
  request.options.lane = Lane::kBulk;
  request.options.trace.trace_id = 0x1122334455667788ull;
  request.options.trace.sampled = true;
  request.queries = {"/A", "//A[range(1,9)]/B"};
  EXPECT_EQ(ToHex(EncodeBatchRequest(request)), golden::kBatchRequest);
}

TEST(NetGoldenTest, BatchReplies) {
  EXPECT_EQ(ToHex(EncodeBatchReply(FixedBatch(), /*explain=*/true,
                                   0xfeedfacecafebeefull)),
            golden::kBatchReplyExplain);
  EXPECT_EQ(ToHex(EncodeBatchReply(FixedBatch(), /*explain=*/false,
                                   0x0102030405060708ull)),
            golden::kBatchReply);
}

// The router forwards a replica's reply by decoding it and re-encoding it
// with EncodeBatchReplyFrame; a drift between the two encoders would change
// routed bytes without changing any estimate.
TEST(NetGoldenTest, ReplyReEncoderMatchesTheReplyEncoder) {
  for (const char* hex : {golden::kBatchReplyExplain, golden::kBatchReply}) {
    const std::string bytes = FromHex(hex);
    Result<BatchReplyFrame> decoded = DecodeBatchReply(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(ToHex(EncodeBatchReplyFrame(decoded.value())), hex);
  }
}

TEST(NetGoldenTest, Shed) {
  ShedFrame shed;
  shed.retry_after_ms = 250;
  shed.message = "quota exhausted for books";
  EXPECT_EQ(ToHex(EncodeShed(shed)), golden::kShed);
}

TEST(NetGoldenTest, Install) {
  InstallFrame install;
  install.name = "catalog";
  install.generation = 7;
  install.total_bytes = 10;
  install.chunk_index = 1;
  install.chunk_count = 2;
  install.snapshot_crc = 0xdeadbeef;
  install.chunk = "world";
  EXPECT_EQ(ToHex(EncodeInstall(install)), golden::kInstall);
}

TEST(NetGoldenTest, InstallReply) {
  InstallReplyFrame reply;
  reply.ok = true;
  reply.generation = 7;
  reply.message = "installed catalog gen=7 on 2 replicas";
  EXPECT_EQ(ToHex(EncodeInstallReply(reply)), golden::kInstallReply);
}

TEST(NetGoldenTest, StatsAndFlight) {
  EXPECT_EQ(ToHex(EncodeStatsRequest(StatsFormat::kJson)), golden::kStats);
  EXPECT_EQ(ToHex(EncodeFlightRequest(16)), golden::kFlight);
}

}  // namespace
}  // namespace net
}  // namespace xcluster
