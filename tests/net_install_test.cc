// Chunked kInstall reassembly: every rejection InstallAssembler makes, and
// the daemon's one reporting rule over a real socket — a broken chunk
// sequence is answered with an error frame, a complete sequence whose
// bytes are not the declared snapshot with an install_reply with ok clear.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/io/crc32c.h"
#include "core/xcluster.h"
#include "net/protocol.h"
#include "net/server.h"
#include "raw_peer.h"
#include "service/service.h"

namespace xcluster {
namespace net {
namespace {

uint32_t MaskedCrc(const std::string& bytes) {
  return crc32c::Mask(crc32c::Value(bytes.data(), bytes.size()));
}

/// Chunk `index` of `snapshot` cut into `count` pieces of `piece` bytes
/// (the last one takes the remainder).
InstallFrame Chunk(const std::string& snapshot, uint32_t index,
                   uint32_t count, size_t piece) {
  InstallFrame frame;
  frame.name = "catalog";
  frame.generation = 7;
  frame.total_bytes = snapshot.size();
  frame.chunk_index = index;
  frame.chunk_count = count;
  frame.snapshot_crc = MaskedCrc(snapshot);
  const size_t offset = std::min(snapshot.size(), index * piece);
  frame.chunk = index + 1 == count ? snapshot.substr(offset)
                                   : snapshot.substr(offset, piece);
  return frame;
}

Status Add(InstallAssembler* assembler, const InstallFrame& frame,
           bool* complete) {
  return assembler->Add(EncodeInstall(frame), complete);
}

void ExpectRejected(const Status& status, Status::Code code,
                    const std::string& needle) {
  EXPECT_EQ(status.code(), code) << status.ToString();
  EXPECT_NE(status.ToString().find(needle), std::string::npos)
      << status.ToString();
}

const std::string kSnapshot = "0123456789";

TEST(InstallAssemblerTest, ReassemblesInOrderChunksAndStartsOverAfterward) {
  InstallAssembler assembler;
  for (int round = 0; round < 2; ++round) {
    bool complete = true;
    ASSERT_TRUE(Add(&assembler, Chunk(kSnapshot, 0, 3, 4), &complete).ok());
    EXPECT_FALSE(complete);
    ASSERT_TRUE(Add(&assembler, Chunk(kSnapshot, 1, 3, 4), &complete).ok());
    EXPECT_FALSE(complete);
    ASSERT_TRUE(Add(&assembler, Chunk(kSnapshot, 2, 3, 4), &complete).ok());
    EXPECT_TRUE(complete);
    Result<InstallSnapshot> snapshot = assembler.Take();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    EXPECT_EQ(snapshot.value().name, "catalog");
    EXPECT_EQ(snapshot.value().generation, 7u);
    EXPECT_EQ(snapshot.value().bytes, kSnapshot);
  }
}

TEST(InstallAssemblerTest, RejectsAChunkOtherThanZeroWithNoInstallOpen) {
  InstallAssembler assembler;
  bool complete = false;
  ExpectRejected(Add(&assembler, Chunk(kSnapshot, 1, 2, 5), &complete),
                 Status::Code::kCorruption, "without a first chunk");
}

TEST(InstallAssemblerTest, RejectsATotalAboveWhatTheChunksCanCarry) {
  // Two chunks of at most 4 payload bytes cannot carry 10 bytes.
  InstallAssembler assembler(/*max_frame_bytes=*/4,
                             /*max_install_bytes=*/1 << 20);
  bool complete = false;
  ExpectRejected(Add(&assembler, Chunk(kSnapshot, 0, 2, 1), &complete),
                 Status::Code::kCorruption, "more than its chunks can carry");
}

TEST(InstallAssemblerTest, RejectsATotalAboveTheInstallCap) {
  InstallAssembler assembler(/*max_frame_bytes=*/1 << 20,
                             /*max_install_bytes=*/8);
  bool complete = false;
  ExpectRejected(Add(&assembler, Chunk(kSnapshot, 0, 2, 5), &complete),
                 Status::Code::kResourceExhausted, "8-byte install cap");
}

TEST(InstallAssemblerTest, RejectsEachHeaderFieldChangedMidSequence) {
  const std::vector<std::pair<const char*, std::function<void(InstallFrame*)>>>
      changes = {
          {"name", [](InstallFrame* f) { f->name = "other"; }},
          {"generation", [](InstallFrame* f) { f->generation = 8; }},
          {"total", [](InstallFrame* f) { f->total_bytes = 11; }},
          {"count", [](InstallFrame* f) { f->chunk_count = 4; }},
          {"crc", [](InstallFrame* f) { f->snapshot_crc ^= 1; }},
          {"index", [](InstallFrame* f) { f->chunk_index = 2; }},
      };
  for (const auto& [field, change] : changes) {
    SCOPED_TRACE(field);
    InstallAssembler assembler;
    bool complete = false;
    ASSERT_TRUE(Add(&assembler, Chunk(kSnapshot, 0, 3, 4), &complete).ok());
    InstallFrame second = Chunk(kSnapshot, 1, 3, 4);
    change(&second);
    ExpectRejected(Add(&assembler, second, &complete),
                   Status::Code::kCorruption, "sequence violation");
    // The failure reset the assembler: only a chunk 0 may follow.
    ExpectRejected(Add(&assembler, Chunk(kSnapshot, 1, 3, 4), &complete),
                   Status::Code::kCorruption, "without a first chunk");
  }
}

TEST(InstallAssemblerTest, RejectsChunksThatOverflowTheTotal) {
  InstallAssembler assembler;
  bool complete = false;
  InstallFrame first = Chunk(kSnapshot, 0, 2, 5);
  first.chunk = kSnapshot.substr(0, 8);
  ASSERT_TRUE(Add(&assembler, first, &complete).ok());
  ExpectRejected(Add(&assembler, Chunk(kSnapshot, 1, 2, 5), &complete),
                 Status::Code::kCorruption, "overflow the declared");
}

TEST(InstallAssemblerTest, TakeRejectsAShortSnapshot) {
  InstallAssembler assembler;
  bool complete = false;
  InstallFrame first = Chunk(kSnapshot, 0, 2, 5);
  first.chunk = "012";
  ASSERT_TRUE(Add(&assembler, first, &complete).ok());
  ASSERT_TRUE(Add(&assembler, Chunk(kSnapshot, 1, 2, 5), &complete).ok());
  ASSERT_TRUE(complete);
  Result<InstallSnapshot> snapshot = assembler.Take();
  ASSERT_FALSE(snapshot.ok());
  ExpectRejected(snapshot.status(), Status::Code::kCorruption,
                 "reassembled 8 bytes, expected 10");
}

TEST(InstallAssemblerTest, TakeRejectsAWholeSnapshotCrcMismatch) {
  const std::string damaged = "0123456780";
  InstallAssembler assembler;
  bool complete = false;
  for (uint32_t index = 0; index < 2; ++index) {
    InstallFrame chunk = Chunk(damaged, index, 2, 5);
    chunk.snapshot_crc = MaskedCrc(kSnapshot);
    ASSERT_TRUE(Add(&assembler, chunk, &complete).ok());
  }
  ASSERT_TRUE(complete);
  Result<InstallSnapshot> snapshot = assembler.Take();
  ASSERT_FALSE(snapshot.ok());
  ExpectRejected(snapshot.status(), Status::Code::kCorruption,
                 "failed snapshot checksum");
}

XCluster MakeFixture() {
  GraphSynopsis synopsis;
  SynNodeId r = synopsis.AddNode("R", ValueType::kNone, 1.0);
  SynNodeId a = synopsis.AddNode("A", ValueType::kNone, 10.0);
  synopsis.AddEdge(r, a, 10.0);
  synopsis.set_term_dictionary(std::make_shared<TermDictionary>());
  return XCluster(std::move(synopsis));
}

TEST(InstallOverSocketTest, DaemonErrorsABrokenSequenceAndRepliesToABadCrc) {
  EstimationService service;
  service.store().Install("books", MakeFixture());
  const uint64_t generation = service.store().Get("books")->generation();
  NetServerOptions options;
  options.host = "127.0.0.1";
  NetServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  const std::string image(MakeFixture().flat()->image());
  const size_t piece = image.size() / 2 + 1;

  // Out of order: chunk 1 with no chunk 0 before it breaks the sequence.
  {
    Result<RawPeer> peer = RawPeer::Connect(server.port());
    ASSERT_TRUE(peer.ok()) << peer.status().ToString();
    Frame frame;
    ASSERT_TRUE(peer.value()
                    .Hello(kProtocolVersion, kProtocolVersion, &frame)
                    .ok());
    ASSERT_EQ(frame.type, FrameType::kHelloAck);
    InstallFrame chunk = Chunk(image, 1, 2, piece);
    chunk.name = "books";
    ASSERT_TRUE(
        peer.value().Send(FrameType::kInstall, EncodeInstall(chunk)).ok());
    ASSERT_TRUE(peer.value().Read(&frame).ok());
    EXPECT_EQ(frame.type, FrameType::kError);
    EXPECT_NE(frame.payload.find("without a first chunk"), std::string::npos)
        << frame.payload;
  }

  // A whole sequence whose CRC does not match its bytes.
  Result<RawPeer> peer = RawPeer::Connect(server.port());
  ASSERT_TRUE(peer.ok()) << peer.status().ToString();
  Frame frame;
  ASSERT_TRUE(peer.value()
                  .Hello(kProtocolVersion, kProtocolVersion, &frame)
                  .ok());
  for (uint32_t index = 0; index < 2; ++index) {
    InstallFrame chunk = Chunk(image, index, 2, piece);
    chunk.name = "books";
    chunk.generation = 0;
    chunk.snapshot_crc ^= 1;
    ASSERT_TRUE(
        peer.value().Send(FrameType::kInstall, EncodeInstall(chunk)).ok());
  }
  ASSERT_TRUE(peer.value().Read(&frame).ok());
  ASSERT_EQ(frame.type, FrameType::kInstallReply);
  Result<InstallReplyFrame> reply = DecodeInstallReply(frame.payload);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply.value().ok);
  EXPECT_NE(reply.value().message.find("snapshot checksum"),
            std::string::npos)
      << reply.value().message;
  EXPECT_EQ(service.store().Get("books")->generation(), generation);

  // The reply did not close the connection.
  ASSERT_TRUE(
      peer.value().Send(FrameType::kCommand, "estimate books /A").ok());
  ASSERT_TRUE(peer.value().Read(&frame).ok());
  EXPECT_EQ(frame.type, FrameType::kResponse);
  EXPECT_EQ(frame.payload.rfind("ok estimate 10", 0), 0u) << frame.payload;
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace xcluster
