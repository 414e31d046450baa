// Robustness "fuzz-lite" tests: malformed and randomly mutated inputs to
// the XML parser, the twig-query parser and the XNET protocol decoders
// must produce Status errors (or decode successfully) — never crash, hang,
// or corrupt state.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/io/crc32c.h"
#include "common/rng.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net_golden.h"
#include "query/parser.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace xcluster {
namespace {

class XmlFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlFuzzTest, MutatedDocumentsNeverCrash) {
  Rng rng(GetParam());
  const std::string seed_doc =
      "<site><people><person id=\"p0\"><name>ada</name>"
      "<age>30</age></person></people>"
      "<regions><europe><item><name>gold &amp; silver</name>"
      "<desc><![CDATA[5 < 6]]></desc></item></europe></regions></site>";
  XmlParser parser;
  for (int round = 0; round < 300; ++round) {
    std::string mutated = seed_doc;
    size_t mutations = 1 + rng.Uniform(6);
    for (size_t m = 0; m < mutations; ++m) {
      if (mutated.empty()) break;
      size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(4)) {
        case 0:  // flip to a random byte
          mutated[pos] = static_cast<char>(rng.Uniform(256));
          break;
        case 1:  // delete
          mutated.erase(pos, 1 + rng.Uniform(5));
          break;
        case 2:  // duplicate a slice
          mutated.insert(pos, mutated.substr(pos, rng.Uniform(8)));
          break;
        case 3:  // inject syntax characters
          mutated.insert(pos, "<>&\"[]/");
          break;
      }
    }
    XmlDocument doc;
    Status status = parser.Parse(mutated, &doc);
    if (status.ok()) {
      // A successful parse must produce a usable tree.
      XmlWriter writer;
      EXPECT_GE(doc.size(), 1u);
      writer.ToString(doc);
    }
  }
}

TEST_P(XmlFuzzTest, RandomBytesNeverCrash) {
  Rng rng(GetParam() ^ 0xfeed);
  XmlParser parser;
  for (int round = 0; round < 200; ++round) {
    std::string garbage;
    size_t length = rng.Uniform(200);
    for (size_t i = 0; i < length; ++i) {
      garbage += static_cast<char>(rng.Uniform(256));
    }
    XmlDocument doc;
    parser.Parse(garbage, &doc);  // outcome irrelevant; must not crash
  }
}

class QueryFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryFuzzTest, MutatedQueriesNeverCrash) {
  Rng rng(GetParam());
  const std::string seed_query =
      "//paper[/year[range(2001,9999)]]"
      "[/abstract[ftcontains(synopsis,xml)]][ftsimilar(50,a,b)]"
      "/title[contains(\"Tree Models\")]";
  for (int round = 0; round < 500; ++round) {
    std::string mutated = seed_query;
    size_t mutations = 1 + rng.Uniform(5);
    for (size_t m = 0; m < mutations; ++m) {
      if (mutated.empty()) break;
      size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:
          mutated[pos] = static_cast<char>(32 + rng.Uniform(95));
          break;
        case 1:
          mutated.erase(pos, 1 + rng.Uniform(4));
          break;
        case 2:
          mutated.insert(pos, std::string(1, "[]()/,\"*"[rng.Uniform(8)]));
          break;
      }
    }
    Result<TwigQuery> result = ParseTwig(mutated);
    if (result.ok()) {
      // Parsed queries must render and re-parse.
      EXPECT_TRUE(ParseTwig(result.value().ToString()).ok())
          << mutated << " -> " << result.value().ToString();
    }
  }
}

// --- XNET protocol decoders, seeded with the golden payloads -------------

/// One to four byte flips, truncations and splices of `seed`; a splice
/// copies a run of `donor` bytes over (or into) the seed.
std::string MutatePayload(Rng* rng, const std::string& seed,
                          const std::string& donor) {
  std::string mutated = seed;
  const size_t mutations = 1 + rng->Uniform(4);
  for (size_t m = 0; m < mutations; ++m) {
    switch (rng->Uniform(3)) {
      case 0:  // flip one bit
        if (!mutated.empty()) {
          mutated[rng->Uniform(mutated.size())] ^=
              static_cast<char>(1 << rng->Uniform(8));
        }
        break;
      case 1:  // truncate
        mutated.resize(rng->Uniform(mutated.size() + 1));
        break;
      case 2: {  // splice a run of the donor in at a random offset
        const size_t from = rng->Uniform(donor.size() + 1);
        const std::string run =
            donor.substr(from, rng->Uniform(donor.size() - from + 1));
        const size_t at = rng->Uniform(mutated.size() + 1);
        const size_t replaced = rng->Bernoulli(0.5) ? run.size() : 0;
        mutated.replace(at, replaced, run);
        break;
      }
    }
  }
  return mutated;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool Equal(const net::HelloRequest& a, const net::HelloRequest& b) {
  return a.min_version == b.min_version && a.max_version == b.max_version;
}

bool Equal(const net::HelloAckFrame& a, const net::HelloAckFrame& b) {
  return a.version == b.version && a.role == b.role && a.server == b.server;
}

bool Equal(const net::BatchRequestFrame& a, const net::BatchRequestFrame& b) {
  return a.collection == b.collection &&
         a.options.deadline_ns == b.options.deadline_ns &&
         a.options.explain == b.options.explain &&
         a.options.lane == b.options.lane &&
         a.options.trace.trace_id == b.options.trace.trace_id &&
         a.options.trace.sampled == b.options.trace.sampled &&
         a.queries == b.queries;
}

bool Equal(const net::BatchReplyFrame& a, const net::BatchReplyFrame& b) {
  if (a.items.size() != b.items.size()) return false;
  for (size_t i = 0; i < a.items.size(); ++i) {
    const net::BatchReplyItem& x = a.items[i];
    const net::BatchReplyItem& y = b.items[i];
    if (x.ok != y.ok || !SameBits(x.estimate, y.estimate) ||
        x.latency_ns != y.latency_ns || x.explanation != y.explanation ||
        x.error != y.error) {
      return false;
    }
  }
  return a.stats.wall_ns == b.stats.wall_ns && a.stats.ok == b.stats.ok &&
         a.stats.failed == b.stats.failed &&
         a.stats.p50_latency_ns == b.stats.p50_latency_ns &&
         a.stats.p95_latency_ns == b.stats.p95_latency_ns &&
         a.stats.max_latency_ns == b.stats.max_latency_ns &&
         a.trace_id == b.trace_id;
}

bool Equal(const net::ShedFrame& a, const net::ShedFrame& b) {
  return a.retry_after_ms == b.retry_after_ms && a.message == b.message;
}

bool Equal(const net::InstallFrame& a, const net::InstallFrame& b) {
  return a.name == b.name && a.generation == b.generation &&
         a.total_bytes == b.total_bytes && a.chunk_index == b.chunk_index &&
         a.chunk_count == b.chunk_count &&
         a.snapshot_crc == b.snapshot_crc && a.chunk == b.chunk;
}

bool Equal(const net::InstallReplyFrame& a, const net::InstallReplyFrame& b) {
  return a.ok == b.ok && a.generation == b.generation &&
         a.message == b.message;
}

/// Decodes `bytes` and returns whether it decoded. A failure must carry
/// a message; a success must re-encode to bytes that decode to an equal
/// value.
template <typename T, typename Encode>
bool ExpectStableDecode(const std::string& bytes,
                        Result<T> (*decode)(const std::string&),
                        Encode encode) {
  Result<T> first = decode(bytes);
  if (!first.ok()) {
    EXPECT_FALSE(first.status().ToString().empty());
    return false;
  }
  Result<T> second = decode(encode(first.value()));
  EXPECT_TRUE(second.ok()) << second.status().ToString();
  if (!second.ok()) return true;
  if constexpr (std::is_class_v<T>) {
    EXPECT_TRUE(Equal(first.value(), second.value()))
        << net::golden::ToHex(bytes);
  } else {
    EXPECT_EQ(first.value(), second.value()) << net::golden::ToHex(bytes);
  }
  return true;
}

/// Runs the payload decoder for frame `type` over `payload`; returns
/// whether it decoded (text payloads always do).
bool DecodePayload(net::FrameType type, const std::string& payload) {
  using net::FrameType;
  switch (type) {
    case FrameType::kHello:
      return ExpectStableDecode(payload, &net::DecodeHello, &net::EncodeHello);
    case FrameType::kHelloAck:
      return ExpectStableDecode(payload, &net::DecodeHelloAck,
                                &net::EncodeHelloAck);
    case FrameType::kBatch:
      return ExpectStableDecode(payload, &net::DecodeBatchRequest,
                                &net::EncodeBatchRequest);
    case FrameType::kBatchReply:
      return ExpectStableDecode(payload, &net::DecodeBatchReply,
                                &net::EncodeBatchReplyFrame);
    case FrameType::kShed:
      return ExpectStableDecode(payload, &net::DecodeShed, &net::EncodeShed);
    case FrameType::kStats:
      return ExpectStableDecode(payload, &net::DecodeStatsRequest,
                                &net::EncodeStatsRequest);
    case FrameType::kFlight:
      return ExpectStableDecode(payload, &net::DecodeFlightRequest,
                                &net::EncodeFlightRequest);
    case FrameType::kInstall:
      return ExpectStableDecode(payload, &net::DecodeInstall,
                                &net::EncodeInstall);
    case FrameType::kInstallReply:
      return ExpectStableDecode(payload, &net::DecodeInstallReply,
                                &net::EncodeInstallReply);
    default:
      return true;  // text payloads
  }
}

struct GoldenPayload {
  net::FrameType type;
  std::string bytes;
};

std::vector<GoldenPayload> GoldenPayloads() {
  using net::FrameType;
  namespace golden = net::golden;
  return {
      {FrameType::kHello, golden::FromHex(golden::kHello)},
      {FrameType::kHelloAck, golden::FromHex(golden::kHelloAck)},
      {FrameType::kBatch, golden::FromHex(golden::kBatchRequest)},
      {FrameType::kBatchReply, golden::FromHex(golden::kBatchReplyExplain)},
      {FrameType::kBatchReply, golden::FromHex(golden::kBatchReply)},
      {FrameType::kShed, golden::FromHex(golden::kShed)},
      {FrameType::kInstall, golden::FromHex(golden::kInstall)},
      {FrameType::kInstallReply, golden::FromHex(golden::kInstallReply)},
      {FrameType::kStats, golden::FromHex(golden::kStats)},
      {FrameType::kFlight, golden::FromHex(golden::kFlight)},
  };
}

class ProtocolFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProtocolFuzzTest, MutatedPayloadsDecodeCleanly) {
  Rng rng(GetParam());
  const std::vector<GoldenPayload> seeds = GoldenPayloads();
  size_t decoded = 0;
  size_t rejected = 0;
  for (int round = 0; round < 300; ++round) {
    for (const GoldenPayload& seed : seeds) {
      const std::string& donor = seeds[rng.Uniform(seeds.size())].bytes;
      const std::string mutated = MutatePayload(&rng, seed.bytes, donor);
      ++(DecodePayload(seed.type, mutated) ? decoded : rejected);
    }
  }
  // The mutations reach both outcomes, so both checks above ran.
  EXPECT_GT(decoded, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST_P(ProtocolFuzzTest, MutatedFrameStreamsDecodeCleanly) {
  Rng rng(GetParam() ^ 0xf4a3e);
  std::string stream;
  for (const GoldenPayload& seed : GoldenPayloads()) {
    net::EncodeFrame({seed.type, 0, seed.bytes}, &stream);
  }
  size_t frames = 0;
  size_t poisoned = 0;
  for (int round = 0; round < 300; ++round) {
    const std::string mutated = MutatePayload(&rng, stream, stream);
    // A small cap, so that mutated length fields also hit the cap check.
    net::FrameDecoder decoder(256);
    size_t fed = 0;
    bool failed = false;
    while (fed < mutated.size() && !failed) {
      const size_t piece =
          std::min(mutated.size() - fed, 1 + rng.Uniform(64));
      decoder.Feed(mutated.data() + fed, piece);
      fed += piece;
      for (;;) {
        net::Frame frame;
        bool have_frame = false;
        Status status = decoder.Next(&frame, &have_frame);
        if (!status.ok()) {
          EXPECT_FALSE(status.ToString().empty());
          failed = true;
          break;
        }
        if (!have_frame) break;
        // A frame that decodes re-encodes to one that decodes equal.
        std::string wire;
        net::EncodeFrame(frame, &wire);
        net::FrameDecoder again(256);
        again.Feed(wire.data(), wire.size());
        net::Frame copy;
        bool have_copy = false;
        ASSERT_TRUE(again.Next(&copy, &have_copy).ok());
        ASSERT_TRUE(have_copy);
        EXPECT_EQ(copy.type, frame.type);
        EXPECT_EQ(copy.flags, frame.flags);
        EXPECT_EQ(copy.payload, frame.payload);
        DecodePayload(frame.type, frame.payload);
        ++frames;
      }
    }
    if (failed) ++poisoned;
  }
  EXPECT_GT(frames, 300u);
  EXPECT_GT(poisoned, 30u);
}

TEST_P(ProtocolFuzzTest, MutatedInstallSequencesReassembleOrFailCleanly) {
  Rng rng(GetParam() ^ 0x1257a11);
  const std::string snapshot = "an XCSF image stands in here: 0123456789";
  std::vector<std::string> chunks;
  net::InstallFrame frame =
      net::DecodeInstall(net::golden::FromHex(net::golden::kInstall)).value();
  frame.total_bytes = snapshot.size();
  frame.chunk_count = 4;
  frame.snapshot_crc =
      crc32c::Mask(crc32c::Value(snapshot.data(), snapshot.size()));
  for (uint32_t index = 0; index < frame.chunk_count; ++index) {
    frame.chunk_index = index;
    frame.chunk = snapshot.substr(index * 10, 10);
    chunks.push_back(net::EncodeInstall(frame));
  }
  for (int round = 0; round < 300; ++round) {
    net::InstallAssembler assembler(/*max_frame_bytes=*/64,
                                    /*max_install_bytes=*/256);
    const size_t victim = rng.Uniform(chunks.size());
    for (size_t i = 0; i < chunks.size(); ++i) {
      const std::string payload =
          i == victim
              ? MutatePayload(&rng, chunks[i], chunks[rng.Uniform(4)])
              : chunks[i];
      bool complete = false;
      Status added = assembler.Add(payload, &complete);
      if (!added.ok()) {
        EXPECT_FALSE(added.ToString().empty());
        continue;
      }
      if (!complete) continue;
      Result<net::InstallSnapshot> taken = assembler.Take();
      if (taken.ok()) {
        EXPECT_LE(taken.value().bytes.size(), 256u);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzzTest, ::testing::Values(1, 2, 3));
INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzzTest, ::testing::Values(4, 5, 6));
INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzzTest,
                         ::testing::Values(7, 8, 9));

}  // namespace
}  // namespace xcluster
