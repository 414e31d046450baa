// Robustness "fuzz-lite" tests: malformed and randomly mutated inputs to
// the XML parser, the twig-query parser, the XNET protocol decoders and
// the XCSF synopsis loader must produce Status errors (or decode
// successfully) — never crash, hang, or corrupt state.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "build/builder.h"
#include "common/io/bytes.h"
#include "common/io/crc32c.h"
#include "common/rng.h"
#include "data/imdb.h"
#include "data/treebank.h"
#include "data/xmark.h"
#include "estimate/compiled_twig.h"
#include "estimate/flat_estimator.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net_golden.h"
#include "query/parser.h"
#include "storage/xcsf_format.h"
#include "storage/xcsf_reader.h"
#include "storage/xcsf_writer.h"
#include "synopsis/reference.h"
#include "xcsf_reseal.h"
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
        x.explanation != y.explanation || x.error != y.error) {
      return false;
    }
  }
  return a.stats.wall_ns == b.stats.wall_ns && a.stats.ok == b.stats.ok &&
         a.stats.failed == b.stats.failed && a.trace_id == b.trace_id;
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

// --- Structure-aware edits of the counts and lengths the decoders trust ---

/// One integer field of a payload: its byte span and the value it holds.
struct PayloadField {
  size_t at = 0;
  size_t end = 0;
  uint64_t value = 0;
};

PayloadField ReadVarintField(StringSource* source) {
  PayloadField field;
  field.at = source->Position();
  EXPECT_TRUE(GetVarint64(source, &field.value).ok());
  field.end = source->Position();
  return field;
}

/// A kBatch payload's query count and the length prefix of query `slot`
/// (modulo the count).
std::vector<PayloadField> BatchRequestFields(const std::string& payload,
                                             size_t slot) {
  StringSource source(payload);
  std::string text;
  uint64_t fixed64 = 0;
  uint8_t flags = 0;
  EXPECT_TRUE(GetLengthPrefixed(&source, &text).ok());  // collection
  EXPECT_TRUE(GetFixed64(&source, &fixed64).ok());       // deadline
  EXPECT_TRUE(GetFixed8(&source, &flags).ok());
  if ((flags & 4) != 0) {  // trace id and sampled byte
    EXPECT_TRUE(source.Skip(9).ok());
  }
  const PayloadField count = ReadVarintField(&source);
  for (uint64_t i = 0; i < slot % count.value; ++i) {
    EXPECT_TRUE(GetLengthPrefixed(&source, &text).ok());
  }
  return {count, ReadVarintField(&source)};
}

/// A kBatchReply payload's item count and the explanation or error length
/// prefix of item `slot` (modulo the count).
std::vector<PayloadField> BatchReplyFields(const std::string& payload,
                                           size_t slot) {
  StringSource source(payload);
  const PayloadField count = ReadVarintField(&source);
  std::string text;
  for (uint64_t i = 0;; ++i) {
    uint8_t ok = 0;
    EXPECT_TRUE(GetFixed8(&source, &ok).ok());
    if (ok != 0) {
      EXPECT_TRUE(source.Skip(8).ok());  // the estimate
    }
    if (i == slot % count.value) return {count, ReadVarintField(&source)};
    EXPECT_TRUE(GetLengthPrefixed(&source, &text).ok());
  }
}

/// An install payload's total_bytes, chunk_index and chunk_count fields.
std::vector<PayloadField> InstallHeaderFields(const std::string& payload) {
  StringSource source(payload);
  std::string name;
  EXPECT_TRUE(GetLengthPrefixed(&source, &name).ok());
  EXPECT_TRUE(source.Skip(8).ok());  // the generation
  std::vector<PayloadField> fields;
  for (const size_t width : {8, 4, 4}) {
    PayloadField field;
    field.at = source.Position();
    field.end = field.at + width;
    uint32_t narrow = 0;
    EXPECT_TRUE((width == 8 ? GetFixed64(&source, &field.value)
                            : GetFixed32(&source, &narrow))
                    .ok());
    if (width == 4) field.value = narrow;
    fields.push_back(field);
  }
  return fields;
}

/// The values an edit gives a count or length: 0, the true value and its
/// neighbours, the byte count after the field, and every power of two.
std::vector<uint64_t> EdgeValues(const PayloadField& field,
                                 const std::string& payload) {
  std::vector<uint64_t> values = {0, field.value - 1, field.value,
                                  field.value + 1, payload.size() - field.end};
  for (int k = 0; k < 64; ++k) values.push_back(uint64_t{1} << k);
  return values;
}

TEST_P(ProtocolFuzzTest, EdgeCountsAndLengthsDecodeCleanly) {
  Rng rng(GetParam() ^ 0xed9e5);
  namespace golden = net::golden;
  const std::vector<GoldenPayload> seeds = {
      {net::FrameType::kBatch, golden::FromHex(golden::kBatchRequest)},
      {net::FrameType::kBatchReply, golden::FromHex(golden::kBatchReply)},
      {net::FrameType::kBatchReply,
       golden::FromHex(golden::kBatchReplyExplain)},
  };
  size_t decoded = 0;
  size_t rejected = 0;
  for (int round = 0; round < 40; ++round) {
    const GoldenPayload& seed = seeds[rng.Uniform(seeds.size())];
    const size_t slot = rng.Uniform(8);
    const std::vector<PayloadField> fields =
        seed.type == net::FrameType::kBatch
            ? BatchRequestFields(seed.bytes, slot)
            : BatchReplyFields(seed.bytes, slot);
    const PayloadField& field = fields[rng.Uniform(fields.size())];
    for (const uint64_t value : EdgeValues(field, seed.bytes)) {
      std::string edited = seed.bytes.substr(0, field.at);
      StringSink sink(&edited);
      PutVarint64(&sink, value);
      edited += seed.bytes.substr(field.end);
      const bool ok = DecodePayload(seed.type, edited);
      if (value == field.value) {
        EXPECT_TRUE(ok) << "field at " << field.at;
      }
      ++(ok ? decoded : rejected);
    }
  }
  EXPECT_GT(decoded, 40u);
  EXPECT_GT(rejected, 40u);
}

TEST_P(ProtocolFuzzTest, EdgeInstallHeadersReassembleOrFailCleanly) {
  Rng rng(GetParam() ^ 0x1257ed9e);
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
  size_t completed = 0;
  size_t refused = 0;
  net::InstallAssembler assembler(/*max_frame_bytes=*/64,
                                  /*max_install_bytes=*/256);
  for (int round = 0; round < 300; ++round) {
    // One or two header fields rewritten in place, anywhere in the
    // sequence; the assembler carries over from round to round.
    std::vector<std::string> sequence = chunks;
    for (size_t edit = 1 + rng.Uniform(2); edit > 0; --edit) {
      std::string& payload = sequence[rng.Uniform(sequence.size())];
      const std::vector<PayloadField> fields = InstallHeaderFields(payload);
      const PayloadField& field = fields[rng.Uniform(fields.size())];
      const std::vector<uint64_t> values = EdgeValues(field, payload);
      uint64_t value = values[rng.Uniform(values.size())];
      for (size_t at = field.at; at < field.end; ++at, value >>= 8) {
        payload[at] = static_cast<char>(value & 0xff);
      }
    }
    for (const std::string& payload : sequence) {
      DecodePayload(net::FrameType::kInstall, payload);
      bool complete = false;
      Status added = assembler.Add(payload, &complete);
      if (!added.ok()) {
        EXPECT_FALSE(added.ToString().empty());
        ++refused;
        continue;
      }
      if (!complete) continue;
      Result<net::InstallSnapshot> taken = assembler.Take();
      if (!taken.ok()) {
        EXPECT_FALSE(taken.status().ToString().empty());
        continue;
      }
      // The whole-snapshot CRC admits only the snapshot that was sent.
      EXPECT_EQ(taken.value().bytes, snapshot);
      EXPECT_EQ(taken.value().name, frame.name);
      ++completed;
    }
  }
  EXPECT_GT(completed, 0u);
  EXPECT_GT(refused, 100u);
}

// --- XCSF images, seeded with small generator builds ---------------------

/// A small budget-built synopsis of one generated data set, as its image.
std::string SeedImage(const GeneratedDataset& dataset,
                      NumericSummaryKind numeric) {
  ReferenceOptions ref_options;
  ref_options.value_paths = dataset.value_paths;
  ref_options.numeric_summary = numeric;
  const GraphSynopsis reference =
      BuildReferenceSynopsis(dataset.doc, ref_options);
  BuildOptions options;
  options.structural_budget = 2 * 1024;
  options.value_budget = reference.ValueBytes() / 4;
  std::string image;
  EXPECT_TRUE(storage::XcsfWriter::Encode(
                  XClusterBuild(reference, options, nullptr), &image)
                  .ok());
  return image;
}

/// The seed corpus: XMark, IMDB and Treebank builds, plus IMDB with
/// wavelet and with sample numeric summaries. Built once.
const std::vector<std::string>& XcsfSeeds() {
  static const std::vector<std::string> seeds = [] {
    XMarkOptions xmark;
    xmark.scale = 0.02;
    ImdbOptions imdb;
    imdb.scale = 0.02;
    TreebankOptions treebank;
    treebank.scale = 0.02;
    const GeneratedDataset imdb_data = GenerateImdb(imdb);
    return std::vector<std::string>{
        SeedImage(GenerateXMark(xmark), NumericSummaryKind::kHistogram),
        SeedImage(imdb_data, NumericSummaryKind::kHistogram),
        SeedImage(GenerateTreebank(treebank), NumericSummaryKind::kHistogram),
        SeedImage(imdb_data, NumericSummaryKind::kWavelet),
        SeedImage(imdb_data, NumericSummaryKind::kSample),
    };
  }();
  return seeds;
}

/// Values that sit on the edges of the ranges the loader checks.
uint64_t InterestingValue(Rng* rng) {
  static const uint64_t kValues[] = {
      0,          1,          2,          3,          7,
      255,        256,        257,        0x7f,       0x80,
      0xffff,     0x7fffffff, 0x80000000, 0xffffffff, 0x100000000,
      uint64_t{INT64_MAX},    uint64_t{INT64_MAX} + 1,
      ~uint64_t{0},           ~uint64_t{0} - 1};
  return rng->Bernoulli(0.75)
             ? kValues[rng->Uniform(sizeof(kValues) / sizeof(kValues[0]))]
             : rng->Next();
}

/// Overwrites the `width`-byte little-endian field at `at` (clipped to the
/// image) with `value`.
void PutField(std::string* image, size_t at, size_t width, uint64_t value) {
  for (size_t i = 0; i < width && at + i < image->size(); ++i) {
    (*image)[at + i] = static_cast<char>(value >> (8 * i));
  }
}

/// The section-table entries of `image` that lie inside it.
std::vector<storage::XcsfSection> SectionsOf(const std::string& image) {
  std::vector<storage::XcsfSection> sections;
  if (image.size() < storage::kXcsfHeaderBytes) return sections;
  const uint32_t count = GetU32(image, 28);
  for (uint32_t i = 0; i < count; ++i) {
    const size_t entry =
        storage::kXcsfHeaderBytes + i * storage::kXcsfTableEntryBytes;
    if (entry + storage::kXcsfTableEntryBytes > image.size()) break;
    storage::XcsfSection section;
    section.id = GetU32(image, entry);
    section.offset = GetU64(image, entry + 8);
    section.length = GetU64(image, entry + 16);
    if (section.offset <= image.size() &&
        section.length <= image.size() - section.offset) {
      sections.push_back(section);
    }
  }
  return sections;
}

/// The payload of the first section with `id`, if it lies inside `image`.
bool FindSection(const std::string& image, uint32_t id,
                 storage::XcsfSection* out) {
  for (const storage::XcsfSection& section : SectionsOf(image)) {
    if (section.id == id) {
      *out = section;
      return true;
    }
  }
  return false;
}

/// The length of the varint at `at`, or 0 when it runs past `end`.
size_t VarintLength(const std::string& image, size_t at, size_t end) {
  for (size_t i = at; i < end && i < at + 10; ++i) {
    if ((static_cast<unsigned char>(image[i]) & 0x80) == 0) return i - at + 1;
  }
  return 0;
}

/// Edits one numeric field of the histogram (kind 1) or wavelet (kind 2)
/// record in [begin, end), in place so the fields after it stay put: a
/// bucket bound, the wavelet's domain start or cell width, or its grid or
/// a coefficient index (varints rewritten at their own length).
void EditNumericField(Rng* rng, std::string* image, size_t begin,
                      size_t end) {
  const unsigned char kind = static_cast<unsigned char>((*image)[begin]);
  std::vector<size_t> fixed;   // fixed64 fields
  std::vector<std::pair<size_t, size_t>> varints;  // (offset, length)
  if (kind == 1) {
    const size_t n = VarintLength(*image, begin + 1, end);
    if (n == 0) return;
    for (size_t b = begin + 1 + n; b + 24 <= end; b += 24) {
      fixed.push_back(b);      // lo
      fixed.push_back(b + 8);  // hi
    }
  } else if (kind == 2) {
    if (begin + 17 > end) return;
    fixed = {begin + 1, begin + 9};  // domain_lo, cell_width
    size_t at = begin + 17;
    const size_t grid = VarintLength(*image, at, end);
    if (grid == 0) return;
    varints.emplace_back(at, grid);
    at += grid + 8;  // total
    const size_t n = at < end ? VarintLength(*image, at, end) : 0;
    if (n == 0) return;
    for (at += n; at < end;) {
      const size_t index = VarintLength(*image, at, end);
      if (index == 0 || at + index + 8 > end) break;
      varints.emplace_back(at, index);
      at += index + 8;  // value
    }
  }
  // Signed extremes: the widths and domain ends computed from these
  // fields overflow int64 only near them.
  static const int64_t kExtremes[] = {INT64_MIN, INT64_MIN + 1, -1, 0, 1,
                                      INT64_MAX - 1, INT64_MAX};
  const size_t choice = rng->Uniform(fixed.size() + varints.size() + 1);
  if (choice < fixed.size()) {
    PutField(image, fixed[choice], 8,
             rng->Bernoulli(0.75)
                 ? static_cast<uint64_t>(kExtremes[rng->Uniform(7)])
                 : InterestingValue(rng));
  } else if (choice < fixed.size() + varints.size()) {
    const auto [at, length] = varints[choice - fixed.size()];
    const uint64_t value = InterestingValue(rng);
    for (size_t i = 0; i < length; ++i) {
      unsigned char byte = (value >> (7 * i)) & 0x7f;
      if (i + 1 < length) byte |= 0x80;
      (*image)[at + i] = static_cast<char>(byte);
    }
  }
}

/// One structure-aware edit of an XCSF image; the caller re-seals it.
/// Summary records and pool offsets draw the most edits: the validator
/// checks every other byte on adoption, they only on decode.
void MutateXcsf(Rng* rng, std::string* image) {
  static const int kEditOf[] = {0, 0, 1, 2, 3, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6};
  const int edit = image->size() < storage::kXcsfHeaderBytes
                       ? 0  // no header left to edit
                       : kEditOf[rng->Uniform(sizeof(kEditOf) /
                                              sizeof(kEditOf[0]))];
  switch (edit) {
    case 0:  // flip one bit anywhere
      (*image)[rng->Uniform(image->size())] ^=
          static_cast<char>(1 << rng->Uniform(8));
      return;
    case 1: {  // truncate, keeping the header's size claim in step
      image->resize(rng->Uniform(image->size()));
      if (image->size() >= storage::kXcsfHeaderBytes) {
        PutU64(image, 16, image->size());
      }
      return;
    }
    case 2: {  // a header count: flags, size, sections, nodes, root, edges,
               // arena
      static const struct {
        size_t at;
        size_t width;
      } kFields[] = {{8, 8}, {16, 8}, {28, 4}, {32, 4},
                     {36, 4}, {40, 8}, {48, 4}};
      const auto& field = kFields[rng->Uniform(7)];
      const uint64_t old = field.width == 8 ? GetU64(*image, field.at)
                                            : GetU32(*image, field.at);
      PutField(image, field.at, field.width,
               rng->Bernoulli(0.5) ? old + rng->UniformRange(-2, 2)
                                   : InterestingValue(rng));
      return;
    }
    case 3: {  // a section-table entry's id, offset or length
      const std::vector<storage::XcsfSection> sections = SectionsOf(*image);
      if (sections.empty()) return;
      const size_t entry =
          storage::kXcsfHeaderBytes +
          rng->Uniform(sections.size()) * storage::kXcsfTableEntryBytes;
      const size_t at =
          entry + (rng->Uniform(3) == 0 ? 0 : 8 * (1 + rng->Uniform(2)));
      const uint64_t old =
          at == entry ? GetU32(*image, at) : GetU64(*image, at);
      const uint64_t value =
          rng->Bernoulli(0.5)
              ? old + static_cast<uint64_t>(rng->UniformRange(-64, 64))
              : InterestingValue(rng);
      PutField(image, at, at == entry ? 4 : 8, value);
      return;
    }
    case 4: {  // a pool's count or offset array: labels, terms, summaries
      static const uint32_t kPools[] = {storage::kXcsfLabelPool,
                                        storage::kXcsfTermPool,
                                        storage::kXcsfSummaryPool};
      const uint32_t id = kPools[rng->Uniform(3)];
      storage::XcsfSection pool;
      if (!FindSection(*image, id, &pool) || pool.length < 8) return;
      const size_t width = id == storage::kXcsfSummaryPool ? 8 : 4;
      const uint64_t count = GetU32(*image, pool.offset);
      const size_t slot = rng->Uniform(count + 2);  // 0 = the count
      const size_t at = slot == 0 ? pool.offset
                                  : pool.offset + 8 + (slot - 1) * width;
      if (at + width > pool.offset + pool.length) return;
      const uint64_t old = width == 8 ? GetU64(*image, at) : GetU32(*image, at);
      PutField(image, at, slot == 0 ? 4 : width,
               rng->Bernoulli(0.5)
                   ? old + static_cast<uint64_t>(rng->UniformRange(-3, 3))
                   : InterestingValue(rng));
      return;
    }
    case 5: {  // bytes of one summary record
      storage::XcsfSection pool;
      if (!FindSection(*image, storage::kXcsfSummaryPool, &pool) ||
          pool.length < 8) {
        return;
      }
      const uint64_t count = GetU32(*image, pool.offset);
      const uint64_t base = pool.offset + 8 + (count + 1) * 8;
      if (count == 0 || base > pool.offset + pool.length) return;
      const size_t record = rng->Uniform(count);
      const uint64_t begin =
          base + GetU64(*image, pool.offset + 8 + record * 8);
      const uint64_t end =
          base + GetU64(*image, pool.offset + 8 + (record + 1) * 8);
      if (begin >= end || end > pool.offset + pool.length) return;
      const size_t at = begin + rng->Uniform(end - begin);
      switch (rng->Uniform(5)) {
        case 0:
          (*image)[at] = static_cast<char>(InterestingValue(rng));
          break;
        case 1:
          PutField(image, at, 8, InterestingValue(rng));
          break;
        case 2: {
          static const double kDoubles[] = {
              0.0,    -1.0,
              1e308,  -1e308,
              std::numeric_limits<double>::quiet_NaN(),
              std::numeric_limits<double>::infinity()};
          uint64_t bits = 0;
          std::memcpy(&bits, &kDoubles[rng->Uniform(6)], sizeof(bits));
          PutField(image, at, 8, bits);
          break;
        }
        default:
          EditNumericField(rng, image, begin, end);
          break;
      }
      return;
    }
    case 6: {  // one element of a column section
      const std::vector<storage::XcsfSection> sections = SectionsOf(*image);
      if (sections.empty()) return;
      const storage::XcsfSection& section =
          sections[rng->Uniform(sections.size())];
      if (section.length < 4) return;
      const size_t at = section.offset + rng->Uniform(section.length / 4) * 4;
      PutField(image, at, 4, InterestingValue(rng));
      return;
    }
  }
}

/// Label-free queries that touch every node's summary: a range, a
/// substring, a term, and the bare wildcard.
const char* const kXcsfFuzzQueries[] = {
    "//*[range(1950,2000)]", "//*[contains(an)]", "//*[ftcontains(the)]",
    "//*", "/*/*[range(-5,5)]"};

class XcsfFuzzTest : public ::testing::TestWithParam<uint64_t> {};

// Each mutant either fails adoption with a clean Status, or adopts and
// answers the query set (and, when VerifyXcsfBytes passes, rebuilds its
// graph) with no crash and no sanitizer report.
TEST_P(XcsfFuzzTest, MutatedImagesLoadOrFailCleanly) {
  Rng rng(GetParam());
  std::vector<TwigQuery> queries;
  for (const char* text : kXcsfFuzzQueries) {
    Result<TwigQuery> query = ParseTwig(text);
    ASSERT_TRUE(query.ok()) << text;
    queries.push_back(std::move(query).value());
  }
  size_t adopted = 0;
  size_t rejected = 0;
  size_t undecodable = 0;  // adopted, but a summary record fails to decode
  for (int round = 0; round < 200; ++round) {
    for (const std::string& seed : XcsfSeeds()) {
      std::string image = seed;
      const size_t edits = 1 + rng.Uniform(3);
      for (size_t e = 0; e < edits && !image.empty(); ++e) {
        MutateXcsf(&rng, &image);
      }
      Reseal(&image);
      const Status verified = storage::VerifyXcsfBytes(image, nullptr);
      Result<std::shared_ptr<const FlatSynopsis>> flat =
          storage::AdoptXcsf(image);
      if (!flat.ok()) {
        EXPECT_FALSE(flat.status().ToString().empty());
        EXPECT_FALSE(verified.ok()) << "verify passed what adopt rejected";
        ++rejected;
        continue;
      }
      ++adopted;
      const FlatEstimator estimator(*flat.value());
      for (const TwigQuery& query : queries) {
        estimator.Estimate(CompiledTwig::Compile(query, *flat.value()));
      }
      if (verified.ok()) {
        ToGraph(*flat.value());
      } else {
        ++undecodable;
      }
    }
  }
  // The edits reach both outcomes, so both checks above ran.
  EXPECT_GT(adopted, 100u);
  EXPECT_GT(rejected, 100u);
  EXPECT_GT(undecodable, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzzTest, ::testing::Values(1, 2, 3));
INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzzTest, ::testing::Values(4, 5, 6));
INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzzTest,
                         ::testing::Values(7, 8, 9));
INSTANTIATE_TEST_SUITE_P(Seeds, XcsfFuzzTest, ::testing::Values(10, 11, 12));

}  // namespace
}  // namespace xcluster
