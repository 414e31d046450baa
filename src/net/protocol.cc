#include "net/protocol.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/io/bytes.h"
#include "common/io/crc32c.h"
#include "service/harness.h"

namespace xcluster {
namespace net {

namespace {

/// Wraps a payload string in a StringSource for the Get* primitives and
/// fails decoding if trailing bytes remain (a length that disagrees with
/// the content is corruption, not slack).
Status ExpectFullyConsumed(const StringSource& source, const char* what) {
  if (source.Remaining() != 0) {
    return Status::Corruption(std::string(what) + ": " +
                              std::to_string(source.Remaining()) +
                              " trailing bytes");
  }
  return Status::OK();
}

}  // namespace

std::string EncodeHello(const HelloRequest& hello) {
  std::string payload;
  StringSink sink(&payload);
  sink.Append(std::string_view(kHelloMagic, sizeof(kHelloMagic)));
  PutFixed32(&sink, hello.min_version);
  PutFixed32(&sink, hello.max_version);
  return payload;
}

Result<HelloRequest> DecodeHello(const std::string& payload) {
  StringSource source(payload);
  char magic[sizeof(kHelloMagic)];
  XC_RETURN_IF_ERROR(source.Read(magic, sizeof(magic)));
  if (std::memcmp(magic, kHelloMagic, sizeof(magic)) != 0) {
    return Status::Corruption("hello magic mismatch (not an XNET peer)");
  }
  HelloRequest hello;
  XC_RETURN_IF_ERROR(GetFixed32(&source, &hello.min_version));
  XC_RETURN_IF_ERROR(GetFixed32(&source, &hello.max_version));
  XC_RETURN_IF_ERROR(ExpectFullyConsumed(source, "hello"));
  if (hello.min_version > hello.max_version) {
    return Status::Corruption("hello version range is inverted");
  }
  return hello;
}

Result<uint32_t> NegotiateVersion(const HelloRequest& peer) {
  if (peer.min_version > kProtocolVersion ||
      peer.max_version < kProtocolVersion) {
    return Status::InvalidArgument(
        "no common protocol version: peer speaks [" +
        std::to_string(peer.min_version) + ", " +
        std::to_string(peer.max_version) + "], this build speaks " +
        std::to_string(kProtocolVersion));
  }
  return kProtocolVersion;
}

std::string EncodeHelloAck(const HelloAckFrame& ack) {
  std::string payload;
  StringSink sink(&payload);
  PutFixed32(&sink, ack.version);
  PutLengthPrefixed(&sink, ack.role);
  PutLengthPrefixed(&sink, ack.server);
  return payload;
}

Result<HelloAckFrame> DecodeHelloAck(const std::string& payload) {
  StringSource source(payload);
  HelloAckFrame ack;
  XC_RETURN_IF_ERROR(GetFixed32(&source, &ack.version));
  XC_RETURN_IF_ERROR(GetLengthPrefixed(&source, &ack.role));
  XC_RETURN_IF_ERROR(GetLengthPrefixed(&source, &ack.server));
  XC_RETURN_IF_ERROR(ExpectFullyConsumed(source, "hello ack"));
  return ack;
}

std::string EncodeBatchRequest(const BatchRequestFrame& request) {
  std::string payload;
  StringSink sink(&payload);
  PutLengthPrefixed(&sink, request.collection);
  PutFixed64(&sink, request.options.deadline_ns);
  // Flags byte: bit0 = explain, bit1 = bulk lane, bit2 = trace context
  // present (inserts the id/sampled fields below).
  uint8_t flags = request.options.explain ? 1 : 0;
  if (request.options.lane == Lane::kBulk) flags |= 2;
  const bool send_trace = request.options.trace.trace_id != 0;
  if (send_trace) flags |= 4;
  PutFixed8(&sink, flags);
  if (send_trace) {
    PutFixed64(&sink, request.options.trace.trace_id);
    PutFixed8(&sink, request.options.trace.sampled ? 1 : 0);
  }
  PutVarint64(&sink, request.queries.size());
  for (const std::string& query : request.queries) {
    PutLengthPrefixed(&sink, query);
  }
  return payload;
}

Result<BatchRequestFrame> DecodeBatchRequest(const std::string& payload) {
  StringSource source(payload);
  BatchRequestFrame request;
  XC_RETURN_IF_ERROR(GetLengthPrefixed(&source, &request.collection));
  XC_RETURN_IF_ERROR(GetFixed64(&source, &request.options.deadline_ns));
  uint8_t flags = 0;
  XC_RETURN_IF_ERROR(GetFixed8(&source, &flags));
  if ((flags & ~uint8_t{7}) != 0) {
    return Status::Corruption("batch request: unknown flags bits set");
  }
  request.options.explain = (flags & 1) != 0;
  request.options.lane = (flags & 2) != 0 ? Lane::kBulk : Lane::kInteractive;
  if ((flags & 4) != 0) {
    XC_RETURN_IF_ERROR(GetFixed64(&source, &request.options.trace.trace_id));
    uint8_t sampled = 0;
    XC_RETURN_IF_ERROR(GetFixed8(&source, &sampled));
    request.options.trace.sampled = sampled != 0;
    if (request.options.trace.trace_id == 0) {
      return Status::Corruption("batch request: trace flag with zero id");
    }
  }
  uint64_t count = 0;
  XC_RETURN_IF_ERROR(GetVarint64(&source, &count));
  // Every query costs at least its one-byte length prefix, so the count
  // cannot exceed the remaining payload — checked before the reserve.
  XC_RETURN_IF_ERROR(CheckCount(count, 1, source, "batch queries"));
  request.queries.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string query;
    XC_RETURN_IF_ERROR(GetLengthPrefixed(&source, &query));
    request.queries.push_back(std::move(query));
  }
  XC_RETURN_IF_ERROR(ExpectFullyConsumed(source, "batch request"));
  return request;
}

std::string EncodeShed(const ShedFrame& shed) {
  std::string payload;
  StringSink sink(&payload);
  PutFixed32(&sink, shed.retry_after_ms);
  PutLengthPrefixed(&sink, shed.message);
  return payload;
}

Result<ShedFrame> DecodeShed(const std::string& payload) {
  StringSource source(payload);
  ShedFrame shed;
  XC_RETURN_IF_ERROR(GetFixed32(&source, &shed.retry_after_ms));
  XC_RETURN_IF_ERROR(GetLengthPrefixed(&source, &shed.message));
  XC_RETURN_IF_ERROR(ExpectFullyConsumed(source, "shed"));
  return shed;
}

std::string EncodeBatchReply(const BatchResult& batch, bool explain,
                             uint64_t trace_id) {
  BatchReplyFrame reply;
  reply.items.resize(batch.results.size());
  for (size_t i = 0; i < batch.results.size(); ++i) {
    const QueryResult& result = batch.results[i];
    BatchReplyItem& item = reply.items[i];
    item.ok = result.status.ok();
    if (item.ok) {
      item.estimate = result.estimate;
      if (explain) item.explanation = result.explanation;
    } else {
      item.error = result.status.ToString();
    }
  }
  reply.stats = batch.stats;
  reply.trace_id = trace_id;
  return EncodeBatchReplyFrame(reply);
}

Result<BatchReplyFrame> DecodeBatchReply(const std::string& payload) {
  StringSource source(payload);
  BatchReplyFrame reply;
  uint64_t count = 0;
  XC_RETURN_IF_ERROR(GetVarint64(&source, &count));
  XC_RETURN_IF_ERROR(CheckCount(count, 1, source, "batch reply items"));
  reply.items.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    BatchReplyItem item;
    uint8_t ok = 0;
    XC_RETURN_IF_ERROR(GetFixed8(&source, &ok));
    item.ok = ok != 0;
    if (item.ok) {
      XC_RETURN_IF_ERROR(GetDouble(&source, &item.estimate));
      XC_RETURN_IF_ERROR(GetLengthPrefixed(&source, &item.explanation));
    } else {
      XC_RETURN_IF_ERROR(GetLengthPrefixed(&source, &item.error));
    }
    reply.items.push_back(std::move(item));
  }
  XC_RETURN_IF_ERROR(GetFixed64(&source, &reply.stats.wall_ns));
  uint64_t ok_count = 0, failed_count = 0;
  XC_RETURN_IF_ERROR(GetVarint64(&source, &ok_count));
  XC_RETURN_IF_ERROR(GetVarint64(&source, &failed_count));
  reply.stats.ok = static_cast<size_t>(ok_count);
  reply.stats.failed = static_cast<size_t>(failed_count);
  XC_RETURN_IF_ERROR(GetFixed64(&source, &reply.trace_id));
  XC_RETURN_IF_ERROR(ExpectFullyConsumed(source, "batch reply"));
  return reply;
}

std::string EncodeInstall(const InstallFrame& install) {
  std::string payload;
  StringSink sink(&payload);
  PutLengthPrefixed(&sink, install.name);
  PutFixed64(&sink, install.generation);
  PutFixed64(&sink, install.total_bytes);
  PutFixed32(&sink, install.chunk_index);
  PutFixed32(&sink, install.chunk_count);
  PutFixed32(&sink, install.snapshot_crc);
  PutLengthPrefixed(&sink, install.chunk);
  return payload;
}

Result<InstallFrame> DecodeInstall(const std::string& payload) {
  StringSource source(payload);
  InstallFrame install;
  XC_RETURN_IF_ERROR(GetLengthPrefixed(&source, &install.name));
  XC_RETURN_IF_ERROR(GetFixed64(&source, &install.generation));
  XC_RETURN_IF_ERROR(GetFixed64(&source, &install.total_bytes));
  XC_RETURN_IF_ERROR(GetFixed32(&source, &install.chunk_index));
  XC_RETURN_IF_ERROR(GetFixed32(&source, &install.chunk_count));
  XC_RETURN_IF_ERROR(GetFixed32(&source, &install.snapshot_crc));
  XC_RETURN_IF_ERROR(GetLengthPrefixed(&source, &install.chunk));
  XC_RETURN_IF_ERROR(ExpectFullyConsumed(source, "install"));
  if (install.name.empty()) {
    return Status::Corruption("install: empty collection name");
  }
  if (install.chunk_count == 0) {
    return Status::Corruption("install: zero chunk count");
  }
  if (install.chunk_index >= install.chunk_count) {
    return Status::Corruption(
        "install: chunk index " + std::to_string(install.chunk_index) +
        " out of range (count " + std::to_string(install.chunk_count) + ")");
  }
  if (install.chunk.size() > install.total_bytes) {
    return Status::Corruption("install: chunk larger than declared snapshot");
  }
  return install;
}

std::string EncodeInstallReply(const InstallReplyFrame& reply) {
  std::string payload;
  StringSink sink(&payload);
  PutFixed8(&sink, reply.ok ? 1 : 0);
  PutFixed64(&sink, reply.generation);
  PutLengthPrefixed(&sink, reply.message);
  return payload;
}

Result<InstallReplyFrame> DecodeInstallReply(const std::string& payload) {
  StringSource source(payload);
  InstallReplyFrame reply;
  uint8_t ok = 0;
  XC_RETURN_IF_ERROR(GetFixed8(&source, &ok));
  reply.ok = ok != 0;
  XC_RETURN_IF_ERROR(GetFixed64(&source, &reply.generation));
  XC_RETURN_IF_ERROR(GetLengthPrefixed(&source, &reply.message));
  XC_RETURN_IF_ERROR(ExpectFullyConsumed(source, "install reply"));
  return reply;
}

Status InstallAssembler::Add(const std::string& payload, bool* complete) {
  *complete = false;
  Result<InstallFrame> decoded = DecodeInstall(payload);
  if (!decoded.ok()) {
    Reset();
    return decoded.status();
  }
  InstallFrame chunk = std::move(decoded).value();
  std::string bytes;
  bytes.swap(chunk.chunk);  // `chunk` keeps only the header fields
  if (header_.name.empty()) {
    if (chunk.chunk_index != 0) {
      return Status::Corruption("install chunk " +
                                std::to_string(chunk.chunk_index) + " of " +
                                chunk.name + " without a first chunk");
    }
    // Each chunk travels in its own frame, so a consistent snapshot can
    // never need more than chunk_count frame payloads.
    if (chunk.total_bytes >
        static_cast<uint64_t>(chunk.chunk_count) * max_frame_bytes_) {
      return Status::Corruption("install of " + chunk.name + " declares " +
                                std::to_string(chunk.total_bytes) +
                                " bytes, more than its chunks can carry");
    }
    if (chunk.total_bytes > max_install_bytes_) {
      return Status::ResourceExhausted(
          "install of " + chunk.name + " declares " +
          std::to_string(chunk.total_bytes) + " bytes, above the " +
          std::to_string(max_install_bytes_) + "-byte install cap");
    }
    // No upfront reserve: total_bytes is peer-declared, so the buffer only
    // grows with bytes actually received, bounded by the overflow check.
    header_ = chunk;
  } else if (chunk.name != header_.name ||
             chunk.generation != header_.generation ||
             chunk.total_bytes != header_.total_bytes ||
             chunk.chunk_count != header_.chunk_count ||
             chunk.snapshot_crc != header_.snapshot_crc ||
             chunk.chunk_index != next_chunk_) {
    Reset();
    return Status::Corruption("install chunk sequence violation for " +
                              chunk.name);
  }
  if (buffer_.size() + bytes.size() > header_.total_bytes) {
    Reset();
    return Status::Corruption("install chunks for " + chunk.name +
                              " overflow the declared snapshot size");
  }
  buffer_.append(bytes);
  ++next_chunk_;
  *complete = next_chunk_ == header_.chunk_count;
  return Status::OK();
}

Result<InstallSnapshot> InstallAssembler::Take() {
  InstallSnapshot snapshot;
  snapshot.name = std::move(header_.name);
  snapshot.generation = header_.generation;
  snapshot.bytes = std::move(buffer_);
  const uint64_t total_bytes = header_.total_bytes;
  const uint32_t crc = header_.snapshot_crc;
  Reset();
  // The whole-snapshot checksum is checked before any validation, so a
  // chunking bug or in-flight corruption is named as such rather than as
  // an XCSF validation error.
  if (snapshot.bytes.size() != total_bytes) {
    return Status::Corruption("install of " + snapshot.name +
                              " reassembled " +
                              std::to_string(snapshot.bytes.size()) +
                              " bytes, expected " +
                              std::to_string(total_bytes));
  }
  if (crc32c::Mask(crc32c::Value(snapshot.bytes.data(),
                                 snapshot.bytes.size())) != crc) {
    return Status::Corruption("install of " + snapshot.name +
                              " failed snapshot checksum");
  }
  return snapshot;
}

void InstallAssembler::Reset() {
  header_ = InstallFrame();
  next_chunk_ = 0;
  buffer_ = std::string();
}

std::string EncodeBatchReplyFrame(const BatchReplyFrame& reply) {
  std::string payload;
  StringSink sink(&payload);
  PutVarint64(&sink, reply.items.size());
  for (const BatchReplyItem& item : reply.items) {
    PutFixed8(&sink, item.ok ? 1 : 0);
    if (item.ok) {
      PutDouble(&sink, item.estimate);
      PutLengthPrefixed(&sink, item.explanation);
    } else {
      PutLengthPrefixed(&sink, item.error);
    }
  }
  PutFixed64(&sink, reply.stats.wall_ns);
  PutVarint64(&sink, reply.stats.ok);
  PutVarint64(&sink, reply.stats.failed);
  PutFixed64(&sink, reply.trace_id);
  return payload;
}

std::string EncodeStatsRequest(StatsFormat format) {
  std::string payload;
  StringSink sink(&payload);
  PutFixed8(&sink, static_cast<uint8_t>(format));
  return payload;
}

Result<StatsFormat> DecodeStatsRequest(const std::string& payload) {
  StringSource source(payload);
  uint8_t format = 0;
  XC_RETURN_IF_ERROR(GetFixed8(&source, &format));
  XC_RETURN_IF_ERROR(ExpectFullyConsumed(source, "stats request"));
  if (format > static_cast<uint8_t>(StatsFormat::kText)) {
    return Status::Corruption("stats request: unknown format " +
                              std::to_string(format));
  }
  return static_cast<StatsFormat>(format);
}

std::string EncodeFlightRequest(uint32_t max_records) {
  std::string payload;
  StringSink sink(&payload);
  PutFixed32(&sink, max_records);
  return payload;
}

Result<uint32_t> DecodeFlightRequest(const std::string& payload) {
  StringSource source(payload);
  uint32_t max_records = 0;
  XC_RETURN_IF_ERROR(GetFixed32(&source, &max_records));
  XC_RETURN_IF_ERROR(ExpectFullyConsumed(source, "flight request"));
  return max_records;
}

std::string FormatBatchReply(const BatchReplyFrame& reply, bool explain) {
  std::ostringstream out;
  WriteBatchHeader(out, reply.items.size(), reply.stats);
  for (size_t i = 0; i < reply.items.size(); ++i) {
    const BatchReplyItem& item = reply.items[i];
    WriteBatchItem(out, i, item.ok, item.estimate,
                   explain ? item.explanation : std::string(), item.error);
  }
  return out.str();
}

}  // namespace net
}  // namespace xcluster
