// Golden XNET payloads: the exact bytes of one fixed input per payload
// type (the inputs are built in net_golden_test.cc). They pin the wire
// format, so a peer built from another revision of this tree sees the
// same bytes, and they seed the protocol decoders in fuzz_test.cc.

#ifndef XCLUSTER_TESTS_NET_GOLDEN_H_
#define XCLUSTER_TESTS_NET_GOLDEN_H_

#include <string>

namespace xcluster {
namespace net {
namespace golden {

/// hello: magic + [1, 4].
inline constexpr char kHello[] = "584e45540100000004000000";

/// hello_ack: version 4, role "replica", server "xclusterd".
inline constexpr char kHelloAck[] =
    "04000000077265706c6963610978636c757374657264";

/// batch: "books", 1.5 ms deadline, explain + bulk lane + a sampled
/// trace context, two queries.
inline constexpr char kBatchRequest[] =
    "05626f6f6b7360e316000000000007887766554433221101020"
    "22f41112f2f415b72616e676528312c39295d2f42";

/// batch_reply with explain: an ok slot with an explanation, a failed
/// slot, an ok slot without one; wall time 777 ns, 2 ok, 1 failed; trace
/// id 0xfeedfacecafebeef.
inline constexpr char kBatchReplyExplain[] =
    "0301343333333333d33f116c696e65206f6e650a6c696e652074776f001a496e"
    "76616c6964417267756d656e743a20626164207175657279010000000000c062"
    "400009030000000000000201efbefecacefaedfe";

/// The same batch without explain; trace id 0x0102030405060708.
inline constexpr char kBatchReply[] =
    "0301343333333333d33f00001a496e76616c6964417267756d656e743a206261"
    "64207175657279010000000000c0624000090300000000000002010807060504"
    "030201";

/// shed: retry after 250 ms.
inline constexpr char kShed[] =
    "fa0000001971756f74612065786861757374656420666f7220626f6f6b73";

/// install: chunk 1 of 2 of a 10-byte snapshot of "catalog", gen 7.
inline constexpr char kInstall[] =
    "07636174616c6f6707000000000000000a000000000000000100000002000000"
    "efbeadde05776f726c64";

/// install_reply: ok, gen 7, a fan-out report.
inline constexpr char kInstallReply[] =
    "01070000000000000025696e7374616c6c656420636174616c6f672067656e3d"
    "37206f6e2032207265706c69636173";

/// stats: JSON rendering.
inline constexpr char kStats[] = "01";

/// flight: the newest 16 records.
inline constexpr char kFlight[] = "10000000";

/// Decodes a lowercase hex string into bytes.
inline std::string FromHex(const std::string& hex) {
  auto nibble = [](char c) {
    return c <= '9' ? c - '0' : c - 'a' + 10;
  };
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return bytes;
}

/// Encodes bytes as lowercase hex.
inline std::string ToHex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const unsigned char byte = static_cast<unsigned char>(c);
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 15]);
  }
  return hex;
}

}  // namespace golden
}  // namespace net
}  // namespace xcluster

#endif  // XCLUSTER_TESTS_NET_GOLDEN_H_
