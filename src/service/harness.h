#ifndef XCLUSTER_SERVICE_HARNESS_H_
#define XCLUSTER_SERVICE_HARNESS_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "service/service.h"

namespace xcluster {

/// Renders an estimate the way every protocol surface does (%.6g); the
/// stdio harness, the socket server, and `xclusterctl remote` share this
/// so the determinism gate can compare their outputs byte for byte.
std::string FormatEstimate(double value);

/// Remainder of `line` after `prefix_words` whitespace-separated words,
/// leading whitespace dropped: the query text of "estimate <name>
/// <query...>", which the harness and the router both parse.
std::string RestOfLine(const std::string& line, int prefix_words);

/// Outcome of one bounded line read (ReadBoundedLine below).
enum class LineStatus {
  kOk,         ///< a complete '\n'-terminated line within the budget
  kEof,        ///< clean end of input (no partial line pending)
  kEofMidLine, ///< input ended without a final newline: a truncated request
  kTooLong,    ///< line exceeded the budget; consumed through its newline
};

/// Reads one line of at most `max_bytes` content bytes. An over-budget
/// line is consumed through its terminating newline (so the stream stays
/// line-aligned) but its content is discarded — a silently truncated
/// command can never execute. EOF with a partial line pending is reported
/// distinctly (kEofMidLine) for the same reason.
LineStatus ReadBoundedLine(std::istream& in, std::string* line,
                           size_t max_bytes);

/// Line-oriented driver for an EstimationService (the `xclusterctl serve
/// --stdin` protocol; full grammar in docs/SERVING.md).
///
/// Requests, one per line (blank lines and `#` comments are ignored):
///
///   load <name> <path>             install a .xcsf image under <name>
///   drop <name>                    remove <name> from the catalog
///   list                           catalog contents
///   estimate <name> <query>        one inline estimate
///   batch <name> <k> [deadline_us=N] [priority=interactive|bulk] [explain]
///                                  then exactly <k> query lines; fans the
///                                  batch across the worker pool through
///                                  the admission/QoS layer
///   quota <name> <rate_qps> <burst>  install a token-bucket quota
///   quota <name> off               remove it
///   stats                          store/executor/admission counters
///   help                           grammar summary
///   quit                           exit
///
/// Every response line starts with `ok` or `err`; batch responses are an
/// `ok batch` header followed by exactly <k> item lines `<i> ok|err ...`
/// (plus `#`-prefixed explanation lines when `explain` was requested), so
/// a scripted client can always parse responses without lookahead.
///
/// The same request grammar is served over sockets by net::NetServer,
/// which routes single-line commands through ExecuteLine and carries
/// batches as packed binary frames into ExecuteBatch.
class ServiceHarness {
 public:
  /// Ceiling on one request or query line. Lines beyond it produce a
  /// protocol error instead of a truncated command (the socket framing
  /// enforces the analogous per-frame cap before allocation).
  static constexpr size_t kDefaultMaxLineBytes = 1u << 20;

  explicit ServiceHarness(EstimationService* service,
                          size_t max_line_bytes = kDefaultMaxLineBytes)
      : service_(service), max_line_bytes_(max_line_bytes) {}

  /// Serves requests from `in` until `quit` or EOF; responses (and
  /// nothing else) go to `out`, flushed after every request. Returns the
  /// process exit code: 0 on clean quit/EOF, 1 when the input ended
  /// mid-line (a truncated request stream).
  int Run(std::istream& in, std::ostream& out);

  /// Executes one non-batch request line, returning the full response
  /// text ('\n'-terminated, multi-line for `list`). Blank and `#` lines
  /// return "". Sets `*quit` on a `quit` request. A `batch` line is
  /// rejected here — its query lines live outside the line — the stdio
  /// loop and the binary batch frame each supply them their own way.
  ///
  /// A non-empty `source` identifies the requesting peer (the socket
  /// server passes the connection's remote address); `load` failures then
  /// name that peer, so a bad replication or remote load is attributable
  /// beyond the server-side file path.
  std::string ExecuteLine(const std::string& line, bool* quit,
                          const std::string& source = "");

  /// Runs one batch and renders the protocol text: the `ok batch` header
  /// plus exactly one item line per query (and `#` explanation lines when
  /// options.explain).
  std::string ExecuteBatch(const std::string& collection,
                           const std::vector<std::string>& queries,
                           const BatchOptions& options);

  /// Parses a "batch <name> <k> [deadline_us=N] [priority=interactive|bulk]
  /// [explain]" header line.
  /// Returns "" and fills the outputs on success, or the `err ...`
  /// response text on failure.
  static std::string ParseBatchHeader(const std::string& line,
                                      std::string* collection, size_t* count,
                                      BatchOptions* options);

  size_t max_line_bytes() const { return max_line_bytes_; }

 private:
  EstimationService* service_;
  size_t max_line_bytes_;
};

}  // namespace xcluster

#endif  // XCLUSTER_SERVICE_HARNESS_H_
