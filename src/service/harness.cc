#include "service/harness.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace xcluster {

namespace {

constexpr char kHelp[] =
    "ok help commands: load <name> <path> | drop <name> | list | "
    "estimate <name> <query> | "
    "batch <name> <k> [deadline_us=N] [priority=interactive|bulk] "
    "[explain] "
    "| quota <name> <rate_qps> <burst>|off | stats | flight [n] | help | "
    "quit";

void WriteItem(std::ostream& out, size_t index, const QueryResult& result,
               bool explain) {
  if (result.status.ok()) {
    out << index << " ok " << FormatEstimate(result.estimate)
        << " us=" << result.latency_ns / 1000 << "\n";
    if (explain && !result.explanation.empty()) {
      std::istringstream lines(result.explanation);
      std::string line;
      while (std::getline(lines, line)) out << "# " << line << "\n";
    }
  } else {
    out << index << " err " << result.status.ToString() << "\n";
  }
}

}  // namespace

std::string RestOfLine(const std::string& line, int prefix_words) {
  size_t pos = 0;
  for (int word = 0; word < prefix_words; ++word) {
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    while (pos < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
  }
  while (pos < line.size() &&
         std::isspace(static_cast<unsigned char>(line[pos]))) {
    ++pos;
  }
  return line.substr(pos);
}

std::string FormatEstimate(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

LineStatus ReadBoundedLine(std::istream& in, std::string* line,
                           size_t max_bytes) {
  line->clear();
  std::streambuf* buf = in.rdbuf();
  bool over_budget = false;
  for (;;) {
    const int ch = buf->sbumpc();
    if (ch == std::char_traits<char>::eof()) {
      in.setstate(std::ios::eofbit);
      if (over_budget) return LineStatus::kTooLong;
      return line->empty() ? LineStatus::kEof : LineStatus::kEofMidLine;
    }
    if (ch == '\n') {
      return over_budget ? LineStatus::kTooLong : LineStatus::kOk;
    }
    if (line->size() >= max_bytes) {
      // Discard the content but keep consuming to the newline so the
      // stream stays line-aligned for the next request.
      over_budget = true;
      line->clear();
      continue;
    }
    line->push_back(static_cast<char>(ch));
  }
}

int ServiceHarness::Run(std::istream& in, std::ostream& out) {
  std::string line;
  for (;;) {
    switch (ReadBoundedLine(in, &line, max_line_bytes_)) {
      case LineStatus::kEof:
        out.flush();
        return 0;
      case LineStatus::kEofMidLine:
        out << "err truncated request: input ended before newline\n";
        out.flush();
        return 1;
      case LineStatus::kTooLong:
        out << "err line too long (exceeds " << max_line_bytes_
            << " bytes)\n";
        out.flush();
        continue;
      case LineStatus::kOk:
        break;
    }

    // Batch is the one request that consumes further input lines, so the
    // stdio loop handles it here; everything else goes through the shared
    // ExecuteLine dispatch.
    std::istringstream tokens(line);
    std::string command;
    tokens >> command;
    if (command == "batch") {
      std::string collection;
      size_t count = 0;
      BatchOptions options;
      std::string error =
          ParseBatchHeader(line, &collection, &count, &options);
      if (!error.empty()) {
        out << error;
        out.flush();
        continue;
      }
      std::vector<std::string> queries;
      queries.reserve(count);
      bool aborted = false;
      std::string query_line;
      for (size_t i = 0; i < count && !aborted; ++i) {
        switch (ReadBoundedLine(in, &query_line, max_line_bytes_)) {
          case LineStatus::kOk:
            queries.push_back(query_line);
            break;
          case LineStatus::kTooLong:
            // Consume the rest of the promised lines so the session stays
            // parseable, then fail the whole batch: a truncated query
            // must not silently estimate as something else.
            for (size_t j = i + 1; j < count; ++j) {
              if (ReadBoundedLine(in, &query_line, max_line_bytes_) !=
                      LineStatus::kOk &&
                  in.eof()) {
                break;
              }
            }
            out << "err batch aborted: query " << i << " exceeds "
                << max_line_bytes_ << " bytes\n";
            aborted = true;
            break;
          case LineStatus::kEof:
          case LineStatus::kEofMidLine:
            out << "err batch truncated: got " << i << " of " << count
                << " queries\n";
            aborted = true;
            break;
        }
      }
      if (!aborted) {
        out << ExecuteBatch(collection, queries, options);
      }
      out.flush();
      continue;
    }

    bool quit = false;
    out << ExecuteLine(line, &quit);
    out.flush();
    if (quit) return 0;
  }
}

std::string ServiceHarness::ExecuteLine(const std::string& line, bool* quit,
                                        const std::string& source) {
  *quit = false;
  std::istringstream tokens(line);
  std::string command;
  tokens >> command;
  if (command.empty() || command[0] == '#') return "";  // blank / comment

  std::ostringstream out;
  if (command == "quit") {
    *quit = true;
    return "ok bye\n";
  }
  if (command == "help") {
    out << kHelp << "\n";
    return out.str();
  }
  if (command == "batch") {
    return "err batch requires its query lines (stdio) or a batch frame "
           "(socket transport)\n";
  }
  if (command == "load") {
    std::string name, path;
    tokens >> name >> path;
    if (name.empty() || path.empty()) {
      return "err load needs <name> <path>\n";
    }
    auto loaded = service_->store().LoadFile(name, path, source);
    if (!loaded.ok()) {
      out << "err " << loaded.status().ToString() << "\n";
      return out.str();
    }
    const StoredSynopsis& snapshot = *loaded.value();
    out << "ok load " << name << " gen=" << snapshot.generation()
        << " clusters=" << snapshot.num_clusters() << "\n";
    return out.str();
  }
  if (command == "drop") {
    std::string name;
    tokens >> name;
    if (name.empty()) {
      return "err drop needs <name>\n";
    }
    if (service_->store().Remove(name)) {
      out << "ok drop " << name << "\n";
    } else {
      out << "err NotFound: no synopsis named '" << name << "'\n";
    }
    return out.str();
  }
  if (command == "list") {
    std::vector<std::string> names = service_->store().List();
    out << "ok list " << names.size() << "\n";
    for (const std::string& name : names) {
      auto snapshot = service_->store().Get(name);
      if (snapshot == nullptr) continue;  // dropped between List and Get
      out << "synopsis " << name << " gen=" << snapshot->generation()
          << " clusters=" << snapshot->num_clusters()
          << " bytes=" << snapshot->size_bytes();
      // Provenance/staleness metadata (appended so existing prefix-match
      // consumers keep working; routers aggregate this per replica).
      if (!snapshot->source().empty()) {
        out << " source=" << snapshot->source();
      }
      out << "\n";
    }
    return out.str();
  }
  if (command == "estimate") {
    std::string name;
    tokens >> name;
    const std::string query = RestOfLine(line, 2);
    if (name.empty() || query.empty()) {
      return "err estimate needs <name> <query>\n";
    }
    QueryResult result = service_->EstimateOne(name, query);
    if (result.status.ok()) {
      out << "ok estimate " << FormatEstimate(result.estimate)
          << " us=" << result.latency_ns / 1000 << "\n";
    } else {
      out << "err " << result.status.ToString() << "\n";
    }
    return out.str();
  }
  if (command == "quota") {
    std::string name, rate_text;
    tokens >> name >> rate_text;
    if (name.empty() || rate_text.empty()) {
      return "err quota needs <name> <rate_qps> <burst> (or <name> off)\n";
    }
    if (rate_text == "off") {
      if (service_->admission().RemoveQuota(name)) {
        out << "ok quota " << name << " off\n";
      } else {
        out << "err NotFound: no quota on '" << name << "'\n";
      }
      return out.str();
    }
    std::string burst_text;
    tokens >> burst_text;
    char* end = nullptr;
    const double rate = std::strtod(rate_text.c_str(), &end);
    const bool rate_ok = end != rate_text.c_str() && *end == '\0' && rate > 0;
    end = nullptr;
    const double burst =
        burst_text.empty() ? 0 : std::strtod(burst_text.c_str(), &end);
    const bool burst_ok =
        !burst_text.empty() && end != burst_text.c_str() && *end == '\0' &&
        burst > 0;
    if (!rate_ok || !burst_ok) {
      return "err quota needs positive numeric <rate_qps> <burst>\n";
    }
    service_->admission().SetQuota(name, rate, burst);
    out << "ok quota " << name << " rate=" << FormatEstimate(rate)
        << " burst=" << FormatEstimate(burst) << "\n";
    return out.str();
  }
  if (command == "stats") {
    const Executor::Stats stats = service_->executor().stats();
    const AdmissionController::Stats admission =
        service_->admission().stats();
    out << "ok stats synopses=" << service_->store().size()
        << " workers=" << service_->executor().num_threads()
        << " queue_depth=" << service_->executor().queue_depth()
        << " submitted=" << stats.submitted << " rejected=" << stats.rejected
        << " executed=" << stats.executed << " expired=" << stats.expired
        << " plans=" << service_->plan_cache().size()
        << " plan_hits=" << service_->plan_cache().hits()
        << " plan_misses=" << service_->plan_cache().misses()
        << " admitted=" << admission.admitted
        << " shed_quota=" << admission.shed_quota
        << " shed_deadline=" << admission.shed_deadline
        << " admission_pending=" << service_->executor().queue_depth();
    // Per-lane tail latency: the QoS contract is that bulk load must not
    // move interactive percentiles, so both lanes are always shown.
    for (size_t i = 0; i < kNumLanes; ++i) {
      const Lane lane = static_cast<Lane>(i);
      const telemetry::LatencyHistogram& hist = service_->lane_latency(lane);
      out << " lane_" << LaneName(lane) << "_n=" << hist.count()
          << " lane_" << LaneName(lane) << "_p50_us="
          << static_cast<uint64_t>(hist.QuantileNs(0.50)) / 1000
          << " lane_" << LaneName(lane) << "_p95_us="
          << static_cast<uint64_t>(hist.QuantileNs(0.95)) / 1000;
    }
    out << "\n";
    return out.str();
  }
  if (command == "flight") {
    long long max = 0;
    tokens >> max;
    if (max < 0) return "err flight needs a non-negative count\n";
    const FlightRecorder& flight = service_->flight();
    const std::vector<FlightRecord> records =
        flight.Snapshot(static_cast<size_t>(max));
    out << "ok flight n=" << records.size()
        << " recorded=" << flight.total_recorded()
        << " capacity=" << flight.capacity() << "\n";
    out << flight.ToText(static_cast<size_t>(max));
    return out.str();
  }
  out << "err unknown command '" << command << "' (try help)\n";
  return out.str();
}

std::string ServiceHarness::ExecuteBatch(
    const std::string& collection, const std::vector<std::string>& queries,
    const BatchOptions& options) {
  BatchResult batch = service_->EstimateBatch(collection, queries, options);
  std::ostringstream out;
  out << "ok batch n=" << batch.results.size()
      << " ok=" << batch.stats.ok << " err=" << batch.stats.failed
      << " us=" << batch.stats.wall_ns / 1000
      << " p50_us=" << batch.stats.p50_latency_ns / 1000
      << " p95_us=" << batch.stats.p95_latency_ns / 1000 << "\n";
  for (size_t i = 0; i < batch.results.size(); ++i) {
    WriteItem(out, i, batch.results[i], options.explain);
  }
  return out.str();
}

std::string ServiceHarness::ParseBatchHeader(const std::string& line,
                                             std::string* collection,
                                             size_t* count,
                                             BatchOptions* options) {
  std::istringstream tokens(line);
  std::string command, name;
  long long parsed_count = -1;
  tokens >> command >> name >> parsed_count;
  if (name.empty() || parsed_count < 0) {
    return "err batch needs <name> <count>\n";
  }
  std::string extra;
  while (tokens >> extra) {
    if (extra == "explain") {
      options->explain = true;
    } else if (extra.rfind("deadline_us=", 0) == 0) {
      options->deadline_ns =
          std::strtoull(extra.c_str() + 12, nullptr, 10) * 1000;
    } else if (extra.rfind("priority=", 0) == 0) {
      if (!ParseLane(extra.substr(9), &options->lane)) {
        return "err bad priority '" + extra.substr(9) +
               "' (interactive|bulk)\n";
      }
    } else {
      return "err unknown batch option '" + extra + "'\n";
    }
  }
  *collection = name;
  *count = static_cast<size_t>(parsed_count);
  return "";
}

}  // namespace xcluster
