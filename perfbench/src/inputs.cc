#include "inputs.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/io/file_io.h"
#include "query/parser.h"
#include "workload/generator.h"
#include "xml/writer.h"

namespace xcluster {
namespace perfbench {

namespace {

constexpr char kPoolMagic[] = "perfbench-pool v2";

/// Generator rounds before giving up on collecting kPoolSize distinct
/// queries (each round draws what is still missing plus a margin).
constexpr uint64_t kMaxRounds = 32;

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

}  // namespace

uint64_t Fnv1a(std::string_view bytes, uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t DocumentHash(const XmlDocument& doc) {
  return Fnv1a(XmlWriter().ToString(doc));
}

uint64_t Pool::Hash() const {
  uint64_t hash = Fnv1a(Hex(doc_hash));
  char buf[64];
  for (const PoolQuery& query : queries) {
    std::snprintf(buf, sizeof buf, "\n%d\t%.17g\t",
                  static_cast<int>(query.pred_class), query.truth);
    hash = Fnv1a(buf, hash);
    hash = Fnv1a(query.text, hash);
  }
  return hash;
}

Result<Pool> GeneratePool(const XmlDocument& doc,
                          const GraphSynopsis& reference, uint64_t doc_hash) {
  Pool pool;
  pool.doc_hash = doc_hash;
  std::unordered_set<std::string> seen;
  for (uint64_t round = 0;
       round < kMaxRounds && pool.queries.size() < kPoolSize; ++round) {
    WorkloadOptions options;
    options.seed = kPoolSeed * 1000003 + round;
    const size_t missing = kPoolSize - pool.queries.size();
    options.num_queries = missing + missing / 4 + 64;
    const Workload workload = GenerateWorkload(doc, reference, options);
    for (const WorkloadQuery& generated : workload.queries) {
      std::string text = generated.query.ToString();
      if (text.find_first_of("\t\r\n") != std::string::npos) continue;
      const Result<TwigQuery> parsed = ParseTwig(text);
      if (!parsed.ok() || parsed.value().ToString() != text) continue;
      if (!seen.insert(text).second) continue;
      pool.queries.push_back(
          {std::move(text), generated.true_selectivity, generated.pred_class});
      if (pool.queries.size() == kPoolSize) break;
    }
  }
  if (pool.queries.size() < kPoolSize) {
    return Status::ResourceExhausted(
        "generator yielded only " + std::to_string(pool.queries.size()) +
        " distinct queries");
  }
  return pool;
}

std::string PoolPath(const std::string& cache_dir) {
  return cache_dir + "/pool.tsv";
}

Status SavePool(const Pool& pool, const std::string& path) {
  std::string text = std::string(kPoolMagic) + "\n";
  text += "doc_hash " + Hex(pool.doc_hash) + "\n";
  text += "queries " + std::to_string(pool.queries.size()) + "\n";
  char buf[64];
  for (const PoolQuery& query : pool.queries) {
    std::snprintf(buf, sizeof buf, "%d\t%.17g\t",
                  static_cast<int>(query.pred_class), query.truth);
    text += buf;
    text += query.text;
    text += '\n';
  }
  return WriteFileAtomic(path, text, /*sync=*/false);
}

Result<Pool> LoadPool(const std::string& path) {
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  std::istringstream in(bytes.value());
  std::string line;
  Pool pool;
  size_t count = 0;
  std::string doc_hash;
  if (!std::getline(in, line) || line != kPoolMagic ||
      !(in >> line >> doc_hash) || line != "doc_hash" ||
      !(in >> line >> count) || line != "queries" || count != kPoolSize ||
      !std::getline(in, line)) {
    return Status::Corruption(path + ": bad pool header");
  }
  pool.doc_hash = std::strtoull(doc_hash.c_str(), nullptr, 16);
  pool.queries.reserve(count);
  while (std::getline(in, line)) {
    const size_t tab1 = line.find('\t');
    const size_t tab2 =
        tab1 == std::string::npos ? tab1 : line.find('\t', tab1 + 1);
    if (tab2 == std::string::npos) {
      return Status::Corruption(path + ": bad pool line");
    }
    PoolQuery query;
    query.pred_class =
        static_cast<ValueType>(std::strtol(line.c_str(), nullptr, 10));
    query.truth = std::strtod(line.c_str() + tab1 + 1, nullptr);
    query.text = line.substr(tab2 + 1);
    pool.queries.push_back(std::move(query));
  }
  if (pool.queries.size() != count) {
    return Status::Corruption(path + ": truncated pool");
  }
  return pool;
}

}  // namespace perfbench
}  // namespace xcluster
