// Benchmark inputs: the query pool with its ExactEvaluator ground truth,
// cached on disk, and the content hashes that show two runs used identical
// inputs.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "synopsis/graph.h"
#include "xml/document.h"

namespace xcluster {
namespace perfbench {

/// Distinct queries in the pool. Larger than the service's 4096-entry plan
/// cache, so a fixed cyclic pass over the pool never hits.
inline constexpr size_t kPoolSize = 6144;

/// The generator seed of the pool. The pool is the same for every benchmark
/// seed, so the accuracy over it (rel_error) is one fixed figure per
/// program; the benchmark seed orders and weights the queries.
inline constexpr uint64_t kPoolSeed = 1;

/// One pool query: the text the served path receives and its true count.
struct PoolQuery {
  std::string text;
  double truth = 0.0;
  ValueType pred_class = ValueType::kNone;
};

/// The query pool, in generation order; workloads take prefixes of it.
struct Pool {
  uint64_t doc_hash = 0;
  std::vector<PoolQuery> queries;

  /// FNV-1a over the document hash and every (class, truth, text) entry.
  uint64_t Hash() const;
};

/// 64-bit FNV-1a of `bytes`, continuing from `hash`.
uint64_t Fnv1a(std::string_view bytes,
               uint64_t hash = 14695981039346656037ull);

/// FNV-1a of the document's XML serialization.
uint64_t DocumentHash(const XmlDocument& doc);

/// Generates kPoolSize distinct positive twig queries from kPoolSeed through
/// GenerateWorkload over `reference` (built from `doc`). Only queries whose
/// text parses back to the same text are kept, so the ground truth holds
/// for the exact string the program receives.
Result<Pool> GeneratePool(const XmlDocument& doc,
                          const GraphSynopsis& reference, uint64_t doc_hash);

std::string PoolPath(const std::string& cache_dir);
Status SavePool(const Pool& pool, const std::string& path);
Result<Pool> LoadPool(const std::string& path);

}  // namespace perfbench
}  // namespace xcluster

#endif  // PERFBENCH_INPUTS_H_
