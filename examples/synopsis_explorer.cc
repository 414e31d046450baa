// Scenario example: synopsis lifecycle — build at several budgets, inspect
// the structure-value clustering, persist to disk, and reload.
//
// Useful as a template for integrating XCluster synopses into an optimizer
// process: the expensive construction runs offline; the query process
// loads the compact synopsis file.

#include <cstdio>
#include <string>

#include "core/xcluster.h"
#include "data/xmark.h"

int main() {
  using namespace xcluster;

  XMarkOptions data_options;
  data_options.scale = 0.25;
  GeneratedDataset dataset = GenerateXMark(data_options);
  std::printf("document: %zu elements\n\n", dataset.doc.size());

  std::printf("%10s | %8s | %8s | %8s | %7s\n", "Bstr", "clusters", "edges",
              "bytes", "merges");
  for (size_t budget : {size_t{0}, size_t{4096}, size_t{16384}}) {
    XCluster::Options options;
    options.reference.value_paths = dataset.value_paths;
    options.build.structural_budget = budget;
    options.build.value_budget = 40 * 1024;
    XCluster xc = XCluster::Build(dataset.doc, options);
    std::printf("%9zuB | %8zu | %8zu | %8zu | %7zu\n", budget,
                xc.synopsis().NodeCount(), xc.synopsis().EdgeCount(),
                xc.SizeBytes(), xc.build_stats().merges_applied);
  }

  // Build the one we keep, show a fragment of its clustering, and persist.
  XCluster::Options options;
  options.reference.value_paths = dataset.value_paths;
  options.build.structural_budget = 2048;
  options.build.value_budget = 24 * 1024;
  XCluster xc = XCluster::Build(dataset.doc, options);

  std::printf("\nclustering at 2 KB structural budget (first lines):\n");
  std::string dump = xc.synopsis().DebugString();
  size_t lines = 0;
  size_t pos = 0;
  while (lines < 12 && pos < dump.size()) {
    size_t end = dump.find('\n', pos);
    if (end == std::string::npos) break;
    std::printf("  %s\n", dump.substr(pos, end - pos).c_str());
    pos = end + 1;
    ++lines;
  }

  const std::string path = "/tmp/xcluster_explorer.xcsf";
  Status save = xc.Save(path);
  if (!save.ok()) {
    std::fprintf(stderr, "save failed: %s\n", save.ToString().c_str());
    return 1;
  }
  Result<XCluster> loaded = XCluster::Load(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("\nsaved to %s and reloaded: %zu clusters, %zu bytes\n",
              path.c_str(), loaded.value().synopsis().NodeCount(),
              loaded.value().SizeBytes());

  const char* query = "//open_auction[/bidder]/initial[range(0,100)]";
  std::printf("estimate before save: %.2f, after reload: %.2f  (%s)\n",
              xc.EstimateSelectivity(query).value(),
              loaded.value().EstimateSelectivity(query).value(), query);
  return 0;
}
