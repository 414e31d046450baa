// Per-layer measurement helpers: sample quantiles, and the span ledger that
// turns the spans of a traced run into per-layer self times and counts.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/telemetry/trace.h"

namespace xcluster {
namespace perfbench {

/// A bag of measurements with nearest-rank quantiles.
class Samples {
 public:
  void Add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  void Append(const Samples& other);
  bool empty() const { return values_.empty(); }

  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;

 private:
  // Sorted lazily by the first quantile read.
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Per-layer figures folded from the spans the program emits. Spans are
/// grouped by trace id (one trace per sampled batch). A span's self time is
/// its duration minus the part of its interval covered by the spans of the
/// same trace in the layers below it (cluster.route > net.batch >
/// service.batch > everything else), whichever thread ran them.
struct SpanLedger {
  Samples service_self_us;  ///< service.batch self time
  Samples queue_wait_us;    ///< admission.queue per executor task, 0 if none
  Samples group_us;         ///< estimate.batch_group durations
  Samples tasks_per_batch;  ///< executor.task spans per service.batch
  Samples route_self_us;    ///< cluster.route self time (routed passes)
  uint64_t traces = 0;      ///< traces holding a service.batch span
  uint64_t spans = 0;

  /// Folds every traced event (trace id != 0) into the samples.
  void Fold(const std::vector<telemetry::TraceRecorder::Event>& events);
};

}  // namespace perfbench
}  // namespace xcluster

#endif  // PERFBENCH_LEDGER_H_
