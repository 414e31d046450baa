#ifndef XCLUSTER_SERVICE_FLIGHT_RECORDER_H_
#define XCLUSTER_SERVICE_FLIGHT_RECORDER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/admission.h"

namespace xcluster {

/// Terminal outcome of a batch, as recorded in the flight ring.
enum class FlightStatus : uint8_t {
  kOk = 0,            // every query succeeded
  kPartialError = 1,  // batch ran; some queries failed
  kNotFound = 2,      // unknown collection
  kShedQuota = 3,     // admission: per-collection quota exhausted
  kShedDeadline = 4,  // admission: EWMA backlog made the deadline hopeless
  kShedOther = 5,     // router: shed by every replica, or none healthy
  kShutdown = 6,      // service shutting down
};

const char* FlightStatusName(FlightStatus status);

/// One per-batch completion record — the black-box view of a request after
/// it has left the building: identity, cost breakdown, and outcome.
struct FlightRecord {
  uint64_t trace_id = 0;       // 0 when the client sent no trace context
  std::string collection;
  Lane lane = Lane::kInteractive;
  uint32_t queries = 0;        // queries in the batch
  uint32_t ok = 0;             // queries that succeeded
  uint64_t end_ns = 0;         // MonotonicNowNs at completion
  uint64_t wall_ns = 0;        // batch wall time inside the service
  uint64_t queue_ns = 0;       // max per-query executor queue wait
  uint64_t service_ns = 0;     // summed time of the batch's lane-group tasks
  uint64_t bytes = 0;          // request wire payload bytes (0 off-network)
  FlightStatus status = FlightStatus::kOk;
  uint32_t retry_after_ms = 0; // shed hint, when shed
};

/// Fixed-size ring of the most recent batch completions. One record per
/// batch (not per query), so a mutex is uncontended at any realistic rate;
/// the ring overwrites oldest-first and never allocates after construction
/// beyond the collection-name strings.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity);

  void Record(const FlightRecord& record);

  /// Up to `max` most recent records, oldest → newest (0 = all retained).
  std::vector<FlightRecord> Snapshot(size_t max = 0) const;

  uint64_t total_recorded() const;
  size_t capacity() const { return capacity_; }

  /// `{"flight_records": [...], "capacity": N, "recorded": N}`, records
  /// oldest → newest; trace ids rendered as fixed-width hex strings.
  std::string ToJson(size_t max = 0) const;

  /// Human-readable dump, newest first, for the harness `flight` command.
  std::string ToText(size_t max = 0) const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<FlightRecord> ring_;
  uint64_t total_ = 0;
};

}  // namespace xcluster

#endif  // XCLUSTER_SERVICE_FLIGHT_RECORDER_H_
