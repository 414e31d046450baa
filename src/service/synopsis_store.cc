#include "service/synopsis_store.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <mutex>
#include <utility>

#include "common/io/file_io.h"
#include "common/telemetry/telemetry.h"
#include "storage/xcsf_reader.h"

namespace xcluster {

namespace {

/// Spool file name for a catalog entry: the synopsis name with anything
/// path-hostile flattened to '_', plus the format suffix.
std::string SpoolFileName(const std::string& name) {
  std::string file = name;
  for (char& c : file) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.';
    if (!safe) c = '_';
  }
  return file + ".xcsf";
}

}  // namespace

StoredSynopsis::StoredSynopsis(std::string name,
                               std::shared_ptr<const FlatSynopsis> flat,
                               size_t size_bytes, uint64_t snapshot_id,
                               uint64_t generation, EstimateOptions options,
                               std::string source)
    : name_(std::move(name)),
      flat_(std::move(flat)),
      flat_estimator_(*flat_, options),
      size_bytes_(size_bytes),
      snapshot_id_(snapshot_id),
      generation_(generation),
      source_(std::move(source)),
      installed_ns_(telemetry::MonotonicNowNs()) {}

std::shared_ptr<const StoredSynopsis> StoredSynopsis::Make(
    std::string name, std::shared_ptr<const FlatSynopsis> flat,
    size_t size_bytes, uint64_t generation, EstimateOptions options,
    std::string source) {
  static std::atomic<uint64_t> next_snapshot_id{1};
  const uint64_t snapshot_id =
      next_snapshot_id.fetch_add(1, std::memory_order_relaxed);
  return std::shared_ptr<const StoredSynopsis>(
      new StoredSynopsis(std::move(name), std::move(flat), size_bytes,
                         snapshot_id, generation, options, std::move(source)));
}

SynopsisStore::SynopsisStore(size_t num_shards,
                             EstimateOptions estimator_options)
    : estimator_options_(estimator_options) {
  shards_.reserve(num_shards == 0 ? 1 : num_shards);
  for (size_t i = 0; i < std::max<size_t>(num_shards, 1); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SynopsisStore::Shard& SynopsisStore::ShardFor(const std::string& name) const {
  return *shards_[std::hash<std::string>()(name) % shards_.size()];
}

uint64_t SynopsisStore::AssignGeneration(uint64_t generation) {
  if (generation == 0) {
    return next_generation_.fetch_add(1, std::memory_order_relaxed);
  }
  // Pinned (replicated) generation: keep the local counter strictly
  // above it so a later auto-assigned install never reuses or
  // undercuts a fleet-assigned number.
  uint64_t next = next_generation_.load(std::memory_order_relaxed);
  while (next <= generation &&
         !next_generation_.compare_exchange_weak(
             next, generation + 1, std::memory_order_relaxed)) {
  }
  return generation;
}

std::shared_ptr<const StoredSynopsis> SynopsisStore::Publish(
    const std::string& name, std::shared_ptr<const StoredSynopsis> snapshot,
    bool pinned) {
  Shard& shard = ShardFor(name);
  std::shared_ptr<const StoredSynopsis> replaced;  // destroyed outside lock
  {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    for (auto& [entry_name, entry] : shard.entries) {
      if (entry_name == name) {
        // A pinned (replicated) install must move the name forward: two
        // concurrent or retried pushes can arrive in either order on
        // different replicas, and letting an older generation overwrite a
        // newer one would leave the fleet serving different snapshots
        // while stats claim lockstep. The generation decides, not arrival
        // order.
        if (pinned && entry->generation() >= snapshot->generation()) {
          XCLUSTER_COUNTER_INC("service.store.stale_installs");
          return nullptr;
        }
        replaced = std::move(entry);
        entry = snapshot;
        break;
      }
    }
    if (replaced == nullptr) shard.entries.emplace_back(name, snapshot);
  }
  XCLUSTER_COUNTER_INC("service.store.installs");
  XCLUSTER_GAUGE_SET("service.store.synopses", size());
  return snapshot;
}

std::shared_ptr<const StoredSynopsis> SynopsisStore::Install(
    const std::string& name, XCluster synopsis, uint64_t generation,
    std::string source) {
  const bool pinned = generation != 0;
  generation = AssignGeneration(generation);
  // Build the snapshot before touching the shard, so the lock covers only
  // the pointer swap. It keeps the FlatSynopsis; the graph goes away with
  // `synopsis` when this returns.
  auto snapshot = StoredSynopsis::Make(name, synopsis.flat(),
                                       synopsis.SizeBytes(), generation,
                                       estimator_options_, std::move(source));
  return Publish(name, std::move(snapshot), pinned);
}

Result<std::shared_ptr<const StoredSynopsis>> SynopsisStore::LoadFile(
    const std::string& name, const std::string& path,
    const std::string& source) {
  // Validate + mmap, serve zero-copy. No graph is ever built; a failed
  // validation leaves any existing snapshot untouched.
  Result<std::shared_ptr<const FlatSynopsis>> flat = storage::OpenXcsf(path);
  if (!flat.ok()) {
    if (source.empty()) return flat.status();
    // A load requested over the wire: the failure must name the peer
    // that asked for it, not just the server-side path.
    return Status::WithContext(flat.status(), "load requested by " + source);
  }
  const size_t image_bytes = flat.value()->image().size();
  auto snapshot = StoredSynopsis::Make(
      name, std::move(flat).value(), image_bytes, AssignGeneration(0),
      estimator_options_, source.empty() ? path : source);
  XCLUSTER_COUNTER_INC("service.store.mmap_loads");
  return Publish(name, std::move(snapshot), /*pinned=*/false);
}

Result<std::shared_ptr<const StoredSynopsis>> SynopsisStore::InstallFromWire(
    const std::string& name, std::string_view bytes,
    const std::string& source, uint64_t generation) {
  // With a spool dir the image goes to a temp sibling of the spool file
  // and is served from that mapping; without one the payload buffer is
  // adopted in place (one copy off the wire, no file).
  std::string spool_path;
  std::string temp_path;
  Result<std::shared_ptr<const FlatSynopsis>> flat =
      [&]() -> Result<std::shared_ptr<const FlatSynopsis>> {
    if (spool_dir_.empty()) return storage::AdoptXcsf(std::string(bytes));
    spool_path = spool_dir_ + "/" + SpoolFileName(name);
    XCLUSTER_ASSIGN_OR_RETURN(temp_path, WriteTempSibling(spool_path, bytes));
    return storage::OpenXcsf(temp_path);
  }();
  if (!flat.ok()) {
    if (!temp_path.empty()) std::remove(temp_path.c_str());
    return Status::WithContext(flat.status(), "install from " + source);
  }
  const bool pinned = generation != 0;
  const size_t image_bytes = flat.value()->image().size();
  auto snapshot = StoredSynopsis::Make(
      name, std::move(flat).value(), image_bytes, AssignGeneration(generation),
      estimator_options_, "wire:" + source);
  std::shared_ptr<const StoredSynopsis> installed;
  if (temp_path.empty()) {
    installed = Publish(name, std::move(snapshot), pinned);
  } else {
    // The spool file holds only what the catalog publishes: a corrupt or
    // stale push never reaches it, so a restart cannot load a rejected
    // image. Publishing and renaming under one lock lands concurrent
    // pushes on disk in publish order.
    std::lock_guard<std::mutex> lock(spool_mu_);
    installed = Publish(name, std::move(snapshot), pinned);
    if (installed == nullptr) {
      std::remove(temp_path.c_str());
    } else {
      XC_RETURN_IF_ERROR(Status::WithContext(
          CommitTempFile(temp_path, spool_path),
          "install from " + source + " is served but not spooled"));
      XCLUSTER_COUNTER_INC("service.store.spooled_installs");
    }
  }
  if (installed == nullptr) {
    const std::shared_ptr<const StoredSynopsis> current = Get(name);
    return Status::InvalidArgument(
        "stale install of " + name + " from " + source + ": pinned generation " +
        std::to_string(generation) + " <= installed generation " +
        (current != nullptr ? std::to_string(current->generation())
                            : std::string("?")));
  }
  XCLUSTER_COUNTER_INC("service.store.wire_installs");
  return installed;
}

std::shared_ptr<const StoredSynopsis> SynopsisStore::Get(
    const std::string& name) const {
  const Shard& shard = ShardFor(name);
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  for (const auto& [entry_name, entry] : shard.entries) {
    if (entry_name == name) {
      XCLUSTER_COUNTER_INC("service.store.hits");
      return entry;
    }
  }
  XCLUSTER_COUNTER_INC("service.store.misses");
  return nullptr;
}

bool SynopsisStore::Remove(const std::string& name) {
  Shard& shard = ShardFor(name);
  std::shared_ptr<const StoredSynopsis> removed;  // destroyed outside lock
  {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end(); ++it) {
      if (it->first == name) {
        removed = std::move(it->second);
        shard.entries.erase(it);
        break;
      }
    }
  }
  if (removed == nullptr) return false;
  XCLUSTER_GAUGE_SET("service.store.synopses", size());
  return true;
}

std::vector<std::string> SynopsisStore::List() const {
  std::vector<std::string> names;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    for (const auto& [name, entry] : shard->entries) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

size_t SynopsisStore::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

}  // namespace xcluster
