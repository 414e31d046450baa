// Heap allocations of the estimation kernel. After one warm-up pass (which
// decodes the value summaries the workload touches, fills the reach cache
// and grows the calling thread's scratch), EstimateLanes over every lane
// group of a generated XMark workload, and a one-lane Estimate of every
// query, must not allocate at all.
//
// This file replaces the global operator new and operator delete with
// counting versions, so it must stay a test executable of its own (the
// glob in tests/CMakeLists.txt builds one per *_test.cc).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "build/builder.h"
#include "data/xmark.h"
#include "estimate/batch_estimator.h"
#include "estimate/compiled_twig.h"
#include "estimate/flat_estimator.h"
#include "storage/xcsf_writer.h"
#include "synopsis/reference.h"
#include "workload/generator.h"

namespace {

std::atomic<size_t> g_allocations{0};

/// Counts one allocation; returns nullptr when the heap is exhausted.
void* CountedAlloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      size == 0 ? alignment : (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded);
}

void* OrThrow(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every replaceable form, the nothrow ones included: a sanitizer runtime
// supplies its own versions of any form left out, and memory from one
// must not be freed by the other.
void* operator new(std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new[](std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new(std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace xcluster {
namespace {

size_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// A generated XMark workload compiled against a budget-built synopsis
/// (merged, so with dead arena nodes and shared descendant reach).
class EstimateAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XMarkOptions options;
    options.scale = 0.05;
    const GeneratedDataset dataset = GenerateXMark(options);
    ReferenceOptions ref_options;
    ref_options.value_paths = dataset.value_paths;
    const GraphSynopsis reference =
        BuildReferenceSynopsis(dataset.doc, ref_options);
    WorkloadOptions wl_options;
    wl_options.num_queries = 150;
    const Workload workload =
        GenerateWorkload(dataset.doc, reference, wl_options);
    ASSERT_GT(workload.queries.size(), 0u);
    BuildOptions build_options;
    build_options.structural_budget = 4 * 1024;
    build_options.value_budget = 16 * 1024;
    flat_ = storage::CompileXcsf(
        XClusterBuild(reference, build_options, nullptr));
    plans_.reserve(workload.queries.size());
    for (const WorkloadQuery& query : workload.queries) {
      plans_.push_back(CompiledTwig::Compile(query.query, *flat_));
    }
    std::vector<const CompiledTwig*> slots;
    for (const CompiledTwig& plan : plans_) slots.push_back(&plan);
    partition_ = BatchPlan::Build(slots);
    ASSERT_LT(partition_.num_groups(), plans_.size());
    lanes_.resize(partition_.num_lanes());
  }

  /// EstimateLanes over every group; returns the estimates' sum.
  double RunGroups(const FlatEstimator& estimator) {
    double sum = 0.0;
    for (const BatchPlan::Group& group : partition_.groups()) {
      estimator.EstimateLanes(group.plans, lanes_.data());
      for (size_t lane = 0; lane < group.num_lanes(); ++lane) {
        sum += lanes_[lane];
      }
    }
    return sum;
  }

  std::shared_ptr<const FlatSynopsis> flat_;
  std::vector<CompiledTwig> plans_;
  BatchPlan partition_;
  std::vector<double> lanes_;
};

TEST_F(EstimateAllocTest, WarmLaneGroupsAllocateNothing) {
  FlatEstimator estimator(*flat_);
  const double warm = RunGroups(estimator);
  const size_t before = Allocations();
  const double again = RunGroups(estimator);
  EXPECT_EQ(Allocations() - before, 0u)
      << "over " << partition_.num_groups() << " lane groups";
  EXPECT_EQ(again, warm);
}

TEST_F(EstimateAllocTest, WarmEstimateAllocatesNothing) {
  FlatEstimator estimator(*flat_);
  std::vector<double> warm;
  for (const CompiledTwig& plan : plans_) {
    warm.push_back(estimator.Estimate(plan));
  }
  const size_t before = Allocations();
  size_t changed = 0;
  for (size_t i = 0; i < plans_.size(); ++i) {
    if (estimator.Estimate(plans_[i]) != warm[i]) ++changed;
  }
  EXPECT_EQ(Allocations() - before, 0u)
      << "over " << plans_.size() << " one-lane estimates";
  EXPECT_EQ(changed, 0u);
}

TEST_F(EstimateAllocTest, CountingAllocatorCountsAllocations) {
  // The harness itself: a heap allocation made here must be counted, or
  // the zeros above would hold for any kernel.
  static std::vector<double>* volatile escaped;
  const size_t before = Allocations();
  escaped = new std::vector<double>(64);
  EXPECT_GE(Allocations() - before, 2u);
  delete escaped;
}

}  // namespace
}  // namespace xcluster
