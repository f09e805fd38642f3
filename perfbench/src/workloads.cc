#include "workloads.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "util/logging.h"

namespace perfbench {
namespace {

using tpcp::PolicyType;
using tpcp::ScheduleType;

int Phase1Threads() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(4, cores));
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;
  {
    // Phase 1 (block CP-ALS + block decode) is ~95% of the wall time.
    Workload w;
    w.name = "dense_phase1";
    w.dim = 128;
    w.parts = 4;
    w.options.rank = 16;
    w.options.schedule = ScheduleType::kHilbertOrder;
    w.options.policy = PolicyType::kForward;
    w.options.buffer_fraction = 0.3;
    w.fit_floor = 0.91;
    all.push_back(w);
  }
  {
    // Phase 2 on the synchronous BufferPool::Access path: many small
    // U_/A_ reads plus dirty writebacks, fixed work.
    Workload w;
    w.name = "refine_sync";
    w.dim = 64;
    w.parts = 8;
    w.options.rank = 16;
    w.options.schedule = ScheduleType::kZOrder;
    w.options.policy = PolicyType::kForward;
    w.options.buffer_fraction = 0.1;
    w.options.max_virtual_iterations = 60;
    w.options.fit_tolerance = -1.0;
    w.options.prefetch_depth = 0;
    w.options.compute_threads = 1;
    w.fit_floor = 0.90;
    w.check_swaps = true;
    all.push_back(w);
  }
  {
    // Phase 2 on the asynchronous prefetch pipeline: background loads and
    // writebacks, mode-centric waves of width 8 on a compute pool.
    Workload w;
    w.name = "refine_prefetch";
    w.dim = 96;
    w.parts = 8;
    w.options.rank = 12;
    w.options.schedule = ScheduleType::kModeCentric;
    w.options.policy = PolicyType::kLru;
    w.options.buffer_fraction = 0.15;
    w.options.max_virtual_iterations = 40;
    w.options.fit_tolerance = -1.0;
    w.options.prefetch_depth = 2;
    w.options.io_threads = 2;
    w.options.compute_threads = 2;
    w.fit_floor = 0.93;
    all.push_back(w);
  }
  {
    // Phase 2 across two forked worker processes with the overlapped
    // exchange pipeline; fiber order makes deferrable relays common. A 4^3
    // grid rather than 8^3: on 8^3 the per-message stalls made rep times
    // vary by ~25% and 8 vi left the fit seed-dependent by ~2%.
    Workload w;
    w.name = "dist_fo2";
    w.dim = 64;
    w.parts = 4;
    w.options.rank = 16;
    w.options.schedule = ScheduleType::kFiberOrder;
    w.options.policy = PolicyType::kForward;
    w.options.buffer_fraction = 0.2;
    w.options.max_virtual_iterations = 8;
    w.options.fit_tolerance = -1.0;
    w.dist_workers = 2;
    w.dist_overlap = true;
    w.fit_floor = 0.88;
    all.push_back(w);
  }
  for (Workload& w : all) w.options.num_threads = Phase1Threads();
  return all;
}

const std::vector<Workload>& All() {
  static const std::vector<Workload>* all =
      new std::vector<Workload>(MakeWorkloads());
  return *all;
}

}  // namespace

tpcp::GridPartition Workload::Grid() const {
  auto grid = tpcp::GridPartition::CreateUniform(
      tpcp::Shape({dim, dim, dim}), parts);
  TPCP_CHECK(grid.ok()) << grid.status().ToString();
  return *grid;
}

tpcp::LowRankSpec Workload::Spec(uint64_t seed) const {
  tpcp::LowRankSpec spec;
  spec.shape = tpcp::Shape({dim, dim, dim});
  spec.rank = options.rank;
  spec.noise_level = 0.05;
  spec.seed = seed;
  return spec;
}

tpcp::JsonValue Workload::ToJson() const {
  tpcp::JsonValue json = tpcp::JsonValue::Object();
  json.Set("name", name);
  json.Set("shape", std::to_string(dim) + "^3");
  json.Set("grid", std::to_string(parts) + "^3");
  json.Set("rank", options.rank);
  json.Set("noise_level", 0.05);
  json.Set("storage", "posix://");
  json.Set("options", options.ToString());
  json.Set("schedule", tpcp::ScheduleTypeName(options.schedule));
  json.Set("policy", tpcp::PolicyTypeName(options.policy));
  json.Set("buffer_fraction", options.buffer_fraction);
  json.Set("phase1_threads", options.num_threads);
  json.Set("phase1_max_iterations", options.phase1_max_iterations);
  json.Set("max_virtual_iterations", options.max_virtual_iterations);
  json.Set("fit_tolerance", options.fit_tolerance);
  json.Set("prefetch_depth", options.prefetch_depth);
  json.Set("io_threads", options.io_threads);
  json.Set("compute_threads", options.compute_threads);
  json.Set("plan_reorder", options.EffectivePlanReorder());
  json.Set("dist_workers", dist_workers);
  json.Set("dist_overlap", dist_overlap);
  json.Set("fit_floor", fit_floor);
  json.Set("check_swaps", check_swaps);
  return json;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : All()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
