// Layer probes run from outside the program, through public functions:
// the Phase-1 kernel split (cp/tensor) on sampled blocks of the workload,
// the block decode cost of the grid layer, and the block-wise fit of a
// finished decomposition against the stored tensor.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "grid/block_tensor_store.h"
#include "instrumented_env.h"
#include "tensor/kruskal.h"

namespace perfbench {

/// Median of `v` (0 for an empty vector).
double Median(std::vector<double> v);

/// Median timings of the Phase-1 building blocks on `sample_blocks` blocks
/// drawn from `seed`: one MTTKRP (per mode), one factor solve (Gram of the
/// new factor + AlsFactorUpdate), one Fit (the per-iteration fit check)
/// and a whole block CP-ALS with the workload's Phase-1 options.
struct KernelProbe {
  double block_ms = 0.0;
  double iters_per_block = 0.0;
  double mttkrp_ms = 0.0;
  /// Computed flop count of a dense MTTKRP, 2 * cells * rank, over its
  /// median time (not a hardware counter).
  double mttkrp_gflops = 0.0;
  double solve_ms = 0.0;
  double fit_ms = 0.0;
};
KernelProbe RunKernelProbe(const tpcp::BlockTensorStore& store,
                           const tpcp::TwoPhaseCpOptions& options,
                           uint64_t seed, int sample_blocks);

/// Mean per-block time of BlockTensorStore::ReadBlock minus the storage
/// read inside it, over every block. `store` must read through `env`.
double BlockDecodeMs(const tpcp::BlockTensorStore& store,
                     const InstrumentedEnv& env);

/// 1 - ||X - X^||_F / ||X||_F, accumulated block by block (the identity
/// ||X - X^||^2 = ||X||^2 - 2<X, X^> + ||X^||^2 summed over blocks), so the
/// full tensor is never materialized.
tpcp::Result<double> BlockwiseFit(const tpcp::BlockTensorStore& store,
                                  const tpcp::KruskalTensor& decomposition);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
