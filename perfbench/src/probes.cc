#include "probes.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "cp/cp_als.h"
#include "cp/init.h"
#include "linalg/blas.h"
#include "tensor/mttkrp.h"
#include "tensor/norms.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {
namespace {

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// Timed repetitions of each kernel per sampled block.
constexpr int kKernelReps = 5;

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

KernelProbe RunKernelProbe(const tpcp::BlockTensorStore& store,
                           const tpcp::TwoPhaseCpOptions& options,
                           uint64_t seed, int sample_blocks) {
  const tpcp::GridPartition& grid = store.grid();
  const int64_t num_blocks = grid.NumBlocks();
  std::set<int64_t> picked;
  tpcp::Rng rng(seed ^ 0x7072'6f62'6500ULL);
  while (static_cast<int64_t>(picked.size()) <
         std::min<int64_t>(sample_blocks, num_blocks)) {
    picked.insert(static_cast<int64_t>(
        rng.NextUint64(static_cast<uint64_t>(num_blocks))));
  }

  std::vector<double> block_ms, iters, mttkrp_ms, gflops, solve_ms, fit_ms;
  for (const int64_t flat : picked) {
    auto block = store.ReadBlock(grid.UnflattenBlock(flat));
    TPCP_CHECK(block.ok()) << block.status().ToString();
    const tpcp::DenseTensor& x = *block;
    const int n = x.num_modes();
    // The block seed Phase 1 uses for this block (two_phase_cp.cc).
    const uint64_t block_seed =
        options.seed + 0x9e37u * static_cast<uint64_t>(flat + 1);
    std::vector<tpcp::Matrix> factors =
        tpcp::InitFactors(x, options.rank, options.init, block_seed);
    std::vector<tpcp::Matrix> grams;
    for (const tpcp::Matrix& f : factors) grams.push_back(tpcp::Gram(f));

    const double flops = 2.0 * static_cast<double>(x.NumElements()) *
                         static_cast<double>(options.rank);
    for (int rep = 0; rep < kKernelReps; ++rep) {
      for (int mode = 0; mode < n; ++mode) {
        int64_t start = NowNs();
        const tpcp::Matrix m = tpcp::Mttkrp(x, factors, mode);
        const double ms = MsSince(start);
        mttkrp_ms.push_back(ms);
        gflops.push_back(flops / (ms * 1e6));
        start = NowNs();
        tpcp::Matrix updated =
            tpcp::AlsFactorUpdate(m, grams, mode, options.phase1_ridge);
        tpcp::Matrix gram = tpcp::Gram(updated);
        solve_ms.push_back(MsSince(start));
        // The probe times the kernels on fixed inputs: the updated factor
        // is discarded so every rep sees the same operands.
        (void)gram;
      }
      const int64_t start = NowNs();
      const double fit = tpcp::Fit(x, tpcp::KruskalTensor(factors));
      fit_ms.push_back(MsSince(start));
      (void)fit;
    }

    tpcp::CpAlsOptions als;
    als.rank = options.rank;
    als.max_iterations = options.phase1_max_iterations;
    als.fit_tolerance = options.phase1_fit_tolerance;
    als.ridge = options.phase1_ridge;
    als.init = options.init;
    als.seed = block_seed;
    tpcp::CpAlsReport report;
    const int64_t start = NowNs();
    tpcp::CpAls(x, als, &report);
    block_ms.push_back(MsSince(start));
    iters.push_back(static_cast<double>(report.iterations));
  }

  KernelProbe probe;
  probe.block_ms = Median(block_ms);
  probe.iters_per_block = Median(iters);
  probe.mttkrp_ms = Median(mttkrp_ms);
  probe.mttkrp_gflops = Median(gflops);
  probe.solve_ms = Median(solve_ms);
  probe.fit_ms = Median(fit_ms);
  return probe;
}

double BlockDecodeMs(const tpcp::BlockTensorStore& store,
                     const InstrumentedEnv& env) {
  const std::vector<tpcp::BlockIndex> blocks = store.grid().AllBlocks();
  double decode_ms = 0.0;
  for (const tpcp::BlockIndex& index : blocks) {
    const uint64_t read_before =
        env.Counts().at(FileKind::kTensor, OpKind::kRead).nanos;
    const int64_t start = NowNs();
    auto block = store.ReadBlock(index);
    const double total_ms = MsSince(start);
    TPCP_CHECK(block.ok()) << block.status().ToString();
    const uint64_t read_ns =
        env.Counts().at(FileKind::kTensor, OpKind::kRead).nanos - read_before;
    decode_ms += total_ms - static_cast<double>(read_ns) / 1e6;
  }
  return decode_ms / static_cast<double>(blocks.size());
}

tpcp::Result<double> BlockwiseFit(const tpcp::BlockTensorStore& store,
                                  const tpcp::KruskalTensor& decomposition) {
  const tpcp::GridPartition& grid = store.grid();
  double x_sq = 0.0, residual_sq = 0.0;
  for (const tpcp::BlockIndex& index : grid.AllBlocks()) {
    TPCP_ASSIGN_OR_RETURN(tpcp::DenseTensor x, store.ReadBlock(index));
    const tpcp::Index offsets = grid.BlockOffsets(index);
    const std::vector<int64_t> sizes = grid.BlockSizes(index);
    std::vector<tpcp::Matrix> rows;
    for (int mode = 0; mode < grid.num_modes(); ++mode) {
      rows.push_back(decomposition.factor(mode).RowSlice(
          offsets[static_cast<size_t>(mode)],
          offsets[static_cast<size_t>(mode)] +
              sizes[static_cast<size_t>(mode)]));
    }
    const tpcp::KruskalTensor piece(std::move(rows),
                                    decomposition.lambda());
    const double x_norm_sq = x.SquaredNorm();
    const double piece_norm = piece.Norm();
    x_sq += x_norm_sq;
    residual_sq += x_norm_sq - 2.0 * tpcp::InnerProduct(x, piece) +
                   piece_norm * piece_norm;
  }
  if (x_sq == 0.0) return 1.0;
  return 1.0 - std::sqrt(std::max(0.0, residual_sq)) / std::sqrt(x_sq);
}

}  // namespace perfbench
