#include "tensor/gemm_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "runtime/trace.hpp"
#include "tensor/pack.hpp"
#include "util/error.hpp"

namespace dlbench::tensor {

using runtime::Device;

namespace detail {

namespace {

// One NR-wide row of a tile as a single vector value. GCC lowers it to
// one zmm, two ymm or four xmm registers as the target allows, where
// an indexed float acc[MR][NR] array would be shuffled lane by lane.
using Row = float __attribute__((vector_size(kGemmNR * sizeof(float))));

Row load_row(const float* p) {
  Row v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void store_row(float* p, Row v) { std::memcpy(p, &v, sizeof(v)); }

// Every lane set to x (Row{} + x would turn a -0 bias into +0).
Row splat(float x) {
  static_assert(kGemmNR == 16, "splat lists one x per lane");
  return Row{x, x, x, x, x, x, x, x, x, x, x, x, x, x, x, x};
}

}  // namespace

void micro_kernel_scalar(const float* a_panel, const float* b_panel,
                         std::int64_t k, float* out, std::int64_t ldo,
                         GemmEpilogue epilogue, const float* bias_row,
                         const float* bias_col) {
  Row acc[kGemmMR];
  const bool row_init = epilogue == GemmEpilogue::kBiasRowInit ||
                        epilogue == GemmEpilogue::kBiasRowRelu;
  for (std::int64_t r = 0; r < kGemmMR; ++r)
    acc[r] = row_init ? splat(bias_row[r]) : Row{};
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* a = a_panel + kk * kGemmMR;
    const Row b = load_row(b_panel + kk * kGemmNR);
    for (std::int64_t r = 0; r < kGemmMR; ++r) acc[r] += a[r] * b;
  }
  if (epilogue == GemmEpilogue::kBiasColAdd ||
      epilogue == GemmEpilogue::kBiasColRelu) {
    const Row bias = load_row(bias_col);
    for (std::int64_t r = 0; r < kGemmMR; ++r) acc[r] += bias;
  }
  if (epilogue == GemmEpilogue::kBiasColRelu ||
      epilogue == GemmEpilogue::kBiasRowRelu) {
    for (std::int64_t r = 0; r < kGemmMR; ++r)
      acc[r] = acc[r] > 0.f ? acc[r] : Row{};
  }
  for (std::int64_t r = 0; r < kGemmMR; ++r) store_row(out + r * ldo, acc[r]);
}

namespace {

// The single-panel kernel for the active tier, plus (when the tier has
// them) the wide kernels the driver prefers for full interior tiles.
// They are pure throughput optimizations — bitwise identical to the
// equivalent single-panel calls.
struct SelectedKernels {
  MicroKernelFn single;
  MicroKernelFn x2;    // MR x 2*NR; nullptr when the tier has none
  MicroKernelFn quad;  // 2*MR x 2*NR; nullptr when the tier has none
};

SelectedKernels select_micro_kernel() {
  const runtime::SimdLevel level = runtime::active_simd_level();
#if defined(DLB_HAVE_AVX512_BUILD)
  if (level == runtime::SimdLevel::kAvx512F)
    return {micro_kernel_avx512, micro_kernel_avx512_x2,
            micro_kernel_avx512_2x2};
#endif
#if defined(DLB_HAVE_AVX2_BUILD)
  if (level == runtime::SimdLevel::kAvx2Fma)
    return {micro_kernel_avx2fma, nullptr, nullptr};
#endif
  (void)level;
  return {micro_kernel_scalar, nullptr, nullptr};
}

}  // namespace
}  // namespace detail

namespace {

// Packed-B floats one thread keeps in flight: a column block of panels
// is packed into per-thread scratch, then every row panel of A runs
// against it while it is still in L2.
constexpr std::int64_t kBlockBudgetFloats = 256 * 1024 / sizeof(float);

// Panels per column block: as many as fit the budget at this K, rounded
// down to an even count so the paired kernels fill the block, and at
// least one pair.
std::int64_t block_panels(std::int64_t k) {
  const std::int64_t fit = kBlockBudgetFloats / (k * kGemmNR);
  return std::max<std::int64_t>(2, fit & ~std::int64_t{1});
}

// Grow-only scratch per calling thread: the training loop calls these
// thousands of times from one thread, and serve replicas and pool
// workers each get their own buffers.
float* grow_scratch(std::vector<float>& buf, std::int64_t floats) {
  if (buf.size() < static_cast<std::size_t>(floats))
    buf.resize(static_cast<std::size_t>(floats));
  return buf.data();
}

}  // namespace

void gemm_packed(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                 const float* b, std::int64_t b_rs, std::int64_t b_cs,
                 float* c, std::int64_t m, std::int64_t k, std::int64_t n,
                 GemmEpilogue epilogue, const float* bias,
                 const Device& dev) {
  DLB_CHECK(m > 0 && k > 0 && n > 0, "gemm_packed: empty dimensions");
  thread_local std::vector<float> pa;
  float* a_panels = grow_scratch(pa, gemm_packed_a_floats(m, k));
  pack_a_panels(a, a_rs, a_cs, m, k, a_panels, dev);
  gemm_prepacked_a(a_panels, b, b_rs, b_cs, c, m, k, n, epilogue, bias, dev);
}

void gemm_prepacked_a(const float* a_panels, const float* b, std::int64_t b_rs,
                      std::int64_t b_cs, float* c, std::int64_t m,
                      std::int64_t k, std::int64_t n, GemmEpilogue epilogue,
                      const float* bias, const Device& dev) {
  DLB_CHECK(m > 0 && k > 0 && n > 0, "gemm_packed: empty dimensions");
  // No trace span here: every caller (matmul*, conv2d_forward) already
  // opens a kernel-category span, and a nested one would double-count
  // the category total (see TraceTest.KernelSpansRecordedFromMatmul).

  const std::int64_t n_mp = gemm_row_panels(m);
  const std::int64_t n_np = gemm_col_panels(n);
  const std::int64_t nb = block_panels(k);

  const detail::SelectedKernels kernels = detail::select_micro_kernel();
  const detail::MicroKernelFn micro = kernels.single;
  const detail::MicroKernelFn micro_x2 = kernels.x2;
  const detail::MicroKernelFn micro_2x2 = kernels.quad;

  const bool row_bias = epilogue == GemmEpilogue::kBiasRowInit ||
                        epilogue == GemmEpilogue::kBiasRowRelu;
  const bool col_bias = epilogue == GemmEpilogue::kBiasColAdd ||
                        epilogue == GemmEpilogue::kBiasColRelu;

  // Macro loop: threads split the column panels; each walks its range
  // in blocks of nb panels, packs a block into its own scratch and runs
  // every row panel of A against it. Every C tile is computed whole by
  // one thread (see the determinism contract in the header).
  dev.parallel_for(
      static_cast<std::size_t>(n_np),
      [&](std::size_t lo, std::size_t hi) {
        const auto np_lo = static_cast<std::int64_t>(lo);
        const auto np_hi = static_cast<std::int64_t>(hi);
        thread_local std::vector<float> pb;
        float* b_block =
            grow_scratch(pb, std::min(nb, np_hi - np_lo) * k * kGemmNR);
        float tmp[kGemmMR * kGemmNR];
        float bias_row_pad[kGemmMR];
        float bias_col_pad[kGemmNR];

        // Row bias for the MR rows from m0, zero-padded past M.
        const auto row_bias_at = [&](std::int64_t m0) -> const float* {
          if (!row_bias) return nullptr;
          if (m0 + kGemmMR <= m) return bias + m0;
          for (std::int64_t r = 0; r < kGemmMR; ++r)
            bias_row_pad[r] = m0 + r < m ? bias[m0 + r] : 0.f;
          return bias_row_pad;
        };
        // One MR x NR tile at rows [m0, m0+MR) and column panel np,
        // staged through `tmp` when it crosses the edge of C.
        const auto single = [&](const float* a_panel, std::int64_t m0,
                                const float* brow, const float* b_panel,
                                std::int64_t np) {
          const std::int64_t mr = std::min(kGemmMR, m - m0);
          const std::int64_t n0 = np * kGemmNR;
          const std::int64_t nr = std::min(kGemmNR, n - n0);
          const float* bcol = nullptr;
          if (col_bias) {
            if (nr == kGemmNR) {
              bcol = bias + n0;
            } else {
              for (std::int64_t j = 0; j < kGemmNR; ++j)
                bias_col_pad[j] = j < nr ? bias[n0 + j] : 0.f;
              bcol = bias_col_pad;
            }
          }
          if (mr == kGemmMR && nr == kGemmNR) {
            micro(a_panel, b_panel, k, c + m0 * n + n0, n, epilogue, brow,
                  bcol);
            return;
          }
          micro(a_panel, b_panel, k, tmp, kGemmNR, epilogue, brow, bcol);
          for (std::int64_t r = 0; r < mr; ++r)
            std::memcpy(c + (m0 + r) * n + n0, tmp + r * kGemmNR,
                        static_cast<std::size_t>(nr) * sizeof(float));
        };

        for (std::int64_t np0 = np_lo; np0 < np_hi; np0 += nb) {
          const std::int64_t np1 = std::min(np_hi, np0 + nb);
          const std::int64_t n0 = np0 * kGemmNR;
          pack_b_panels(b + n0 * b_cs, b_rs, b_cs, k,
                        std::min(n, np1 * kGemmNR) - n0, b_block);
          // Panel np of B sits at b_block + (np - np0) * k * NR.
          const auto b_panel = [&](std::int64_t np) {
            return b_block + (np - np0) * k * kGemmNR;
          };
          for (std::int64_t mp = 0; mp < n_mp;) {
            const std::int64_t m0 = mp * kGemmMR;
            const float* a_panel = a_panels + mp * k * kGemmMR;
            // Full pair of row panels: the quad kernel (when the tier
            // has one) covers both against each B panel pair, halving
            // packed-B re-reads. Like column pairing, this only
            // regroups whole tiles, so it is bitwise neutral.
            if (micro_2x2 != nullptr && m0 + 2 * kGemmMR <= m) {
              std::int64_t np = np0;
              for (; np + 2 <= np1 && (np + 2) * kGemmNR <= n; np += 2)
                micro_2x2(a_panel, b_panel(np), k, c + m0 * n + np * kGemmNR,
                          n, epilogue, row_bias_at(m0),
                          col_bias ? bias + np * kGemmNR : nullptr);
              // Leftover column panel (or edge): one single tile per
              // row panel.
              for (; np < np1; ++np)
                for (std::int64_t half = 0; half < 2; ++half) {
                  const std::int64_t hm0 = m0 + half * kGemmMR;
                  single(a_panel + half * k * kGemmMR, hm0, row_bias_at(hm0),
                         b_panel(np), np);
                }
              mp += 2;
              continue;
            }
            const float* brow = row_bias_at(m0);
            for (std::int64_t np = np0; np < np1;) {
              // Full pair of column panels: the double-panel kernel
              // when the tier has one, bitwise identical to two
              // single-panel calls (see the x2 declaration in
              // gemm_kernel.hpp).
              if (micro_x2 != nullptr && m0 + kGemmMR <= m && np + 2 <= np1 &&
                  (np + 2) * kGemmNR <= n) {
                micro_x2(a_panel, b_panel(np), k, c + m0 * n + np * kGemmNR,
                         n, epilogue, brow,
                         col_bias ? bias + np * kGemmNR : nullptr);
                np += 2;
                continue;
              }
              single(a_panel, m0, brow, b_panel(np), np);
              ++np;
            }
            ++mp;
          }
        }
      },
      2);
}

}  // namespace dlbench::tensor
