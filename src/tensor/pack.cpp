#include "tensor/pack.hpp"

#include <algorithm>
#include <cstring>

namespace dlbench::tensor {

using runtime::Device;

namespace {

// Rows of row-major B per block: the block's source rows are read from
// memory once, in address order, and stay cached while each panel of
// B takes its NR-float slice of every row in the block.
constexpr std::int64_t kPackRowBlock = 16;

}  // namespace

void pack_a_panels(const float* a, std::int64_t row_stride,
                   std::int64_t col_stride, std::int64_t m, std::int64_t k,
                   float* dst, const Device& dev) {
  const std::int64_t panels = gemm_row_panels(m);
  dev.parallel_for(
      static_cast<std::size_t>(panels),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t p = lo; p < hi; ++p) {
          const std::int64_t m0 = static_cast<std::int64_t>(p) * kGemmMR;
          const std::int64_t rows = std::min(kGemmMR, m - m0);
          float* panel = dst + static_cast<std::int64_t>(p) * k * kGemmMR;
          if (col_stride == 1) {
            // Row-major A: gather MR strided rows, write column-major.
            for (std::int64_t kk = 0; kk < k; ++kk) {
              float* out = panel + kk * kGemmMR;
              for (std::int64_t r = 0; r < rows; ++r)
                out[r] = a[(m0 + r) * row_stride + kk];
              for (std::int64_t r = rows; r < kGemmMR; ++r) out[r] = 0.f;
            }
          } else {
            // Transposed A (row_stride == 1): each k reads MR contiguous
            // floats.
            for (std::int64_t kk = 0; kk < k; ++kk) {
              const float* src = a + kk * col_stride + m0 * row_stride;
              float* out = panel + kk * kGemmMR;
              for (std::int64_t r = 0; r < rows; ++r)
                out[r] = src[r * row_stride];
              for (std::int64_t r = rows; r < kGemmMR; ++r) out[r] = 0.f;
            }
          }
        }
      },
      4);
}

void pack_b_panels(const float* b, std::int64_t row_stride,
                   std::int64_t col_stride, std::int64_t k, std::int64_t n,
                   float* dst) {
  const std::int64_t panels = gemm_col_panels(n);
  // Only the last panel of B can be narrower than NR.
  const std::int64_t edge_cols = n - (panels - 1) * kGemmNR;
  const std::int64_t p_full = edge_cols == kGemmNR ? panels : panels - 1;
  if (col_stride == 1) {
    // Row-major B: one block of rows at a time, so B is read in address
    // order instead of one page-crossing column strip per panel.
    for (std::int64_t k0 = 0; k0 < k; k0 += kPackRowBlock) {
      const std::int64_t rows = std::min(kPackRowBlock, k - k0);
      const float* block = b + k0 * row_stride;
      for (std::int64_t p = 0; p < panels; ++p) {
        float* out = dst + (p * k + k0) * kGemmNR;
        const float* src = block + p * kGemmNR;
        if (p < p_full) {
          for (std::int64_t kk = 0; kk < rows; ++kk)
            std::memcpy(out + kk * kGemmNR, src + kk * row_stride,
                        static_cast<std::size_t>(kGemmNR) * sizeof(float));
          continue;
        }
        for (std::int64_t kk = 0; kk < rows; ++kk) {
          for (std::int64_t j = 0; j < edge_cols; ++j)
            out[kk * kGemmNR + j] = src[kk * row_stride + j];
          for (std::int64_t j = edge_cols; j < kGemmNR; ++j)
            out[kk * kGemmNR + j] = 0.f;
        }
      }
    }
    return;
  }
  // Transposed B (row_stride == 1): each panel row takes one element
  // from each of the panel's NR source columns, so the panel is written
  // in address order and each source column is read in address order
  // too (one cache line of it serves NR consecutive panel rows).
  for (std::int64_t p = 0; p < panels; ++p) {
    const float* src = b + p * kGemmNR * col_stride;
    float* panel = dst + p * k * kGemmNR;
    if (p < p_full) {
      for (std::int64_t kk = 0; kk < k; ++kk)
        for (std::int64_t j = 0; j < kGemmNR; ++j)
          panel[kk * kGemmNR + j] = src[j * col_stride + kk * row_stride];
      continue;
    }
    for (std::int64_t kk = 0; kk < k; ++kk) {
      for (std::int64_t j = 0; j < edge_cols; ++j)
        panel[kk * kGemmNR + j] = src[j * col_stride + kk * row_stride];
      for (std::int64_t j = edge_cols; j < kGemmNR; ++j)
        panel[kk * kGemmNR + j] = 0.f;
    }
  }
}

}  // namespace dlbench::tensor
