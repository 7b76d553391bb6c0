// Unit + property tests for tensors and elementwise/reduction ops.

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <vector>

#include "runtime/device.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/error.hpp"

namespace dlbench::tensor {
namespace {

using runtime::Device;

TEST(Shape, BasicAccessors) {
  Shape s({2, 3, 4});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.to_string(), "[2, 3, 4]");
}

TEST(Shape, EqualityAndErrors) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
  Shape s({2});
  EXPECT_THROW(s.dim(1), dlbench::Error);
  EXPECT_THROW(Shape({-1}), dlbench::Error);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape({3, 4}));
  for (float v : t.data()) EXPECT_EQ(v, 0.f);
}

TEST(Tensor, FillAndFull) {
  Tensor t = Tensor::full(Shape({5}), 2.5f);
  for (float v : t.data()) EXPECT_EQ(v, 2.5f);
  t.fill(-1.f);
  for (float v : t.data()) EXPECT_EQ(v, -1.f);
}

TEST(Tensor, CopyAliasesCloneDoesNot) {
  Tensor a(Shape({4}), 1.f);
  Tensor alias = a;
  Tensor deep = a.clone();
  a.data()[0] = 9.f;
  EXPECT_EQ(alias.at(0), 9.f);
  EXPECT_EQ(deep.at(0), 1.f);
}

TEST(Tensor, ReshapeSharesStorageAndChecksCount) {
  Tensor a(Shape({2, 6}), 3.f);
  Tensor b = a.reshape(Shape({3, 4}));
  b.data()[0] = 7.f;
  EXPECT_EQ(a.at(0), 7.f);
  EXPECT_THROW(a.reshape(Shape({5})), dlbench::Error);
}

TEST(Tensor, AtBoundsChecked) {
  Tensor t(Shape({2}));
  EXPECT_THROW(t.at(2), dlbench::Error);
  EXPECT_THROW(t.at(-1), dlbench::Error);
}

TEST(Tensor, HasNonFiniteDetectsNanAndInf) {
  Tensor t(Shape({3}), 1.f);
  EXPECT_FALSE(t.has_non_finite());
  t.data()[1] = std::nanf("");
  EXPECT_TRUE(t.has_non_finite());
  t.data()[1] = INFINITY;
  EXPECT_TRUE(t.has_non_finite());
}

// The sweep is vectorised with no early exit, so a lone non-finite
// value must be found in every lane position, including the scalar tail
// of a length that is not a multiple of the vector width.
TEST(Tensor, HasNonFiniteFindsOneValueAtAnyPosition) {
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                       -std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  for (const std::int64_t n : {1L, 7L, 15L, 17L, 33L, 1001L}) {
    Tensor t(Shape({n}), 0.5f);
    ASSERT_FALSE(t.has_non_finite()) << "n=" << n;
    for (const std::int64_t at : {std::int64_t{0}, n / 2, n - 1}) {
      for (const float v : bad) {
        t.data()[at] = v;
        EXPECT_TRUE(t.has_non_finite()) << "n=" << n << " at=" << at
                                        << " value=" << v;
        t.data()[at] = 0.5f;
      }
    }
  }
}

TEST(Tensor, HasNonFiniteAcceptsEveryFiniteExtreme) {
  const float finite[] = {std::numeric_limits<float>::denorm_min(),
                          -std::numeric_limits<float>::denorm_min(),
                          std::numeric_limits<float>::min(),
                          std::numeric_limits<float>::max(),
                          -std::numeric_limits<float>::max(),
                          0.f,
                          -0.f};
  Tensor t(Shape({19}));
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t.data()[i] = finite[i % std::size(finite)];
  EXPECT_FALSE(t.has_non_finite());
  EXPECT_FALSE(Tensor(Shape({0})).has_non_finite());
}

// A default-constructed tensor has no storage, so it holds no elements
// even though its rank-0 shape counts one; every whole-tensor query
// must see it as empty rather than read through the null buffer.
TEST(Tensor, DefaultConstructedIsEmptyAndSafe) {
  const Tensor t;
  EXPECT_EQ(t.numel(), 0);
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.data().empty());
  EXPECT_THROW(t.at(0), dlbench::Error);
  EXPECT_FALSE(t.has_non_finite());
  const Tensor copy = t.clone();
  EXPECT_EQ(copy.numel(), 0);
  EXPECT_EQ(copy.raw(), nullptr);
  EXPECT_EQ(t.to_string(), "Tensor[] {}");
}

TEST(Tensor, RandnIsDeterministicPerSeed) {
  util::Rng r1(5), r2(5);
  Tensor a = Tensor::randn(Shape({100}), r1);
  Tensor b = Tensor::randn(Shape({100}), r2);
  for (std::int64_t i = 0; i < 100; ++i) EXPECT_EQ(a.at(i), b.at(i));
}

// Parameterized over devices: every op must give identical results on
// the serial and parallel devices.
class OpsOnDevice : public ::testing::TestWithParam<bool> {
 protected:
  Device dev() const {
    return GetParam() ? Device::parallel(4) : Device::cpu();
  }
};

TEST_P(OpsOnDevice, AddSubMul) {
  Tensor a(Shape({2, 3}), 2.f);
  Tensor b(Shape({2, 3}), 3.f);
  EXPECT_EQ(add(a, b, dev()).at(0), 5.f);
  EXPECT_EQ(sub(a, b, dev()).at(0), -1.f);
  EXPECT_EQ(mul(a, b, dev()).at(0), 6.f);
}

TEST_P(OpsOnDevice, InplaceOps) {
  Tensor a(Shape({4}), 1.f);
  Tensor b(Shape({4}), 2.f);
  add_inplace(a, b, dev());
  EXPECT_EQ(a.at(0), 3.f);
  axpy_inplace(a, 0.5f, b, dev());
  EXPECT_EQ(a.at(0), 4.f);
  scale_inplace(a, 2.f, dev());
  EXPECT_EQ(a.at(0), 8.f);
}

TEST_P(OpsOnDevice, ShapeMismatchThrows) {
  Tensor a(Shape({2}));
  Tensor b(Shape({3}));
  EXPECT_THROW(add(a, b, dev()), dlbench::Error);
  EXPECT_THROW(add_inplace(a, b, dev()), dlbench::Error);
}

TEST_P(OpsOnDevice, ReluForwardBackward) {
  Tensor x(Shape({4}), std::vector<float>{-1.f, 0.f, 2.f, -3.f});
  Tensor y = relu(x, dev());
  EXPECT_EQ(y.at(0), 0.f);
  EXPECT_EQ(y.at(2), 2.f);
  Tensor dy(Shape({4}), 1.f);
  Tensor dx = relu_backward(x, dy, dev());
  EXPECT_EQ(dx.at(0), 0.f);
  EXPECT_EQ(dx.at(2), 1.f);
}

TEST_P(OpsOnDevice, TanhMatchesStd) {
  Tensor x(Shape({3}), std::vector<float>{-1.f, 0.f, 0.5f});
  Tensor y = tanh_op(x, dev());
  EXPECT_NEAR(y.at(0), std::tanh(-1.f), 1e-6);
  EXPECT_EQ(y.at(1), 0.f);
  Tensor dy(Shape({3}), 1.f);
  Tensor dx = tanh_backward(y, dy, dev());
  EXPECT_NEAR(dx.at(2), 1.f - y.at(2) * y.at(2), 1e-6);
}

TEST_P(OpsOnDevice, SignMatchesPaperDefinition) {
  Tensor x(Shape({3}), std::vector<float>{-0.5f, 0.f, 3.f});
  Tensor s = sign(x, dev());
  EXPECT_EQ(s.at(0), -1.f);
  EXPECT_EQ(s.at(1), 0.f);
  EXPECT_EQ(s.at(2), 1.f);
}

TEST_P(OpsOnDevice, ClampBounds) {
  Tensor x(Shape({3}), std::vector<float>{-1.f, 0.5f, 2.f});
  Tensor c = clamp(x, 0.f, 1.f, dev());
  EXPECT_EQ(c.at(0), 0.f);
  EXPECT_EQ(c.at(1), 0.5f);
  EXPECT_EQ(c.at(2), 1.f);
  EXPECT_THROW(clamp(x, 1.f, 0.f, dev()), dlbench::Error);
}

TEST_P(OpsOnDevice, SoftmaxRowsSumToOne) {
  util::Rng rng(3);
  Tensor logits = Tensor::randn(Shape({5, 10}), rng, 0.f, 3.f);
  Tensor p = softmax_rows(logits, dev());
  for (std::int64_t r = 0; r < 5; ++r) {
    double sum_row = 0;
    for (std::int64_t c = 0; c < 10; ++c) sum_row += p.at(r * 10 + c);
    EXPECT_NEAR(sum_row, 1.0, 1e-5);
  }
}

TEST_P(OpsOnDevice, SoftmaxIsShiftInvariantAndStable) {
  Tensor big(Shape({1, 3}), std::vector<float>{1000.f, 1001.f, 999.f});
  Tensor p = softmax_rows(big, dev());
  EXPECT_FALSE(p.has_non_finite());
  Tensor small(Shape({1, 3}), std::vector<float>{0.f, 1.f, -1.f});
  Tensor q = softmax_rows(small, dev());
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(p.at(i), q.at(i), 1e-5);
}

TEST_P(OpsOnDevice, CrossEntropyGradientMatchesNumeric) {
  util::Rng rng(4);
  Tensor logits = Tensor::randn(Shape({3, 5}), rng);
  std::vector<std::int64_t> labels = {1, 4, 0};
  Tensor probs = softmax_rows(logits, dev());
  Tensor grad = softmax_cross_entropy_backward(probs, labels, dev());

  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits.clone();
    Tensor lm = logits.clone();
    lp.data()[i] += eps;
    lm.data()[i] -= eps;
    const double fp = cross_entropy_mean(softmax_rows(lp, dev()), labels);
    const double fm = cross_entropy_mean(softmax_rows(lm, dev()), labels);
    const double numeric = (fp - fm) / (2 * eps);
    EXPECT_NEAR(grad.at(i), numeric, 5e-3) << "at logit " << i;
  }
}

TEST_P(OpsOnDevice, CrossEntropyClampsAtFloatMin) {
  // A fully confident wrong prediction must report the Caffe plateau
  // loss of -log(FLT_MIN) = 87.34 (paper Fig. 5), not inf.
  Tensor probs(Shape({1, 2}), std::vector<float>{1.f, 0.f});
  const double loss = cross_entropy_mean(probs, {1});
  EXPECT_NEAR(loss, 87.336, 0.01);
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, OpsOnDevice, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Parallel" : "Serial";
                         });

TEST(Reductions, SumMeanArgmax) {
  Tensor x(Shape({2, 3}), std::vector<float>{1, 5, 2, 9, 0, 4});
  EXPECT_DOUBLE_EQ(sum(x), 21.0);
  EXPECT_DOUBLE_EQ(mean_of(x), 3.5);
  EXPECT_EQ(argmax_row(x, 0), 1);
  EXPECT_EQ(argmax_row(x, 1), 0);
  auto rows = argmax_rows(x);
  EXPECT_EQ(rows, (std::vector<std::int64_t>{1, 0}));
}

TEST(Reductions, ArgmaxTiesPickFirst) {
  Tensor x(Shape({1, 4}), std::vector<float>{3.f, 3.f, 1.f, 3.f});
  EXPECT_EQ(argmax_row(x, 0), 0);
}

TEST(Init, XavierBoundsDependOnFanIn) {
  util::Rng rng(6);
  Tensor w(Shape({100, 100}));
  initialize(w, InitKind::kXavierUniform, 300, 100, rng);
  const float limit = std::sqrt(3.f / 300.f);
  for (float v : w.data()) {
    EXPECT_LE(std::fabs(v), limit);
  }
}

TEST(Init, TruncatedNormalWithinTwoSigma) {
  util::Rng rng(7);
  Tensor w(Shape({1000}));
  initialize(w, InitKind::kTruncatedNormal, 10, 10, rng);
  for (float v : w.data()) EXPECT_LE(std::fabs(v), 0.2f + 1e-6f);
}

TEST(Init, LecunUniformBounds) {
  util::Rng rng(8);
  Tensor w(Shape({500}));
  initialize(w, InitKind::kLecunUniform, 25, 10, rng);
  for (float v : w.data()) EXPECT_LE(std::fabs(v), 0.2f + 1e-6f);
}

TEST(Init, NamesAreStable) {
  EXPECT_STREQ(init_kind_name(InitKind::kXavierUniform), "xavier");
  EXPECT_STREQ(init_kind_name(InitKind::kTruncatedNormal),
               "truncated_normal");
  EXPECT_STREQ(init_kind_name(InitKind::kLecunUniform), "lecun_uniform");
}

}  // namespace
}  // namespace dlbench::tensor
