// Optimizer tests: SGD/momentum/weight-decay semantics, Adam bias
// correction, lr schedules (including Caffe's two-phase CIFAR-10 one).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "optim/optimizer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dlbench::optim {
namespace {

using runtime::Device;
using tensor::Shape;
using tensor::Tensor;

TEST(LrSchedule, FixedRate) {
  LrSchedule s(0.05);
  EXPECT_DOUBLE_EQ(s.rate(0), 0.05);
  EXPECT_DOUBLE_EQ(s.rate(100000), 0.05);
  EXPECT_DOUBLE_EQ(s.base(), 0.05);
}

TEST(LrSchedule, TwoPhaseCaffeCifar) {
  // Caffe CIFAR-10: 0.001 for the first 80% of steps, then 0.0001.
  LrSchedule s(0.001, {4000}, {0.0001});
  EXPECT_DOUBLE_EQ(s.rate(0), 0.001);
  EXPECT_DOUBLE_EQ(s.rate(3999), 0.001);
  EXPECT_DOUBLE_EQ(s.rate(4000), 0.0001);
  EXPECT_DOUBLE_EQ(s.rate(999999), 0.0001);
}

TEST(LrSchedule, MultistepMonotoneBoundaries) {
  LrSchedule s(1.0, {10, 20}, {0.1, 0.01});
  EXPECT_DOUBLE_EQ(s.rate(15), 0.1);
  EXPECT_DOUBLE_EQ(s.rate(25), 0.01);
  EXPECT_THROW(LrSchedule(1.0, {20, 10}, {0.1, 0.01}), dlbench::Error);
  EXPECT_THROW(LrSchedule(1.0, {10}, {0.1, 0.01}), dlbench::Error);
  EXPECT_THROW(LrSchedule(-1.0), dlbench::Error);
}

TEST(Sgd, PlainStepMovesAgainstGradient) {
  Tensor w(Shape({2}), std::vector<float>{1.f, -1.f});
  Tensor g(Shape({2}), std::vector<float>{0.5f, -0.5f});
  Sgd sgd(LrSchedule(0.1));
  sgd.step({&w}, {&g}, 0, Device::cpu());
  EXPECT_FLOAT_EQ(w.at(0), 0.95f);
  EXPECT_FLOAT_EQ(w.at(1), -0.95f);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Tensor w(Shape({1}), std::vector<float>{1.f});
  Tensor g(Shape({1}), std::vector<float>{0.f});
  Sgd sgd(LrSchedule(0.1), 0.0, /*weight_decay=*/0.5);
  sgd.step({&w}, {&g}, 0, Device::cpu());
  EXPECT_FLOAT_EQ(w.at(0), 1.f - 0.1f * 0.5f);
}

TEST(Sgd, MomentumAccumulatesVelocity) {
  Tensor w(Shape({1}), std::vector<float>{0.f});
  Tensor g(Shape({1}), std::vector<float>{1.f});
  Sgd sgd(LrSchedule(1.0), /*momentum=*/0.9);
  sgd.step({&w}, {&g}, 0, Device::cpu());
  EXPECT_FLOAT_EQ(w.at(0), -1.f);  // v = 1
  sgd.step({&w}, {&g}, 1, Device::cpu());
  EXPECT_FLOAT_EQ(w.at(0), -1.f - 1.9f);  // v = 0.9 + 1
}

TEST(Sgd, RejectsBadHyperparameters) {
  EXPECT_THROW(Sgd(LrSchedule(0.1), -0.1), dlbench::Error);
  EXPECT_THROW(Sgd(LrSchedule(0.1), 1.0), dlbench::Error);
  EXPECT_THROW(Sgd(LrSchedule(0.1), 0.0, -1.0), dlbench::Error);
}

TEST(Sgd, ShapeMismatchThrows) {
  Tensor w(Shape({2}));
  Tensor g(Shape({3}));
  Sgd sgd(LrSchedule(0.1));
  EXPECT_THROW(sgd.step({&w}, {&g}, 0, Device::cpu()), dlbench::Error);
  EXPECT_THROW(sgd.step({&w}, {}, 0, Device::cpu()), dlbench::Error);
}

TEST(Adam, FirstStepIsLrSizedRegardlessOfGradScale) {
  // With bias correction, the first Adam update is ~lr * sign(g).
  for (float scale : {0.001f, 1.f, 1000.f}) {
    Tensor w(Shape({1}), std::vector<float>{0.f});
    Tensor g(Shape({1}), std::vector<float>{scale});
    Adam adam(LrSchedule(0.01));
    adam.step({&w}, {&g}, 0, Device::cpu());
    EXPECT_NEAR(w.at(0), -0.01f, 1e-4f) << "scale " << scale;
  }
}

TEST(Adam, ConvergesOnQuadraticFasterThanItDiverges) {
  // Minimize f(w) = (w - 3)^2 with gradients 2(w - 3).
  Tensor w(Shape({1}), std::vector<float>{0.f});
  Adam adam(LrSchedule(0.1));
  for (int step = 0; step < 300; ++step) {
    Tensor g(Shape({1}), std::vector<float>{2.f * (w.at(0) - 3.f)});
    adam.step({&w}, {&g}, step, Device::cpu());
  }
  EXPECT_NEAR(w.at(0), 3.f, 0.05f);
}

TEST(Adam, RejectsBadHyperparameters) {
  EXPECT_THROW(Adam(LrSchedule(0.1), 1.0), dlbench::Error);
  EXPECT_THROW(Adam(LrSchedule(0.1), 0.9, 1.0), dlbench::Error);
  EXPECT_THROW(Adam(LrSchedule(0.1), 0.9, 0.999, 0.0), dlbench::Error);
}

TEST(Optim, RebindingToDifferentModelThrows) {
  Tensor w1(Shape({2})), g1(Shape({2}));
  Tensor w2(Shape({3})), g2(Shape({3}));
  Sgd sgd(LrSchedule(0.1), 0.9);
  sgd.step({&w1}, {&g1}, 0, Device::cpu());
  EXPECT_THROW(sgd.step({&w1, &w2}, {&g1, &g2}, 1, Device::cpu()),
               dlbench::Error);
}

TEST(Optim, SgdConvergesOnLeastSquares) {
  // w* = argmin ||Xw - y||^2 on a tiny fixed problem.
  util::Rng rng(1);
  const int n = 32, d = 4;
  Tensor X = Tensor::randn(Shape({n, d}), rng);
  std::vector<float> w_true = {1.f, -2.f, 0.5f, 3.f};
  std::vector<float> y(n);
  for (int i = 0; i < n; ++i) {
    float acc = 0;
    for (int j = 0; j < d; ++j) acc += X.at(i * d + j) * w_true[j];
    y[static_cast<std::size_t>(i)] = acc;
  }
  Tensor w(Shape({d}));
  Sgd sgd(LrSchedule(0.05), 0.9);
  for (int step = 0; step < 400; ++step) {
    Tensor grad(Shape({d}));
    for (int i = 0; i < n; ++i) {
      float pred = 0;
      for (int j = 0; j < d; ++j) pred += X.at(i * d + j) * w.at(j);
      const float err = pred - y[static_cast<std::size_t>(i)];
      for (int j = 0; j < d; ++j)
        grad.data()[j] += 2.f * err * X.at(i * d + j) / n;
    }
    sgd.step({&w}, {&grad}, step, Device::cpu());
  }
  for (int j = 0; j < d; ++j) EXPECT_NEAR(w.at(j), w_true[j], 0.02f);
}

TEST(Optim, ParallelDeviceMatchesSerial) {
  util::Rng rng(2);
  Tensor w1 = Tensor::randn(Shape({1000}), rng);
  Tensor w2 = w1.clone();
  Tensor g = Tensor::randn(Shape({1000}), rng);
  Sgd a(LrSchedule(0.01), 0.9, 0.001);
  Sgd b(LrSchedule(0.01), 0.9, 0.001);
  for (int step = 0; step < 5; ++step) {
    a.step({&w1}, {&g}, step, Device::cpu());
    b.step({&w2}, {&g}, step, Device::parallel(4));
  }
  for (std::int64_t i = 0; i < w1.numel(); ++i)
    ASSERT_EQ(w1.at(i), w2.at(i));
}


TEST(NesterovSgd, FirstStepAppliesLookahead) {
  Tensor w(Shape({1}), std::vector<float>{0.f});
  Tensor g(Shape({1}), std::vector<float>{1.f});
  NesterovSgd opt(LrSchedule(0.1), 0.9);
  opt.step({&w}, {&g}, 0, Device::cpu());
  // v = 1; update = lr * (g + mu * v) = 0.1 * 1.9.
  EXPECT_NEAR(w.at(0), -0.19f, 1e-6f);
}

TEST(NesterovSgd, ConvergesOnQuadratic) {
  Tensor w(Shape({1}), std::vector<float>{0.f});
  NesterovSgd opt(LrSchedule(0.05), 0.9);
  for (int step = 0; step < 200; ++step) {
    Tensor g(Shape({1}), std::vector<float>{2.f * (w.at(0) - 3.f)});
    opt.step({&w}, {&g}, step, Device::cpu());
  }
  EXPECT_NEAR(w.at(0), 3.f, 0.05f);
}

TEST(AdaGrad, RatesShrinkWithAccumulatedGradient) {
  Tensor w(Shape({1}), std::vector<float>{0.f});
  Tensor g(Shape({1}), std::vector<float>{1.f});
  AdaGrad opt(LrSchedule(0.1));
  opt.step({&w}, {&g}, 0, Device::cpu());
  const float first = -w.at(0);  // ~0.1
  const float before = w.at(0);
  opt.step({&w}, {&g}, 1, Device::cpu());
  const float second = before - w.at(0);
  EXPECT_GT(first, second);  // accumulated curvature damps the step
  EXPECT_NEAR(first, 0.1f, 1e-3f);
}

TEST(AdaGrad, RejectsBadEpsilon) {
  EXPECT_THROW(AdaGrad(LrSchedule(0.1), 0.0), dlbench::Error);
}

TEST(RmsProp, StepMagnitudeIsScaleInvariant) {
  for (float scale : {0.01f, 1.f, 100.f}) {
    Tensor w(Shape({1}), std::vector<float>{0.f});
    Tensor g(Shape({1}), std::vector<float>{scale});
    RmsProp opt(LrSchedule(0.01), 0.9);
    // After a few steps the mean-square estimate tracks g^2 and the
    // step approaches lr / sqrt(1 - rho^t)-ish regardless of scale.
    for (int s = 0; s < 5; ++s) opt.step({&w}, {&g}, s, Device::cpu());
    EXPECT_LT(std::fabs(w.at(0)), 0.2f) << scale;
    EXPECT_GT(std::fabs(w.at(0)), 0.01f) << scale;
  }
}

TEST(RmsProp, ConvergesOnQuadratic) {
  Tensor w(Shape({1}), std::vector<float>{0.f});
  RmsProp opt(LrSchedule(0.05), 0.9);
  for (int step = 0; step < 400; ++step) {
    Tensor g(Shape({1}), std::vector<float>{2.f * (w.at(0) - 3.f)});
    opt.step({&w}, {&g}, step, Device::cpu());
  }
  EXPECT_NEAR(w.at(0), 3.f, 0.1f);
}

TEST(RmsProp, RejectsBadDecay) {
  EXPECT_THROW(RmsProp(LrSchedule(0.1), 1.0), dlbench::Error);
}

// ---- The vectorised updates against the per-element loops ----
//
// Each optimizer's update is a vectorised sweep; these references are
// the plain per-element loops it must reproduce bit for bit. sqrt and
// division are correctly rounded in either form, and both forms build
// the same expression tree, so no tolerance is needed.

namespace ref {

const LrSchedule kSchedule(0.01, {2}, {0.004});
constexpr double kMomentum = 0.9, kEps = 1e-8, kDecay = 0.9;
constexpr double kBeta1 = 0.9, kBeta2 = 0.999;

// One tensor's update at `step`; s1/s2 are its optimizer state slots.
using Update = void (*)(float* p, const float* g, float* s1, float* s2,
                        std::size_t n, std::int64_t step, double wd);

void sgd(float* p, const float* g, float*, float*, std::size_t n,
         std::int64_t step, double weight_decay) {
  const auto lr = static_cast<float>(kSchedule.rate(step));
  const auto wd = static_cast<float>(weight_decay);
  for (std::size_t k = 0; k < n; ++k) p[k] -= lr * (g[k] + wd * p[k]);
}

void momentum(float* p, const float* g, float* v, float*, std::size_t n,
              std::int64_t step, double weight_decay) {
  const auto lr = static_cast<float>(kSchedule.rate(step));
  const auto wd = static_cast<float>(weight_decay);
  const auto mu = static_cast<float>(kMomentum);
  for (std::size_t k = 0; k < n; ++k) {
    v[k] = mu * v[k] + g[k] + wd * p[k];
    p[k] -= lr * v[k];
  }
}

void nesterov(float* p, const float* g, float* v, float*, std::size_t n,
              std::int64_t step, double weight_decay) {
  const auto lr = static_cast<float>(kSchedule.rate(step));
  const auto mu = static_cast<float>(kMomentum);
  const auto wd = static_cast<float>(weight_decay);
  for (std::size_t k = 0; k < n; ++k) {
    const float gk = g[k] + wd * p[k];
    v[k] = mu * v[k] + gk;
    p[k] -= lr * (gk + mu * v[k]);
  }
}

void adagrad(float* p, const float* g, float* a, float*, std::size_t n,
             std::int64_t step, double weight_decay) {
  const auto lr = static_cast<float>(kSchedule.rate(step));
  const auto eps = static_cast<float>(kEps);
  const auto wd = static_cast<float>(weight_decay);
  for (std::size_t k = 0; k < n; ++k) {
    const float gk = g[k] + wd * p[k];
    a[k] += gk * gk;
    p[k] -= lr * gk / (std::sqrt(a[k]) + eps);
  }
}

void rmsprop(float* p, const float* g, float* ms, float*, std::size_t n,
             std::int64_t step, double weight_decay) {
  const auto lr = static_cast<float>(kSchedule.rate(step));
  const auto rho = static_cast<float>(kDecay);
  const auto eps = static_cast<float>(kEps);
  const auto wd = static_cast<float>(weight_decay);
  for (std::size_t k = 0; k < n; ++k) {
    const float gk = g[k] + wd * p[k];
    ms[k] = rho * ms[k] + (1.f - rho) * gk * gk;
    p[k] -= lr * gk / (std::sqrt(ms[k]) + eps);
  }
}

void adam(float* p, const float* g, float* m, float* v, std::size_t n,
          std::int64_t step, double weight_decay) {
  const double lr = kSchedule.rate(step);
  const double t = static_cast<double>(step) + 1.0;
  const double bc1 = 1.0 - std::pow(kBeta1, t);
  const double bc2 = 1.0 - std::pow(kBeta2, t);
  const auto alpha = static_cast<float>(lr * std::sqrt(bc2) / bc1);
  const auto b1 = static_cast<float>(kBeta1);
  const auto b2 = static_cast<float>(kBeta2);
  const auto eps = static_cast<float>(kEps);
  const auto wd = static_cast<float>(weight_decay);
  for (std::size_t k = 0; k < n; ++k) {
    const float gk = g[k] + wd * p[k];
    m[k] = b1 * m[k] + (1.f - b1) * gk;
    v[k] = b2 * v[k] + (1.f - b2) * gk * gk;
    p[k] -= alpha * m[k] / (std::sqrt(v[k]) + eps);
  }
}

}  // namespace ref

// Zeros of both signs, denormals of both signs, values near 1e15 (whose
// squares stay finite) and ordinary normals.
float tricky_value(util::Rng& rng) {
  const float sign = rng.uniform_index(2) ? 1.f : -1.f;
  switch (rng.uniform_index(8)) {
    case 0:
      return sign * 0.f;
    case 1:
      return sign * std::numeric_limits<float>::denorm_min() *
             static_cast<float>(1 + rng.uniform_index(1u << 20));
    case 2:
      return sign * static_cast<float>(rng.uniform(1e14, 1e15));
    default:
      return static_cast<float>(rng.normal());
  }
}

std::vector<std::uint32_t> float_bits(const Tensor& t) {
  std::vector<std::uint32_t> out(static_cast<std::size_t>(t.numel()));
  std::memcpy(out.data(), t.raw(), out.size() * sizeof(float));
  return out;
}

TEST(Optim, VectorisedUpdatesMatchPerElementLoopsBitwise) {
  struct Case {
    const char* name;
    std::function<std::unique_ptr<Optimizer>(double wd)> make;
    ref::Update update;
  };
  const Case cases[] = {
      {"sgd",
       [](double wd) {
         return std::make_unique<Sgd>(ref::kSchedule, 0.0, wd);
       },
       ref::sgd},
      {"momentum",
       [](double wd) {
         return std::make_unique<Sgd>(ref::kSchedule, ref::kMomentum, wd);
       },
       ref::momentum},
      {"nesterov",
       [](double wd) {
         return std::make_unique<NesterovSgd>(ref::kSchedule, ref::kMomentum,
                                              wd);
       },
       ref::nesterov},
      {"adagrad",
       [](double wd) {
         return std::make_unique<AdaGrad>(ref::kSchedule, ref::kEps, wd);
       },
       ref::adagrad},
      {"rmsprop",
       [](double wd) {
         return std::make_unique<RmsProp>(ref::kSchedule, ref::kDecay,
                                          ref::kEps, wd);
       },
       ref::rmsprop},
      {"adam",
       [](double wd) {
         return std::make_unique<Adam>(ref::kSchedule, ref::kBeta1,
                                       ref::kBeta2, ref::kEps, wd);
       },
       ref::adam},
  };
  // Sizes cover an empty vector tail, odd tails, and tensors above the
  // 4096-element grain, which the parallel device splits.
  const std::int64_t sizes[] = {1, 17, 255, 4099, 9001};
  const Device devices[] = {Device::cpu(), Device::parallel(3)};
  constexpr int kSteps = 4;
  for (const Case& c : cases) {
    for (const double wd : {0.0, 1e-3}) {
      for (const Device& dev : devices) {
        util::Rng rng(17);
        std::vector<Tensor> params, grads;
        std::vector<std::vector<float>> want, s1, s2;
        for (const std::int64_t n : sizes) {
          std::vector<float> init(static_cast<std::size_t>(n));
          for (float& e : init) e = tricky_value(rng);
          params.emplace_back(Shape({n}), init);
          grads.emplace_back(Shape({n}));
          want.push_back(init);
          s1.emplace_back(init.size(), 0.f);
          s2.emplace_back(init.size(), 0.f);
        }
        std::vector<Tensor*> pp, gp;
        for (std::size_t i = 0; i < params.size(); ++i) {
          pp.push_back(&params[i]);
          gp.push_back(&grads[i]);
        }
        const std::unique_ptr<Optimizer> opt = c.make(wd);
        for (int step = 0; step < kSteps; ++step) {
          for (std::size_t i = 0; i < params.size(); ++i) {
            for (std::int64_t k = 0; k < grads[i].numel(); ++k)
              grads[i].data()[k] = tricky_value(rng);
            c.update(want[i].data(), grads[i].raw(), s1[i].data(),
                     s2[i].data(), want[i].size(), step, wd);
          }
          opt->step(pp, gp, step, dev);
          for (std::size_t i = 0; i < params.size(); ++i) {
            const Tensor expect(params[i].shape(), want[i]);
            ASSERT_EQ(float_bits(params[i]), float_bits(expect))
                << c.name << " wd=" << wd << " step=" << step
                << " tensor=" << i << (dev.is_parallel() ? " 3 workers" : "");
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dlbench::optim
