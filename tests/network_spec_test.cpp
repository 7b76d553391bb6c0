// NetworkSpec + registry structure tests: the six default networks must
// materialize with exactly the layer dimensions printed in the paper's
// Tables IV and V.

#include <gtest/gtest.h>

#include "frameworks/registry.hpp"
#include "nn/conv_direct.hpp"
#include "nn/layers.hpp"
#include "nn/network_spec.hpp"
#include "util/error.hpp"

namespace dlbench::nn {
namespace {

using frameworks::DatasetId;
using frameworks::FrameworkKind;
using tensor::Shape;
using tensor::Tensor;

Context cpu_ctx() {
  Context ctx;
  ctx.device = runtime::Device::cpu();
  return ctx;
}

// Forward a batch through a freshly built spec and return the logits
// shape — implicitly validates every intermediate dimension.
Shape logits_shape(const NetworkSpec& spec, std::int64_t batch = 2) {
  util::Rng rng(1);
  Sequential model = build_model(spec, rng);
  Context ctx = cpu_ctx();
  util::Rng xr(2);
  Tensor x = Tensor::randn(
      Shape({batch, spec.input_channels, spec.input_height,
             spec.input_width}),
      xr, 0.5f, 0.2f);
  return model.forward(x, ctx).shape();
}

TEST(Registry, AllSixDefaultSpecsBuildAndClassify) {
  for (FrameworkKind fw : frameworks::kAllFrameworks) {
    for (DatasetId ds : frameworks::kAllDatasets) {
      NetworkSpec spec = frameworks::default_network_spec(fw, ds);
      EXPECT_EQ(logits_shape(spec), Shape({2, 10})) << spec.name;
    }
  }
}

// Table IV: first fc layer input dims — TF 7x7x64=3136->1024,
// Caffe 4x4x50=800->500, Torch 3x3x64->200.
TEST(Registry, MnistFcDimensionsMatchTableIV) {
  struct Case {
    FrameworkKind fw;
    std::int64_t in, out;
  };
  const Case cases[] = {
      {FrameworkKind::kTensorFlow, 7 * 7 * 64, 1024},
      {FrameworkKind::kCaffe, 4 * 4 * 50, 500},
      {FrameworkKind::kTorch, 3 * 3 * 64, 200},
  };
  for (const auto& c : cases) {
    NetworkSpec spec =
        frameworks::default_network_spec(c.fw, DatasetId::kMnist);
    util::Rng rng(3);
    Sequential model = build_model(spec, rng);
    // Find the first Linear layer and check its geometry.
    bool found = false;
    for (std::size_t i = 0; i < model.size(); ++i) {
      auto* fc = dynamic_cast<Linear*>(&model.layer(i));
      if (!fc) continue;
      EXPECT_EQ(fc->in_features(), c.in) << frameworks::to_string(c.fw);
      EXPECT_EQ(fc->out_features(), c.out) << frameworks::to_string(c.fw);
      found = true;
      break;
    }
    EXPECT_TRUE(found);
  }
}

// Table V: TF 7x7x64=3136->384, Caffe 4x4x64=1024->64,
// Torch 5x5x256=6400->128.
TEST(Registry, CifarFcDimensionsMatchTableV) {
  struct Case {
    FrameworkKind fw;
    std::int64_t in, out;
  };
  const Case cases[] = {
      {FrameworkKind::kTensorFlow, 7 * 7 * 64, 384},
      {FrameworkKind::kCaffe, 4 * 4 * 64, 64},
      {FrameworkKind::kTorch, 5 * 5 * 256, 128},
  };
  for (const auto& c : cases) {
    NetworkSpec spec =
        frameworks::default_network_spec(c.fw, DatasetId::kCifar10);
    util::Rng rng(4);
    Sequential model = build_model(spec, rng);
    bool found = false;
    for (std::size_t i = 0; i < model.size(); ++i) {
      auto* fc = dynamic_cast<Linear*>(&model.layer(i));
      if (!fc) continue;
      EXPECT_EQ(fc->in_features(), c.in) << frameworks::to_string(c.fw);
      EXPECT_EQ(fc->out_features(), c.out) << frameworks::to_string(c.fw);
      found = true;
      break;
    }
    EXPECT_TRUE(found);
  }
}

TEST(Registry, WeightLayerCountsMatchPaper) {
  // Paper: MNIST nets are 2 conv + 2 fc everywhere; CIFAR nets are
  // 5-layer for TF/Caffe and 4-layer for Torch.
  for (FrameworkKind fw : frameworks::kAllFrameworks) {
    EXPECT_EQ(frameworks::default_network_spec(fw, DatasetId::kMnist)
                  .num_weight_layers(),
              4);
  }
  EXPECT_EQ(frameworks::default_network_spec(FrameworkKind::kTensorFlow,
                                             DatasetId::kCifar10)
                .num_weight_layers(),
            5);
  EXPECT_EQ(frameworks::default_network_spec(FrameworkKind::kCaffe,
                                             DatasetId::kCifar10)
                .num_weight_layers(),
            5);
  EXPECT_EQ(frameworks::default_network_spec(FrameworkKind::kTorch,
                                             DatasetId::kCifar10)
                .num_weight_layers(),
            4);
}

TEST(Spec, FirstFcWidthReadAndAblate) {
  NetworkSpec spec = frameworks::default_network_spec(
      FrameworkKind::kTensorFlow, DatasetId::kMnist);
  EXPECT_EQ(spec.first_fc_width(), 1024);
  NetworkSpec narrowed = spec.with_first_fc_width(500);
  EXPECT_EQ(narrowed.first_fc_width(), 500);
  // Still builds and classifies.
  EXPECT_EQ(logits_shape(narrowed), Shape({2, 10}));
  EXPECT_THROW(spec.with_first_fc_width(0), dlbench::Error);
}

TEST(Spec, CrossDatasetInputAdaptation) {
  // The paper trains CIFAR-10-tuned nets on MNIST (Fig 3); input
  // geometry adapts and the net still builds.
  NetworkSpec spec = frameworks::default_network_spec(
      FrameworkKind::kTensorFlow, DatasetId::kCifar10);
  spec.input_channels = 1;
  spec.input_height = 28;
  spec.input_width = 28;
  EXPECT_EQ(logits_shape(spec), Shape({2, 10}));
}

TEST(Spec, DescribeLayersGroupsLikeThePaper) {
  NetworkSpec spec = frameworks::default_network_spec(
      FrameworkKind::kTensorFlow, DatasetId::kMnist);
  auto rows = spec.describe_layers();
  ASSERT_EQ(rows.size(), 4u);  // 2 conv + 2 fc rows
  EXPECT_NE(rows[0].find("conv 5x5"), std::string::npos);
  EXPECT_NE(rows[0].find("ReLU"), std::string::npos);
  EXPECT_NE(rows[0].find("MaxPooling(2x2)"), std::string::npos);
  EXPECT_NE(rows[3].find("fc ->10"), std::string::npos);
}

TEST(Spec, EmptySpecThrows) {
  NetworkSpec spec;
  spec.name = "empty";
  util::Rng rng(5);
  EXPECT_THROW(build_model(spec, rng), dlbench::Error);
}

TEST(Spec, ConvAfterFlattenThrows) {
  NetworkSpec spec;
  spec.name = "bad";
  spec.input_channels = 1;
  spec.input_height = 8;
  spec.input_width = 8;
  spec.ops = {LayerSpec::linear(4), LayerSpec::conv(2, 3)};
  util::Rng rng(6);
  EXPECT_THROW(build_model(spec, rng), dlbench::Error);
}

TEST(Spec, NoFcLayerThrows) {
  NetworkSpec spec;
  spec.name = "convonly";
  spec.input_channels = 1;
  spec.input_height = 8;
  spec.input_width = 8;
  spec.ops = {LayerSpec::conv(2, 3)};
  util::Rng rng(7);
  EXPECT_THROW(build_model(spec, rng), dlbench::Error);
}

TEST(Spec, PoolTooLargeThrows) {
  NetworkSpec spec;
  spec.name = "hugepool";
  spec.input_channels = 1;
  spec.input_height = 4;
  spec.input_width = 4;
  spec.ops = {LayerSpec::max_pool(8, 8), LayerSpec::linear(2)};
  util::Rng rng(8);
  EXPECT_THROW(build_model(spec, rng), dlbench::Error);
}

// Conv and pool output sizes divide by the stride: a zero (or negative)
// kernel, window or stride must throw, from build_model and from the
// flop estimate the harness takes before it builds, not kill the process.
TEST(Spec, ZeroKernelWindowOrStrideThrows) {
  const LayerSpec bad[] = {
      LayerSpec::conv(4, 3, 0, 0),  LayerSpec::conv(4, 0),
      LayerSpec::conv(4, 3, 0, -1), LayerSpec::max_pool(2, 0),
      LayerSpec::max_pool(0, 2),    LayerSpec::max_pool(2, 0, true),
      LayerSpec::avg_pool(2, 0),    LayerSpec::avg_pool(0, 1, true),
  };
  for (const LayerSpec& op : bad) {
    NetworkSpec spec;
    spec.name = "zerostride";
    spec.input_channels = 1;
    spec.input_height = 8;
    spec.input_width = 8;
    spec.ops = {op, LayerSpec::linear(2)};
    util::Rng rng(10);
    EXPECT_THROW(build_model(spec, rng), dlbench::Error);
    EXPECT_THROW(spec_forward_flops(spec), dlbench::Error);
  }
}

TEST(Spec, DirectConvImplSelectable) {
  NetworkSpec spec = frameworks::default_network_spec(FrameworkKind::kTorch,
                                                      DatasetId::kMnist);
  util::Rng rng(9);
  Sequential model = build_model(spec, rng, ConvImpl::kDirect);
  bool has_direct = false;
  for (std::size_t i = 0; i < model.size(); ++i)
    if (dynamic_cast<Conv2dDirect*>(&model.layer(i))) has_direct = true;
  EXPECT_TRUE(has_direct);
}


TEST(SpecFlops, PositiveAndOrderedByNetSize) {
  // The harness bases its compute-budget step caps on these estimates;
  // they must be positive and track the obvious size ordering.
  const auto tf_cifar = spec_forward_flops(frameworks::default_network_spec(
      FrameworkKind::kTensorFlow, DatasetId::kCifar10));
  const auto caffe_cifar = spec_forward_flops(
      frameworks::default_network_spec(FrameworkKind::kCaffe,
                                       DatasetId::kCifar10));
  const auto caffe_mnist = spec_forward_flops(
      frameworks::default_network_spec(FrameworkKind::kCaffe,
                                       DatasetId::kMnist));
  EXPECT_GT(caffe_mnist, 0);
  // TF's CIFAR net (64-map convs) costs >2x Caffe's quick net per
  // sample (and more per step: batch 128 vs 100).
  EXPECT_GT(tf_cifar, 2 * caffe_cifar);
  // CIFAR nets cost more than MNIST nets for the same framework.
  EXPECT_GT(caffe_cifar, caffe_mnist);
}

TEST(SpecFlops, GrowsWithFcWidth) {
  NetworkSpec spec = frameworks::default_network_spec(
      FrameworkKind::kTensorFlow, DatasetId::kMnist);
  const auto wide = spec_forward_flops(spec);
  const auto narrow = spec_forward_flops(spec.with_first_fc_width(64));
  EXPECT_GT(wide, narrow);
}

TEST(SpecFlops, ConvDominatesConvNets) {
  // For the paper's CNNs, conv MACs dwarf everything else; a version
  // with 1x1-equivalent fc-only ops must be much cheaper.
  NetworkSpec conv_net = frameworks::default_network_spec(
      FrameworkKind::kCaffe, DatasetId::kCifar10);
  NetworkSpec fc_net;
  fc_net.name = "fc-only";
  fc_net.input_channels = 3;
  fc_net.input_height = 32;
  fc_net.input_width = 32;
  fc_net.ops = {LayerSpec::linear(64), LayerSpec::linear(10)};
  EXPECT_GT(spec_forward_flops(conv_net),
            5 * spec_forward_flops(fc_net));
}

}  // namespace
}  // namespace dlbench::nn
