// ModelServer: batched-vs-single bitwise parity per framework
// emulation, backpressure bounds, batching behaviour, shutdown
// semantics, and stats/trace accounting; FrozenModel fusion parity.

#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "frameworks/framework.hpp"
#include "frameworks/predictor.hpp"
#include "frameworks/registry.hpp"
#include "nn/frozen.hpp"
#include "runtime/trace.hpp"
#include "serve/loadgen.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using dlbench::frameworks::DatasetId;
using dlbench::frameworks::default_network_spec;
using dlbench::frameworks::FrameworkKind;
using dlbench::frameworks::kAllFrameworks;
using dlbench::frameworks::make_framework;
using dlbench::frameworks::make_predictor;
using dlbench::frameworks::PredictorConfig;
using dlbench::runtime::Device;
using dlbench::serve::LoadGenOptions;
using dlbench::serve::ModelServer;
using dlbench::serve::Prediction;
using dlbench::serve::RequestStatus;
using dlbench::serve::ServerOptions;
using dlbench::serve::ServerStats;
using dlbench::tensor::Shape;
using dlbench::tensor::Tensor;

std::vector<Tensor> random_samples(const Shape& shape, int count,
                                   std::uint64_t seed) {
  dlbench::util::Rng rng(seed);
  std::vector<Tensor> samples;
  samples.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    samples.push_back(Tensor::randn(shape, rng));
  return samples;
}

/// Batches a single [C, H, W] sample into [1, C, H, W].
Tensor with_batch_dim(const Tensor& sample) {
  const Shape& s = sample.shape();
  return sample.reshape({1, s[0], s[1], s[2]});
}

ServerOptions mnist_options() {
  ServerOptions opts;
  opts.sample_shape = dlbench::frameworks::sample_shape(DatasetId::kMnist);
  opts.replicas = 2;
  opts.max_batch = 4;
  opts.max_batch_delay_s = 0.01;
  return opts;
}

// ---- batched-vs-single parity ------------------------------------------

/// The load-bearing property behind dynamic batching: riding in a batch
/// must not change a request's answer. Every kernel in the frozen
/// forward computes each sample independently with a fixed summation
/// order, so outputs must be *bitwise* identical to a single-sample
/// forward — per framework emulation, since each picks different
/// kernels (Torch: direct conv) and architectures.
class BatchParityTest : public ::testing::TestWithParam<FrameworkKind> {};

TEST_P(BatchParityTest, ServerMatchesSingleSampleForwardBitwise) {
  PredictorConfig config;
  config.framework = GetParam();
  config.dataset = DatasetId::kMnist;
  const auto model = make_predictor(config);

  const auto samples =
      random_samples(dlbench::frameworks::sample_shape(DatasetId::kMnist),
                     12, /*seed=*/42);

  // References: each sample forwarded alone, batch dimension 1.
  std::vector<std::vector<float>> expected_probs;
  std::vector<std::int64_t> expected_labels;
  for (const auto& sample : samples) {
    const Tensor logits =
        model.forward(with_batch_dim(sample), Device::cpu());
    const Tensor probs = dlbench::tensor::softmax_rows(logits, Device::cpu());
    expected_probs.emplace_back(probs.data().begin(), probs.data().end());
    const auto row = logits.data();
    expected_labels.push_back(std::distance(
        row.begin(), std::max_element(row.begin(), row.end())));
  }

  // Serve the same samples; a long linger delay + concurrent submission
  // forces real multi-request batches.
  ServerOptions opts = mnist_options();
  opts.replicas = 1;
  opts.max_batch = 4;
  opts.max_batch_delay_s = 0.05;
  ModelServer server(model, opts);
  std::vector<std::future<Prediction>> futures;
  for (const auto& sample : samples) futures.push_back(server.submit(sample));

  bool saw_multi_request_batch = false;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Prediction got = futures[i].get();
    ASSERT_EQ(got.status, RequestStatus::kOk);
    EXPECT_EQ(got.label, expected_labels[i]) << "sample " << i;
    ASSERT_EQ(got.probabilities.size(), expected_probs[i].size());
    for (std::size_t c = 0; c < expected_probs[i].size(); ++c)
      EXPECT_EQ(got.probabilities[c], expected_probs[i][c])
          << "sample " << i << " class " << c << " (bitwise)";
    saw_multi_request_batch |= got.batch_size > 1;
  }
  EXPECT_TRUE(saw_multi_request_batch)
      << "parity was only exercised with singleton batches";
}

INSTANTIATE_TEST_SUITE_P(AllFrameworks, BatchParityTest,
                         ::testing::Values(FrameworkKind::kTensorFlow,
                                           FrameworkKind::kCaffe,
                                           FrameworkKind::kTorch),
                         [](const auto& info) {
                           return dlbench::frameworks::to_string(info.param);
                         });

TEST(BatchParity, ParallelDeviceMatchesSerialDevice) {
  // The batching-throughput story runs replicas on the parallel device;
  // parallel_for must not change summation order per sample.
  PredictorConfig config;
  config.dataset = DatasetId::kMnist;
  const auto model = make_predictor(config);
  const auto samples = random_samples(
      dlbench::frameworks::sample_shape(DatasetId::kMnist), 6, 43);

  ServerOptions opts = mnist_options();
  opts.device = Device::parallel(2);
  ModelServer server(model, opts);
  for (const auto& sample : samples) {
    const Prediction got = server.predict(sample);
    ASSERT_EQ(got.status, RequestStatus::kOk);
    const Tensor logits =
        model.forward(with_batch_dim(sample), Device::cpu());
    const Tensor probs = dlbench::tensor::softmax_rows(logits, Device::cpu());
    for (std::size_t c = 0; c < got.probabilities.size(); ++c)
      EXPECT_EQ(got.probabilities[c], probs.data()[c]);
  }
}

// ---- request lifecycle --------------------------------------------------

TEST(ModelServer, PredictReturnsOkWithProbabilities) {
  PredictorConfig config;
  const auto model = make_predictor(config);
  ModelServer server(model, mnist_options());
  const auto samples = random_samples(
      dlbench::frameworks::sample_shape(DatasetId::kMnist), 1, 44);
  const Prediction p = server.predict(samples[0]);
  EXPECT_EQ(p.status, RequestStatus::kOk);
  EXPECT_GE(p.label, 0);
  EXPECT_LT(p.label, 10);
  ASSERT_EQ(p.probabilities.size(), 10u);
  float sum = 0.f;
  for (const float v : p.probabilities) sum += v;
  EXPECT_NEAR(sum, 1.f, 1e-4f);
  EXPECT_GE(p.batch_size, 1);
  EXPECT_GE(p.total_s, 0.0);
  EXPECT_GE(p.queue_wait_s, 0.0);
}

TEST(ModelServer, RejectsWrongSampleShape) {
  PredictorConfig config;
  const auto model = make_predictor(config);
  ModelServer server(model, mnist_options());
  EXPECT_THROW(server.submit(Tensor(Shape{3, 32, 32})), dlbench::Error);
}

TEST(ModelServer, ShutdownFailsNewSubmissions) {
  PredictorConfig config;
  const auto model = make_predictor(config);
  ModelServer server(model, mnist_options());
  server.shutdown();
  const auto samples = random_samples(
      dlbench::frameworks::sample_shape(DatasetId::kMnist), 1, 45);
  const Prediction p = server.predict(samples[0]);
  EXPECT_EQ(p.status, RequestStatus::kShutdown);
}

TEST(ModelServer, DrainingShutdownServesAcceptedRequests) {
  PredictorConfig config;
  const auto model = make_predictor(config);
  ServerOptions opts = mnist_options();
  opts.replicas = 1;
  opts.max_batch = 2;
  ModelServer server(model, opts);
  const auto samples = random_samples(
      dlbench::frameworks::sample_shape(DatasetId::kMnist), 16, 46);
  std::vector<std::future<Prediction>> futures;
  for (const auto& sample : samples) futures.push_back(server.submit(sample));
  server.shutdown(/*drain=*/true);
  for (auto& future : futures)
    EXPECT_EQ(future.get().status, RequestStatus::kOk);
}

TEST(ModelServer, AbortingShutdownFailsQueuedRequests) {
  PredictorConfig config;
  const auto model = make_predictor(config);
  ServerOptions opts = mnist_options();
  opts.replicas = 1;
  opts.max_batch = 1;
  opts.max_batch_delay_s = 0.0;
  ModelServer server(model, opts);
  const auto samples = random_samples(
      dlbench::frameworks::sample_shape(DatasetId::kMnist), 32, 47);
  std::vector<std::future<Prediction>> futures;
  for (const auto& sample : samples) futures.push_back(server.submit(sample));
  server.shutdown(/*drain=*/false);
  int ok = 0, aborted = 0;
  for (auto& future : futures) {
    const auto status = future.get().status;
    // Requests already dequeued complete; the rest fail promptly.
    if (status == RequestStatus::kOk) ++ok;
    if (status == RequestStatus::kShutdown) ++aborted;
  }
  EXPECT_EQ(ok + aborted, 32);
  EXPECT_GT(aborted, 0);
}

// ---- backpressure -------------------------------------------------------

TEST(ModelServer, OverloadShedsAtWatermarkAndBoundsQueue) {
  PredictorConfig config;
  const auto model = make_predictor(config);
  ServerOptions opts = mnist_options();
  opts.replicas = 1;
  opts.max_batch = 2;
  opts.max_batch_delay_s = 0.0;
  opts.queue_capacity = 32;
  opts.reject_watermark = 16;
  ModelServer server(model, opts);

  // Far more submissions than the watermark, far faster than one
  // replica can serve them.
  const auto samples = random_samples(
      dlbench::frameworks::sample_shape(DatasetId::kMnist), 4, 48);
  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < 500; ++i)
    futures.push_back(server.submit(samples[i % samples.size()]));

  std::int64_t ok = 0, rejected = 0;
  for (auto& future : futures) {
    switch (future.get().status) {
      case RequestStatus::kOk: ++ok; break;
      case RequestStatus::kRejected: ++rejected; break;
      default: FAIL() << "unexpected shutdown status";
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_GT(rejected, 0) << "overload never tripped admission control";
  EXPECT_GT(ok, 0);
  EXPECT_EQ(ok + rejected, 500);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.accepted, ok);
  // The bound the subsystem exists to provide: queue depth never
  // exceeded the watermark no matter the offered load.
  EXPECT_LE(stats.max_queue_depth, 16);
}

// ---- batching behaviour -------------------------------------------------

TEST(ModelServer, LingerAssemblesMultiRequestBatches) {
  PredictorConfig config;
  const auto model = make_predictor(config);
  ServerOptions opts = mnist_options();
  opts.replicas = 1;
  opts.max_batch = 8;
  opts.max_batch_delay_s = 0.05;
  ModelServer server(model, opts);
  const auto samples = random_samples(
      dlbench::frameworks::sample_shape(DatasetId::kMnist), 8, 49);
  std::vector<std::future<Prediction>> futures;
  for (const auto& sample : samples) futures.push_back(server.submit(sample));
  std::int64_t max_batch_seen = 0;
  for (auto& future : futures)
    max_batch_seen = std::max(max_batch_seen, future.get().batch_size);
  EXPECT_GT(max_batch_seen, 1);
  EXPECT_LE(max_batch_seen, 8);
  const ServerStats stats = server.stats();
  EXPECT_LT(stats.batches, 8) << "every request rode a singleton batch";
  EXPECT_EQ(stats.completed, 8);
}

TEST(ModelServer, BatchNeverExceedsMaxBatch) {
  PredictorConfig config;
  const auto model = make_predictor(config);
  ServerOptions opts = mnist_options();
  opts.replicas = 2;
  opts.max_batch = 3;
  opts.max_batch_delay_s = 0.02;
  ModelServer server(model, opts);
  const auto samples = random_samples(
      dlbench::frameworks::sample_shape(DatasetId::kMnist), 4, 50);
  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < 40; ++i)
    futures.push_back(server.submit(samples[i % samples.size()]));
  for (auto& future : futures) {
    const Prediction p = future.get();
    ASSERT_EQ(p.status, RequestStatus::kOk);
    EXPECT_LE(p.batch_size, 3);
    EXPECT_GE(p.batch_size, 1);
  }
}

TEST(ModelServer, ZeroDelayStillServes) {
  PredictorConfig config;
  const auto model = make_predictor(config);
  ServerOptions opts = mnist_options();
  opts.max_batch_delay_s = 0.0;
  ModelServer server(model, opts);
  const auto samples = random_samples(
      dlbench::frameworks::sample_shape(DatasetId::kMnist), 4, 51);
  for (const auto& sample : samples)
    EXPECT_EQ(server.predict(sample).status, RequestStatus::kOk);
}

// ---- stats + latency accounting ----------------------------------------

TEST(ModelServer, StatsAccountForEveryRequest) {
  PredictorConfig config;
  const auto model = make_predictor(config);
  ServerOptions opts = mnist_options();
  opts.replicas = 2;
  ModelServer server(model, opts);
  const auto samples = random_samples(
      dlbench::frameworks::sample_shape(DatasetId::kMnist), 4, 52);
  constexpr int kRequests = 24;
  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < kRequests; ++i)
    futures.push_back(server.submit(samples[i % samples.size()]));
  for (auto& future : futures) future.get();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.accepted, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.rejected, 0);
  // Per-request histograms saw every request; per-batch histograms saw
  // every batch; busy time is positive and consistent.
  EXPECT_EQ(stats.latency.total.count(), kRequests);
  EXPECT_EQ(stats.latency.queue_wait.count(), kRequests);
  EXPECT_EQ(stats.latency.forward.count(), stats.batches);
  EXPECT_EQ(stats.latency.assemble.count(), stats.batches);
  EXPECT_EQ(stats.latency.scatter.count(), stats.batches);
  EXPECT_GT(stats.busy_s, 0.0);
  EXPECT_GE(stats.mean_batch_size(), 1.0);
  // End-to-end latency dominates its own queue-wait component.
  EXPECT_GE(stats.latency.total.max_s(), stats.latency.queue_wait.min_s());
}

TEST(ModelServer, EmitsServeSpansAndCounters) {
  using dlbench::runtime::trace::TraceOptions;
  using dlbench::runtime::trace::TraceScope;
  if (!dlbench::runtime::trace::compiled()) GTEST_SKIP();

  PredictorConfig config;
  const auto model = make_predictor(config);
  TraceOptions topts;
  TraceScope scope(topts);
  {
    ModelServer server(model, mnist_options());
    const auto samples = random_samples(
        dlbench::frameworks::sample_shape(DatasetId::kMnist), 4, 53);
    std::vector<std::future<Prediction>> futures;
    for (int i = 0; i < 8; ++i)
      futures.push_back(server.submit(samples[i % samples.size()]));
    for (auto& future : futures) future.get();
  }  // server joined: no instrumented work in flight
  const auto report = scope.report();
  for (const char* span : {"serve.enqueue_wait", "serve.assemble",
                           "serve.forward", "serve.scatter"}) {
    bool found = false;
    for (const auto& s : report.spans) found |= s.name == span;
    EXPECT_TRUE(found) << "missing span " << span;
  }
  bool saw_requests = false, saw_batches = false;
  for (const auto& c : report.counters) {
    if (c.name == "serve.requests") {
      saw_requests = true;
      EXPECT_EQ(c.value, 8);
    }
    if (c.name == "serve.batches") saw_batches = true;
  }
  EXPECT_TRUE(saw_requests);
  EXPECT_TRUE(saw_batches);
}

// ---- load generator -----------------------------------------------------

TEST(LoadGen, ClosedLoopDrivesAndMergesHistograms) {
  PredictorConfig config;
  const auto model = make_predictor(config);
  ModelServer server(model, mnist_options());
  const auto samples = random_samples(
      dlbench::frameworks::sample_shape(DatasetId::kMnist), 4, 54);
  LoadGenOptions lopts;
  lopts.mode = LoadGenOptions::Mode::kClosedLoop;
  lopts.clients = 3;
  lopts.duration_s = 0.1;
  const auto result = run_load(server, samples, lopts);
  EXPECT_GT(result.issued, 0);
  EXPECT_EQ(result.ok, result.issued);
  EXPECT_EQ(result.latency.count(), result.ok);
  EXPECT_EQ(result.queue_wait.count(), result.ok);
  EXPECT_GT(result.achieved_rps, 0.0);
  EXPECT_GE(result.mean_batch, 1.0);
}

TEST(LoadGen, OpenLoopIssuesAtOfferedRate) {
  PredictorConfig config;
  const auto model = make_predictor(config);
  ServerOptions opts = mnist_options();
  opts.max_batch = 8;
  ModelServer server(model, opts);
  const auto samples = random_samples(
      dlbench::frameworks::sample_shape(DatasetId::kMnist), 4, 55);
  LoadGenOptions lopts;
  lopts.mode = LoadGenOptions::Mode::kOpenLoop;
  lopts.offered_rps = 200.0;
  lopts.duration_s = 0.2;
  const auto result = run_load(server, samples, lopts);
  EXPECT_GT(result.issued, 10);
  EXPECT_EQ(result.ok + result.rejected + result.shutdown, result.issued);
  // The dispatcher resolves every future before returning.
  EXPECT_EQ(result.latency.count(), result.ok);
}

TEST(LoadGen, PoissonGapMatchesInverseCdf) {
  using dlbench::serve::poisson_gap_s;
  // Interior draws follow -log(1-u)/rate exactly.
  EXPECT_DOUBLE_EQ(poisson_gap_s(0.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(poisson_gap_s(0.5, 100.0), -std::log(0.5) / 100.0);
  EXPECT_DOUBLE_EQ(poisson_gap_s(0.9, 10.0), -std::log(1.0 - 0.9) / 10.0);
}

// Regression: u == 1.0 made the raw inverse-CDF emit -log(0) = +inf,
// an inter-arrival gap the open-loop dispatcher would sleep on until
// the end of time. The sampler must clamp to a finite gap.
TEST(LoadGen, PoissonGapIsFiniteAtUniformOne) {
  using dlbench::serve::poisson_gap_s;
  const double gap = poisson_gap_s(1.0, 100.0);
  EXPECT_TRUE(std::isfinite(gap));
  EXPECT_GT(gap, 0.0);
  // Out-of-range draws clamp rather than produce NaN.
  EXPECT_TRUE(std::isfinite(poisson_gap_s(2.0, 100.0)));
  EXPECT_DOUBLE_EQ(poisson_gap_s(-0.5, 100.0), 0.0);
  EXPECT_THROW(poisson_gap_s(0.5, 0.0), dlbench::Error);
}

TEST(LoadGen, PoissonGapRngOverloadStaysFinite) {
  using dlbench::serve::poisson_gap_s;
  dlbench::util::Rng rng(123);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double gap = poisson_gap_s(rng, 1000.0);
    ASSERT_TRUE(std::isfinite(gap));
    ASSERT_GE(gap, 0.0);
    sum += gap;
  }
  // Mean gap ~= 1/rate = 1ms; loose sanity band.
  EXPECT_GT(sum / 10000.0, 0.0005);
  EXPECT_LT(sum / 10000.0, 0.002);
}

// ---- mixed multi-tenant traces (serve/fleet) ---------------------------

TEST(MixedTrace, IsSortedDeterministicAndSeedSensitive) {
  using dlbench::serve::make_mixed_trace;
  using dlbench::serve::TenantStream;
  const std::vector<TenantStream> streams = {{"a", 200.0}, {"b", 100.0}};
  const auto first = make_mixed_trace(streams, /*duration_s=*/1.0, 7);
  const auto second = make_mixed_trace(streams, 1.0, 7);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].t_s, second[i].t_s) << i;   // bitwise
    EXPECT_EQ(first[i].stream, second[i].stream) << i;
  }
  for (std::size_t i = 1; i < first.size(); ++i)
    EXPECT_LE(first[i - 1].t_s, first[i].t_s) << "unsorted at " << i;
  for (const auto& a : first) {
    EXPECT_GE(a.t_s, 0.0);
    EXPECT_LT(a.t_s, 1.0);
    EXPECT_TRUE(a.stream == 0 || a.stream == 1);
  }
  // A different seed is a different trace.
  const auto other = make_mixed_trace(streams, 1.0, 8);
  bool differs = other.size() != first.size();
  for (std::size_t i = 0; !differs && i < first.size(); ++i)
    differs = first[i].t_s != other[i].t_s;
  EXPECT_TRUE(differs);
}

TEST(MixedTrace, PreservesEachStreamsMarginalRate) {
  using dlbench::serve::make_mixed_trace;
  using dlbench::serve::TenantStream;
  const std::vector<TenantStream> streams = {{"slow", 100.0}, {"fast", 400.0}};
  const auto trace = make_mixed_trace(streams, /*duration_s=*/4.0, 31);
  std::int64_t counts[2] = {0, 0};
  for (const auto& a : trace) ++counts[a.stream];
  // Poisson counts with mean rate*duration; 5-sigma bands so the test
  // is deterministic-in-practice for this fixed seed family.
  EXPECT_NEAR(static_cast<double>(counts[0]), 400.0, 5.0 * 20.0);
  EXPECT_NEAR(static_cast<double>(counts[1]), 1600.0, 5.0 * 40.0);
}

TEST(MixedTrace, StreamScheduleIsIndependentOfOtherStreams) {
  using dlbench::serve::make_mixed_trace;
  using dlbench::serve::MixedArrival;
  using dlbench::serve::TenantStream;
  // Stream 0 keeps the same (seed, index), stream 1 changes completely:
  // stream 0's arrivals must be bitwise identical — each stream's
  // schedule comes from its own fork of the seed, never its neighbours'.
  const auto with_b =
      make_mixed_trace({{"a", 80.0}, {"b", 300.0}}, /*duration_s=*/2.0, 13);
  const auto with_c =
      make_mixed_trace({{"a", 80.0}, {"c", 900.0}}, /*duration_s=*/2.0, 13);
  std::vector<double> a_with_b;
  std::vector<double> a_with_c;
  for (const auto& arrival : with_b)
    if (arrival.stream == 0) a_with_b.push_back(arrival.t_s);
  for (const auto& arrival : with_c)
    if (arrival.stream == 0) a_with_c.push_back(arrival.t_s);
  ASSERT_FALSE(a_with_b.empty());
  ASSERT_EQ(a_with_b.size(), a_with_c.size());
  for (std::size_t i = 0; i < a_with_b.size(); ++i)
    EXPECT_EQ(a_with_b[i], a_with_c[i]) << "arrival " << i << " (bitwise)";
}

TEST(MixedTrace, MaxArrivalsBoundsTheMerge) {
  using dlbench::serve::make_mixed_trace;
  using dlbench::serve::TenantStream;
  const std::vector<TenantStream> streams = {{"a", 500.0}, {"b", 500.0}};
  const auto trace =
      make_mixed_trace(streams, /*duration_s=*/10.0, 3, /*max_arrivals=*/64);
  EXPECT_EQ(trace.size(), 64u);
  // The bounded trace is the prefix of the unbounded one.
  const auto full = make_mixed_trace(streams, 10.0, 3);
  ASSERT_GE(full.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].t_s, full[i].t_s) << i;
    EXPECT_EQ(trace[i].stream, full[i].stream) << i;
  }
}

TEST(MixedTrace, ValidatesItsArguments) {
  using dlbench::serve::make_mixed_trace;
  using dlbench::serve::TenantStream;
  EXPECT_THROW(make_mixed_trace({}, 1.0, 1), dlbench::Error);
  EXPECT_THROW(make_mixed_trace({{"a", 100.0}}, /*duration_s=*/0.0, 1,
                                /*max_arrivals=*/0),
               dlbench::Error);
  EXPECT_THROW(make_mixed_trace({{"a", 0.0}}, 1.0, 1), dlbench::Error);
  EXPECT_THROW(make_mixed_trace({{"a", -5.0}}, 1.0, 1), dlbench::Error);
}

// ---- frozen-graph fusion -------------------------------------------------

class FrozenFusionTest : public ::testing::TestWithParam<FrameworkKind> {};

TEST_P(FrozenFusionTest, FusedFrozenForwardMatchesEvalForwardBitwise) {
  const FrameworkKind kind = GetParam();
  auto fw = make_framework(kind);
  dlbench::util::Rng rng(5);
  const Device dev = Device::gpu();
  dlbench::nn::Sequential model =
      fw->build_model(default_network_spec(kind, DatasetId::kMnist), dev,
                      rng);
  const auto frozen = dlbench::nn::FrozenModel::freeze(model);

  dlbench::util::Rng data_rng(6);
  const Tensor x =
      Tensor::randn({5, 1, 28, 28}, data_rng);
  dlbench::nn::Context ctx;
  ctx.device = dev;
  ctx.training = false;
  dlbench::nn::Sequential& mutable_model = model;
  const Tensor reference = mutable_model.forward(x, ctx);
  const Tensor fused = frozen.forward(x, dev);
  ASSERT_EQ(reference.numel(), fused.numel());
  EXPECT_EQ(0, std::memcmp(reference.raw(), fused.raw(),
                           static_cast<std::size_t>(reference.numel()) *
                               sizeof(float)))
      << frozen.describe();
}

INSTANTIATE_TEST_SUITE_P(AllFrameworks, FrozenFusionTest,
                         ::testing::ValuesIn(kAllFrameworks),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(FrozenFusion, ConvReluPeepholeFiresOnConvModels) {
  // TF's MNIST net interleaves conv and ReLU (Table IV); Caffe's LeNet
  // has no conv-side ReLU to fuse, so it keeps its unfused stream.
  auto fw = make_framework(FrameworkKind::kTensorFlow);
  dlbench::util::Rng rng(5);
  dlbench::nn::Sequential model =
      fw->build_model(default_network_spec(FrameworkKind::kTensorFlow,
                                           DatasetId::kMnist),
                      Device::cpu(), rng);
  const auto frozen = dlbench::nn::FrozenModel::freeze(model);
  EXPECT_NE(frozen.describe().find("conv+relu"), std::string::npos)
      << frozen.describe();
}

}  // namespace
