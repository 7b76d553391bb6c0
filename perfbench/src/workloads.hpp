#pragma once

// The workloads and the layer probes they share.
//
// Every workload reports every end-to-end metric (see README.md for
// what each means on each workload), and its traced run reports every
// per-layer metric: layers a workload exercises are measured in its own
// hot loop, the rest by a short probe at the workload's own model,
// batch and device.

#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "data/dataset.hpp"
#include "frameworks/framework.hpp"
#include "nn/frozen.hpp"
#include "serve/server.hpp"

namespace perfbench {

using dlbench::frameworks::DatasetId;
using dlbench::frameworks::FrameworkKind;

/// A framework's default MNIST setting materialised on seeded data: the
/// preprocessed splits and the freshly initialised model.
struct Cell {
  std::unique_ptr<dlbench::frameworks::Framework> framework;
  dlbench::frameworks::TrainingConfig config;
  dlbench::data::Dataset train;
  dlbench::data::Dataset test;
  dlbench::nn::Sequential model;
  /// Seed of the loader shuffle and dropout masks.
  std::uint64_t train_seed = 0;
  /// CPU time of the synthetic dataset generation alone.
  double dataset_gen_s = 0.0;
};

/// Generates the seeded datasets through core::Harness (sized
/// explicitly, never from the environment) and builds the model for
/// `model_device` the way the framework emulation does.
Cell make_cell(FrameworkKind fw, std::int64_t train_samples,
               std::int64_t test_samples, std::uint64_t seed,
               const dlbench::runtime::Device& model_device);

/// Framework::train for exactly `steps` optimizer steps, every step's
/// loss recorded.
dlbench::frameworks::TrainResult train_steps(
    const dlbench::frameworks::Framework& framework, Cell& cell,
    dlbench::nn::Sequential& model, std::int64_t steps,
    const dlbench::runtime::Device& device);

/// The Caffe-default MNIST model the serving workload runs, trained for
/// a fixed short step count on `device`.
struct TrainedCell {
  Cell cell;
  dlbench::nn::Sequential model;
  dlbench::frameworks::TrainResult train;
};
TrainedCell trained_caffe_mnist(std::uint64_t seed,
                                const dlbench::runtime::Device& device);

/// frameworks.* per-layer metrics from one training run and one
/// evaluation of the workload's cell.
void framework_layer_metrics(const dlbench::frameworks::TrainResult& train,
                             const dlbench::frameworks::EvalResult& eval,
                             Outcome& out);

/// nn.*, optim.*, data.*, tensor.* and runtime.dispatch_us, measured by
/// timing the modules' public functions at `batch` on `device` over the
/// cell's model and data. `serve_batch` is the mean batch of the
/// workload's serving run (for nn.frozen_fwd_us.bmean).
void module_probes(Cell& cell, dlbench::nn::Sequential& trained,
                   std::int64_t batch, const dlbench::runtime::Device& device,
                   double serve_batch, Outcome& out);

// ---- serving ----

/// One open-loop segment at a fixed offered rate.
struct Segment {
  std::int64_t sent = 0, ok = 0, rejected = 0, expired = 0, errors = 0;
  std::int64_t within_limit = 0;
  std::int64_t label_mismatches = 0;
  /// Per request: submit lateness + Prediction::total_s, seconds.
  std::vector<double> latency_s;
  /// Per request: how late the generator submitted it, seconds.
  std::vector<double> lag_s;
};

/// Every segment one server saw at one rate, plus the server's own view
/// from ModelServer::stats().
struct ServeRun {
  double rate_rps = 0.0;
  double duration_s = 0.0;  // summed over segments
  /// CPU time of everything but the generator thread, summed over
  /// segments: the server's own cost.
  double server_cpu_s = 0.0;
  std::vector<Segment> segments;
  double queue_wait_p50_s = 0, queue_wait_p99_s = 0;
  double assemble_p50_s = 0, forward_p50_s = 0, scatter_p50_s = 0;
  double mean_batch = 0, busy_pct = 0;
  std::int64_t max_queue_depth = 0, batches = 0, arena_bytes = 0;

  std::int64_t count(std::int64_t Segment::*field) const;
  /// Quantile q of each segment's latencies, then the median over
  /// segments: a scheduling hiccup on a shared host moves one segment,
  /// not the reported figure.
  double segment_quantile(double q, bool lag = false) const;
};

/// Two serial-device replicas with dynamic batching over `model`.
std::unique_ptr<dlbench::serve::ModelServer> make_server(
    const dlbench::nn::FrozenModel& model, const dlbench::data::Dataset& inputs);

/// Open-loop Poisson arrivals at `run.rate_rps` for `duration_s`, sent
/// from this thread; arrival times and sample choice come from `seed`.
/// Each request is timed from its scheduled send time. Every OK label is
/// checked against `reference_labels` (FrozenModel::predict per sample).
/// Appends one segment to `run`.
void serve_segment(dlbench::serve::ModelServer& server,
                   const dlbench::data::Dataset& inputs,
                   const std::vector<std::int64_t>& reference_labels,
                   double duration_s, std::uint64_t seed, ServeRun& run);

/// Fills the server-side fields of `run` from ModelServer::stats().
void read_server_stats(const dlbench::serve::ModelServer& server, ServeRun& run);

/// serve.* per-layer metrics from a mid-rate run and a low-rate run.
void serve_layer_metrics(const ServeRun& mid, const ServeRun& low,
                         Outcome& out);

/// A short low-rate serving run over `model`, for workloads that do not
/// serve.
ServeRun serve_probe(const dlbench::nn::FrozenModel& model,
                     const dlbench::data::Dataset& inputs, std::uint64_t seed);

// ---- crafting ----

/// adversarial.* per-layer metrics from one small fgsm_sweep and one
/// jsma_sweep (one unit per class / target, 0.5 % JSMA distortion cap)
/// over `model`, with `threads` crafting workers.
void craft_probe(const dlbench::nn::Sequential& model,
                 const dlbench::data::Dataset& test, int threads, Outcome& out);

// ---- workloads ----

Outcome run_train_workload(const RunContext& ctx);
Outcome run_serve_workload(const RunContext& ctx);

}  // namespace perfbench
