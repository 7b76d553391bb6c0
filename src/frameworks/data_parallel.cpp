#include "frameworks/data_parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <span>
#include <vector>

#include "frameworks/train_util.hpp"
#include "runtime/comm.hpp"
#include "runtime/fault.hpp"
#include "runtime/stopwatch.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/trace.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace dlbench::frameworks {

namespace comm = runtime::comm;

using detail::clone_params;
using util::env_i64;
using detail::gradients_divergent;
using detail::restore_params;
using detail::scale_learning_rate;
using detail::secs_between;
using SteadyClock = detail::SteadyClock;

namespace {

// splitmix64 finalizer for the per-shard dropout streams: the stream is
// keyed on (seed, step, shard) — never on which worker ran the shard —
// so regularization noise is identical at every K.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t shard_stream_seed(std::uint64_t seed, std::int64_t step,
                                int shard) {
  return mix64(mix64(mix64(seed ^ 0xddba11e1ULL) ^
                     static_cast<std::uint64_t>(step)) ^
               static_cast<std::uint64_t>(shard));
}

// One shard's slice of the global batch plus its gradient slot.
struct Shard {
  tensor::Tensor images;                  // [rows, C, H, W]
  std::vector<std::int64_t> labels;       // size rows
  std::vector<tensor::Tensor> grads;      // one slot per model param
  std::int64_t rows = 0;
  double loss = 0.0;
};

// Balanced row partition of B over S: shard s gets B/S rows plus one of
// the B%S remainder rows, in index order. Pure function of (B, S).
std::int64_t shard_rows(std::int64_t batch, int shards, int s) {
  const std::int64_t base = batch / shards;
  const std::int64_t rem = batch % shards;
  return base + (s < rem ? 1 : 0);
}

}  // namespace

DataParallelOptions DataParallelOptions::from_env(
    DataParallelOptions fallback) {
  DataParallelOptions opt = fallback;
  opt.workers =
      static_cast<int>(env_i64("DLB_DP_WORKERS", opt.workers));
  opt.shards = static_cast<int>(env_i64("DLB_DP_SHARDS", opt.shards));
  return opt;
}

DataParallelTrainer::DataParallelTrainer(const Framework& framework,
                                         DataParallelOptions options)
    : framework_(framework), options_(std::move(options)) {
  workers_ = std::max(1, options_.workers);
  // Default S = max(K, 4): K <= 4 sweeps are bit-comparable without
  // pinning anything, and S never drops below K (no idle workers).
  shards_ = options_.shards > 0 ? options_.shards : std::max(workers_, 4);
}

TrainResult DataParallelTrainer::train(nn::Sequential& model,
                                       const data::Dataset& train_set,
                                       const TrainingConfig& config,
                                       const Device& device) const {
  DLB_CHECK(train_set.size() > 0, "empty training set");
  DLB_CHECK(config.batch_size > 0, "batch size must be positive");

  const TrainOptions& topt = options_.train;
  const int K = workers_;
  const int S = shards_;

  const std::int64_t n = train_set.size();
  const std::int64_t steps_per_epoch =
      (n + config.batch_size - 1) / config.batch_size;
  const double epochs = topt.scale.scale_epochs(config.epochs);
  std::int64_t total_steps = static_cast<std::int64_t>(
      std::ceil(epochs * static_cast<double>(steps_per_epoch)));
  total_steps = std::max(total_steps, topt.min_steps_floor);
  total_steps = std::max<std::int64_t>(1, topt.scale.cap_steps(total_steps));

  auto optimizer =
      framework_.make_optimizer(config, steps_per_epoch, total_steps);

  // Same fork order as Framework::train so the two loops see the same
  // shuffle sequence from the same seed. The master dropout stream only
  // feeds prepare(); shard compute draws from per-shard streams.
  util::Rng rng(topt.seed);
  util::Rng loader_rng = rng.fork();
  util::Rng dropout_rng = rng.fork();

  data::DataLoader loader(train_set, config.batch_size, /*shuffle=*/true,
                          loader_rng);

  TrainResult result;
  runtime::Stopwatch clock;

  const GuardOptions& guard = topt.guard;
  runtime::fault::Watchdog watchdog(guard.timeout_s);

  // Replica compute is always serial: shard tasks run ON pool workers,
  // and fanning out from a worker is the re-entrancy deadlock
  // parallel_for_ranges now rejects. K supplies the parallelism.
  nn::Context prep_ctx;
  prep_ctx.device = Device::cpu();
  prep_ctx.training = true;
  prep_ctx.rng = &dropout_rng;
  framework_.prepare(model, train_set.sample(0), prep_ctx);

  // One replica per worker, cloned after prepare so session setup is
  // shared. The master never runs forward/backward itself: its
  // parameters are the reduce/step/broadcast target.
  std::vector<nn::Sequential> replicas;
  replicas.reserve(static_cast<std::size_t>(K));
  for (int w = 0; w < K; ++w) replicas.push_back(model.clone());

  const std::vector<tensor::Tensor*> master_params = model.params();
  const std::vector<tensor::Tensor*> master_grads = model.grads();
  const std::size_t P = master_params.size();

  // Per-param broadcast destinations (replica parameter buffers are
  // stable: optimizer and broadcast write in place, never reallocate).
  std::vector<std::vector<float*>> replica_param_ptrs(P);
  for (std::size_t p = 0; p < P; ++p) {
    replica_param_ptrs[p].reserve(static_cast<std::size_t>(K));
    for (int w = 0; w < K; ++w)
      replica_param_ptrs[p].push_back(replicas[static_cast<std::size_t>(w)]
                                          .params()[p]
                                          ->raw());
  }
  auto broadcast_params = [&] {
    for (std::size_t p = 0; p < P; ++p)
      comm::broadcast(master_params[p]->raw(),
                      std::span<float* const>(replica_param_ptrs[p]),
                      static_cast<std::size_t>(master_params[p]->numel()),
                      device);
  };

  // Persistent per-shard gradient slots, allocated once and reused
  // every step.
  std::vector<Shard> shard_state(static_cast<std::size_t>(S));
  for (Shard& sh : shard_state)
    for (std::size_t p = 0; p < P; ++p)
      sh.grads.emplace_back(master_grads[p]->shape());

  runtime::ThreadPool pool(static_cast<std::size_t>(K));

  // Guarded loop state (contract shared with Framework::train).
  const bool recovery_enabled = guard.max_recoveries > 0;
  std::vector<tensor::Tensor> snapshot;
  std::int64_t snapshot_step = 0;
  if (recovery_enabled) snapshot = clone_params(model);
  double lr_scale = 1.0;

  auto next_batch = [&](data::Batch& b) {
    runtime::trace::Span span("data.next_batch", "data");
    const auto t0 = SteadyClock::now();
    const bool ok = loader.next(b);
    result.phases.data_s += secs_between(t0, SteadyClock::now());
    return ok;
  };

  // Per-step worker-side phase accumulators; each task writes only its
  // own slot, the completion latch publishes them to the master.
  std::vector<double> worker_fwd(static_cast<std::size_t>(K));
  std::vector<double> worker_bwd(static_cast<std::size_t>(K));

  std::int64_t step = 0;
  bool aborted = false;
  data::Batch batch;
  while (step < total_steps && !aborted) {
    const std::int64_t step_at_epoch_start = step;
    bool rolled_back = false;
    loader.start_epoch();
    while (step < total_steps && next_batch(batch)) {
      if (watchdog.expired()) {
        result.timed_out = true;
        aborted = true;
        break;
      }
      runtime::fault::maybe_stall_step(step);
      runtime::trace::Span step_span("dp.step", "train");

      // ---- shard the batch (master thread, attributed to data) ----
      const std::int64_t B = batch.size();
      const std::int64_t row_floats =
          batch.images.numel() / std::max<std::int64_t>(1, B);
      {
        const auto t0 = SteadyClock::now();
        std::int64_t offset = 0;
        for (int s = 0; s < S; ++s) {
          Shard& sh = shard_state[static_cast<std::size_t>(s)];
          sh.rows = shard_rows(B, S, s);
          sh.loss = 0.0;
          if (sh.rows == 0) continue;
          // uninit is safe: every element is memcpy'd just below.
          sh.images = tensor::Tensor::uninit(
              {sh.rows, batch.images.dim(1), batch.images.dim(2),
               batch.images.dim(3)});
          std::memcpy(sh.images.raw(), batch.images.raw() + offset * row_floats,
                      static_cast<std::size_t>(sh.rows * row_floats) *
                          sizeof(float));
          sh.labels.assign(
              batch.labels.begin() + static_cast<std::ptrdiff_t>(offset),
              batch.labels.begin() +
                  static_cast<std::ptrdiff_t>(offset + sh.rows));
          offset += sh.rows;
        }
        result.phases.data_s += secs_between(t0, SteadyClock::now());
      }

      // ---- K workers drain the shard queue ----
      // Dynamic assignment: whichever worker is free claims the next
      // shard. Harmless to determinism — each gradient lands in its
      // shard's slot, and only shard order reaches the arithmetic —
      // while letting K-1 healthy workers absorb a straggler's backlog.
      std::exception_ptr first_error;
      std::mutex done_mu;
      std::condition_variable done_cv;
      int remaining = K;
      std::atomic<int> next_shard{0};
      const auto t_par = SteadyClock::now();
      for (int w = 0; w < K; ++w) {
        pool.submit([&, w] {
          double fwd_s = 0.0, bwd_s = 0.0;
          std::exception_ptr error;
          try {
            runtime::fault::maybe_stall_dp_worker(step, w);
            nn::Sequential& replica = replicas[static_cast<std::size_t>(w)];
            for (;;) {
              const int s = next_shard.fetch_add(1);
              if (s >= S) break;
              Shard& sh = shard_state[static_cast<std::size_t>(s)];
              if (sh.rows == 0) continue;
              util::Rng shard_rng(shard_stream_seed(topt.seed, step, s));
              nn::Context ctx;
              ctx.device = Device::cpu();
              ctx.training = true;
              ctx.rng = &shard_rng;
              replica.zero_grads();
              const auto t_fwd = SteadyClock::now();
              nn::LossResult loss =
                  replica.forward_loss(sh.images, sh.labels, ctx);
              const auto t_bwd = SteadyClock::now();
              fwd_s += secs_between(t_fwd, t_bwd);
              replica.backward(loss, sh.labels, ctx);
              bwd_s += secs_between(t_bwd, SteadyClock::now());
              sh.loss = loss.loss;
              const auto replica_grads = replica.grads();
              for (std::size_t p = 0; p < P; ++p) {
                const auto src = replica_grads[p]->data();
                auto dst = sh.grads[p].data();
                std::copy(src.begin(), src.end(), dst.begin());
              }
            }
          } catch (...) {
            error = std::current_exception();
          }
          worker_fwd[static_cast<std::size_t>(w)] = fwd_s;
          worker_bwd[static_cast<std::size_t>(w)] = bwd_s;
          std::lock_guard<std::mutex> lock(done_mu);
          if (error && !first_error) first_error = error;
          if (--remaining == 0) done_cv.notify_one();
        });
      }
      {
        std::unique_lock<std::mutex> lock(done_mu);
        done_cv.wait(lock, [&] { return remaining == 0; });
      }
      if (first_error) std::rethrow_exception(first_error);
      const double par_s = secs_between(t_par, SteadyClock::now());
      // The parallel region is one wall-clock interval; split it into
      // forward/backward by the workers' own ratio so the breakdown
      // still sums to wall time.
      double fwd_sum = 0.0, bwd_sum = 0.0;
      for (int w = 0; w < K; ++w) {
        fwd_sum += worker_fwd[static_cast<std::size_t>(w)];
        bwd_sum += worker_bwd[static_cast<std::size_t>(w)];
      }
      if (fwd_sum + bwd_sum > 0.0) {
        result.phases.forward_s += par_s * fwd_sum / (fwd_sum + bwd_sum);
        result.phases.backward_s += par_s * bwd_sum / (fwd_sum + bwd_sum);
      }

      // ---- shard-ordered all-reduce into the master gradients ----
      // Shard losses are means over shard rows, so shard s carries
      // weight rows_s / B; the weighted sum in fixed shard order is
      // what a single B-row step's loss head would have produced.
      const auto t_comm = SteadyClock::now();
      std::vector<const float*> parts;
      std::vector<double> weights;
      double loss_acc = 0.0;
      for (int s = 0; s < S; ++s) {
        const Shard& sh = shard_state[static_cast<std::size_t>(s)];
        if (sh.rows == 0) continue;  // no rows, no term (not even +0.0)
        const double w = static_cast<double>(sh.rows) / static_cast<double>(B);
        weights.push_back(w);
        loss_acc += w * sh.loss;
      }
      for (std::size_t p = 0; p < P; ++p) {
        parts.clear();
        for (int s = 0; s < S; ++s) {
          const Shard& sh = shard_state[static_cast<std::size_t>(s)];
          if (sh.rows == 0) continue;
          parts.push_back(sh.grads[p].raw());
        }
        comm::reduce_weighted_sum(
            std::span<const float* const>(parts),
            std::span<const double>(weights), master_grads[p]->raw(),
            static_cast<std::size_t>(master_grads[p]->numel()), device);
      }
      const double step_loss = loss_acc;
      result.phases.comm_s += secs_between(t_comm, SteadyClock::now());
      runtime::trace::counter_add("dp.reduces", 1);

      if (runtime::fault::enabled()) {
        std::vector<std::span<float>> grad_spans;
        for (tensor::Tensor* g : master_grads) grad_spans.push_back(g->data());
        runtime::fault::maybe_corrupt_gradients(step, grad_spans);
      }

      // ---- guard: detect before the update, as in Framework::train ----
      const auto t_guard = SteadyClock::now();
      const bool divergent =
          !std::isfinite(step_loss) ||
          gradients_divergent(master_grads, guard.grad_norm_limit);
      if (divergent) {
        if (result.divergence_step < 0) result.divergence_step = step;
        if (!recovery_enabled ||
            result.recovery_attempts >= guard.max_recoveries) {
          result.diverged = true;
          aborted = true;
        } else {
          ++result.recovery_attempts;
          runtime::trace::counter_add("train.rollbacks", 1);
          restore_params(model, snapshot);
          broadcast_params();  // replicas must follow the master back
          lr_scale *= guard.lr_backoff;
          optimizer = framework_.make_optimizer(
              scale_learning_rate(config, lr_scale), steps_per_epoch,
              total_steps);
          while (!result.loss_curve.empty() &&
                 result.loss_curve.back().first >= snapshot_step)
            result.loss_curve.pop_back();
          step = snapshot_step;
          rolled_back = true;
        }
        result.phases.guard_s += secs_between(t_guard, SteadyClock::now());
        break;
      }
      result.phases.guard_s += secs_between(t_guard, SteadyClock::now());

      // ---- master optimizer step + parameter broadcast ----
      const auto t_opt = SteadyClock::now();
      {
        runtime::trace::Span span("optim.step", "optim");
        optimizer->step(master_params, master_grads, step, device);
      }
      result.phases.optimizer_s += secs_between(t_opt, SteadyClock::now());
      const auto t_bc = SteadyClock::now();
      broadcast_params();
      result.phases.comm_s += secs_between(t_bc, SteadyClock::now());
      runtime::trace::counter_add("optim.steps", 1);

      if (step % topt.loss_record_interval == 0 || step + 1 == total_steps) {
        result.loss_curve.emplace_back(step, step_loss);
      }
      result.final_loss = step_loss;
      ++step;

      if (recovery_enabled && guard.snapshot_interval > 0 &&
          step % guard.snapshot_interval == 0) {
        runtime::trace::Span span("train.snapshot", "train");
        const auto t_snap = SteadyClock::now();
        snapshot = clone_params(model);
        snapshot_step = step;
        result.phases.guard_s += secs_between(t_snap, SteadyClock::now());
      }
    }
    if (step == step_at_epoch_start && !rolled_back && !aborted) {
      if (result.divergence_step < 0) result.divergence_step = step;
      result.diverged = true;
      break;
    }
  }

  result.train_time_s = clock.seconds();
  result.steps = step;
  result.epochs_run =
      static_cast<double>(step) / static_cast<double>(steps_per_epoch);
  const double chance_loss =
      std::log(static_cast<double>(train_set.num_classes));
  result.converged = step > 0 && !result.diverged &&
                     std::isfinite(result.final_loss) &&
                     result.final_loss < 0.95 * chance_loss;
  return result;
}

}  // namespace dlbench::frameworks
