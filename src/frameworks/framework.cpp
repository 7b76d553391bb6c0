#include "frameworks/framework.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>

#include "frameworks/train_util.hpp"
#include "runtime/fault.hpp"
#include "runtime/stopwatch.hpp"
#include "runtime/trace.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace dlbench::frameworks {

using detail::clone_params;
using util::env_f64;
using util::env_i64;
using detail::gradients_divergent;
using detail::restore_params;
using detail::scale_learning_rate;
using detail::secs_between;
using SteadyClock = detail::SteadyClock;

GuardOptions GuardOptions::from_env(GuardOptions fallback) {
  GuardOptions opt = fallback;
  opt.max_recoveries = static_cast<int>(
      env_i64("DLB_GUARD_MAX_RECOVERIES", opt.max_recoveries));
  opt.snapshot_interval =
      env_i64("DLB_GUARD_SNAPSHOT_INTERVAL", opt.snapshot_interval);
  opt.lr_backoff = env_f64("DLB_GUARD_LR_BACKOFF", opt.lr_backoff);
  opt.grad_norm_limit = env_f64("DLB_GUARD_GRAD_LIMIT", opt.grad_norm_limit);
  opt.timeout_s = env_f64("DLB_TRAIN_TIMEOUT_S", opt.timeout_s);
  return opt;
}

void Framework::prepare(nn::Sequential&, const tensor::Tensor&,
                        const nn::Context&) const {}

TrainResult Framework::train(nn::Sequential& model,
                             const data::Dataset& train_set,
                             const TrainingConfig& config,
                             const Device& device,
                             const TrainOptions& options) const {
  DLB_CHECK(train_set.size() > 0, "empty training set");
  DLB_CHECK(config.batch_size > 0, "batch size must be positive");

  const std::int64_t n = train_set.size();
  const std::int64_t steps_per_epoch =
      (n + config.batch_size - 1) / config.batch_size;
  const double epochs = options.scale.scale_epochs(config.epochs);
  std::int64_t total_steps = static_cast<std::int64_t>(
      std::ceil(epochs * static_cast<double>(steps_per_epoch)));
  total_steps = std::max(total_steps, options.min_steps_floor);
  total_steps = std::max<std::int64_t>(1, options.scale.cap_steps(total_steps));

  auto optimizer = make_optimizer(config, steps_per_epoch, total_steps);

  util::Rng rng(options.seed);
  util::Rng loader_rng = rng.fork();
  util::Rng dropout_rng = rng.fork();

  nn::Context ctx;
  ctx.device = device;
  ctx.training = true;
  ctx.rng = &dropout_rng;

  data::DataLoader loader(train_set, config.batch_size, /*shuffle=*/true,
                          loader_rng);

  TrainResult result;
  runtime::Stopwatch clock;

  const GuardOptions& guard = options.guard;
  // Watchdog: bounds the run's wall clock so a stalled cell aborts
  // instead of hanging the whole suite (expiry is checked every step,
  // and injected stalls poll the abort flag it raises).
  runtime::fault::Watchdog watchdog(guard.timeout_s);

  // Session setup (e.g. TF graph compile) counts toward training time.
  prepare(model, train_set.sample(0), ctx);

  // Guarded loop state: a periodic in-memory snapshot to roll back to,
  // and the cumulative learning-rate backoff across recoveries.
  const bool recovery_enabled = guard.max_recoveries > 0;
  std::vector<tensor::Tensor> snapshot;
  std::int64_t snapshot_step = 0;
  if (recovery_enabled) snapshot = clone_params(model);
  double lr_scale = 1.0;

  // Timed batch fetch, attributed to the data phase.
  auto next_batch = [&](data::Batch& b) {
    runtime::trace::Span span("data.next_batch", "data");
    const auto t0 = SteadyClock::now();
    const bool ok = loader.next(b);
    result.phases.data_s += secs_between(t0, SteadyClock::now());
    return ok;
  };

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
      runtime::trace::Span step_span("train.step", "train");

      model.zero_grads();
      const auto t_fwd = SteadyClock::now();
      nn::LossResult loss =
          model.forward_loss(batch.images, batch.labels, ctx);
      const auto t_bwd = SteadyClock::now();
      result.phases.forward_s += secs_between(t_fwd, t_bwd);
      model.backward(loss, batch.labels, ctx);
      const auto t_guard = SteadyClock::now();
      result.phases.backward_s += secs_between(t_bwd, t_guard);

      if (runtime::fault::enabled()) {
        std::vector<std::span<float>> grad_spans;
        for (tensor::Tensor* g : model.grads())
          grad_spans.push_back(g->data());
        runtime::fault::maybe_corrupt_gradients(step, grad_spans);
      }

      // Divergence is detected *before* the update is applied, so one
      // bad step cannot poison the parameters it would write to.
      const bool divergent =
          !std::isfinite(loss.loss) ||
          gradients_divergent(model.grads(), guard.grad_norm_limit);
      if (divergent) {
        if (result.divergence_step < 0) result.divergence_step = step;
        if (!recovery_enabled ||
            result.recovery_attempts >= guard.max_recoveries) {
          result.diverged = true;
          aborted = true;
        } else {
          // Bounded recovery: roll back to the snapshot, back off the
          // learning rate, and retry from there with a fresh
          // optimizer.
          ++result.recovery_attempts;
          runtime::trace::counter_add("train.rollbacks", 1);
          restore_params(model, snapshot);
          model.zero_grads();
          lr_scale *= guard.lr_backoff;
          optimizer = make_optimizer(scale_learning_rate(config, lr_scale),
                                     steps_per_epoch, total_steps);
          while (!result.loss_curve.empty() &&
                 result.loss_curve.back().first >= snapshot_step)
            result.loss_curve.pop_back();
          step = snapshot_step;
          rolled_back = true;  // restart from a fresh epoch at snapshot
        }
        result.phases.guard_s += secs_between(t_guard, SteadyClock::now());
        break;
      }
      result.phases.guard_s += secs_between(t_guard, SteadyClock::now());

      const auto t_opt = SteadyClock::now();
      {
        runtime::trace::Span span("optim.step", "optim");
        optimizer->step(model.params(), model.grads(), step, device);
      }
      result.phases.optimizer_s += secs_between(t_opt, SteadyClock::now());
      runtime::trace::counter_add("optim.steps", 1);

      if (step % options.loss_record_interval == 0 ||
          step + 1 == total_steps) {
        result.loss_curve.emplace_back(step, loss.loss);
      }
      result.final_loss = loss.loss;
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
    // Data starvation (e.g. every sample of an epoch dropped by an
    // injected fault): give up instead of spinning on empty epochs.
    if (step == step_at_epoch_start && !rolled_back && !aborted) {
      if (result.divergence_step < 0) result.divergence_step = step;
      result.diverged = true;
      break;
    }
  }

  result.train_time_s = clock.seconds();
  result.steps = step;
  result.epochs_run = static_cast<double>(step) /
                      static_cast<double>(steps_per_epoch);
  // Chance-level mean cross-entropy for C classes is ln(C); a run that
  // never gets meaningfully below it did not converge (paper Fig. 5).
  // A run that exhausted recovery is a failure regardless of the last
  // loss it managed to record.
  const double chance_loss =
      std::log(static_cast<double>(train_set.num_classes));
  result.converged = step > 0 && !result.diverged &&
                     std::isfinite(result.final_loss) &&
                     result.final_loss < 0.95 * chance_loss;
  return result;
}

EvalResult Framework::evaluate(nn::Sequential& model,
                               const data::Dataset& test_set,
                               const Device& device) const {
  DLB_CHECK(test_set.size() > 0, "empty test set");
  nn::Context ctx;
  ctx.device = device;
  ctx.training = false;

  util::Rng unused(0);
  data::DataLoader loader(test_set, eval_batch_size(), /*shuffle=*/false,
                          unused);

  EvalResult result;
  runtime::Stopwatch clock;
  data::Batch batch;
  while (loader.next(batch)) {
    runtime::trace::Span span("eval.batch", "eval");
    const auto predictions = model.predict(batch.images, ctx);
    for (std::size_t i = 0; i < predictions.size(); ++i)
      if (predictions[i] == batch.labels[i]) ++result.correct;
    result.total += batch.size();
  }
  result.test_time_s = clock.seconds();
  // total can be 0 under an injected 100% sample-drop fault; report 0%
  // rather than a NaN that would poison downstream tables.
  result.accuracy_pct = result.total > 0
                            ? 100.0 * static_cast<double>(result.correct) /
                                  static_cast<double>(result.total)
                            : 0.0;
  return result;
}

}  // namespace dlbench::frameworks
