#include "serve/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "runtime/trace.hpp"
#include "util/error.hpp"

namespace dlbench::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

Prediction immediate(RequestStatus status) {
  Prediction p;
  p.status = status;
  return p;
}

}  // namespace

const char* to_string(FleetPolicy policy) {
  switch (policy) {
    case FleetPolicy::kWeightedFair:
      return "weighted_fair";
    case FleetPolicy::kFifo:
      return "fifo";
  }
  return "unknown";
}

const char* to_string(FleetDecisionKind kind) {
  switch (kind) {
    case FleetDecisionKind::kShedAdmission:
      return "shed";
    case FleetDecisionKind::kRejectQueue:
      return "reject";
    case FleetDecisionKind::kDispatch:
      return "dispatch";
    case FleetDecisionKind::kScaleUp:
      return "scale_up";
    case FleetDecisionKind::kScaleDown:
      return "scale_down";
  }
  return "unknown";
}

std::string format_decision(const FleetDecision& d) {
  std::ostringstream out;
  out << d.ordinal << ' ' << to_string(d.kind) << ' '
      << (d.tenant.empty() ? "-" : d.tenant) << ' ' << d.model << ' '
      << to_string(d.slo) << ' ' << d.detail;
  return out.str();
}

FleetManager::FleetManager(FleetOptions options)
    : options_(std::move(options)) {
  DLB_CHECK(options_.core_budget >= 1, "fleet core_budget must be >= 1");
  DLB_CHECK(options_.tenant_queue_capacity > 0,
            "fleet tenant_queue_capacity must be positive");
  DLB_CHECK(options_.global_queue_budget > 0,
            "fleet global_queue_budget must be positive");
  DLB_CHECK(options_.drr_quantum >= 1, "fleet drr_quantum must be >= 1");
  DLB_CHECK(options_.autoscale_every >= 1,
            "fleet autoscale_every must be >= 1");
  DLB_CHECK(options_.hysteresis_evals >= 1,
            "fleet hysteresis_evals must be >= 1");
  DLB_CHECK(options_.bronze_watermark <= options_.silver_watermark &&
                options_.silver_watermark <= options_.gold_watermark,
            "fleet SLO watermarks must be ordered bronze <= silver <= gold");
}

FleetManager::~FleetManager() { stop(true); }

void FleetManager::register_model(FleetModelConfig config,
                                  nn::FrozenModel model) {
  std::lock_guard<std::mutex> lock(mu_);
  DLB_CHECK(!started_, "register_model must precede start()");
  DLB_CHECK(!config.name.empty(), "fleet model needs a name");
  DLB_CHECK(config.min_replicas >= 1, "fleet model min_replicas must be >= 1");
  DLB_CHECK(config.max_replicas >= config.min_replicas,
            "fleet model max_replicas must be >= min_replicas");
  DLB_CHECK(config.window_per_replica >= 1,
            "fleet model window_per_replica must be >= 1");
  for (const auto& m : models_)
    DLB_CHECK(m->config.name != config.name,
              "fleet model name registered twice: " + config.name);
  models_.push_back(
      std::make_unique<Model>(std::move(config), std::move(model)));
}

void FleetManager::register_tenant(FleetTenantConfig config) {
  std::lock_guard<std::mutex> lock(mu_);
  DLB_CHECK(!started_, "register_tenant must precede start()");
  DLB_CHECK(!config.name.empty(), "fleet tenant needs a name");
  DLB_CHECK(config.weight >= 1, "fleet tenant weight must be >= 1");
  for (const auto& t : tenants_)
    DLB_CHECK(t.config.name != config.name,
              "fleet tenant name registered twice: " + config.name);
  int model_index = -1;
  for (int i = 0; i < static_cast<int>(models_.size()); ++i)
    if (models_[static_cast<std::size_t>(i)]->config.name == config.model)
      model_index = i;
  DLB_CHECK(model_index >= 0,
            "fleet tenant targets unregistered model: " + config.model);
  Tenant tenant;
  tenant.config = std::move(config);
  tenant.model_index = model_index;
  tenants_.push_back(std::move(tenant));
}

void FleetManager::start(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    DLB_CHECK(!started_, "fleet already started");
    DLB_CHECK(!models_.empty(), "fleet needs at least one model");
    DLB_CHECK(!tenants_.empty(), "fleet needs at least one tenant");
    int floor = 0;
    for (const auto& m : models_) floor += m->config.min_replicas;
    DLB_CHECK(floor <= options_.core_budget,
              "sum of model min_replicas exceeds the fleet core budget");
    for (auto& m : models_) {
      ServerOptions server_options;
      server_options.sample_shape = m->config.sample_shape;
      server_options.replicas = m->config.min_replicas;
      server_options.max_batch = m->config.max_batch;
      server_options.max_batch_delay_s = m->config.max_batch_delay_s;
      server_options.device = m->config.device;
      server_options.compute_probabilities = m->config.compute_probabilities;
      // The fleet is the admission layer; the inner server must never
      // push back on dispatches the scheduler already admitted. The
      // dispatch window bounds in-flight work far below these.
      server_options.queue_capacity = 1 << 16;
      server_options.reject_watermark = 1 << 15;
      m->server =
          std::make_unique<ModelServer>(m->frozen, std::move(server_options));
      m->target = m->config.min_replicas;
      m->peak = m->target;
      m->low = m->target;
    }
    started_ = true;
    paused_ = paused;
  }
  for (int i = 0; i < static_cast<int>(models_.size()); ++i)
    models_[static_cast<std::size_t>(i)]->watcher =
        std::thread([this, i] { watcher_loop(i); });
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

std::future<Prediction> FleetManager::submit(const std::string& tenant,
                                             tensor::Tensor input) {
  return submit(tenant_index(tenant), std::move(input));
}

std::future<Prediction> FleetManager::submit(int tenant_index,
                                             tensor::Tensor input) {
  auto promise = std::make_shared<std::promise<Prediction>>();
  std::future<Prediction> future = promise->get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    DLB_CHECK(started_, "fleet submit() before start()");
    DLB_CHECK(tenant_index >= 0 &&
                  tenant_index < static_cast<int>(tenants_.size()),
              "fleet tenant index out of range");
    Tenant& tenant = tenants_[static_cast<std::size_t>(tenant_index)];
    const Model& model = *models_[static_cast<std::size_t>(tenant.model_index)];
    ++tenant.submitted;
    runtime::trace::counter_add("fleet.submitted", 1);
    if (stop_) {
      promise->set_value(immediate(RequestStatus::kShutdown));
      return future;
    }
    if (options_.slo_admission) {
      double watermark = options_.gold_watermark;
      if (tenant.config.slo == SloClass::kBronze)
        watermark = options_.bronze_watermark;
      else if (tenant.config.slo == SloClass::kSilver)
        watermark = options_.silver_watermark;
      const auto threshold = static_cast<std::int64_t>(
          watermark * static_cast<double>(options_.global_queue_budget));
      if (queued_total_ >= threshold) {
        ++tenant.shed;
        runtime::trace::counter_add("fleet.shed", 1);
        log_locked(FleetDecisionKind::kShedAdmission, tenant.config.name,
                   model.config.name, tenant.config.slo, queued_total_);
        promise->set_value(immediate(RequestStatus::kShed));
        return future;
      }
    }
    if (tenant.queue.size() >= options_.tenant_queue_capacity) {
      ++tenant.rejected;
      runtime::trace::counter_add("fleet.rejected", 1);
      log_locked(FleetDecisionKind::kRejectQueue, tenant.config.name,
                 model.config.name, tenant.config.slo,
                 static_cast<std::int64_t>(tenant.queue.size()));
      promise->set_value(immediate(RequestStatus::kRejected));
      return future;
    }
    ++tenant.admitted;
    ++queued_total_;
    runtime::trace::gauge_record("fleet.queued", queued_total_);
    tenant.queue.push_back(Queued{std::move(input), promise, now_ns()});
    if (options_.policy == FleetPolicy::kFifo) fifo_.push_back(tenant_index);
  }
  cv_work_.notify_all();
  return future;
}

void FleetManager::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void FleetManager::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_work_.notify_all();
}

void FleetManager::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  DLB_CHECK(started_, "fleet drain() before start()");
  if (paused_) {
    paused_ = false;
    cv_work_.notify_all();
  }
  cv_idle_.wait(lock, [&] { return idle_locked(); });
}

void FleetManager::stop(bool drain_first) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stop_) {
      // Never started (nothing to join) or already stopped (idempotent).
      if (!started_) return;
    }
  }
  if (drain_first) drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_work_.notify_all();
  cv_watch_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Fail whatever is still queued (drain=false path), outside mu_ so
  // future continuations can't deadlock back into the fleet.
  std::vector<std::shared_ptr<std::promise<Prediction>>> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& tenant : tenants_) {
      while (!tenant.queue.empty()) {
        orphans.push_back(std::move(tenant.queue.front().promise));
        tenant.queue.pop_front();
        --queued_total_;
      }
    }
    fifo_.clear();
  }
  for (auto& promise : orphans)
    promise->set_value(immediate(RequestStatus::kShutdown));
  // Watchers drain their pending lists (the inner servers resolve every
  // accepted future in bounded time), then exit on stop_ + empty.
  for (auto& m : models_)
    if (m->watcher.joinable()) m->watcher.join();
  for (auto& m : models_)
    if (m->server) m->server->shutdown(true);
  cv_idle_.notify_all();
}

void FleetManager::dispatcher_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_work_.wait(lock, [&] {
      return stop_ || (!paused_ && queued_total_ > 0);
    });
    if (stop_) return;
    const int t = pick_locked();
    if (t < 0) continue;  // raced with a concurrent drain-to-empty
    Tenant& tenant = tenants_[static_cast<std::size_t>(t)];
    Model& model = *models_[static_cast<std::size_t>(tenant.model_index)];
    // Strict-order blocking dispatch: the chosen tenant is committed.
    // If its model's window is full we wait for a completion, never
    // skip — see the determinism contract in the header.
    cv_work_.wait(lock, [&] {
      return stop_ || model.inflight < window_locked(model);
    });
    if (stop_) return;
    Queued queued = std::move(tenant.queue.front());
    tenant.queue.pop_front();
    --queued_total_;
    ++tenant.dispatched;
    ++model.dispatched;
    ++model.inflight;
    ++inflight_total_;
    ++dispatch_count_;
    log_locked(FleetDecisionKind::kDispatch, tenant.config.name,
               model.config.name, tenant.config.slo, queued_total_);
    runtime::trace::counter_add("fleet.dispatches", 1);
    const std::int64_t dispatch_ns = now_ns();
    std::future<Prediction> inner;
    {
      runtime::trace::Span span("fleet.dispatch", "serve");
      SubmitOptions submit_options;
      submit_options.slo = tenant.config.slo;
      inner = model.server->submit(std::move(queued.input), submit_options);
    }
    model.pending.push_back(Pending{std::move(inner), std::move(queued.promise),
                                    t, queued.admit_ns, dispatch_ns});
    cv_watch_.notify_all();
    if (options_.autoscale && dispatch_count_ % options_.autoscale_every == 0)
      autoscale_locked();
  }
}

void FleetManager::watcher_loop(int model_index) {
  Model& model = *models_[static_cast<std::size_t>(model_index)];
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_watch_.wait(lock, [&] { return stop_ || !model.pending.empty(); });
    if (model.pending.empty()) {
      if (stop_) return;
      continue;
    }
    Pending pending = std::move(model.pending.front());
    model.pending.pop_front();
    lock.unlock();
    // Block outside the lock: the inner server resolves every accepted
    // future (its shutdown deadline bounds even pathological stalls).
    Prediction prediction = pending.inner.get();
    const std::int64_t resolve_ns = now_ns();
    lock.lock();
    Tenant& tenant = tenants_[static_cast<std::size_t>(pending.tenant)];
    if (prediction.status == RequestStatus::kOk) {
      ++tenant.ok;
      tenant.latency.record_s(seconds_between(pending.admit_ns, resolve_ns));
      tenant.queue_wait.record_s(
          seconds_between(pending.admit_ns, pending.dispatch_ns));
    } else {
      ++tenant.failed;
    }
    --model.inflight;
    --inflight_total_;
    const bool idle = idle_locked();
    lock.unlock();
    // End-to-end time as the tenant saw it: admission → resolution,
    // with the fleet queue wait folded into the reported wait.
    prediction.queue_wait_s +=
        seconds_between(pending.admit_ns, pending.dispatch_ns);
    prediction.total_s = seconds_between(pending.admit_ns, resolve_ns);
    pending.promise->set_value(std::move(prediction));
    cv_work_.notify_all();  // window freed
    if (idle) cv_idle_.notify_all();
    lock.lock();
  }
}

int FleetManager::pick_locked() {
  if (options_.policy == FleetPolicy::kFifo) {
    while (!fifo_.empty()) {
      const int t = fifo_.front();
      fifo_.pop_front();
      if (!tenants_[static_cast<std::size_t>(t)].queue.empty()) return t;
    }
    return -1;
  }
  return pick_drr_locked();
}

int FleetManager::pick_drr_locked() {
  const int n = static_cast<int>(tenants_.size());
  // At most one full rotor revolution past the serving tenant: each
  // iteration either returns, or advances the rotor by one.
  for (int guard = 0; guard <= n + 1; ++guard) {
    if (drr_serving_ >= 0) {
      Tenant& tenant = tenants_[static_cast<std::size_t>(drr_serving_)];
      if (!tenant.queue.empty() && tenant.deficit >= 1) {
        tenant.deficit -= 1;
        return drr_serving_;
      }
      // Emptied queues forfeit leftover deficit (classic DRR: deficit
      // only accumulates while backlogged, so an idle tenant can't
      // hoard service credit).
      if (tenant.queue.empty()) tenant.deficit = 0;
      drr_cursor_ = (drr_serving_ + 1) % n;
      drr_serving_ = -1;
    }
    int scanned = 0;
    while (scanned < n &&
           tenants_[static_cast<std::size_t>(drr_cursor_)].queue.empty()) {
      tenants_[static_cast<std::size_t>(drr_cursor_)].deficit = 0;
      drr_cursor_ = (drr_cursor_ + 1) % n;
      ++scanned;
    }
    if (scanned == n) return -1;  // every queue empty
    Tenant& next = tenants_[static_cast<std::size_t>(drr_cursor_)];
    next.deficit +=
        options_.drr_quantum * static_cast<std::int64_t>(next.config.weight);
    drr_serving_ = drr_cursor_;
  }
  DLB_CHECK(false, "DRR rotor failed to converge");
  return -1;
}

void FleetManager::autoscale_locked() {
  int total = 0;
  for (const auto& m : models_) total += m->target;
  for (auto& model_ptr : models_) {
    Model& m = *model_ptr;
    // Backlog-only signal, deliberately excluding in-flight work:
    // queued counts are pure functions of the decision ordinal, so the
    // scale sequence replays deterministically; in-flight counts are
    // completion-timing dependent.
    std::int64_t backlog = 0;
    for (const auto& tenant : tenants_)
      if (&*models_[static_cast<std::size_t>(tenant.model_index)] == &m)
        backlog += static_cast<std::int64_t>(tenant.queue.size());
    const double per_replica =
        static_cast<double>(backlog) / static_cast<double>(m.target);
    if (per_replica >= options_.scale_up_backlog &&
        m.target < m.config.max_replicas && total < options_.core_budget) {
      const int from = m.target;
      ++m.target;
      ++total;
      ++m.scale_ups;
      m.low_evals = 0;
      m.peak = std::max(m.peak, m.target);
      m.server->resize_replicas(m.target);
      log_locked(FleetDecisionKind::kScaleUp, "", m.config.name,
                 SloClass::kSilver, m.target);
      timeline_.push_back(
          FleetScaleEvent{decision_ordinal_ - 1, m.config.name, from, m.target});
      runtime::trace::counter_add("fleet.scale_ups", 1);
      runtime::trace::gauge_record("fleet.replicas", total);
    } else if (per_replica <= options_.scale_down_backlog &&
               m.target > m.config.min_replicas) {
      if (++m.low_evals >= options_.hysteresis_evals) {
        const int from = m.target;
        --m.target;
        --total;
        ++m.scale_downs;
        m.low_evals = 0;
        m.low = std::min(m.low, m.target);
        m.server->resize_replicas(m.target);
        log_locked(FleetDecisionKind::kScaleDown, "", m.config.name,
                   SloClass::kSilver, m.target);
        timeline_.push_back(FleetScaleEvent{decision_ordinal_ - 1,
                                            m.config.name, from, m.target});
        runtime::trace::counter_add("fleet.scale_downs", 1);
        runtime::trace::gauge_record("fleet.replicas", total);
      }
    } else {
      // Neither pressure nor sustained slack: hysteresis restarts.
      m.low_evals = 0;
    }
  }
}

void FleetManager::log_locked(FleetDecisionKind kind,
                              const std::string& tenant,
                              const std::string& model, SloClass slo,
                              std::int64_t detail) {
  const std::int64_t ordinal = decision_ordinal_++;
  if (!options_.record_decisions) return;
  FleetDecision d;
  d.ordinal = ordinal;
  d.kind = kind;
  d.tenant = tenant;
  d.model = model;
  d.slo = slo;
  d.detail = detail;
  log_.push_back(std::move(d));
}

FleetStats FleetManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FleetStats stats;
  stats.tenants.reserve(tenants_.size());
  for (const auto& tenant : tenants_) {
    FleetTenantStats t;
    t.tenant = tenant.config.name;
    t.model = tenant.config.model;
    t.slo = tenant.config.slo;
    t.weight = tenant.config.weight;
    t.submitted = tenant.submitted;
    t.admitted = tenant.admitted;
    t.shed = tenant.shed;
    t.rejected = tenant.rejected;
    t.dispatched = tenant.dispatched;
    t.ok = tenant.ok;
    t.failed = tenant.failed;
    t.latency = tenant.latency;
    t.queue_wait = tenant.queue_wait;
    stats.tenants.push_back(std::move(t));
  }
  stats.models.reserve(models_.size());
  for (const auto& m : models_) {
    FleetModelStats s;
    s.model = m->config.name;
    s.replicas = m->target;
    s.replicas_peak = m->peak;
    s.replicas_low = m->low;
    s.dispatched = m->dispatched;
    s.scale_ups = m->scale_ups;
    s.scale_downs = m->scale_downs;
    stats.models.push_back(std::move(s));
  }
  stats.timeline = timeline_;
  stats.decisions = decision_ordinal_;
  stats.queued = queued_total_;
  stats.inflight = inflight_total_;
  return stats;
}

std::vector<FleetDecision> FleetManager::decision_log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

int FleetManager::tenant_index(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < static_cast<int>(tenants_.size()); ++i)
    if (tenants_[static_cast<std::size_t>(i)].config.name == tenant) return i;
  DLB_CHECK(false, "unknown fleet tenant: " + tenant);
  return -1;
}

int FleetManager::replica_target(const std::string& model) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& m : models_)
    if (m->config.name == model) return m->target;
  DLB_CHECK(false, "unknown fleet model: " + model);
  return -1;
}

FleetLoadResult run_fleet_trace(
    FleetManager& fleet, const std::vector<TenantStream>& streams,
    const std::vector<MixedArrival>& trace,
    const std::vector<std::vector<tensor::Tensor>>& inputs,
    const FleetLoadOptions& options) {
  DLB_CHECK(inputs.size() == streams.size(),
            "run_fleet_trace needs one input set per stream");
  for (const auto& set : inputs)
    DLB_CHECK(!set.empty(), "run_fleet_trace input sets must be non-empty");
  std::vector<int> tenant_of_stream;
  tenant_of_stream.reserve(streams.size());
  for (const auto& stream : streams)
    tenant_of_stream.push_back(fleet.tenant_index(stream.tenant));

  FleetLoadResult result;
  result.issued = static_cast<std::int64_t>(trace.size());
  std::vector<std::future<Prediction>> futures;
  futures.reserve(trace.size());
  std::vector<std::int64_t> arrival_count(streams.size(), 0);
  const auto start = Clock::now();
  for (const auto& arrival : trace) {
    const auto s = static_cast<std::size_t>(arrival.stream);
    if (options.realtime) {
      const double offset_s = arrival.t_s * options.time_scale;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offset_s)));
    }
    const auto& set = inputs[s];
    const auto k = static_cast<std::size_t>(arrival_count[s]++) % set.size();
    futures.push_back(fleet.submit(tenant_of_stream[s], set[k]));
  }
  fleet.drain();
  for (auto& future : futures) future.wait();
  result.duration_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

}  // namespace dlbench::serve
