#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <optional>
#include <utility>

#include "runtime/fault.hpp"
#include "runtime/trace.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"

namespace dlbench::serve {

namespace trace = runtime::trace;
namespace fault = runtime::fault;

const char* to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kShutdown:
      return "shutdown";
    case RequestStatus::kExpired:
      return "expired";
    case RequestStatus::kError:
      return "error";
    case RequestStatus::kShed:
      return "shed";
  }
  return "unknown";
}

const char* to_string(SloClass slo) {
  switch (slo) {
    case SloClass::kBronze:
      return "bronze";
    case SloClass::kSilver:
      return "silver";
    case SloClass::kGold:
      return "gold";
  }
  return "unknown";
}

void StageLatencies::merge(const StageLatencies& other) {
  queue_wait.merge(other.queue_wait);
  assemble.merge(other.assemble);
  forward.merge(other.forward);
  scatter.merge(other.scatter);
  total.merge(other.total);
}

namespace {

// Monotonic nanoseconds on the same clock the trace subsystem stamps
// spans with, so enqueue timestamps taken on client threads line up
// with worker-side span endpoints. With tracing compiled out
// trace::clock_ns() returns 0, so fall back to steady_clock.
std::int64_t now_ns() {
  if constexpr (trace::compiled()) {
    return trace::clock_ns();
  } else {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
}

Prediction make_failure(RequestStatus status) {
  Prediction p;
  p.status = status;
  return p;
}

// Comparator making push_heap/pop_heap a min-heap on ready_ns.
constexpr auto heap_later = [](const auto& a, const auto& b) {
  return a.ready_ns > b.ready_ns;
};

}  // namespace

ModelServer::ModelServer(nn::FrozenModel model, ServerOptions options)
    : options_(std::move(options)), model_(std::move(model)) {
  DLB_CHECK(!model_.empty(), "ModelServer needs a non-empty model");
  DLB_CHECK(options_.sample_shape.numel() > 0,
            "ServerOptions::sample_shape is required");
  DLB_CHECK(options_.sample_shape.rank() >= 1 &&
                options_.sample_shape.rank() < tensor::Shape::kMaxRank,
            "sample_shape must leave room for the batch dimension");
  DLB_CHECK(options_.replicas >= 1, "need at least one replica");
  DLB_CHECK(options_.max_batch >= 1, "max_batch must be positive");
  DLB_CHECK(options_.max_batch_delay_s >= 0.0,
            "max_batch_delay_s must be non-negative");
  DLB_CHECK(options_.queue_capacity >= 1, "queue_capacity must be positive");
  if (options_.reject_watermark == 0)
    options_.reject_watermark = std::max<std::size_t>(
        1, options_.queue_capacity - options_.queue_capacity / 4);
  DLB_CHECK(options_.reject_watermark <= options_.queue_capacity,
            "reject_watermark cannot exceed queue_capacity");
  DLB_CHECK(options_.heartbeat_s > 0.0, "heartbeat_s must be positive");
  DLB_CHECK(options_.max_retries >= 0, "max_retries cannot be negative");
  DLB_CHECK(options_.breaker_window >= 1, "breaker_window must be positive");
  DLB_CHECK(options_.shutdown_deadline_s > 0.0,
            "shutdown_deadline_s must be positive");

  live_replicas_ = options_.replicas;
  {
    std::lock_guard<std::mutex> fleet_lock(fleet_mu_);
    replicas_.reserve(static_cast<std::size_t>(options_.replicas));
    for (int i = 0; i < options_.replicas; ++i)
      replicas_.push_back(std::make_unique<Replica>(model_, i));
    next_slot_id_ = options_.replicas;
    // Threads start only after every Replica is constructed so the slot
    // vector is never resized while a worker runs.
    for (auto& replica : replicas_)
      replica->thread = std::thread([this, r = replica.get()] {
        replica_loop(*r);
      });
  }
  if (options_.supervise)
    supervisor_ = std::thread([this] { supervisor_loop(); });
}

ModelServer::~ModelServer() {
  shutdown(/*drain=*/true);
  if (supervisor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(sup_mu_);
      sup_stop_ = true;
    }
    sup_cv_.notify_all();
    supervisor_.join();
  }
  // The supervisor is gone: nobody mutates the fleet anymore. Make sure
  // every thread — including abandoned stallers polling the cancel
  // flag — unwinds, then join all incarnations.
  hard_stop_.store(true, std::memory_order_release);
  cv_.notify_all();
  for (auto& replica : replicas_)
    if (replica->thread.joinable()) replica->thread.join();
  for (auto& replica : retired_)
    if (replica->thread.joinable()) replica->thread.join();
}

std::future<Prediction> ModelServer::submit(tensor::Tensor input,
                                            SubmitOptions submit_options) {
  DLB_CHECK(input.shape() == options_.sample_shape,
            "request shape " + input.shape().to_string() +
                " != sample_shape " + options_.sample_shape.to_string());
  std::promise<Prediction> promise;
  std::future<Prediction> future = promise.get_future();

  std::unique_lock<std::mutex> lock(mu_);
  ++submitted_;
  if (stopping_) {
    ++rejected_shutdown_;
    lock.unlock();
    promise.set_value(make_failure(RequestStatus::kShutdown));
    return future;
  }
  if (all_dead_) {
    // Unsupervised fleet with every replica crashed: nobody will ever
    // serve this, so fail fast instead of queueing forever.
    errors_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    promise.set_value(make_failure(RequestStatus::kError));
    return future;
  }
  const std::int64_t enqueue_ns = now_ns();
  maybe_close_breaker_locked(enqueue_ns);
  if (breaker_open_ && submit_options.slo == SloClass::kBronze) {
    shed_breaker_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    trace::counter_add("serve.requests", 1);
    trace::counter_add("serve.shed", 1);
    promise.set_value(make_failure(RequestStatus::kShed));
    return future;
  }
  if (queue_.size() >= options_.reject_watermark) {
    ++rejected_;
    lock.unlock();
    trace::counter_add("serve.requests", 1);
    trace::counter_add("serve.rejected", 1);
    promise.set_value(make_failure(RequestStatus::kRejected));
    return future;
  }
  ++accepted_;
  auto req = std::make_shared<Request>();
  // Ids are assigned at *acceptance* in arrival order, so with a fixed
  // request count the id set — and therefore every id-keyed fault
  // decision — is identical run-to-run (determinism contract).
  req->id = next_id_++;
  req->input = std::move(input);
  req->promise = std::move(promise);
  req->enqueue_ns = enqueue_ns;
  req->slo = submit_options.slo;
  if (fault::serve_expire_request(req->id)) {
    req->deadline_ns = enqueue_ns - 1;  // arrives already expired
  } else if (submit_options.deadline_s > 0.0) {
    req->deadline_ns =
        enqueue_ns +
        static_cast<std::int64_t>(submit_options.deadline_s * 1e9);
  } else if (options_.default_deadline_s > 0.0) {
    req->deadline_ns =
        enqueue_ns +
        static_cast<std::int64_t>(options_.default_deadline_s * 1e9);
  }
  queue_.push_back(Dispatch{std::move(req), 0, false});
  const auto depth = static_cast<std::int64_t>(queue_.size());
  max_queue_depth_ = std::max(max_queue_depth_, depth);
  lock.unlock();
  trace::counter_add("serve.requests", 1);
  trace::gauge_record("serve.queue_depth", depth);
  cv_.notify_one();
  return future;
}

Prediction ModelServer::predict(tensor::Tensor input,
                                SubmitOptions submit_options) {
  return submit(std::move(input), submit_options).get();
}

bool ModelServer::claim_dispatch(Dispatch& dispatch) {
  return !dispatch.req->claimed.exchange(true);
}

void ModelServer::resolve_failure(Dispatch& dispatch, RequestStatus status) {
  Prediction p = make_failure(status);
  p.attempts = dispatch.attempt + 1;
  p.hedged = dispatch.req->hedged.load(std::memory_order_relaxed);
  dispatch.req->promise.set_value(std::move(p));
}

void ModelServer::fail_dispatch(Dispatch& dispatch, RequestStatus status) {
  if (claim_dispatch(dispatch)) resolve_failure(dispatch, status);
}

void ModelServer::record_outcome(bool success) {
  if (options_.breaker_threshold <= 0.0) return;
  std::lock_guard<std::mutex> lock(mu_);
  record_outcome_locked(success);
}

void ModelServer::record_outcome_locked(bool success) {
  if (options_.breaker_threshold <= 0.0) return;
  outcome_window_.push_back(!success);
  if (!success) ++window_failures_;
  while (static_cast<int>(outcome_window_.size()) > options_.breaker_window) {
    if (outcome_window_.front()) --window_failures_;
    outcome_window_.pop_front();
  }
  if (!breaker_open_ &&
      static_cast<int>(outcome_window_.size()) >= options_.breaker_window &&
      static_cast<double>(window_failures_) >=
          options_.breaker_threshold *
              static_cast<double>(outcome_window_.size())) {
    breaker_open_ = true;
    breaker_open_until_ns_ =
        now_ns() + static_cast<std::int64_t>(options_.breaker_probe_s * 1e9);
    breaker_opens_.fetch_add(1, std::memory_order_relaxed);
    trace::counter_add("serve.breaker_opens", 1);
  }
}

void ModelServer::maybe_close_breaker_locked(std::int64_t now) {
  if (!breaker_open_ || now < breaker_open_until_ns_) return;
  // Probe window over: close and forget the window so the next
  // breaker_window outcomes decide afresh.
  breaker_open_ = false;
  outcome_window_.clear();
  window_failures_ = 0;
  breaker_closes_.fetch_add(1, std::memory_order_relaxed);
  trace::counter_add("serve.breaker_closes", 1);
}

std::int64_t ModelServer::flush_ready_retries_locked(std::int64_t now) {
  std::int64_t flushed = 0;
  while (!retry_heap_.empty() && retry_heap_.front().ready_ns <= now) {
    std::pop_heap(retry_heap_.begin(), retry_heap_.end(), heap_later);
    // Retries jump the line: the request already waited a full service
    // attempt plus backoff.
    queue_.push_front(std::move(retry_heap_.back().dispatch));
    retry_heap_.pop_back();
    ++flushed;
  }
  return flushed;
}

void ModelServer::shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && drain_ <= drain) return;  // idempotent
    stopping_ = true;
    drain_ = drain;
  }
  cv_.notify_all();

  bool drained = false;
  if (drain) {
    // Bounded drain: poll until no queued, backoff-pending or in-flight
    // work remains, giving up after shutdown_deadline_s so a replica
    // stalled forever cannot hang stop().
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.shutdown_deadline_s));
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (queue_.empty() && retry_heap_.empty() &&
            inflight_count_.load(std::memory_order_acquire) == 0) {
          drained = true;
          break;
        }
      }
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      cv_.notify_all();
    }
  }
  if (!drained) {
    // Deadline blown (or drain not requested): cut injected stalls via
    // the cancel flag and fail everything still queued.
    hard_stop_.store(true, std::memory_order_release);
    std::deque<Dispatch> doomed;
    std::vector<TimedDispatch> doomed_retries;
    {
      std::lock_guard<std::mutex> lock(mu_);
      doomed.swap(queue_);
      doomed_retries.swap(retry_heap_);
    }
    for (auto& dispatch : doomed)
      fail_dispatch(dispatch, RequestStatus::kShutdown);
    for (auto& timed : doomed_retries)
      fail_dispatch(timed.dispatch, RequestStatus::kShutdown);
    cv_.notify_all();
  }
}

std::size_t ModelServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

int ModelServer::replica_target() const {
  std::lock_guard<std::mutex> fleet_lock(fleet_mu_);
  return static_cast<int>(replicas_.size());
}

void ModelServer::resize_replicas(int target) {
  DLB_CHECK(target >= 1, "resize_replicas target must be >= 1");
  std::vector<Replica*> started;
  {
    std::lock_guard<std::mutex> fleet_lock(fleet_mu_);
    const int current = static_cast<int>(replicas_.size());
    for (int i = current; i < target; ++i) {
      replicas_.push_back(std::make_unique<Replica>(model_, next_slot_id_++));
      started.push_back(replicas_.back().get());
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++live_replicas_;
        all_dead_ = false;
      }
    }
    // Shrink from the highest slots: mark retiring and move to retired_
    // immediately so the supervisor never restarts them. The thread
    // keeps running until it finishes its current batch (the slot
    // unique_ptr is stable in retired_), so no in-flight work is ever
    // dropped; live_replicas_ drops when the thread actually exits.
    for (int i = current; i > target; --i) {
      auto slot = std::move(replicas_.back());
      replicas_.pop_back();
      slot->retiring.store(true, std::memory_order_release);
      retired_.push_back(std::move(slot));
    }
  }
  for (Replica* replica : started)
    replica->thread = std::thread([this, replica] { replica_loop(*replica); });
  cv_.notify_all();
}

ServerStats ModelServer::stats() const {
  ServerStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.submitted = submitted_;
    stats.accepted = accepted_;
    stats.rejected = rejected_;
    stats.rejected_shutdown = rejected_shutdown_;
    stats.max_queue_depth = max_queue_depth_;
    stats.breaker_open = breaker_open_;
    stats.live_replicas = live_replicas_;
  }
  stats.expired = expired_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.shed_breaker = shed_breaker_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.hedges = hedges_.load(std::memory_order_relaxed);
  stats.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  stats.corrupted = corrupted_.load(std::memory_order_relaxed);
  stats.crashes = crashes_.load(std::memory_order_relaxed);
  stats.restarts = restarts_.load(std::memory_order_relaxed);
  stats.stalls_replaced = stalls_replaced_.load(std::memory_order_relaxed);
  stats.crash_requeues = crash_requeues_.load(std::memory_order_relaxed);
  stats.breaker_opens = breaker_opens_.load(std::memory_order_relaxed);
  stats.breaker_closes = breaker_closes_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> fleet_lock(fleet_mu_);
  for (const auto* group : {&replicas_, &retired_}) {
    for (const auto& replica : *group) {
      std::lock_guard<std::mutex> lock(replica->mu);
      stats.completed += replica->completed;
      stats.batches += replica->batches;
      stats.busy_s += replica->busy_s;
      stats.latency.merge(replica->lat);
    }
  }
  return stats;
}

void ModelServer::supervisor_loop() {
  const auto heartbeat = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(options_.heartbeat_s));
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(sup_mu_);
      sup_cv_.wait_for(lock, heartbeat, [this] { return sup_stop_; });
      if (sup_stop_) return;
    }
    supervisor_tick();
  }
}

void ModelServer::supervisor_tick() {
  const std::int64_t now = now_ns();
  bool wake_workers = false;

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (flush_ready_retries_locked(now) > 0) wake_workers = true;
    maybe_close_breaker_locked(now);
    if (options_.hedge_delay_s > 0.0) {
      const auto hedge_ns =
          static_cast<std::int64_t>(options_.hedge_delay_s * 1e9);
      for (auto it = inflight_watch_.begin(); it != inflight_watch_.end();) {
        if (it->req->claimed.load(std::memory_order_acquire)) {
          *it = std::move(inflight_watch_.back());
          inflight_watch_.pop_back();
          continue;
        }
        if (now - it->dispatched_ns >= hedge_ns &&
            !it->req->hedged.exchange(true, std::memory_order_acq_rel)) {
          // One hedge per request: a duplicate dispatch with the same
          // attempt index (same fault decisions — determinism), first
          // claim wins.
          queue_.push_front(Dispatch{it->req, it->attempt, true});
          hedges_.fetch_add(1, std::memory_order_relaxed);
          trace::counter_add("serve.hedges", 1);
          wake_workers = true;
        }
        ++it;
      }
    }
  }
  if (wake_workers) cv_.notify_all();

  if (hard_stop_.load(std::memory_order_acquire)) return;

  // Fleet scan: restart crashed slots, replace stalled ones. fleet_mu_
  // is taken before mu_ when both are needed (fixed order, never the
  // reverse).
  const auto stall_ns = options_.stall_timeout_s > 0.0
                            ? static_cast<std::int64_t>(
                                  options_.stall_timeout_s * 1e9)
                            : std::int64_t{0};
  std::vector<Replica*> started;
  {
    std::lock_guard<std::mutex> fleet_lock(fleet_mu_);
    for (auto& slot : replicas_) {
      Replica* replica = slot.get();
      if (replica->dead.load(std::memory_order_acquire)) {
        // The thread has crash-exited (after requeueing its batch);
        // joining it is immediate.
        if (replica->thread.joinable()) replica->thread.join();
        auto fresh = std::make_unique<Replica>(model_, replica->slot);
        retired_.push_back(std::move(slot));
        slot = std::move(fresh);
        started.push_back(slot.get());
        restarts_.fetch_add(1, std::memory_order_relaxed);
        trace::counter_add("serve.restarts", 1);
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++live_replicas_;
          all_dead_ = false;
        }
        continue;
      }
      const std::int64_t busy_since =
          replica->busy_since_ns.load(std::memory_order_acquire);
      if (stall_ns > 0 && busy_since > 0 && now - busy_since > stall_ns &&
          !replica->abandoned.load(std::memory_order_acquire)) {
        // Stalled past the watchdog: abandon the incarnation (it will
        // exit once its batch finally completes — hedges cover its
        // stranded requests meanwhile) and staff the slot afresh.
        replica->abandoned.store(true, std::memory_order_release);
        auto fresh = std::make_unique<Replica>(model_, replica->slot);
        retired_.push_back(std::move(slot));
        slot = std::move(fresh);
        started.push_back(slot.get());
        stalls_replaced_.fetch_add(1, std::memory_order_relaxed);
        trace::counter_add("serve.stalls_replaced", 1);
      }
    }
  }
  for (Replica* replica : started)
    replica->thread = std::thread([this, replica] { replica_loop(*replica); });
  if (!started.empty()) cv_.notify_all();
}

void ModelServer::crash_exit(Replica& replica, std::vector<Dispatch>& batch) {
  // Counter first (counter-before-resolve): the all-dead drain below
  // resolves client futures, and a client that just observed one may
  // immediately read stats() — it must find this crash counted.
  crashes_.fetch_add(1, std::memory_order_relaxed);
  trace::counter_add("serve.crashes", 1);
  // Requeue the in-flight batch at the head of the queue before dying:
  // no client future is ever stranded by a crash, the work just lands
  // on a surviving (or restarted) replica.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = batch.rbegin(); it != batch.rend(); ++it)
      queue_.push_front(std::move(*it));
    crash_requeues_.fetch_add(static_cast<std::int64_t>(batch.size()),
                              std::memory_order_relaxed);
    inflight_count_.fetch_sub(static_cast<std::int64_t>(batch.size()),
                              std::memory_order_acq_rel);
    --live_replicas_;
    if (live_replicas_ == 0 && !options_.supervise) {
      // Nobody will ever restart us: fail everything queued now and
      // turn submit() into an immediate error (see submit).
      all_dead_ = true;
      for (auto& dispatch : queue_) {
        if (!claim_dispatch(dispatch)) continue;
        errors_.fetch_add(1, std::memory_order_relaxed);
        resolve_failure(dispatch, RequestStatus::kError);
      }
      queue_.clear();
      for (auto& timed : retry_heap_) {
        if (!claim_dispatch(timed.dispatch)) continue;
        errors_.fetch_add(1, std::memory_order_relaxed);
        resolve_failure(timed.dispatch, RequestStatus::kError);
      }
      retry_heap_.clear();
    }
  }
  batch.clear();
  cv_.notify_all();
  // dead is the supervisor's cue to reap the slot; set it last so the
  // requeue above is visible before any restart can race it.
  replica.dead.store(true, std::memory_order_release);
}

void ModelServer::replica_loop(Replica& replica) {
  const auto delay = std::chrono::nanoseconds(
      static_cast<std::int64_t>(options_.max_batch_delay_s * 1e9));
  const bool watch_inflight =
      options_.supervise && options_.hedge_delay_s > 0.0;
  std::vector<Dispatch> batch;
  std::vector<Dispatch> expired;
  batch.reserve(static_cast<std::size_t>(options_.max_batch));
  std::int64_t batch_ordinal = 0;  // per-incarnation (determinism key)

  for (;;) {
    batch.clear();
    expired.clear();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return hard_stop_.load(std::memory_order_acquire) ||
             replica.abandoned.load(std::memory_order_acquire) ||
             replica.retiring.load(std::memory_order_acquire) ||
             !queue_.empty() ||
             (stopping_ && retry_heap_.empty() &&
              inflight_count_.load(std::memory_order_acquire) == 0);
    });
    if (hard_stop_.load(std::memory_order_acquire) ||
        replica.abandoned.load(std::memory_order_acquire))
      return;
    if (replica.retiring.load(std::memory_order_acquire)) {
      // Scale-down retire point: only ever between batches, so the
      // batch this replica just finished has fully scattered. The lease
      // is released here, not in resize_replicas, so live_replicas_
      // counts threads that can still touch work.
      --live_replicas_;
      return;
    }
    if (queue_.empty()) {
      if (stopping_ && retry_heap_.empty() &&
          inflight_count_.load(std::memory_order_acquire) == 0)
        return;  // fully drained
      continue;
    }

    // Greedy grab, then linger: take everything available up to
    // max_batch; if short and a delay is configured, wait for more
    // until the *oldest* request in the batch hits its deadline. The
    // deadline is anchored at that request's enqueue time, not at the
    // grab, so no request's queueing is extended past max_batch_delay_s
    // by the batcher itself. Claimed dispatches (hedge already won) are
    // dropped; expired ones are shed here — before forward, never
    // batched.
    const auto take_available = [&] {
      while (!queue_.empty() &&
             static_cast<std::int64_t>(batch.size()) < options_.max_batch) {
        Dispatch dispatch = std::move(queue_.front());
        queue_.pop_front();
        if (dispatch.req->claimed.load(std::memory_order_acquire)) continue;
        if (dispatch.req->deadline_ns > 0 &&
            now_ns() > dispatch.req->deadline_ns) {
          expired.push_back(std::move(dispatch));
          continue;
        }
        inflight_count_.fetch_add(1, std::memory_order_acq_rel);
        if (watch_inflight)
          inflight_watch_.push_back(
              {dispatch.req, now_ns(), dispatch.attempt});
        batch.push_back(std::move(dispatch));
      }
    };
    take_available();
    if (!batch.empty() &&
        static_cast<std::int64_t>(batch.size()) < options_.max_batch &&
        delay.count() > 0) {
      const std::int64_t deadline_ns =
          batch.front().req->enqueue_ns + delay.count();
      while (static_cast<std::int64_t>(batch.size()) < options_.max_batch &&
             !stopping_ && !hard_stop_.load(std::memory_order_acquire) &&
             !replica.abandoned.load(std::memory_order_acquire) &&
             !replica.retiring.load(std::memory_order_acquire)) {
        const std::int64_t remaining_ns = deadline_ns - now_ns();
        if (remaining_ns <= 0) break;
        cv_.wait_for(lock, std::chrono::nanoseconds(remaining_ns));
        take_available();
      }
      take_available();
    }
    const bool more_work = !queue_.empty();
    lock.unlock();
    // Another replica may be able to start on what we left behind.
    if (more_work) cv_.notify_one();

    for (auto& dispatch : expired) {
      if (!claim_dispatch(dispatch)) continue;
      expired_.fetch_add(1, std::memory_order_relaxed);
      trace::counter_add("serve.expired", 1);
      record_outcome(false);
      resolve_failure(dispatch, RequestStatus::kExpired);
    }
    if (batch.empty()) continue;

    ++batch_ordinal;
    if (fault::serve_should_crash(replica.slot, batch_ordinal)) {
      crash_exit(replica, batch);
      return;
    }
    replica.busy_since_ns.store(now_ns(), std::memory_order_release);
    process_batch(replica, batch, batch_ordinal);
    replica.busy_since_ns.store(0, std::memory_order_release);
  }
}

void ModelServer::process_batch(Replica& replica, std::vector<Dispatch>& batch,
                                std::int64_t batch_ordinal) {
  const std::int64_t batch_size = static_cast<std::int64_t>(batch.size());
  const std::int64_t start_ns = now_ns();

  // Queue wait ends now, as assembly begins. Emitted with explicit
  // endpoints because the span started on the client thread.
  StageLatencies lat;
  for (const Dispatch& dispatch : batch) {
    lat.queue_wait.record_ns(start_ns - dispatch.req->enqueue_ns);
    trace::record_span("serve.enqueue_wait", "serve",
                       dispatch.req->enqueue_ns, start_ns);
  }

  // Assemble: gather request samples into one [B, ...sample] tensor.
  tensor::Tensor batched;
  {
    trace::Span span("serve.assemble", "serve");
    const tensor::Shape& sample = options_.sample_shape;
    tensor::Shape batched_shape;
    switch (sample.rank()) {
      case 1:
        batched_shape = {batch_size, sample[0]};
        break;
      case 2:
        batched_shape = {batch_size, sample[0], sample[1]};
        break;
      default:
        batched_shape = {batch_size, sample[0], sample[1], sample[2]};
        break;
    }
    // uninit: every element is memcpy'd below (ownership rule).
    batched = tensor::Tensor::uninit(batched_shape);
    const std::int64_t stride = sample.numel();
    float* dst = batched.raw();
    for (std::int64_t i = 0; i < batch_size; ++i)
      std::memcpy(dst + i * stride,
                  batch[static_cast<std::size_t>(i)].req->input.raw(),
                  static_cast<std::size_t>(stride) * sizeof(float));
  }
  const std::int64_t assembled_ns = now_ns();

  // Injected slowdown lands inside the "busy" window so the stall
  // watchdog observes it exactly like a genuinely slow forward.
  fault::serve_maybe_stall(replica.slot, batch_ordinal, &hard_stop_);

  // Forward: one batched pass over the shared frozen weights.
  tensor::Tensor logits;
  tensor::Tensor probs;
  {
    trace::Span span("serve.forward", "serve");
    logits = replica.model.forward(batched, options_.device);
    if (options_.compute_probabilities)
      probs = tensor::softmax_rows(logits, options_.device);
  }
  const std::int64_t forwarded_ns = now_ns();

  // Scatter: per dispatch, route the result through the fault filters
  // (transient error → retry/fail, corruption) and the first-wins
  // claim (hedged duplicates resolve exactly once). Results are built
  // and every counter committed here; promises resolve only after the
  // whole batch's accounting lands below, so a client that just
  // observed its future may immediately read stats() and find its own
  // request — and its batchmates — counted.
  std::int64_t delivered = 0;
  std::vector<std::optional<Prediction>> resolutions(
      static_cast<std::size_t>(batch_size));
  {
    trace::Span span("serve.scatter", "serve");
    const std::int64_t classes = logits.shape().dim(-1);
    const float* logit_rows = logits.raw();
    for (std::int64_t i = 0; i < batch_size; ++i) {
      Dispatch& dispatch = batch[static_cast<std::size_t>(i)];
      Request& req = *dispatch.req;
      if (fault::serve_forward_error(req.id, dispatch.attempt)) {
        bool retry_scheduled = false;
        if (options_.supervise && dispatch.attempt < options_.max_retries &&
            !hard_stop_.load(std::memory_order_acquire)) {
          const std::int64_t backoff_ns = static_cast<std::int64_t>(
              options_.retry_backoff_s * 1e9 *
              static_cast<double>(std::int64_t{1} << dispatch.attempt));
          std::lock_guard<std::mutex> lock(mu_);
          retry_heap_.push_back(
              {now_ns() + backoff_ns,
               Dispatch{dispatch.req, dispatch.attempt + 1, false}});
          std::push_heap(retry_heap_.begin(), retry_heap_.end(), heap_later);
          retries_.fetch_add(1, std::memory_order_relaxed);
          trace::counter_add("serve.retries", 1);
          retry_scheduled = true;
        }
        if (!retry_scheduled && claim_dispatch(dispatch)) {
          errors_.fetch_add(1, std::memory_order_relaxed);
          trace::counter_add("serve.errors", 1);
          record_outcome(false);
          Prediction failure = make_failure(RequestStatus::kError);
          failure.attempts = dispatch.attempt + 1;
          failure.hedged = req.hedged.load(std::memory_order_relaxed);
          resolutions[static_cast<std::size_t>(i)] = std::move(failure);
        }
        continue;
      }
      if (req.claimed.exchange(true)) continue;  // hedge twin won
      Prediction result;
      result.status = RequestStatus::kOk;
      const float* row = logit_rows + i * classes;
      result.label = static_cast<std::int64_t>(
          std::max_element(row, row + classes) - row);
      if (options_.compute_probabilities) {
        const float* prow = probs.raw() + i * classes;
        result.probabilities.assign(prow, prow + classes);
      }
      if (fault::serve_corrupt_response(req.id)) {
        // Detectable payload damage: probabilities no longer sum to 1
        // (or the label is shifted when no probabilities ride along).
        if (!result.probabilities.empty()) {
          for (float& p : result.probabilities) p *= 2.0f;
        } else {
          result.label = (result.label + 1) % classes;
        }
        corrupted_.fetch_add(1, std::memory_order_relaxed);
        trace::counter_add("serve.corrupted", 1);
      }
      result.batch_size = batch_size;
      result.attempts = dispatch.attempt + 1;
      result.hedged = req.hedged.load(std::memory_order_relaxed);
      result.queue_wait_s =
          static_cast<double>(start_ns - req.enqueue_ns) * 1e-9;
      const std::int64_t total_ns = now_ns() - req.enqueue_ns;
      result.total_s = static_cast<double>(total_ns) * 1e-9;
      lat.total.record_ns(total_ns);
      if (dispatch.is_hedge)
        hedge_wins_.fetch_add(1, std::memory_order_relaxed);
      ++delivered;
      record_outcome(true);
      resolutions[static_cast<std::size_t>(i)] = std::move(result);
    }
  }
  const std::int64_t end_ns = now_ns();

  lat.assemble.record_ns(assembled_ns - start_ns);
  lat.forward.record_ns(forwarded_ns - assembled_ns);
  lat.scatter.record_ns(end_ns - forwarded_ns);
  trace::counter_add("serve.batches", 1);

  // Accounting commits before any promise resolves and before the
  // in-flight count drops, so both a just-resumed client and a drain
  // waiter observing zero in-flight see the final counters.
  {
    std::lock_guard<std::mutex> lock(replica.mu);
    replica.lat.merge(lat);
    replica.completed += delivered;
    replica.batches += 1;
    replica.busy_s += static_cast<double>(end_ns - start_ns) * 1e-9;
  }
  for (std::int64_t i = 0; i < batch_size; ++i) {
    auto& resolution = resolutions[static_cast<std::size_t>(i)];
    if (resolution.has_value())
      batch[static_cast<std::size_t>(i)].req->promise.set_value(
          std::move(*resolution));
  }
  inflight_count_.fetch_sub(batch_size, std::memory_order_acq_rel);
  cv_.notify_all();
}

}  // namespace dlbench::serve
