#pragma once

// In-process inference serving: dynamic batching, replicas,
// backpressure — and, since PR 6, supervised fault tolerance.
//
// The paper's "testing time" metric family measures offline batch
// inference only; its follow-up (the DLaaS measurement study, Wu et
// al.) shows that the serving-side concerns — request batching,
// concurrency, tail latency — dominate deployment cost. ModelServer is
// that missing layer: clients submit single-sample requests and get
// futures; N replica worker threads pull from one bounded queue through
// a dynamic batcher (flush on max-batch-size or max-queue-delay,
// whichever comes first), run one batched forward over an immutable
// FrozenModel, and scatter per-request results back through the
// futures.
//
// Overload policy is shed-at-admission: once queue depth reaches
// `reject_watermark` a request is completed immediately with
// RequestStatus::kRejected instead of being enqueued, so queue memory
// is bounded by the watermark no matter the offered load — the
// backpressure signal is an explicit status, never unbounded growth.
//
// Robustness layer (see DESIGN.md §13): replicas are slots in a
// supervised fleet. A supervisor thread heartbeats the fleet,
// restarting replicas that crash (their in-flight batch is requeued by
// the dying thread, so no future is ever stranded) and
// abandoning-and-replacing replicas stalled past `stall_timeout_s`.
// Requests carry optional deadlines propagated through the batcher:
// an expired request is shed before forward and never batched. A
// transient forward error triggers per-request retry with exponential
// backoff (up to `max_retries`); `hedge_delay_s` arms hedged
// re-dispatch for stragglers, first result wins via an atomic
// claim. A circuit breaker sheds bronze-class load once the failure
// rate over a sliding window crosses `breaker_threshold`, re-closing
// after `breaker_probe_s`. All fault decisions come from
// runtime/fault's seeded serve plan, so injected-event counts are
// reproducible run-to-run (the determinism contract).
//
// Every stage is measured twice: into reusable LatencyHistograms
// (per-replica, merged on stats()) and as runtime/trace spans
// ("serve.enqueue_wait" / "serve.assemble" / "serve.forward" /
// "serve.scatter"), so chrome://tracing shows the batching pipeline
// whenever a TraceScope is active. Supervision events additionally
// feed trace counters ("serve.crashes", "serve.restarts", ...).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nn/frozen.hpp"
#include "runtime/device.hpp"
#include "runtime/histogram.hpp"
#include "tensor/tensor.hpp"

namespace dlbench::serve {

/// Terminal status of one request.
enum class RequestStatus {
  kOk,        // served
  kRejected,  // shed at admission: queue depth >= reject_watermark
  kShutdown,  // submitted after shutdown began, or abandoned by it
  kExpired,   // deadline passed before forward; shed, never batched
  kError,     // forward failed and retries were exhausted (or off)
  kShed,      // shed by class: breaker open (bronze) or SLO admission
};
const char* to_string(RequestStatus status);

/// Service-level class of one request, ordered: higher classes shed
/// later. Shared by the circuit breaker (bronze load is shed while the
/// breaker is open — the PR 6 "priority 0" contract) and the fleet
/// layer's SLO admission control (serve/fleet, which sheds bronze
/// first, then silver, and gold only at the global queue budget).
enum class SloClass : int {
  kBronze = 0,  // best-effort: first shed under any pressure
  kSilver = 1,  // standard: the old "normal priority"
  kGold = 2,    // premium: shed last, never by the breaker
};
const char* to_string(SloClass slo);

/// Per-request submission policy (all optional).
struct SubmitOptions {
  /// Client deadline in seconds from submission; 0 uses the server's
  /// default_deadline_s (which may itself be 0 = no deadline).
  double deadline_s = 0.0;
  /// SLO class; bronze is sheddable when the circuit breaker is open.
  SloClass slo = SloClass::kSilver;
};

/// What a client's future resolves to.
struct Prediction {
  RequestStatus status = RequestStatus::kOk;
  /// Argmax class (kOk only).
  std::int64_t label = -1;
  /// Softmax row (kOk and ServerOptions::compute_probabilities only).
  std::vector<float> probabilities;
  /// Size of the batch this request rode in.
  std::int64_t batch_size = 0;
  /// Seconds spent waiting in the queue before batch assembly began.
  double queue_wait_s = 0.0;
  /// End-to-end seconds, submit to scatter.
  double total_s = 0.0;
  /// Dispatch attempts consumed (1 = first try; >1 means retries).
  std::int64_t attempts = 1;
  /// True when a hedged duplicate dispatch was launched for this
  /// request (whether or not the hedge delivered first).
  bool hedged = false;
};

/// Serving policy for one ModelServer.
struct ServerOptions {
  /// Shape of one request sample (the model input without the batch
  /// dimension), e.g. [1, 28, 28]. Required.
  tensor::Shape sample_shape;
  /// Replica worker threads.
  int replicas = 2;
  /// Batcher flush threshold: a batch never exceeds this many requests.
  std::int64_t max_batch = 8;
  /// Batcher flush deadline: a batch is dispatched once its oldest
  /// request has waited this long, full or not. 0 = dispatch whatever
  /// is immediately available (no lingering).
  double max_batch_delay_s = 0.002;
  /// Admission control: submissions are rejected while queue depth is
  /// at or above this. 0 picks 3/4 of queue_capacity.
  std::size_t reject_watermark = 0;
  /// Hard queue bound (sanity ceiling above the watermark).
  std::size_t queue_capacity = 1024;
  /// Device each replica runs its batched forward on. The serial CPU
  /// device gives replica-level parallelism (one core per replica);
  /// the parallel device spreads each batch across the pool, which is
  /// how batch size buys throughput GPU-style.
  runtime::Device device = runtime::Device::cpu();
  /// Attach a softmax row to every Prediction. Costs one row copy per
  /// request; throughput sweeps turn it off.
  bool compute_probabilities = true;

  // -- robustness / supervision (DESIGN.md §13) --

  /// Run the supervisor thread: crashed replicas restart, stalled
  /// replicas are replaced, retries and hedges are dispatched. Off, the
  /// fleet degrades exactly as faults land (the gauntlet baseline).
  bool supervise = true;
  /// Supervisor heartbeat period.
  double heartbeat_s = 0.002;
  /// A replica busy on one batch longer than this is abandoned and its
  /// slot restarted. 0 disables the stall watchdog.
  double stall_timeout_s = 0.0;
  /// Default per-request deadline when SubmitOptions::deadline_s is 0.
  /// 0 = requests never expire.
  double default_deadline_s = 0.0;
  /// Re-dispatch attempts after a transient forward error (supervised
  /// only; 0 = fail immediately with kError).
  int max_retries = 0;
  /// Base retry backoff; attempt k waits retry_backoff_s * 2^k.
  double retry_backoff_s = 0.0005;
  /// Hedge a request still unresolved this long after dispatch
  /// (supervised only; one hedge per request; 0 = off).
  double hedge_delay_s = 0.0;
  /// Circuit breaker: open once the failure fraction over the last
  /// breaker_window outcomes reaches this. 0 = breaker off.
  double breaker_threshold = 0.0;
  /// Sliding outcome-window length for the breaker.
  int breaker_window = 64;
  /// How long the breaker stays open before closing again (the probe
  /// window: the next breaker_window outcomes re-decide).
  double breaker_probe_s = 0.05;
  /// Upper bound on how long shutdown(drain=true) waits for in-flight
  /// work before force-failing it with kShutdown — stop() can never
  /// hang on a permanently stalled replica.
  double shutdown_deadline_s = 5.0;
};

/// Per-stage latency distributions (merged across replicas).
struct StageLatencies {
  runtime::LatencyHistogram queue_wait;  // submit → dequeued, per request
  runtime::LatencyHistogram assemble;    // gather into batch tensor, per batch
  runtime::LatencyHistogram forward;     // batched forward, per batch
  runtime::LatencyHistogram scatter;     // results → futures, per batch
  runtime::LatencyHistogram total;       // submit → future set, per request

  void merge(const StageLatencies& other);
};

/// Snapshot of server counters + latency distributions.
struct ServerStats {
  std::int64_t submitted = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;          // shed by admission control
  std::int64_t rejected_shutdown = 0; // submitted after shutdown
  std::int64_t completed = 0;         // served OK
  std::int64_t batches = 0;
  std::int64_t max_queue_depth = 0;
  /// Sum of replica wall-clock spent processing batches.
  double busy_s = 0.0;
  StageLatencies latency;

  // -- robustness counters (all deterministic per fault seed where the
  //    determinism contract applies; see DESIGN.md §13) --
  std::int64_t expired = 0;          // deadline-shed before forward
  std::int64_t errors = 0;           // failed after retry exhaustion
  std::int64_t shed_breaker = 0;     // bronze-class shed while open
  std::int64_t retries = 0;          // re-dispatches scheduled
  std::int64_t hedges = 0;           // hedged duplicate dispatches
  std::int64_t hedge_wins = 0;       // hedge delivered before primary
  std::int64_t corrupted = 0;        // corrupted responses delivered
  std::int64_t crashes = 0;          // replica crash-exits
  std::int64_t restarts = 0;         // supervisor slot restarts
  std::int64_t stalls_replaced = 0;  // stalled replicas abandoned
  std::int64_t crash_requeues = 0;   // requests requeued by dying replicas
  std::int64_t breaker_opens = 0;
  std::int64_t breaker_closes = 0;
  bool breaker_open = false;
  /// Replicas currently alive (not crashed, not abandoned).
  std::int64_t live_replicas = 0;
  /// Always 0: kept only because perfbench/ still reads it.
  std::int64_t plan_arena_bytes = 0;

  /// Mean requests per dispatched batch.
  double mean_batch_size() const {
    return batches > 0
               ? static_cast<double>(completed) / static_cast<double>(batches)
               : 0.0;
  }
};

/// A serving endpoint over one frozen model. Thread-safe: submit() from
/// any number of client threads. Destruction drains accepted requests
/// (bounded by shutdown_deadline_s), then joins the fleet.
class ModelServer {
 public:
  ModelServer(nn::FrozenModel model, ServerOptions options);
  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;
  ~ModelServer();

  /// Submits one sample (shape must equal options().sample_shape).
  /// Never blocks: over the watermark the future resolves immediately
  /// with kRejected. The tensor is aliased, not copied — callers must
  /// not mutate it until the future resolves.
  std::future<Prediction> submit(tensor::Tensor input,
                                 SubmitOptions submit_options = {});

  /// Synchronous convenience: submit + wait.
  Prediction predict(tensor::Tensor input, SubmitOptions submit_options = {});

  /// Stops admission; accepted requests are still served (`drain`), or
  /// failed with kShutdown (!`drain`). Draining blocks until in-flight
  /// work finishes or shutdown_deadline_s elapses, whichever is first —
  /// on timeout the remainder is force-failed with kShutdown, so this
  /// returns in bounded time even with a replica stalled forever.
  /// Idempotent; the destructor calls shutdown(true).
  void shutdown(bool drain = true);

  /// Replica lease/release hook for the fleet layer (serve/fleet).
  /// Grows the fleet by staffing fresh slots, or shrinks it by retiring
  /// the highest slots *after drain*: a retiring replica finishes the
  /// batch it is processing (and scatters every result) before exiting,
  /// so scale-down never strands or drops in-flight work. Target must
  /// be >= 1. Thread-safe; concurrent with submit()/stats().
  void resize_replicas(int target);

  /// Currently staffed (non-retiring) replica slots.
  int replica_target() const;

  /// Counters + merged per-stage latency histograms (includes retired
  /// replica incarnations).
  ServerStats stats() const;

  std::size_t queue_depth() const;
  const ServerOptions& options() const { return options_; }

 private:
  /// One client request; shared between the queue, in-flight batches,
  /// hedge duplicates and the retry heap. `claimed` is the first-wins
  /// gate: whoever exchanges it to true owns the promise.
  struct Request {
    std::int64_t id = 0;
    tensor::Tensor input;
    std::promise<Prediction> promise;
    std::int64_t enqueue_ns = 0;
    std::int64_t deadline_ns = 0;  // 0 = none
    SloClass slo = SloClass::kSilver;
    std::atomic<bool> claimed{false};
    /// Set by the hedger; read by replicas during scatter.
    std::atomic<bool> hedged{false};
  };
  using RequestPtr = std::shared_ptr<Request>;

  /// One dispatch of a request to the fleet (retries and hedges are
  /// fresh dispatches of the same Request).
  struct Dispatch {
    RequestPtr req;
    std::int64_t attempt = 0;
    bool is_hedge = false;
  };

  /// A retry waiting out its backoff (min-heap on ready_ns).
  struct TimedDispatch {
    std::int64_t ready_ns = 0;
    Dispatch dispatch;
  };

  /// An in-flight dispatch the hedger watches.
  struct InFlight {
    RequestPtr req;
    std::int64_t dispatched_ns = 0;
    std::int64_t attempt = 0;
  };

  /// Per-replica state; replicas are slots in the fleet and may be
  /// retired (crash, stall) and replaced by the supervisor. Latency
  /// histograms are owned by the replica and only touched under `mu`,
  /// which stats() also takes — the histogram itself needs no internal
  /// synchronization (see runtime/histogram).
  struct Replica {
    const nn::FrozenModel model;  // handle copy; storage shared, immutable
    int slot = 0;
    std::thread thread;
    mutable std::mutex mu;
    StageLatencies lat;
    std::int64_t batches = 0;
    std::int64_t completed = 0;
    double busy_s = 0.0;
    /// Set by the replica thread as it crash-exits.
    std::atomic<bool> dead{false};
    /// Set by the supervisor when the stall watchdog gives up on it.
    std::atomic<bool> abandoned{false};
    /// Set by resize_replicas on scale-down: finish the current batch,
    /// then exit without taking another (retire-after-drain).
    std::atomic<bool> retiring{false};
    /// now_ns() when the current batch began; 0 = idle. The stall
    /// watchdog reads this.
    std::atomic<std::int64_t> busy_since_ns{0};

    Replica(nn::FrozenModel m, int s) : model(std::move(m)), slot(s) {}
  };

  void replica_loop(Replica& replica);
  void process_batch(Replica& replica, std::vector<Dispatch>& batch,
                     std::int64_t batch_ordinal);
  void crash_exit(Replica& replica, std::vector<Dispatch>& batch);
  void supervisor_loop();
  void supervisor_tick();
  /// Wins the first-claim on `dispatch`'s request; false when a twin
  /// dispatch already resolved it. Callers bump their counters between
  /// this and resolve_*, so a client that has seen its future resolve
  /// also sees the counters — resolving first would let stats() race
  /// one increment behind.
  static bool claim_dispatch(Dispatch& dispatch);
  /// Resolves a claimed dispatch with a failure `status`.
  static void resolve_failure(Dispatch& dispatch, RequestStatus status);
  /// claim + resolve for paths with no counters of their own.
  void fail_dispatch(Dispatch& dispatch, RequestStatus status);
  /// Feeds the breaker's sliding window; may open the breaker.
  void record_outcome(bool success);
  void record_outcome_locked(bool success);
  void maybe_close_breaker_locked(std::int64_t now);
  std::int64_t flush_ready_retries_locked(std::int64_t now);

  ServerOptions options_;
  nn::FrozenModel model_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Dispatch> queue_;
  std::vector<TimedDispatch> retry_heap_;  // min-heap by ready_ns
  std::vector<InFlight> inflight_watch_;   // hedger's watch list
  bool stopping_ = false;
  bool drain_ = true;
  std::atomic<bool> hard_stop_{false};
  std::int64_t next_id_ = 0;
  std::int64_t submitted_ = 0;
  std::int64_t accepted_ = 0;
  std::int64_t rejected_ = 0;
  std::int64_t rejected_shutdown_ = 0;
  std::int64_t max_queue_depth_ = 0;
  std::int64_t live_replicas_ = 0;
  bool all_dead_ = false;  // every replica gone and nobody restarts them

  // Breaker state (guarded by mu_).
  std::deque<bool> outcome_window_;  // true = failure
  std::int64_t window_failures_ = 0;
  bool breaker_open_ = false;
  std::int64_t breaker_open_until_ns_ = 0;

  // Event counters: bumped from replica/supervisor threads without mu_.
  std::atomic<std::int64_t> expired_{0};
  std::atomic<std::int64_t> errors_{0};
  std::atomic<std::int64_t> shed_breaker_{0};
  std::atomic<std::int64_t> retries_{0};
  std::atomic<std::int64_t> hedges_{0};
  std::atomic<std::int64_t> hedge_wins_{0};
  std::atomic<std::int64_t> corrupted_{0};
  std::atomic<std::int64_t> crashes_{0};
  std::atomic<std::int64_t> restarts_{0};
  std::atomic<std::int64_t> stalls_replaced_{0};
  std::atomic<std::int64_t> crash_requeues_{0};
  std::atomic<std::int64_t> breaker_opens_{0};
  std::atomic<std::int64_t> breaker_closes_{0};
  std::atomic<std::int64_t> inflight_count_{0};

  /// Fleet topology: slot vector + retired incarnations. Guarded by
  /// fleet_mu_, never held together with mu_ (fleet_mu_ first when
  /// both are needed).
  mutable std::mutex fleet_mu_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<Replica>> retired_;
  /// Next slot id for replicas added by resize_replicas; slot ids are
  /// never reused so fault-plan slot keys stay unambiguous.
  int next_slot_id_ = 0;

  std::thread supervisor_;
  std::mutex sup_mu_;
  std::condition_variable sup_cv_;
  bool sup_stop_ = false;
};

}  // namespace dlbench::serve
