// Copyright (c) GRNN authors.
// Scheduler: the serving layer's admission front end (DESIGN.md,
// "Serving layer").
//
// Requests arrive one QuerySpec at a time (Submit) and complete
// asynchronously; a worker answers each admitted request with its own
// engine Run call, so a failing request fails alone. Three policies
// shape the pipeline:
//
//   * ADMISSION — the queue is bounded (SchedulerOptions::
//     queue_capacity). A request arriving at a full queue is SHED
//     immediately with kResourceExhausted instead of queuing behind
//     work the server cannot keep up with: under overload the latency
//     of admitted requests stays bounded and the failure mode is an
//     explicit signal the client can back off on, not collapse.
//   * DEQUEUE — a worker takes whatever is queued (up to max_batch) in
//     one dequeue and never waits for more, then runs those requests
//     in order, one Run each.
//   * DEADLINES — a request carrying a deadline that expires before
//     execution starts completes with kResourceExhausted instead of
//     burning engine time on an answer the client stopped waiting for.
//     The worker checks it just before that request's own Run.
//
// Workers are long-running drain loops, one std::thread each, started by
// the constructor and joined by Shutdown. Per-request latency (submit to
// completion) is recorded in a log-linear histogram exposed through
// stats().
//
// Thread-safety: Submit may be called from any number of threads
// concurrently with the workers; Ticket::Wait from any thread.
// Shutdown (or destruction) stops admission, drains the queue and
// joins the workers.

#ifndef GRNN_SERVE_SCHEDULER_H_
#define GRNN_SERVE_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "core/types.h"
#include "obs/histogram.h"
#include "obs/metrics.h"

namespace grnn::serve {

struct SchedulerOptions {
  /// Worker threads, each a drain loop running requests through Run.
  int num_workers = 1;
  /// Admission bound: requests beyond this many waiting are shed.
  size_t queue_capacity = 1024;
  /// Most requests a worker takes from the queue in one dequeue.
  size_t max_batch = 32;
  /// TEST SEAM: called by the draining worker after each dequeue,
  /// before running its requests (argument: how many it took). Lets
  /// tests hold workers mid-pipeline to fill the queue
  /// deterministically. Leave unset.
  std::function<void(size_t)> batch_hook;
  /// Optional metrics registry (src/obs/). When set, the scheduler
  /// registers a collector exporting its counters and latency
  /// percentiles under "scheduler.*"; unregistered at Shutdown. Must
  /// outlive the scheduler.
  obs::MetricsRegistry* metrics = nullptr;
};

/// How a request left the scheduler.
enum class Disposition {
  kRun,      // executed by the engine (result may still be an error)
  kShed,     // refused at admission: queue full or scheduler stopped
  kExpired,  // deadline passed before execution started
};

class Scheduler {
 public:
  /// One completed request: the engine's answer (or the shed/expired
  /// status) plus where it ended and what it cost end to end.
  struct Response {
    Result<core::RknnResult> result =
        Status::Internal("request not completed");
    Disposition disposition = Disposition::kRun;
    /// Submit-to-completion wall time (0 for shed requests).
    uint64_t latency_micros = 0;
  };

  /// Handle to one submitted request. Wait() blocks until completion
  /// and may be called from any thread (repeat calls return the same
  /// response).
  class Ticket {
   public:
    Ticket() = default;
    const Response& Wait() const;
    bool valid() const { return req_ != nullptr; }

   private:
    friend class Scheduler;
    struct Request;
    explicit Ticket(std::shared_ptr<Request> req) : req_(std::move(req)) {}
    std::shared_ptr<Request> req_;
  };

  /// Cumulative counters; latency covers every request a worker
  /// completed (run or expired), not shed ones.
  struct Stats {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t expired = 0;
    uint64_t completed = 0;
    /// Worker dequeues, including those whose requests all expired.
    uint64_t batches = 0;
    obs::Histogram latency;
  };

  /// Starts the worker loops immediately. The engine must outlive the
  /// scheduler.
  Scheduler(core::RknnEngine* engine, SchedulerOptions options);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Submits one request without a deadline; never blocks. At a full
  /// queue (or after Shutdown) the ticket completes immediately as
  /// kShed with kResourceExhausted.
  Ticket Submit(core::QuerySpec spec);
  /// As above with a deadline `deadline_micros` after submission: a
  /// request still queued when it passes completes as kExpired with
  /// kResourceExhausted, unrun. 0, or a deadline beyond the clock's
  /// range, means none.
  Ticket Submit(core::QuerySpec spec, uint64_t deadline_micros);

  /// Stops admission, drains everything already queued and joins the
  /// workers. Idempotent; the destructor calls it.
  void Shutdown();

  Stats stats() const;

 private:
  void WorkerLoop();
  void Complete(const std::shared_ptr<Ticket::Request>& req,
                Result<core::RknnResult> result, Disposition disposition);

  core::RknnEngine* engine_;
  SchedulerOptions opts_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Ticket::Request>> queue_;
  bool stopping_ = false;

  mutable std::mutex stats_mu_;
  Stats stats_;

  /// Collector registered on opts_.metrics (0 = none).
  uint64_t collector_token_ = 0;
  /// The drain loops; declared last so everything they read outlives
  /// them.
  std::vector<std::thread> workers_;
};

}  // namespace grnn::serve

#endif  // GRNN_SERVE_SCHEDULER_H_
