#include "serve/scheduler.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace grnn::serve {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t MicrosBetween(Clock::time_point from, Clock::time_point to) {
  const auto d =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from);
  return d.count() < 0 ? 0 : static_cast<uint64_t>(d.count());
}

}  // namespace

// --- Scheduler ---

struct Scheduler::Ticket::Request {
  core::QuerySpec spec;
  Clock::time_point submit;
  /// time_point::max() when the request carries no deadline.
  Clock::time_point deadline;

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  bool done = false;
  Response response;
};

const Scheduler::Response& Scheduler::Ticket::Wait() const {
  static const Response kInvalid;
  if (req_ == nullptr) {
    return kInvalid;
  }
  std::unique_lock<std::mutex> lock(req_->mu);
  req_->cv.wait(lock, [&] { return req_->done; });
  return req_->response;
}

Scheduler::Scheduler(core::RknnEngine* engine, SchedulerOptions options)
    : engine_(engine), opts_(std::move(options)) {
  opts_.num_workers = std::max(opts_.num_workers, 1);
  opts_.queue_capacity = std::max<size_t>(opts_.queue_capacity, 1);
  opts_.max_batch = std::max<size_t>(opts_.max_batch, 1);
  workers_.reserve(static_cast<size_t>(opts_.num_workers));
  try {
    for (int i = 0; i < opts_.num_workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  } catch (...) {
    // A failed spawn must not leave the started workers unjoined.
    Shutdown();
    throw;
  }
  if (opts_.metrics != nullptr) {
    // Poll-at-snapshot bridge (obs/metrics.h): one registry Snapshot()
    // sees the scheduler next to the engine/pool/WAL counters.
    // Unregistered in Shutdown, which every destruction path runs
    // before `this` dies.
    collector_token_ = opts_.metrics->RegisterCollector(
        [this](obs::MetricsSnapshot& snap) {
          Stats s = stats();
          snap.SetCounter("scheduler.submitted", s.submitted);
          snap.SetCounter("scheduler.admitted", s.admitted);
          snap.SetCounter("scheduler.shed", s.shed);
          snap.SetCounter("scheduler.expired", s.expired);
          snap.SetCounter("scheduler.completed", s.completed);
          snap.SetCounter("scheduler.batches", s.batches);
          snap.SetCounter("scheduler.batch_fallbacks", s.batch_fallbacks);
          snap.SetHistogram("scheduler.latency_micros", s.latency);
        });
  }
}

Scheduler::~Scheduler() { Shutdown(); }

void Scheduler::Shutdown() {
  if (collector_token_ != 0) {
    opts_.metrics->UnregisterCollector(collector_token_);
    collector_token_ = 0;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
}

Scheduler::Ticket Scheduler::Submit(core::QuerySpec spec) {
  return Submit(std::move(spec), /*deadline_micros=*/0);
}

Scheduler::Ticket Scheduler::Submit(core::QuerySpec spec,
                                    uint64_t deadline_micros) {
  auto req = std::make_shared<Ticket::Request>();
  req->spec = std::move(spec);
  req->submit = Clock::now();
  // A deadline the clock cannot represent is no deadline: saturate
  // instead of overflowing the conversion.
  const bool no_deadline =
      deadline_micros == 0 ||
      deadline_micros > MicrosBetween(req->submit, Clock::time_point::max());
  req->deadline = no_deadline ? Clock::time_point::max()
                              : req->submit +
                                    std::chrono::microseconds(deadline_micros);
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    stats_.submitted++;
    if (stopping_ || queue_.size() >= opts_.queue_capacity) {
      stats_.shed++;
      shed = true;
    } else {
      stats_.admitted++;
      queue_.push_back(req);
    }
  }
  if (shed) {
    // Completed inline: overload answers immediately with backpressure
    // instead of queuing work the server cannot absorb.
    std::lock_guard<std::mutex> lock(req->mu);
    req->response.result = Status::ResourceExhausted(
        "scheduler queue full: request shed");
    req->response.disposition = Disposition::kShed;
    req->done = true;
    req->cv.notify_all();
  } else {
    queue_cv_.notify_one();
  }
  return Ticket(std::move(req));
}

void Scheduler::Complete(const std::shared_ptr<Ticket::Request>& req,
                         Result<core::RknnResult> result,
                         Disposition disposition) {
  const uint64_t latency = MicrosBetween(req->submit, Clock::now());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (disposition == Disposition::kExpired) {
      stats_.expired++;
    } else {
      stats_.completed++;
    }
    stats_.latency.Record(latency);
  }
  std::lock_guard<std::mutex> lock(req->mu);
  req->response.result = std::move(result);
  req->response.disposition = disposition;
  req->response.latency_micros = latency;
  req->done = true;
  req->cv.notify_all();
}

void Scheduler::WorkerLoop() {
  std::vector<std::shared_ptr<Ticket::Request>> batch;
  std::vector<core::QuerySpec> specs;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping, and the queue is drained
      }
      while (!queue_.empty() && batch.size() < opts_.max_batch) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    if (opts_.batch_hook) {
      opts_.batch_hook(batch.size());
    }
    // Expire what the client already gave up on rather than burn
    // engine time: admission keeps the queue bounded, expiry keeps the
    // backlog honest.
    const auto now = Clock::now();
    size_t live = 0;
    for (auto& req : batch) {
      if (now > req->deadline) {
        Complete(req,
                 Status::ResourceExhausted(
                     "deadline expired before execution"),
                 Disposition::kExpired);
      } else {
        batch[live++] = std::move(req);
      }
    }
    batch.resize(live);
    if (batch.empty()) {
      continue;
    }
    specs.clear();
    specs.reserve(batch.size());
    for (const auto& req : batch) {
      specs.push_back(req->spec);
    }
    Result<core::RknnEngine::BatchResult> run = engine_->RunBatch(specs);
    if (run.ok()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.batches++;
      }
      for (size_t i = 0; i < batch.size(); ++i) {
        Complete(batch[i], std::move(run->results[i]),
                 Disposition::kRun);
      }
    } else {
      // RunBatch aborts at the first failing spec; replay the batch
      // per-request so the error attributes to the request that caused
      // it and the innocent ones still get answers.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.batch_fallbacks++;
      }
      for (const auto& req : batch) {
        Complete(req, engine_->Run(req->spec), Disposition::kRun);
      }
    }
  }
}

Scheduler::Stats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace grnn::serve
