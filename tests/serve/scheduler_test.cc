// serve::Scheduler policy suite: admission/overload shedding, deadline
// expiry, a failing request failing alone, shutdown draining — plus the
// obs::Histogram the scheduler records its latency percentiles in.
//
// The tests pin the single worker inside SchedulerOptions::batch_hook
// (a gate it waits on after each dequeue) to build queue states
// deterministically: with the worker parked, Submits land in the queue
// and stay there, so "queue full" and "deadline passed while queued"
// are exact, not timing-dependent.

#include <gtest/gtest.h>

#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "gen/grid.h"
#include "gen/points.h"
#include "serve/scheduler.h"

namespace grnn::serve {
namespace {

using core::Algorithm;
using core::QuerySpec;

// --- obs::Histogram (the scheduler's latency histogram) ---

TEST(HistogramTest, EmptyReportsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.Percentile(100), 0u);
}

TEST(HistogramTest, SmallValuesAreExact) {
  obs::Histogram h;
  for (uint64_t v = 0; v < obs::Histogram::kSubBuckets; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), obs::Histogram::kSubBuckets);
  EXPECT_EQ(h.Percentile(0), 0u);
  EXPECT_EQ(h.Percentile(100), obs::Histogram::kSubBuckets - 1);
  // Below 2^kSubBits every value gets its own bucket: quantiles exact.
  EXPECT_EQ(h.Percentile(50), obs::Histogram::kSubBuckets / 2 - 1);
}

TEST(HistogramTest, QuantileErrorIsBounded) {
  obs::Histogram h;
  const std::vector<uint64_t> samples = {100,    777,     3052,
                                         40000,  1234567, 89,
                                         650000, 31,      4096};
  for (uint64_t s : samples) {
    h.Record(s);
  }
  std::vector<uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    // Mid-rank p targets sample i exactly; an end-of-rank p would sit on
    // the ceil() boundary and flip to the next sample on FP error.
    const double p = 100.0 * (static_cast<double>(i) + 0.5) /
                     static_cast<double>(sorted.size());
    const uint64_t got = h.Percentile(p);
    const uint64_t want = sorted[i];
    EXPECT_GE(got, want);
    // Log-linear bound: bucket width is at most 1/kSubBuckets of the
    // value's magnitude.
    EXPECT_LE(got, want + want / obs::Histogram::kSubBuckets + 1)
        << "p=" << p;
  }
  // The top percentile is clamped to the true max, not a bucket edge.
  EXPECT_EQ(h.Percentile(100), 1234567u);
}

TEST(HistogramTest, PercentilesAreMonotone) {
  obs::Histogram h;
  uint64_t x = 12345;
  for (int i = 0; i < 500; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    h.Record(x >> 44);  // ~[0, 1M) microseconds
  }
  uint64_t prev = 0;
  for (double p = 0; p <= 100.0; p += 2.5) {
    const uint64_t v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
}

TEST(HistogramTest, MergeCombinesCountsAndMax) {
  obs::Histogram a;
  obs::Histogram b;
  a.Record(10);
  a.Record(1000);
  b.Record(500000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.Percentile(100), 500000u);
  EXPECT_EQ(a.Percentile(1), 10u);
  // Merging an empty histogram is a no-op.
  obs::Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 3u);
}

// --- Scheduler ---

struct ServeWorld {
  graph::Graph g;
  graph::GraphView view{nullptr};
  core::NodePointSet points{0};
  core::RknnEngine engine;

  static ServeWorld Make() {
    gen::GridConfig cfg;
    cfg.rows = 10;
    cfg.cols = 10;
    cfg.seed = 5;
    graph::Graph g = gen::GenerateGrid(cfg).ValueOrDie();
    Rng rng(13);
    core::NodePointSet points =
        gen::PlaceNodePoints(g.num_nodes(), 0.25, rng).ValueOrDie();
    return ServeWorld(std::move(g), std::move(points));
  }

  QuerySpec Spec(NodeId node) const {
    return QuerySpec::Monochromatic(Algorithm::kEager, node, 2);
  }

 private:
  ServeWorld(graph::Graph&& graph, core::NodePointSet&& pts)
      : g(std::move(graph)), view(&g), points(std::move(pts)),
        engine(MakeEngine()) {}

  core::RknnEngine MakeEngine() {
    core::EngineSources sources;
    sources.graph = &view;
    sources.points = &points;
    sources.snapshot_reads = true;  // the serving-layer pairing
    return core::RknnEngine::Create(sources).ValueOrDie();
  }
};

/// Gate used as batch_hook: the worker parks after its first dequeue
/// until Release; later dequeues pass straight through.
class WorkerGate {
 public:
  void operator()(size_t) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      entered_ = true;
    }
    cv_.notify_all();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return released_; });
  }

  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(SchedulerTest, RunsSubmittedQueries) {
  ServeWorld w = ServeWorld::Make();
  SchedulerOptions opts;
  opts.num_workers = 1;
  Scheduler sched(&w.engine, opts);

  std::vector<Scheduler::Ticket> tickets;
  for (NodeId n = 0; n < 20; ++n) {
    tickets.push_back(sched.Submit(w.Spec(n)));
  }
  for (NodeId n = 0; n < 20; ++n) {
    const Scheduler::Response& r = tickets[n].Wait();
    ASSERT_TRUE(r.result.ok()) << r.result.status().ToString();
    EXPECT_EQ(r.disposition, Disposition::kRun);
    // Scheduler answers must match direct engine answers.
    auto direct = w.engine.Run(w.Spec(n));
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(r.result->results, direct->results);
  }
  const Scheduler::Stats s = sched.stats();
  EXPECT_EQ(s.submitted, 20u);
  EXPECT_EQ(s.admitted, 20u);
  EXPECT_EQ(s.completed, 20u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_GE(s.batches, 1u);
  EXPECT_EQ(s.latency.count(), 20u);
}

TEST(SchedulerTest, InvalidTicketReportsNotCompleted) {
  Scheduler::Ticket ticket;
  EXPECT_FALSE(ticket.valid());
  const Scheduler::Response& r = ticket.Wait();
  EXPECT_FALSE(r.result.ok());
}

// Satellite coverage: the overload path. Queue fills -> immediate shed
// with kResourceExhausted (the shed response arrives while the server
// is still wedged — overload feedback does not queue behind the
// backlog), and a drained queue admits again.
TEST(SchedulerTest, OverloadShedsImmediatelyAndRecovers) {
  ServeWorld w = ServeWorld::Make();
  WorkerGate gate;
  SchedulerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 1;
  opts.queue_capacity = 4;
  opts.batch_hook = std::ref(gate);
  Scheduler sched(&w.engine, opts);

  // Plug: occupies the worker inside the gate.
  Scheduler::Ticket plug = sched.Submit(w.Spec(0));
  gate.AwaitEntered();

  // Fill the queue to capacity behind the parked worker.
  std::vector<Scheduler::Ticket> queued;
  for (NodeId n = 1; n <= 4; ++n) {
    queued.push_back(sched.Submit(w.Spec(n)));
  }
  // Overflow: shed inline, with the worker still parked.
  Scheduler::Ticket overflow = sched.Submit(w.Spec(5));
  const Scheduler::Response& shed = overflow.Wait();
  EXPECT_EQ(shed.disposition, Disposition::kShed);
  EXPECT_TRUE(shed.result.status().IsResourceExhausted())
      << shed.result.status().ToString();

  {
    const Scheduler::Stats s = sched.stats();
    EXPECT_EQ(s.submitted, 6u);
    EXPECT_EQ(s.admitted, 5u);
    EXPECT_EQ(s.shed, 1u);
    EXPECT_EQ(s.completed, 0u);  // the worker never ran anything yet
  }

  gate.Release();
  ASSERT_TRUE(plug.Wait().result.ok());
  for (auto& t : queued) {
    const Scheduler::Response& r = t.Wait();
    EXPECT_EQ(r.disposition, Disposition::kRun);
    EXPECT_TRUE(r.result.ok()) << r.result.status().ToString();
  }
  // Drained queue admits again.
  Scheduler::Ticket after = sched.Submit(w.Spec(6));
  EXPECT_TRUE(after.Wait().result.ok());
  const Scheduler::Stats s = sched.stats();
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.completed, 6u);
}

TEST(SchedulerTest, ExpiredDeadlinesCompleteUnrun) {
  ServeWorld w = ServeWorld::Make();
  WorkerGate gate;
  SchedulerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 1;
  opts.batch_hook = std::ref(gate);
  Scheduler sched(&w.engine, opts);

  Scheduler::Ticket plug = sched.Submit(w.Spec(0));
  gate.AwaitEntered();
  // Queued behind the parked worker with a microsecond deadline: it
  // expires long before the worker gets to it.
  Scheduler::Ticket doomed = sched.Submit(w.Spec(1), /*deadline_micros=*/1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  gate.Release();

  const Scheduler::Response& r = doomed.Wait();
  EXPECT_EQ(r.disposition, Disposition::kExpired);
  EXPECT_TRUE(r.result.status().IsResourceExhausted());
  ASSERT_TRUE(plug.Wait().result.ok());
  const Scheduler::Stats s = sched.stats();
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.completed, 1u);
  // A dequeue whose requests all expired still counts.
  EXPECT_EQ(s.batches, 2u);
}

// A deadline beyond the clock's range is no deadline. It must neither
// wrap (UINT64_MAX as a signed count is -1 us) nor overflow the
// conversion to the clock's nanoseconds (from ~9.2e15 us up), either of
// which expired the request before it ran.
TEST(SchedulerTest, HugeDeadlinesNeverExpire) {
  ServeWorld w = ServeWorld::Make();
  SchedulerOptions opts;
  opts.num_workers = 1;
  Scheduler sched(&w.engine, opts);
  for (uint64_t deadline :
       {std::numeric_limits<uint64_t>::max(),
        static_cast<uint64_t>(std::numeric_limits<int64_t>::max()),
        uint64_t{10'000'000'000'000'000}}) {
    Scheduler::Ticket t = sched.Submit(w.Spec(0), deadline);
    const Scheduler::Response& r = t.Wait();
    EXPECT_EQ(r.disposition, Disposition::kRun) << "deadline=" << deadline;
    EXPECT_TRUE(r.result.ok()) << r.result.status().ToString();
  }
  const Scheduler::Stats s = sched.stats();
  EXPECT_EQ(s.expired, 0u);
  EXPECT_EQ(s.completed, 3u);
}

// A failing request must not poison the requests dequeued with it:
// each one runs through its own Run, so the error lands on the bad
// request alone and its batchmates are answered.
TEST(SchedulerTest, FailingRequestFailsAlone) {
  ServeWorld w = ServeWorld::Make();
  WorkerGate gate;
  SchedulerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 8;
  opts.batch_hook = std::ref(gate);
  Scheduler sched(&w.engine, opts);

  Scheduler::Ticket plug = sched.Submit(w.Spec(0));
  gate.AwaitEntered();

  QuerySpec bad = w.Spec(1);
  bad.k = 0;  // rejected by Dispatch with InvalidArgument
  Scheduler::Ticket good_a = sched.Submit(w.Spec(2));
  Scheduler::Ticket bad_ticket = sched.Submit(bad);
  Scheduler::Ticket good_b = sched.Submit(w.Spec(3));
  gate.Release();

  EXPECT_TRUE(good_a.Wait().result.ok());
  EXPECT_TRUE(good_b.Wait().result.ok());
  EXPECT_TRUE(bad_ticket.Wait().result.status().IsInvalidArgument())
      << bad_ticket.Wait().result.status().ToString();
  EXPECT_EQ(bad_ticket.Wait().disposition, Disposition::kRun);
  const Scheduler::Stats s = sched.stats();
  // Two dequeues: the plug alone, then the three queued behind it.
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.completed, 4u);
}

TEST(SchedulerTest, ShutdownDrainsAdmittedRequests) {
  ServeWorld w = ServeWorld::Make();
  SchedulerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 4;
  Scheduler sched(&w.engine, opts);

  std::vector<Scheduler::Ticket> tickets;
  for (NodeId n = 0; n < 30; ++n) {
    tickets.push_back(sched.Submit(w.Spec(n)));
  }
  sched.Shutdown();
  // Every admitted request completed (none dropped); submits after
  // Shutdown shed.
  for (auto& t : tickets) {
    const Scheduler::Response& r = t.Wait();
    EXPECT_EQ(r.disposition, Disposition::kRun);
    EXPECT_TRUE(r.result.ok());
  }
  Scheduler::Ticket late = sched.Submit(w.Spec(0));
  EXPECT_EQ(late.Wait().disposition, Disposition::kShed);
  EXPECT_TRUE(late.Wait().result.status().IsResourceExhausted());
}

TEST(SchedulerTest, MultipleWorkersServeConcurrently) {
  ServeWorld w = ServeWorld::Make();
  SchedulerOptions opts;
  opts.num_workers = 3;
  opts.max_batch = 4;
  Scheduler sched(&w.engine, opts);

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const NodeId n = static_cast<NodeId>((c * kPerClient + i) %
                                             w.g.num_nodes());
        Scheduler::Ticket t = sched.Submit(w.Spec(n));
        if (!t.Wait().result.ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : clients) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const Scheduler::Stats s = sched.stats();
  EXPECT_EQ(s.completed, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(s.latency.count(), s.completed);
  // The epoch path carried every one of these queries.
  EXPECT_GE(w.engine.epoch_stats().pins, s.completed);
}

}  // namespace
}  // namespace grnn::serve
