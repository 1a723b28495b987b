// hub-serve: queries through serve::Scheduler against an epoch-snapshot
// engine that answers every query (monochromatic, bichromatic,
// continuous route) from in-memory hub labels, while a writer inserts
// and deletes points and sites at a fixed rate. One client keeps a fixed
// number of requests in flight, so the two scheduler workers always
// find queued work and form batches. No storage device and no graph
// expansion is on this path.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <optional>
#include <thread>

#include "common/string_util.h"
#include "core/bichromatic.h"
#include "core/brute_force.h"
#include "gen/points.h"
#include "gen/road_network.h"
#include "index/hub_label.h"
#include "serve/scheduler.h"
#include "workload.h"

namespace perfbench {

namespace {

using grnn::NodeId;
using grnn::Rng;
using grnn::core::Algorithm;
using grnn::core::QuerySpec;
using grnn::core::UpdateSpec;
using grnn::serve::Disposition;
using grnn::serve::Scheduler;

constexpr int kWorkers = 2;
/// Requests the client keeps in flight. The queue never runs dry, so no
/// worker parks between batches of kMaxBatch, and latency is set by the
/// queue (in-flight requests over throughput): a host preemption of a
/// worker delays requests in proportion instead of setting the tail, as
/// it did with 16 in flight.
constexpr size_t kOutstanding = 64;
constexpr size_t kMaxBatch = 4;
/// Writer ops per second (Poisson), fixed and never recalibrated: about
/// 5% of the query rate two workers sustain on the reference machine.
constexpr double kUpdateRate = 300;
/// Share of the writer's ops that move sites rather than points.
constexpr double kSiteShare = 0.3;
/// The world (road network, points and sites) is a fixed data set;
/// --seed draws the traffic.
constexpr uint64_t kWorldSeed = 1;
constexpr double kWarmupSeconds = 0.5;

struct Sizes {
  NodeId nodes;
  double point_density;
  double site_density;
  size_t route_len;
  size_t specs;
  int oracle_per_kind;
};

Sizes PickSizes(bool tiny) {
  if (tiny) {
    return {800, 0.05, 0.02, 6, 2000, 2};
  }
  return {10000, 0.03, 0.01, 8, 50000, 3};
}

struct World {
  grnn::graph::Graph g;
  std::unique_ptr<grnn::graph::GraphView> view;
  /// Initial populations. A snapshot engine copies them at Create and
  /// never writes them back.
  grnn::core::NodePointSet points{0};
  grnn::core::NodePointSet sites{0};
  grnn::index::HubLabelIndex labels;
  std::optional<grnn::core::RknnEngine> engine;
};

/// The serving engine of this workload, configured in one place.
grnn::Result<grnn::core::RknnEngine> MakeEngine(World& w) {
  grnn::core::EngineSources s;
  s.graph = w.view.get();
  s.points = &w.points;
  s.sites = &w.sites;
  s.hub_labels = &w.labels;
  s.updates.points = &w.points;
  s.updates.sites = &w.sites;
  s.snapshot_reads = true;
  return grnn::core::RknnEngine::Create(s);
}

std::unique_ptr<World> BuildWorld(const Sizes& z, SetupTimer& timer) {
  auto w = std::make_unique<World>();
  {
    grnn::obs::ScopedSpan span(timer.trace(), "gen.generate");
    grnn::gen::RoadConfig rc;
    rc.num_nodes = z.nodes;
    rc.seed = kWorldSeed;
    w->g = Must(grnn::gen::GenerateRoadNetwork(rc), "road generation").g;
    Rng rng(kWorldSeed * 7919 + 1);
    w->points = Must(grnn::gen::PlaceNodePoints(w->g.num_nodes(),
                                                z.point_density, rng),
                     "point placement");
    w->sites = Must(grnn::gen::PlaceNodePoints(w->g.num_nodes(),
                                               z.site_density, rng),
                    "site placement");
  }
  w->view = std::make_unique<grnn::graph::GraphView>(&w->g);
  {
    grnn::obs::ScopedSpan span(timer.trace(), "index.label_build");
    grnn::index::HubLabelBuildOptions opts;
    opts.order = grnn::index::HubOrder::kPartition;
    w->labels = Must(grnn::index::HubLabelBuilder::Build(*w->view, opts),
                     "hub-label build");
  }
  {
    grnn::obs::ScopedSpan span(timer.trace(), "core.engine_create");
    w->engine.emplace(Must(MakeEngine(*w), "engine create"));
  }
  return w;
}

/// Arrival offsets (seconds from the start) of a Poisson process with
/// `rate` per second, up to `horizon_s`.
std::vector<double> PoissonOffsets(Rng& rng, double rate, double horizon_s) {
  std::vector<double> out;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.Uniform01()) / rate;
    if (t >= horizon_s) {
      return out;
    }
    out.push_back(t);
  }
}

/// Half monochromatic, 30% bichromatic, 20% continuous-route queries,
/// all on the hub-label path, with k from 1 to 4.
QuerySpec MakeQuery(const World& w, Rng& rng, size_t route_len) {
  const int k = 1 + static_cast<int>(rng.UniformInt(4));
  const NodeId node = static_cast<NodeId>(rng.UniformInt(w.g.num_nodes()));
  const uint64_t kind = rng.UniformInt(10);
  if (kind < 5) {
    return QuerySpec::Monochromatic(Algorithm::kHubLabel, node, k);
  }
  if (kind < 8) {
    return QuerySpec::Bichromatic(Algorithm::kHubLabel, node, k);
  }
  return QuerySpec::Continuous(
      Algorithm::kHubLabel,
      grnn::gen::RandomWalkRoute(w.g, node, route_len, rng), k);
}

struct WindowResult {
  Samples latency_us;  // submit to completion, as the scheduler saw it
  uint64_t submitted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t expired = 0;
  uint64_t errors = 0;
  // Traced windows only.
  SpanTable spans;
  Samples root_us;
  Samples queue_wait_us;
  uint64_t traced = 0;
  uint64_t dropped_spans = 0;
};

/// The client: keeps kOutstanding requests in flight, cycling through
/// `specs` from `*next`, until the timeline ends; then drains. Requests
/// land in the window they were submitted in. Traced windows give each
/// request its own TraceContext (one slot per in-flight request).
std::vector<WindowResult> RunClient(Scheduler& sched,
                                    const std::vector<QuerySpec>& specs,
                                    size_t* next, const Timeline& timeline,
                                    std::string* first_error) {
  struct InFlight {
    Scheduler::Ticket ticket;
    size_t spec = 0;
    int window = -1;
    int slot = -1;  // trace slot, -1 = untraced
  };
  std::vector<WindowResult> out(timeline.plan.count);
  std::vector<grnn::obs::TraceContext> slots(kOutstanding);
  std::vector<int> free_slots;
  for (int s = 0; s < static_cast<int>(kOutstanding); ++s) {
    free_slots.push_back(s);
  }
  std::deque<InFlight> inflight;
  auto submit = [&] {
    InFlight f;
    f.spec = (*next)++ % specs.size();
    f.window = timeline.WindowAt(Clock::now());
    QuerySpec spec = specs[f.spec];
    if (f.window >= 0 && timeline.plan.Traced(f.window)) {
      f.slot = free_slots.back();
      free_slots.pop_back();
      spec.trace = &slots[f.slot];
    }
    f.ticket = sched.Submit(std::move(spec));
    inflight.push_back(std::move(f));
  };
  while (inflight.size() < kOutstanding) {
    submit();
  }
  while (!inflight.empty()) {
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    const Scheduler::Response& r = f.ticket.Wait();
    if (f.window >= 0) {
      WindowResult& win = out[f.window];
      win.submitted++;
      if (r.disposition != Disposition::kRun || !r.result.ok()) {
        // A refused or failed request misses any latency limit.
        win.latency_us.AddFailure();
        if (r.disposition == Disposition::kShed) {
          win.shed++;
        } else if (r.disposition == Disposition::kExpired) {
          win.expired++;
        } else {
          win.errors++;
          if (first_error->empty()) {
            *first_error = Describe(specs[f.spec]) + ": " +
                           r.result.status().ToString();
          }
        }
      } else {
        win.ok++;
        win.latency_us.Add(static_cast<double>(r.latency_micros));
        if (f.slot >= 0) {
          double root_us = 0;
          win.dropped_spans += FoldTrace(slots[f.slot], &win.spans, &root_us);
          win.root_us.Add(root_us);
          win.queue_wait_us.Add(std::max(
              0.0, static_cast<double>(r.latency_micros) - root_us));
          win.traced++;
        }
      }
    }
    if (f.slot >= 0) {
      free_slots.push_back(f.slot);
    }
    if (Clock::now() < timeline.end()) {
      submit();
    }
  }
  return out;
}

/// Writer thread: Poisson updates at kUpdateRate, each timed from its
/// due time. It sleeps between updates, so its late wake-ups count in
/// the update latency but it takes no core from the workers.
struct Writer {
  std::atomic<bool> stop{false};
  size_t executed = 0;
  struct Done {
    Clock::time_point due;
    double latency_us;  // from the due time
    double apply_us;    // the ApplyUpdate call alone
    double cpu_s;       // writer thread CPU time of the call
  };
  std::vector<Done> done;
  std::string first_error;
  uint64_t limbo_max = 0;
  Samples limbo;

  void Run(grnn::core::RknnEngine& engine, const std::vector<WriteOp>& ops,
           const std::vector<double>& offsets, const Timeline& timed) {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < ops.size() && i < offsets.size(); ++i) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(offsets[i]));
      for (Clock::time_point now = Clock::now(); now < due;
           now = Clock::now()) {
        if (stop.load()) {
          return;
        }
        std::this_thread::sleep_until(
            std::min(due, now + std::chrono::milliseconds(2)));
      }
      if (stop.load()) {
        return;
      }
      const double cpu0 = ThreadCpuSeconds();
      const Clock::time_point start = Clock::now();
      auto r = engine.ApplyUpdate(ops[i].spec);
      const Clock::time_point end = Clock::now();
      const std::string problem = CheckWrite(ops[i], r);
      if (!problem.empty()) {
        first_error = grnn::StrPrintf("update %zu: %s", i, problem.c_str());
        return;  // the mirror no longer predicts the engine
      }
      executed = i + 1;
      done.push_back({due, MicrosBetween(due, end),
                      MicrosBetween(start, end), ThreadCpuSeconds() - cpu0});
      if (timed.WindowAt(due) >= 0) {
        const uint64_t l = engine.epoch_stats().limbo;
        limbo_max = std::max(limbo_max, l);
        limbo.Add(static_cast<double>(l));
      }
    }
  }
};

/// Replays the executed writer prefix onto copies of the initial sets
/// and checks sampled queries on the quiesced engine against the
/// brute-force oracles.
void CheckAnswers(const RunConfig& cfg, const Sizes& z, World& w,
                  const std::vector<WriteOp>& ops, size_t executed,
                  Report* out) {
  grnn::core::NodePointSet points = w.points;
  grnn::core::NodePointSet sites = w.sites;
  for (size_t i = 0; i < executed; ++i) {
    const UpdateSpec& u = ops[i].spec;
    grnn::core::NodePointSet& set =
        u.set == grnn::core::UpdateSet::kSites ? sites : points;
    if (u.op == UpdateSpec::Op::kInsert) {
      (void)set.AddPoint(u.node);
    } else {
      (void)set.RemovePoint(u.point);
    }
  }
  Rng rng(cfg.seed * 104729 + 3);
  int checked = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < z.oracle_per_kind; ++i) {
      const int k = 1 + static_cast<int>(rng.UniformInt(4));
      const NodeId node =
          static_cast<NodeId>(rng.UniformInt(w.g.num_nodes()));
      const QuerySpec spec =
          kind == 0 ? QuerySpec::Monochromatic(Algorithm::kHubLabel, node, k)
          : kind == 1
              ? QuerySpec::Bichromatic(Algorithm::kHubLabel, node, k)
              : QuerySpec::Continuous(
                    Algorithm::kHubLabel,
                    grnn::gen::RandomWalkRoute(w.g, node, z.route_len, rng),
                    k);
      auto got = w.engine->Run(spec);
      auto want =
          kind == 1
              ? grnn::core::BruteForceBichromaticRknn(
                    *w.view, points, sites, spec.query_nodes, spec.options())
              : grnn::core::BruteForceRknn(*w.view, points, spec.query_nodes,
                                           spec.options());
      if (!got.ok() || !want.ok() || !SameAnswer(*got, *want)) {
        out->Fail("oracle mismatch: " + Describe(spec));
      }
      checked++;
    }
  }
  std::printf("oracle: %d sampled queries checked against brute force\n",
              checked);
}

double Frac(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

void RunHubServe(const RunConfig& cfg, Report* out) {
  const Sizes z = PickSizes(cfg.tiny);
  SetupTimer setup(cfg.tiny);
  auto build = [&] { return BuildWorld(z, setup); };
  std::unique_ptr<World> w = setup.TimeBuilds(build);
  grnn::core::RknnEngine& engine = *w->engine;

  // Every input is generated before timing starts.
  Rng rng(cfg.seed * 31 + 17);
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < z.specs; ++i) {
    specs.push_back(MakeQuery(*w, rng, z.route_len));
  }
  const std::vector<double> write_offsets =
      PoissonOffsets(rng, kUpdateRate, kWarmupSeconds + cfg.seconds + 5.0);
  const std::vector<WriteOp> ops = MakeWriteOps(
      w->points, &w->sites, kSiteShare, rng, write_offsets.size());

  grnn::serve::SchedulerOptions opts;
  opts.num_workers = kWorkers;
  opts.max_batch = kMaxBatch;
  Scheduler sched(&engine, opts);

  const Timeline warmup = WarmupTimeline(kWarmupSeconds);
  Timeline timeline;
  timeline.plan = PlanWindows(cfg);
  timeline.t0 = warmup.end();
  Writer writer;
  std::thread writer_thread(
      [&] { writer.Run(engine, ops, write_offsets, timeline); });

  std::string first_error;
  size_t next = 0;
  RunClient(sched, specs, &next, warmup, &first_error);
  const grnn::core::EngineStats stats_before = engine.lifetime_stats();
  const Scheduler::Stats sched_before = sched.stats();
  const double process_cpu0 = ProcessCpuSeconds();
  const double client_cpu0 = ThreadCpuSeconds();
  std::vector<WindowResult> results =
      RunClient(sched, specs, &next, timeline, &first_error);
  const double client_cpu = ThreadCpuSeconds() - client_cpu0;
  const double process_cpu = ProcessCpuSeconds() - process_cpu0;
  const grnn::core::EngineStats stats_after = engine.lifetime_stats();
  const Scheduler::Stats sched_after = sched.stats();
  writer.stop.store(true);
  writer_thread.join();
  sched.Shutdown();

  // End-to-end: pooled over the untraced windows.
  Samples untraced_latency;
  int untraced_windows = 0;
  Samples queue_wait, root_us, traced_latency;
  SpanTable spans;
  uint64_t traced = 0, dropped = 0;
  for (int i = 0; i < timeline.plan.count; ++i) {
    const WindowResult& r = results[i];
    out->attempted += r.submitted;
    out->failed += r.shed + r.expired + r.errors;
    if (timeline.plan.Traced(i)) {
      traced_latency.Merge(r.latency_us);
      spans.Merge(r.spans);
      queue_wait.Merge(r.queue_wait_us);
      root_us.Merge(r.root_us);
      traced += r.traced;
      dropped += r.dropped_spans;
    } else {
      untraced_latency.Merge(r.latency_us);
      untraced_windows++;
    }
  }
  Samples update_lat, update_apply;
  double writer_cpu = 0;
  uint64_t updates = 0;
  for (const Writer::Done& d : writer.done) {
    const int win = timeline.WindowAt(d.due);
    if (win < 0) {
      continue;
    }
    // Updates carry no trace: every window counts.
    writer_cpu += d.cpu_s;
    update_lat.Add(d.latency_us);
    update_apply.Add(d.apply_us);
    updates++;
  }
  out->attempted += updates;
  if (!writer.first_error.empty()) {
    out->attempted++;
    out->failed++;
    out->Fail("writer stopped: " + writer.first_error);
  }
  if (!first_error.empty()) {
    std::printf("first failed query: %s\n", first_error.c_str());
  }
  std::printf(
      "hub-serve: road |V|=%u, %zu points, %zu sites, avg label %.1f; "
      "%zu requests in flight, %.0f updates/s\n",
      w->g.num_nodes(), w->points.num_points(), w->sites.num_points(),
      w->labels.AverageLabelSize(), kOutstanding, kUpdateRate);
  ReportQueryLatency(untraced_latency, untraced_windows, timeline.plan, out);
  std::printf("samples: %zu updates; p99 needs %zu\n", update_lat.count(),
              SamplesNeeded(99, 10));
  // Worker-side CPU per query: the process's CPU time minus what the
  // client and the writer spent (the scheduler's dispatch thread idles).
  const uint64_t completed = sched_after.completed - sched_before.completed;
  out->Set("query_cpu_us",
           completed == 0 ? 0.0
                          : (process_cpu - client_cpu - writer_cpu) * 1e6 /
                                static_cast<double>(completed));
  out->Set("client.update_samples", static_cast<double>(update_lat.count()));
  out->Set("update_p50_us", update_lat.Percentile(50));
  out->Set("update_p99_us", update_lat.Percentile(99));
  out->Set("update_ops_s",
           static_cast<double>(update_lat.count()) / cfg.seconds);
  out->Set("core.update_apply_p50_us", update_apply.Percentile(50));

  // Serve layer.
  const uint64_t submitted = sched_after.submitted - sched_before.submitted;
  out->Set("serve.batch_size_mean",
           Frac(completed, sched_after.batches - sched_before.batches));
  out->Set("serve.shed_frac",
           Frac(sched_after.shed - sched_before.shed, submitted));
  out->Set("serve.expired_frac",
           Frac(sched_after.expired - sched_before.expired, submitted));
  out->Set("serve.epoch.limbo_max", static_cast<double>(writer.limbo_max));
  out->Set("serve.epoch.reclaim_lag", writer.limbo.Mean());
  ReportSearchCounters(StatsDelta(stats_after, stats_before), out);
  out->Set("index.avg_label_size", w->labels.AverageLabelSize());
  out->Set("index.label_bytes_per_entry",
           static_cast<double>(sizeof(grnn::index::HubEntry)));

  if (cfg.trace) {
    ReportSelfTimes(spans, traced, out);
    out->Set("serve.queue_wait_p50_us", queue_wait.Percentile(50));
    out->Set("serve.queue_wait_p99_us", queue_wait.Percentile(99));
    out->Set("core.algo.H.p50_us", root_us.Percentile(50));
    ReportTraceHealth(out->Get("query_p50_us"),
                      traced_latency.Percentile(50), dropped, out);
  }

  CheckAnswers(cfg, z, *w, ops, writer.executed, out);
  out->Set("error_frac", Frac(out->failed, out->attempted));
  out->Set("peak_rss_mb", PeakRssMb());
  setup.TimeBuilds(build);
  setup.Report(out);
}

}  // namespace perfbench
