// Copyright (c) GRNN authors.
// Per-query trace spans + slow-query log (DESIGN.md, "Observability").
//
// A TraceContext is a small per-query arena of spans. The engine's
// Dispatch decides per query whether tracing is ARMED (an explicit
// QuerySpec::trace, or the sampling policy firing); when armed it
// opens a root "query" span and publishes the context in a
// thread-local slot for the duration of the dispatch. Deep subsystems
// (hub-label sweep/verify, label-file scans, buffer-pool pins,
// Dijkstra expansion, epoch pin/retire) instrument through that slot:
//
//   obs::ScopedSpan span(obs::CurrentTrace(), "hub.sweep");
//   span.Note("label_entries", n);
//
// so no signature anywhere in the stack changes. When DISARMED the
// slot is null and every instrument is one branch on a nullptr — the
// overhead guard in telemetry_engine_test holds this under 2% on the
// eager hot path.
//
// ScopedSpan is RAII: a span closes on every exit path, including
// early error returns (trace_test asserts the tree is closed after
// failed queries). Span names must be string literals (stored as const
// char*); note keys likewise.
//
// Queries whose total latency exceeds TraceOptions::slow_query_micros
// push their completed span tree into a bounded ring
// (RknnEngine::DrainSlowQueries drains it; overflow drops oldest and
// counts).
//
// Thread-safety: one TraceContext belongs to one query on one thread
// at a time (it lives in the pooled SearchWorkspace, which the engine
// already hands to exactly one dispatch at a time). The SlowQueryLog
// is mutex-guarded. The thread-local slot is per-thread by
// construction.

#ifndef GRNN_OBS_TRACE_H_
#define GRNN_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace grnn::obs {

/// One closed (or still-open) span. Parent links make the tree;
/// children appear after their parent in the flat vector (preorder by
/// open time).
struct SpanRecord {
  /// Index of the parent span in the owning context's vector, or -1
  /// for the root.
  int32_t parent = -1;
  /// Static string literal; never freed.
  const char* name = "";
  /// Nanoseconds from the context's Begin() to span open.
  uint64_t start_nanos = 0;
  /// 0 while the span is open.
  uint64_t duration_nanos = 0;
  /// Accumulated key counters ("label_entries", "page_misses", ...).
  /// Keys are static literals; repeated notes with the same key
  /// accumulate.
  std::vector<std::pair<const char*, uint64_t>> notes;
};

struct TraceOptions {
  /// Arm tracing on every Nth dispatched query; 0 disarms sampling
  /// entirely (queries carrying an explicit QuerySpec::trace are still
  /// traced).
  uint64_t sample_every = 0;
  /// Completed traces slower than this land in the slow-query ring; 0
  /// disables the ring. 1 forces every traced query in (used by tests
  /// to capture a span tree deterministically).
  uint64_t slow_query_micros = 0;
  /// Bound on retained slow queries; oldest dropped (and counted)
  /// beyond this.
  size_t slow_ring_capacity = 64;
};

/// Per-query span arena. Reset by Begin(); spans append in open order.
/// Bounded: past kMaxSpans further opens are counted as dropped and
/// return the no-op span index.
class TraceContext {
 public:
  static constexpr size_t kMaxSpans = 256;

  /// Starts a new trace (clears any prior spans, stamps the epoch all
  /// span times are relative to).
  void Begin();

  /// Opens a child of the innermost open span; returns its index, or
  /// -1 when the arena is full (the matching Close(-1) is a no-op).
  int32_t Open(const char* name);
  void Close(int32_t index);
  /// Accumulates `delta` under `key` on the innermost open span (no-op
  /// when no span is open).
  void Note(const char* key, uint64_t delta);
  /// As Note, but on a specific open span.
  void NoteOn(int32_t index, const char* key, uint64_t delta);

  /// Nanoseconds since Begin().
  uint64_t ElapsedNanos() const;

  const std::vector<SpanRecord>& spans() const { return spans_; }
  uint64_t dropped_spans() const { return dropped_spans_; }
  /// True when every opened span has been closed.
  bool AllClosed() const { return open_stack_.empty(); }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_stack_;
  uint64_t epoch_nanos_ = 0;
  uint64_t dropped_spans_ = 0;
};

/// The thread-local slot deep subsystems instrument through. Null
/// whenever no armed dispatch is active on this thread.
TraceContext* CurrentTrace();

/// RAII publisher: sets the thread-local slot for one dispatch,
/// restores the previous value on destruction (nesting-safe).
class TraceArm {
 public:
  explicit TraceArm(TraceContext* ctx);
  ~TraceArm();
  TraceArm(const TraceArm&) = delete;
  TraceArm& operator=(const TraceArm&) = delete;

 private:
  TraceContext* prev_;
};

/// RAII span: opens on construction (no-op on a null context), closes
/// on destruction — so error-path early returns still close the tree.
class ScopedSpan {
 public:
  ScopedSpan(TraceContext* ctx, const char* name)
      : ctx_(ctx), index_(ctx ? ctx->Open(name) : -1) {}
  ~ScopedSpan() {
    if (ctx_ != nullptr) {
      ctx_->Close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Note(const char* key, uint64_t delta) {
    if (ctx_ != nullptr) {
      ctx_->NoteOn(index_, key, delta);
    }
  }
  bool armed() const { return ctx_ != nullptr; }

 private:
  TraceContext* ctx_;
  int32_t index_;
};

/// One slow query: the finished span tree plus identifying context.
struct SlowQuery {
  /// "kind/algorithm k=K" — rendered by the engine.
  std::string label;
  uint64_t total_micros = 0;
  bool ok = true;
  /// Status message when !ok.
  std::string error;
  std::vector<SpanRecord> spans;
  uint64_t dropped_spans = 0;
};

/// Bounded mutex-guarded ring of slow queries.
class SlowQueryLog {
 public:
  void Push(SlowQuery q, size_t capacity);
  /// Removes and returns everything retained (oldest first).
  std::vector<SlowQuery> Drain();
  uint64_t dropped() const;

 private:
  mutable std::mutex mu_;
  std::deque<SlowQuery> ring_;
  uint64_t dropped_ = 0;
};

}  // namespace grnn::obs

#endif  // GRNN_OBS_TRACE_H_
