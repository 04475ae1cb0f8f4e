// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a library module: its name (the module and
// call, e.g. "runtime.engine.layer"), the network layer it covers (-1 when
// none), the id of the sample or request it belongs to, the index of the span
// that caused it, and its start and end on the steady clock. Spans are kept
// in a vector reserved up front, so recording never allocates; once full,
// further spans are counted as dropped. The recorder is written out as
// Chrome trace-event JSON when the run ends.
//
// Spans are recorded only by the benchmark's own code, around calls into the
// library's public functions; nothing inside the library is instrumented.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Span {
  const char* name = "";  ///< string literal naming module and call
  int layer = -1;         ///< network layer index, -1 when not per-layer
  std::uint64_t id = 0;   ///< sample or request id shared by its spans
  std::int64_t parent = -1;  ///< index of the causing span, -1 for roots
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;

  double us() const { return static_cast<double>(t1_ns - t0_ns) * 1e-3; }
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity) { spans_.reserve(capacity); }

  /// Open a span now; returns its index (or -1 when the buffer is full).
  std::int64_t begin(const char* name, std::uint64_t id,
                     std::int64_t parent = -1, int layer = -1) {
    return record(name, id, parent, layer, now_ns(), 0);
  }
  void end(std::int64_t idx) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].t1_ns = now_ns();
  }
  /// Record a finished span from timestamps taken elsewhere (the server's
  /// per-request telemetry).
  std::int64_t record(const char* name, std::uint64_t id, std::int64_t parent,
                      int layer, std::uint64_t t0_ns, std::uint64_t t1_ns) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, layer, id, parent, t0_ns, t1_ns});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  /// A fresh id for one sample, request or wave.
  std::uint64_t new_id() { return ++ids_; }
  /// Spans that still fit before the buffer is full.
  std::size_t room() const { return spans_.capacity() - spans_.size(); }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds), readable
  /// offline in any trace viewer. Returns false when the file cannot be
  /// written.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::uint64_t ids_ = 0;
};

/// RAII span; a null tracer makes it a no-op, so one code path serves the
/// traced and the untraced loop.
class Scope {
 public:
  Scope(Tracer* tr, const char* name, std::uint64_t id,
        std::int64_t parent = -1, int layer = -1)
      : tr_(tr), idx_(tr ? tr->begin(name, id, parent, layer) : -1) {}
  ~Scope() {
    if (tr_) tr_->end(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int64_t index() const { return idx_; }

 private:
  Tracer* tr_;
  std::int64_t idx_;
};

}  // namespace perfbench
