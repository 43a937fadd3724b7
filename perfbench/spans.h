// Host-time spans recorded around the benchmark's calls into each layer.
//
// A span has a name, a start, an end, a parent and the id of the op it
// belongs to. Spans stay in memory while the workload runs and are
// analysed (and optionally written out) afterwards. A layer's self time
// is its span time minus the time its child spans cover; the analysis
// checks that children nest inside their parent and never overlap, so
// the self times of one root's tree tile the root exactly.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

inline std::uint64_t WallNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum SpanName : std::uint8_t {
  kSpanOp = 0,        // one turn of the closed loop (a root)
  kSpanSimRun,        // Simulator::RunUntilPredicate
  kSpanEngineRun,     // ShardedEngine::Run (a root)
  kSpanDbCall,        // StorageManager::Put/Get/Delete
  kSpanDbCheckpoint,  // StorageManager::Checkpoint plus the run to finish it
  kSpanBlkSubmit,     // BlockLayer::Submit
  kSpanSsdSubmit,     // ssd::Device::Submit/SubmitBatch/Execute
  kSpanNames
};

inline const char* SpanNameStr(std::uint8_t name) {
  static const char* const kNames[kSpanNames] = {
      "op",           "sim.run",           "engine.run", "db.call",
      "db.checkpoint", "blocklayer.submit", "ssd.submit"};
  return name < kSpanNames ? kNames[name] : "?";
}

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t op = 0;
  std::int32_t parent = -1;
  std::uint8_t name = 0;
};

/// Records spans in call order. Disabled, Begin/End cost one branch.
/// Not thread-safe: every span of a run is opened from one thread at a
/// time (the calling thread, or the controller shard, which the
/// sharded engine runs on one worker per window with barriers between).
class SpanLog {
 public:
  void set_enabled(bool on) { on_ = on; }
  bool enabled() const { return on_; }
  void set_op(std::uint64_t op) { op_ = op; }

  void Begin(std::uint8_t name) {
    if (!on_) return;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(
        Span{WallNs(), 0, op_, stack_.empty() ? -1 : stack_.back(), name});
    stack_.push_back(id);
  }
  void End() {
    if (!on_) return;
    spans_[static_cast<std::size_t>(stack_.back())].end = WallNs();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  bool balanced() const { return stack_.empty(); }

 private:
  bool on_ = false;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::uint8_t name) : log_(log) {
    log_->Begin(name);
  }
  ~ScopedSpan() { log_->End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

struct SpanTotals {
  std::uint64_t count[kSpanNames] = {};
  std::uint64_t total_ns[kSpanNames] = {};
  std::uint64_t self_ns[kSpanNames] = {};
  /// Every child lies inside its parent, siblings do not overlap, a
  /// child carries its parent's op id (except under engine.run, which
  /// holds every op of a sharded run), and per root the self times of
  /// its tree sum to the root's duration.
  bool tiled = true;
};

inline SpanTotals Analyze(const std::vector<Span>& spans) {
  SpanTotals t;
  const std::size_t n = spans.size();
  std::vector<std::uint64_t> child_ns(n, 0);
  std::vector<std::uint64_t> last_child_end(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (s.end < s.start) t.tiled = false;
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    const Span& ps = spans[p];
    // Ops of the sharded loop run inside one engine.run root.
    if (s.start < ps.start || s.end > ps.end || s.start < last_child_end[p] ||
        (s.op != ps.op && ps.name != kSpanEngineRun)) {
      t.tiled = false;
    }
    last_child_end[p] = s.end;
    child_ns[p] += s.end - s.start;
  }
  std::vector<std::size_t> root_of(n, 0);
  std::vector<std::uint64_t> tree_self(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    const std::uint64_t dur = s.end - s.start;
    if (child_ns[i] > dur) t.tiled = false;
    const std::uint64_t self = dur - std::min(dur, child_ns[i]);
    root_of[i] = s.parent < 0 ? i : root_of[static_cast<std::size_t>(s.parent)];
    tree_self[root_of[i]] += self;
    t.count[s.name] += 1;
    t.total_ns[s.name] += dur;
    t.self_ns[s.name] += self;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].parent < 0 &&
        tree_self[i] != spans[i].end - spans[i].start) {
      t.tiled = false;
    }
  }
  return t;
}

/// Writes one CSV row per span: op, name, start and end (ns, relative
/// to the first span), parent row (-1 for a root).
inline bool WriteSpansCsv(const std::vector<Span>& spans, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const std::uint64_t base = spans.empty() ? 0 : spans.front().start;
  std::fprintf(f, "op,name,start_ns,end_ns,parent\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%s,%llu,%llu,%d\n",
                 static_cast<unsigned long long>(s.op), SpanNameStr(s.name),
                 static_cast<unsigned long long>(s.start - base),
                 static_cast<unsigned long long>(s.end - base), s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
