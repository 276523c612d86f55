// In-memory span tracer for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around calls into the library's public
// API (the library itself is not instrumented). Each span has a name, the
// layer (repository module) it is attributed to, start and end times on the
// steady clock, its parent span and an operation id shared by every span of
// one operation. Spans stay in memory until the run ends; WriteJson dumps
// them, and SelfTimes folds them into per-layer self time.
//
// Some layer times cannot be observed from outside a call: k-Shape reports
// its assignment and extraction time in ClusteringResult. Those are added as
// "reported" child spans laid end to end from the parent's start, so a
// parent's self time is its wall time minus what its layers reported.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Names and layers are string literals, so recording a span allocates
// nothing beyond the vector slot.
struct Span {
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;  // steady clock, relative to the tracer's epoch
  std::int64_t end_ns = 0;
  int parent = -1;            // index into spans(), -1 for a root
  std::int64_t op = 0;        // operation id shared by the op's spans
  bool reported = false;      // duration reported by the library, not timed
};

class Tracer {
 public:
  Tracer();

  // A disabled tracer records nothing; Begin returns -1 and End ignores it.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Starts a new operation and returns its id.
  std::int64_t NewOp() { return ++last_op_; }

  // Opens a span under the innermost open span (or as a root).
  int Begin(const char* name, const char* layer, std::int64_t op);
  void End(int span);

  // Adds a child of `parent` whose duration the library reported. Reported
  // children of one parent are laid end to end from the parent's start.
  void AddReported(int parent, const char* name, const char* layer,
                   double seconds);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per layer, in seconds, over the spans whose root is named
  // `root_name` (every span when empty): a span's duration minus the
  // durations of its children.
  std::map<std::string, double> SelfTimes(const std::string& root_name) const;

  // Sum of the durations of the root spans named `root_name`.
  double RootSeconds(const std::string& root_name) const;

  // Writes every span as a JSON array.
  bool WriteJson(const std::string& path) const;

 private:
  std::int64_t NowNs() const;
  int RootOf(int span) const;

  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_;
  std::int64_t last_op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;                 // stack of open span indices
  std::map<int, std::int64_t> reported_;  // parent -> reported ns so far
};

// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer,
             std::int64_t op)
      : tracer_(tracer), span_(tracer->Begin(name, layer, op)) {}
  ~ScopedSpan() { tracer_->End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return span_; }

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
