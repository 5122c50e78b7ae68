// Span recorder of the benchmark's traced run.
//
// The benchmark records one span around each call it makes into a library
// layer (trace synthesis, compilation, Simulate, SolveTsf, the load driver,
// the Mesos master) and around its own set-up, checking and pass loops. A
// span has a name, a layer, a start, an end and a parent; spans are kept in
// memory and written out once, as Chrome trace-event JSON, when the run
// ends. Self time is a span's duration minus the time its children cover,
// so the self times of a well-nested tree sum to the root's duration.
//
// When the recorder is disabled (the untraced run) or muted (while a
// counting pass runs under a span of its own) Begin/End do nothing.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans, -1 for a root
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_muted(bool muted) { muted_ = muted; }

  // Opens a span as a child of the innermost open span; returns its index,
  // or -1 when disabled.
  int Begin(std::string name, std::string layer);
  // Closes the innermost open span, which must be `index`; -1 is ignored.
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span, in seconds, indexed like spans().
  std::vector<double> SelfSeconds() const;

  // True when every child lies inside its parent and siblings do not
  // overlap; otherwise describes the first offence in *error.
  bool WellNested(std::string* error) const;

  // Writes the spans as Chrome trace-event JSON ("X" complete events).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  bool muted_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::string layer)
      : recorder_(recorder),
        index_(recorder.Begin(std::move(name), std::move(layer))) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

// Monotonic nanoseconds since an arbitrary origin.
std::int64_t NowNs();

// Wall seconds of a callable.
template <typename F>
double TimeSeconds(F&& f) {
  const std::int64_t start = NowNs();
  f();
  return static_cast<double>(NowNs() - start) * 1e-9;
}

}  // namespace perfbench
