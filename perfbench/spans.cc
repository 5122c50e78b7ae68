#include "spans.h"

#include <chrono>
#include <fstream>
#include <utility>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(std::string name, std::string layer) {
  if (!enabled_ || muted_) return -1;
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  const std::int64_t now = NowNs();
  // Spans close in LIFO order by construction (ScopedSpan); a mismatch is a
  // harness bug that WellNested() would then report.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = now;
}

std::vector<double> SpanRecorder::SelfSeconds() const {
  std::vector<std::int64_t> self_ns(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self_ns[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const Span& span : spans_)
    if (span.parent >= 0)
      self_ns[static_cast<std::size_t>(span.parent)] -=
          span.end_ns - span.start_ns;
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = static_cast<double>(self_ns[i]) * 1e-9;
  return self;
}

bool SpanRecorder::WellNested(std::string* error) const {
  std::vector<std::int64_t> last_child_end(spans_.size(), 0);
  std::vector<bool> has_child(spans_.size(), false);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < span.start_ns) {
      *error = "span " + span.name + " ends before it starts";
      return false;
    }
    if (span.parent < 0) continue;
    const auto p = static_cast<std::size_t>(span.parent);
    const Span& parent = spans_[p];
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
      *error = "span " + span.name + " leaves its parent " + parent.name;
      return false;
    }
    // Children are appended in start order, so checking each against the
    // previous sibling's end finds any overlap.
    if (has_child[p] && span.start_ns < last_child_end[p]) {
      *error = "span " + span.name + " overlaps a sibling under " + parent.name;
      return false;
    }
    has_child[p] = true;
    last_child_end[p] = span.end_ns;
  }
  return true;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << span.name
        << "\",\"cat\":\"" << span.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(span.start_ns - origin) * 1e-3
        << ",\"dur\":"
        << static_cast<double>(span.end_ns - span.start_ns) * 1e-3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
