// Unit tests for src/telemetry: histogram bucket boundaries and Welford
// merge, counter/tracer correctness under ThreadPool contention, JSONL
// snapshot shape, and a golden-file check that the emitted Chrome trace
// JSON is well-formed (validated with the minimal parser below — the repo
// deliberately carries no JSON library).
//
// Each TEST runs in its own process (gtest_discover_tests registers them
// individually), so tests may flip the global enable flags freely.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/timeline.h"
#include "telemetry/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tsf::telemetry {
namespace {

// ------------------------------------------------- mini JSON parser ----
// Recursive-descent well-formedness checker: accepts exactly the RFC 8259
// grammar (objects, arrays, strings with escapes, numbers, literals) and
// nothing else. Used to prove the writers emit parseable JSON without
// pulling in a JSON dependency.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek('}')) return true;
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (!Peek(':')) return false;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek('}')) return true;
      if (!Peek(',')) return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek(']')) return true;
    while (true) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek(']')) return true;
      if (!Peek(',')) return false;
    }
  }

  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // bare control
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i)
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[pos_++])))
              return false;
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      }
    }
    return false;
  }

  bool Number() {
    const std::size_t start = pos_;
    if (Peek('-')) {
    }
    if (!DigitRun()) return false;
    if (Peek('.') && !DigitRun()) return false;
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!Peek('+')) Peek('-');
      if (!DigitRun()) return false;
    }
    return pos_ > start;
  }

  bool DigitRun() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    return pos_ > start;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Peek(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool IsValidJson(std::string_view text) { return JsonChecker(text).Valid(); }

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << path;
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("tsf_telemetry_test_") + name))
      .string();
}

TEST(JsonChecker, AcceptsAndRejects) {
  EXPECT_TRUE(IsValidJson(R"({"a":[1,2.5,-3e-2],"b":"x\"\\","c":null})"));
  EXPECT_TRUE(IsValidJson("[]"));
  EXPECT_FALSE(IsValidJson(R"({"a":1,})"));
  EXPECT_FALSE(IsValidJson(R"({"a" 1})"));
  EXPECT_FALSE(IsValidJson(R"(["unterminated)"));
  EXPECT_FALSE(IsValidJson("{} trailing"));
  EXPECT_FALSE(IsValidJson(R"(["bad\escape"])"));
}

// --------------------------------------------------------- histogram ----

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 absorbs everything below 1, including negatives and NaN.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(0.999), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-17.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(std::nan("")), 0u);
  // Bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::BucketIndex(1.0), 1u);
  EXPECT_EQ(Histogram::BucketIndex(1.999), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2.0), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3.999), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4.0), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1024.0), 11u);
  EXPECT_EQ(Histogram::BucketIndex(1023.999), 10u);
  // Every bucket's lower bound maps back to that bucket, and the value just
  // below it maps to the previous one.
  for (std::size_t b = 1; b + 1 < Histogram::kBuckets; ++b) {
    const double low = Histogram::BucketLowerBound(b);
    EXPECT_EQ(Histogram::BucketIndex(low), b) << "bucket " << b;
    EXPECT_EQ(Histogram::BucketIndex(std::nextafter(low, 0.0)), b - 1)
        << "bucket " << b;
  }
  // The top bucket is open-ended: huge values clamp instead of overflowing.
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(std::ldexp(1.0, 100)),
            Histogram::kBuckets - 1);
}

// Reference two-pass moments for a value stream.
HistogramSnapshot Reference(const std::vector<double>& values) {
  HistogramSnapshot ref;
  ref.count = values.size();
  if (values.empty()) return ref;
  double sum = 0.0;
  ref.min = values[0];
  ref.max = values[0];
  for (double v : values) {
    sum += v;
    ref.min = std::min(ref.min, v);
    ref.max = std::max(ref.max, v);
    ref.buckets[Histogram::BucketIndex(v)]++;
  }
  ref.mean = sum / static_cast<double>(values.size());
  for (double v : values) ref.m2 += (v - ref.mean) * (v - ref.mean);
  return ref;
}

void ExpectMomentsNear(const HistogramSnapshot& got,
                       const HistogramSnapshot& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_NEAR(got.mean, want.mean, 1e-9 * (1.0 + std::fabs(want.mean)));
  EXPECT_NEAR(got.m2, want.m2, 1e-9 * (1.0 + std::fabs(want.m2)));
  EXPECT_DOUBLE_EQ(got.min, want.min);
  EXPECT_DOUBLE_EQ(got.max, want.max);
  EXPECT_EQ(got.buckets, want.buckets);
}

TEST(Histogram, MergeMatchesConcatenatedStream) {
  std::vector<double> a, b, all;
  for (int i = 0; i < 500; ++i) a.push_back(0.1 * i * i - 3.0);
  for (int i = 0; i < 137; ++i) b.push_back(1000.0 - 7.0 * i);
  all = a;
  all.insert(all.end(), b.begin(), b.end());

  Histogram ha, hb;
  for (double v : a) ha.Record(v);
  for (double v : b) hb.Record(v);
  HistogramSnapshot merged = ha.Snapshot();
  merged.Merge(hb.Snapshot());
  ExpectMomentsNear(merged, Reference(all));

  // Merging into/with an empty snapshot is the identity.
  HistogramSnapshot empty;
  HistogramSnapshot copy = merged;
  copy.Merge(empty);
  ExpectMomentsNear(copy, merged);
  HistogramSnapshot from_empty;
  from_empty.Merge(merged);
  ExpectMomentsNear(from_empty, merged);
}

TEST(Histogram, QuantileEmptyAndSingleSample) {
  EXPECT_EQ(HistogramSnapshot{}.Quantile(0.5), 0.0);
  Histogram h;
  h.Record(7.3);
  const HistogramSnapshot snap = h.Snapshot();
  // One sample: the [min, max] clamp collapses the in-bucket interpolation,
  // so every quantile is exact.
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(snap.Quantile(q), 7.3) << "q=" << q;
}

TEST(Histogram, QuantileBucketBoundaryExactness) {
  // All mass on one power-of-two boundary: the target bucket holds a single
  // distinct value, so estimates are exact at every q.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(8.0);
  const HistogramSnapshot snap = h.Snapshot();
  for (const double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(snap.Quantile(q), 8.0) << "q=" << q;

  // Mass on several boundaries: extreme quantiles pin to min/max exactly,
  // and interior estimates stay inside the true value's bucket (< 2x).
  Histogram spread;
  for (const double v : {1.0, 2.0, 4.0, 8.0})
    for (int i = 0; i < 25; ++i) spread.Record(v);
  const HistogramSnapshot s = spread.Snapshot();
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 8.0);
  const double p60 = s.Quantile(0.60);  // true nearest-rank value: 4
  EXPECT_GE(p60, 2.0);
  EXPECT_LT(p60, 8.0);
}

TEST(Histogram, QuantileWithinFactorTwoOfExact) {
  // Log-uniform samples over [1, 2^20): the documented bound says the
  // estimate shares a log2 bucket with the true quantile, i.e. the ratio
  // between them is < 2 in both directions.
  Rng rng(0x51051ULL);
  std::vector<double> values;
  Histogram h;
  for (int i = 0; i < 10000; ++i) {
    const double v = std::exp2(rng.Uniform(0.0, 20.0));
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snap = h.Snapshot();
  for (const double q : {0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double exact = values[static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1))];
    const double estimate = snap.Quantile(q);
    EXPECT_LT(estimate / exact, 2.0) << "q=" << q;
    EXPECT_GT(estimate / exact, 0.5) << "q=" << q;
  }
}

TEST(Histogram, QuantileOfMergeEqualsQuantileOfConcatenation) {
  // Bucket counts and min/max combine losslessly under Merge, so the
  // merge-then-quantile path is bit-identical to recording the
  // concatenated stream into one histogram.
  std::vector<double> a, b;
  Rng rng(20260807);
  for (int i = 0; i < 1000; ++i) a.push_back(rng.Uniform(0.5, 5000.0));
  for (int i = 0; i < 333; ++i) b.push_back(rng.Uniform(100.0, 1e7));
  Histogram ha, hb, hall;
  for (const double v : a) {
    ha.Record(v);
    hall.Record(v);
  }
  for (const double v : b) {
    hb.Record(v);
    hall.Record(v);
  }
  HistogramSnapshot merged = ha.Snapshot();
  merged.Merge(hb.Snapshot());
  const HistogramSnapshot direct = hall.Snapshot();
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(merged.Quantile(q), direct.Quantile(q)) << "q=" << q;
}

TEST(Histogram, ShardedConcurrentRecordHasExactMoments) {
  // ThreadPool workers land on distinct shards; Snapshot's Chan/Welford
  // combine must still reproduce the exact moments of the full stream.
  constexpr std::size_t kValues = 20000;
  std::vector<double> values;
  values.reserve(kValues);
  for (std::size_t i = 0; i < kValues; ++i)
    values.push_back(std::fmod(static_cast<double>(i) * 37.0, 4097.0) - 10.0);

  Histogram hist;
  ThreadPool pool(8);
  pool.ParallelFor(kValues,
                   [&](std::size_t i) { hist.Record(values[i]); });
  ExpectMomentsNear(hist.Snapshot(), Reference(values));
}

// ----------------------------------------------------------- counter ----

TEST(Counter, ExactUnderThreadPoolContention) {
  constexpr std::int64_t kTasks = 64;
  constexpr std::int64_t kAddsPerTask = 10000;
  Counter counter;
  ThreadPool pool(8);
  pool.ParallelFor(kTasks, [&](std::size_t) {
    for (std::int64_t i = 0; i < kAddsPerTask; ++i) counter.Add(1);
  });
  EXPECT_EQ(counter.Total(), kTasks * kAddsPerTask);
}

// ---------------------------------------------------------- registry ----

TEST(Registry, MacrosAreNoOpsWhileDisabled) {
  SetEnabled(false);
  for (int pass = 0; pass < 2; ++pass) {
    // Same macro site both times: records only on the enabled pass.
    TSF_COUNTER_ADD("test.toggle", 1);
    TSF_HISTOGRAM_RECORD("test.toggle_hist", 5.0);
    SetEnabled(true);
  }
  SetEnabled(false);
#if defined(TSF_TELEMETRY)
  const MetricsSnapshot snapshot = Registry::Get().Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].first, "test.toggle");
  EXPECT_EQ(snapshot.counters[0].second, 1);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].second.count, 1u);
#endif
}

TEST(Registry, JsonlSnapshotIsValidJsonPerLine) {
  // Unique prefix so the counts stay right even when other tests in this
  // process have already populated the registry.
  Registry& registry = Registry::Get();
  registry.GetCounter("jsonl.jobs \"done\"\\").Add(42);
  registry.GetGauge("jsonl.depth").Set(3.5);
  Histogram& hist = registry.GetHistogram("jsonl.latency");
  for (double v : {0.5, 1.0, 3.0, 100.0}) hist.Record(v);

  const std::string path = TempPath("metrics.jsonl");
  ASSERT_TRUE(registry.WriteJsonlSnapshot(path));
  std::ifstream file(path);
  std::string line;
  int own_lines = 0;
  bool saw_escaped_counter = false;
  while (std::getline(file, line)) {
    EXPECT_TRUE(IsValidJson(line)) << line;
    if (line.find("jsonl.") != std::string::npos) ++own_lines;
    if (line.find(R"("name":"jsonl.jobs \"done\"\\")") != std::string::npos) {
      saw_escaped_counter = true;
      EXPECT_NE(line.find("\"value\":42"), std::string::npos) << line;
    }
  }
  EXPECT_EQ(own_lines, 3);
  EXPECT_TRUE(saw_escaped_counter);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ tracer ----

TEST(Tracer, SpansRecordedUnderThreadPoolContention) {
  constexpr std::size_t kTasks = 2000;
  Tracer& tracer = Tracer::Get();
  tracer.Start(/*events_per_thread=*/1 << 14);
  {
    ThreadPool pool(8);
    pool.ParallelFor(kTasks, [&](std::size_t i) {
      TSF_TRACE_SCOPE("test", "work");
      TSF_TRACE_INSTANT("test", "tick");
      TSF_TRACE_COUNTER("test", "progress", static_cast<double>(i));
    });
  }
  tracer.Stop();
#if defined(TSF_TELEMETRY)
  // Capacity is ample (8 threads x 16384 slots), so nothing may drop and
  // every record must be present exactly once.
  EXPECT_EQ(tracer.DroppedRecords(), 0u);
  EXPECT_EQ(tracer.BufferedRecords(), 3 * kTasks);

  const std::string path = TempPath("contended_trace.json");
  ASSERT_TRUE(tracer.WriteChromeTrace(path));
  const std::string text = ReadFile(path);
  EXPECT_TRUE(IsValidJson(text));
  std::size_t spans = 0, pos = 0;
  while ((pos = text.find("\"name\":\"work\"", pos)) != std::string::npos) {
    ++spans;
    ++pos;
  }
  EXPECT_EQ(spans, kTasks);
  std::remove(path.c_str());
#else
  EXPECT_EQ(tracer.BufferedRecords(), 0u);
#endif
}

TEST(Tracer, RingOverwritesOldestAndReportsDropped) {
  Tracer& tracer = Tracer::Get();
  tracer.Start(/*events_per_thread=*/16);
  for (int i = 0; i < 100; ++i) tracer.RecordInstant("test", "i");
  tracer.Stop();
  EXPECT_EQ(tracer.BufferedRecords(), 16u);
  EXPECT_EQ(tracer.DroppedRecords(), 84u);

  const std::string path = TempPath("ring_trace.json");
  ASSERT_TRUE(tracer.WriteChromeTrace(path));
  const std::string text = ReadFile(path);
  EXPECT_TRUE(IsValidJson(text));
  EXPECT_NE(text.find("\"dropped_events\":\"84\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Tracer, ChromeTraceGoldenShape) {
  Tracer& tracer = Tracer::Get();
  tracer.Start();
  // One of each phase, plus an interned name with characters that must be
  // escaped for the JSON to stay parseable.
  const std::uint64_t start = tracer.NowNs();
  tracer.RecordComplete("cat", "span", start);
  tracer.RecordInstant("cat", "blip");
  tracer.RecordCounter("cat", "depth", 7.5);
  tracer.RecordInstant("cat", tracer.Intern("cell/\"quoted\"\\policy"));
  tracer.Stop();

  const std::string path = TempPath("golden_trace.json");
  ASSERT_TRUE(tracer.WriteChromeTrace(path));
  const std::string text = ReadFile(path);
  ASSERT_TRUE(IsValidJson(text));

  // Top-level shape Perfetto / chrome://tracing expects.
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);  // process_name meta
  // The complete event carries a duration; the counter carries its value in
  // args; the instant is marked thread-scoped.
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"dur\":"), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("\"value\":7.5"), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  // The interned name survived, escaped.
  EXPECT_NE(text.find(R"(cell/\"quoted\"\\policy)"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Tracer, SpanOpenedWhileInactiveStaysSilent) {
  Tracer& tracer = Tracer::Get();
  {
    ScopedSpan span("test", "early");
    tracer.Start();
  }  // closes after Start — must still not record
  tracer.Stop();
  EXPECT_EQ(tracer.BufferedRecords(), 0u);
}

// ---------------------------------------------------------- timeline ----

TEST(Timeline, JsonlWriter) {
  const std::vector<FairnessSample> samples = {
      {10.0, 0, 5, 2, 0.25, 0.125},
      {20.0, 1, 3, 0, 0.5, 0.0625},
  };
  const std::string jsonl_path = TempPath("timeline.jsonl");
  ASSERT_TRUE(WriteFairnessJsonl(jsonl_path, "TSF", samples));

  std::ifstream jsonl(jsonl_path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(jsonl, line)) {
    EXPECT_TRUE(IsValidJson(line)) << line;
    EXPECT_NE(line.find("\"policy\":\"TSF\""), std::string::npos);
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"time\":20.000000,\"user\":1,\"running\":3,"
                          "\"pending\":0"),
            std::string::npos)
      << lines[1];
  std::remove(jsonl_path.c_str());
}

}  // namespace
}  // namespace tsf::telemetry
