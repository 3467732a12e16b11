#pragma once

// Measurement plumbing of the planner benchmark: nearest-rank percentiles,
// input digests, benchmark-side layer spans and the result report.
//
// Spans are recorded by the benchmark around its direct calls into each
// layer's public functions (nothing inside the library is instrumented).
// A request owns one root span; the layer spans it causes are its
// children, so a request's coverage is the share of its root span that
// named child spans account for.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the monotonic clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Samples a percentile needs beyond its rank before it is reported.
constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile, q in (0, 1]: the ceil(q * n)-th smallest sample.
/// Throws std::invalid_argument when fewer than kMinBeyond samples lie
/// beyond that rank (a p90 needs >= 100 samples, a p99 >= 1000).
double percentile(std::vector<double> samples, double q);

/// Smallest sample count for which percentile(., q) answers.
std::size_t min_samples_for(double q);

/// FNV-1a over the bit patterns of the values fed to it.
class Digest {
 public:
  void add(std::uint64_t value);
  void add(double value);
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span list, -1 for a root
  std::uint64_t request = 0;
};

/// Name of the root span of one request.
constexpr const char* kRequestSpan = "request";

/// In-memory span store of one run (single-threaded use).
class Tracer {
 public:
  std::int32_t begin(const char* name, std::uint64_t request, std::int32_t parent = -1);
  void end(std::int32_t id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Append another tracer's spans (parent links re-based).
  void append(const Tracer& other);

  /// Durations (ms) of every closed span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;

  /// Minimum over kRequestSpan roots of the share of the root's wall time
  /// that its direct children cover (1.0 when there are none).
  double coverage_min() const;

  /// One JSON object per span: name, start_ns, end_ns, parent, request.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span: begins at construction, ends at destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request, std::int32_t parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;  ///< population behind the value (0: a count)
};

/// Outcome of one benchmark run.
struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> environment;
  std::vector<std::string> notes;  ///< failures and findings, one line each
  std::vector<Metric> metrics;
  /// Figures printed with the details but kept out of the result line (no
  /// bound: too noisy to gate on).
  std::vector<Metric> unbounded;

  void add(const std::string& name, const std::string& unit, double value,
           std::size_t samples = 0);
  /// p50/p90/p99 helper: adds `name` with the percentile of `samples`.
  void add_percentile(const std::string& name, const std::string& unit,
                      const std::vector<double>& samples, double q);
  void fail(const std::string& why);

  /// Human-readable lines (environment, notes, metric = value unit (n=...)).
  void print_details() const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string result_json() const;
  /// Everything above as one JSON document.
  std::string full_json() const;
};

}  // namespace perfbench
