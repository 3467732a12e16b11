#include "bench_util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::max<std::size_t>(rank, 1);
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("percentile: q must be in (0, 1]");
  const std::size_t n = samples.size();
  const std::size_t rank = nearest_rank(n, q);
  if (n < rank + kMinBeyond) {
    std::ostringstream why;
    why << "percentile: p" << q * 100.0 << " of " << n << " samples has fewer than "
        << kMinBeyond << " samples beyond it (needs " << min_samples_for(q) << ")";
    throw std::invalid_argument(why.str());
  }
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (n < nearest_rank(n, q) + kMinBeyond) ++n;
  return n;
}

void Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (value >> (8 * i)) & 0xffU;
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(state_));
  return buf;
}

std::int32_t Tracer::begin(const char* name, std::uint64_t request, std::int32_t parent) {
  Span span;
  span.name = name;
  span.start_ns = now_ns();
  span.parent = parent;
  span.request = request;
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::end(std::int32_t id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

void Tracer::append(const Tracer& other) {
  const auto offset = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(s);
  }
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name && s.end_ns >= s.start_ns) out.push_back(ns_to_ms(s.end_ns - s.start_ns));
  }
  return out;
}

double Tracer::coverage_min() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
  }
  double worst = 1.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& root = spans_[i];
    if (root.parent >= 0 || std::strcmp(root.name, kRequestSpan) != 0 ||
        root.end_ns <= root.start_ns)
      continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = root.start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t lo = std::max(start, cursor);
      const std::int64_t hi = std::min(end, root.end_ns);
      if (hi > lo) covered += hi - lo;
      cursor = std::max(cursor, hi);
    }
    worst = std::min(worst, static_cast<double>(covered) /
                                static_cast<double>(root.end_ns - root.start_ns));
  }
  return worst;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (const Span& s : spans_) {
    out << "{\"name\": " << quoted(s.name) << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void Report::add(const std::string& name, const std::string& unit, double value,
                 std::size_t samples) {
  metrics.push_back({name, unit, value, samples});
}

void Report::add_percentile(const std::string& name, const std::string& unit,
                            const std::vector<double>& samples, double q) {
  add(name, unit, percentile(samples, q), samples.size());
}

void Report::fail(const std::string& why) {
  correct = false;
  notes.push_back(why);
}

void Report::print_details() const {
  std::cout << "workload=" << workload << " seed=" << seed << " trace=" << (traced ? 1 : 0)
            << "\n";
  for (const auto& [key, value] : environment)
    std::cout << "  env " << key << " = " << value << "\n";
  for (const std::string& note : notes) std::cout << "  note: " << note << "\n";
  std::cout << "  attempted=" << attempted << " failed=" << failed << " failed_fraction="
            << number(attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                                : 0.0)
            << " correct=" << (correct ? "true" : "false") << "\n";
  auto print = [](const Metric& m, const char* tag) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit;
    if (m.samples) std::cout << " (n=" << m.samples << ")";
    std::cout << tag << "\n";
  };
  for (const Metric& m : metrics) print(m, "");
  for (const Metric& m : unbounded) print(m, " [unbounded]");
}

std::string Report::result_json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << quoted(metrics[i].name) << ": {\"value\": "
        << number(metrics[i].value) << ", \"unit\": " << quoted(metrics[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

std::string Report::full_json() const {
  std::ostringstream out;
  out << "{\n  \"workload\": " << quoted(workload) << ",\n  \"seed\": " << seed
      << ",\n  \"trace\": " << (traced ? 1 : 0) << ",\n  \"correct\": "
      << (correct ? "true" : "false") << ",\n  \"attempted\": " << attempted
      << ",\n  \"failed\": " << failed << ",\n  \"environment\": {";
  for (std::size_t i = 0; i < environment.size(); ++i) {
    out << (i ? ", " : "") << quoted(environment[i].first) << ": " << quoted(environment[i].second);
  }
  out << "},\n  \"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) out << (i ? ", " : "") << quoted(notes[i]);
  out << "],\n  \"metrics\": [\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out << "    {\"name\": " << quoted(m.name) << ", \"unit\": " << quoted(m.unit)
        << ", \"value\": " << number(m.value) << ", \"samples\": " << m.samples << "}"
        << (i + 1 < metrics.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"unbounded\": [\n";
  for (std::size_t i = 0; i < unbounded.size(); ++i) {
    const Metric& m = unbounded[i];
    out << "    {\"name\": " << quoted(m.name) << ", \"unit\": " << quoted(m.unit)
        << ", \"value\": " << number(m.value) << ", \"samples\": " << m.samples << "}"
        << (i + 1 < unbounded.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace perfbench
