#include "trace.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::Begin(const char* name, const char* layer, std::int64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  if (span < 0) return;
  spans_[span].end_ns = NowNs();
  // Spans close in LIFO order; tolerate a mismatch by unwinding to `span`.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == span) break;
  }
}

void Tracer::AddReported(int parent, const char* name, const char* layer,
                         double seconds) {
  if (parent < 0) return;
  const std::int64_t offset = reported_[parent];
  const std::int64_t ns = static_cast<std::int64_t>(seconds * 1e9);
  Span span;
  span.name = name;
  span.layer = layer;
  span.parent = parent;
  span.op = spans_[parent].op;
  span.start_ns = spans_[parent].start_ns + offset;
  span.end_ns = span.start_ns + ns;
  span.reported = true;
  reported_[parent] = offset + ns;
  spans_.push_back(std::move(span));
}

int Tracer::RootOf(int span) const {
  while (spans_[span].parent >= 0) span = spans_[span].parent;
  return span;
}

std::map<std::string, double> Tracer::SelfTimes(
    const std::string& root_name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!root_name.empty() &&
        spans_[RootOf(static_cast<int>(i))].name != root_name) {
      continue;
    }
    const Span& s = spans_[i];
    self[s.layer] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns -
                                                child_ns[i]);
  }
  return self;
}

double Tracer::RootSeconds(const std::string& root_name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && s.name == root_name) {
      total += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return total;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":"
                  "%lld,\"end_ns\":%lld,\"parent\":%d,\"op\":%lld,"
                  "\"reported\":%s}%s\n",
                  i, s.name, s.layer,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), s.parent,
                  static_cast<long long>(s.op), s.reported ? "true" : "false",
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
