#pragma once

// Host-time measurement helpers for the benchmark engine: a steady-clock
// stopwatch, an in-memory span log (name, start, end, parent) written out
// once when a traced pass ends, and a 64-bit FNV-1a hash for output
// fingerprints.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< relative to the log's creation
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
};

/// Spans opened and closed in LIFO order from one thread.
class SpanLog {
 public:
  int open(std::string_view name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::string(name), now_ns(), 0, parent});
    stack_.push_back(int(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[std::size_t(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one scope. With a log it is also recorded as a span; without one
/// (the untraced pass) it costs two clock reads.
class Scope {
 public:
  Scope(SpanLog* log, std::string_view name)
      : log_(log), id_(log != nullptr ? log->open(name) : -1) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the scope (idempotent) and returns its length in seconds.
  double stop() {
    if (!stopped_) {
      secs_ = seconds_since(t0_);
      if (log_ != nullptr) log_->close(id_);
      stopped_ = true;
    }
    return secs_;
  }

 private:
  SpanLog* log_;
  int id_;
  Clock::time_point t0_ = Clock::now();
  bool stopped_ = false;
  double secs_ = 0.0;
};

/// 64-bit FNV-1a, fed field by field.
class Fnv {
 public:
  Fnv& add(std::string_view s) {
    for (unsigned char c : s) h_ = (h_ ^ c) * 0x100000001b3ull;
    return *this;
  }
  Fnv& add(std::uint64_t v) {
    char buf[24];
    const int n = std::snprintf(buf, sizeof buf, "|%llu", (unsigned long long)v);
    return add(std::string_view(buf, std::size_t(n)));
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
