#include "sim/heartbeat.hpp"

#include <algorithm>

#include "sim/jsonv.hpp"

namespace ccnoc::sim {

Heartbeat::Heartbeat(HeartbeatConfig cfg, Sampler sampler)
    : cfg_(std::move(cfg)), sampler_(std::move(sampler)) {}

Heartbeat::~Heartbeat() { stop(); }

void Heartbeat::start() {
  if (!enabled() || started_) return;
  started_ = true;
  stopping_ = false;
  start_time_ = std::chrono::steady_clock::now();
  if (!cfg_.json_path.empty()) {
    json_ = std::fopen(cfg_.json_path.c_str(), "w");
    if (json_ == nullptr) {
      std::fprintf(stderr, "[heartbeat] cannot open %s; JSON stream disabled\n",
                   cfg_.json_path.c_str());
    }
  }
  thread_ = std::thread([this] { loop(); });
}

void Heartbeat::stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  beat();  // final sample: even sub-interval runs leave one beat behind
  if (json_ != nullptr) {
    std::fclose(json_);
    json_ = nullptr;
  }
  started_ = false;
}

void Heartbeat::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    if (cv_.wait_for(lock, std::chrono::milliseconds(cfg_.interval_ms),
                     [this] { return stopping_; })) {
      return;  // final beat is emitted by stop(), after the join
    }
    lock.unlock();
    beat();
    lock.lock();
  }
}

void Heartbeat::beat() {
  Sample s = sampler_();
  s.wall_ms = std::uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                                std::chrono::steady_clock::now() - start_time_)
                                .count());
  beats_.fetch_add(1, std::memory_order_relaxed);
  if (cfg_.stderr_lines) {
    std::string line = to_stderr_line(s);
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  if (json_ != nullptr) {
    std::string line = to_json(s);
    std::fprintf(json_, "%s\n", line.c_str());
    std::fflush(json_);
  }
}

std::string Heartbeat::to_json(const Sample& s) {
  JsonOut o;
  o.raw("{\"schema\":\"ccnoc-heartbeat-v1\",\"wall_ms\":").num(s.wall_ms);
  o.raw(",\"engine\":").str(s.engine).raw(",\"epochs\":").num(s.epochs);
  o.raw(",\"domains\":[");
  for (std::size_t i = 0; i < s.domains.size(); ++i) {
    const Sample::Domain& d = s.domains[i];
    if (i) o.raw(',');
    o.raw("{\"domain\":").num(d.domain).raw(",\"cycle\":").num(d.cycle);
    o.raw(",\"events\":").num(d.events).raw(",\"mailbox\":").num(d.mailbox);
    o.raw('}');
  }
  o.raw("],\"workers\":[");
  for (std::size_t i = 0; i < s.workers.size(); ++i) {
    const Sample::Worker& w = s.workers[i];
    if (i) o.raw(',');
    // Millisecond resolution with fixed 3 decimals keeps the line compact
    // and locale-independent.
    std::uint64_t us = w.barrier_wait_ns / 1000;
    o.raw("{\"worker\":").num(w.worker).raw(",\"barrier_wait_ms\":").num(us / 1000);
    o.raw('.').raw(char('0' + us / 100 % 10)).raw(char('0' + us / 10 % 10));
    o.raw(char('0' + us % 10)).raw('}');
  }
  o.raw("]}");
  return o.take();
}

std::string Heartbeat::to_stderr_line(const Sample& s) {
  Cycle lo = ~Cycle{0}, hi = 0;
  std::uint64_t events = 0, mailbox = 0;
  for (const Sample::Domain& d : s.domains) {
    lo = std::min(lo, d.cycle);
    hi = std::max(hi, d.cycle);
    events += d.events;
    mailbox += d.mailbox;
  }
  if (s.domains.empty()) lo = 0;
  std::uint64_t wait_ns = 0;
  for (const Sample::Worker& w : s.workers) wait_ns += w.barrier_wait_ns;
  // A text line, built with the same appender as the JSON stream.
  JsonOut o;
  o.raw("[heartbeat] t=").num(s.wall_ms / 1000).raw('.').num(s.wall_ms / 100 % 10);
  o.num(s.wall_ms / 10 % 10).num(s.wall_ms % 10).raw("s ").raw(s.engine);
  o.raw(" epochs=").num(s.epochs).raw(" cycle=").num(lo);
  if (hi != lo) o.raw("..").num(hi);
  o.raw(" events=").num(events).raw(" mailbox=").num(mailbox);
  o.raw(" barrier_wait=").num(wait_ns / 1000000).raw("ms");
  return o.take();
}

}  // namespace ccnoc::sim
