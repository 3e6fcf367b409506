#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>

namespace perfbench {

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_jsonl(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

std::map<std::uint64_t, double> self_times_ms(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::uint64_t, double> out;
  for (const Span& s : spans) {
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_a = 0, run_b = 0;
    bool open = false;
    for (const auto& [a, b] : cover) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) covered += run_b - run_a;
    out[s.id] = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

}  // namespace perfbench
