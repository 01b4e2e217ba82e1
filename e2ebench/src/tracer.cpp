#include "tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace e2e {

void Tracer::begin(std::string name, std::uint64_t job) {
  Span s;
  s.name = std::move(name);
  s.job = job;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
}

void Tracer::end() {
  if (open_.empty()) return;
  spans_[open_.back()].end_ns = now_ns();
  open_.pop_back();
}

std::vector<std::int64_t> Tracer::self_times() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to the span.
    std::int64_t covered = 0, cur_a = 0, cur_b = -1;
    for (auto [a, b] : iv) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a, cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::uint64_t, std::map<std::string, std::int64_t>> Tracer::self_by_job() const {
  const std::vector<std::int64_t> self = self_times();
  std::map<std::uint64_t, std::map<std::string, std::int64_t>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].job][spans_[i].name] += self[i];
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"),
                                                    &std::fclose);
  if (!f) return false;
  const std::vector<std::int64_t> self = self_times();
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld, \"job\": %llu, \"self_us\": %.3f}}",
                 i == 0 ? "" : ",\n", s.name.c_str(),
                 static_cast<unsigned long long>(s.job), s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.job), self[i] / 1e3);
  }
  std::fputs("\n]}\n", f.get());
  return std::ferror(f.get()) == 0;
}

}  // namespace e2e
