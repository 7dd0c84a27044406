#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                    int64_t parent, uint64_t doc) {
  if (!enabled_) return -1;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{name, start_ns, end_ns, parent, doc});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::MeanSelfUs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, std::pair<double, size_t>> sums;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (const auto& [begin, end] : kids) {
      const int64_t from = std::max(begin, cursor);
      const int64_t to = std::min(end, s.end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    auto& sum = sums[s.name];
    sum.first += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3;
    ++sum.second;
  }
  std::map<std::string, double> out;
  for (const auto& [name, sum] : sums) out[name] = sum.first / sum.second;
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%lld,\"doc\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.doc));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
