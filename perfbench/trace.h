// In-memory spans around the benchmark's calls into each layer and
// around each document's client-side life, written out at the end.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;  // a string literal
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;  // index of the parent span; -1 for a root
  uint64_t doc;    // shared by every span of one document
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// At most this many spans are kept; later ones are counted only.
  static constexpr size_t kMaxSpans = 200'000;

  /// Records a finished span; returns its index (-1 when disabled or
  /// full).
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t doc);

  /// Per span name: the mean self time in microseconds, i.e. duration
  /// minus the part of it that child spans cover.
  std::map<std::string, double> MeanSelfUs() const;

  /// One JSON object per line: name, start_ns, end_ns, parent, doc.
  bool Write(const std::string& path) const;

  size_t size() const { return spans_.size(); }
  size_t dropped() const { return dropped_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  size_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
