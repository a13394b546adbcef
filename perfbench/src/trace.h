// In-memory span recorder of the traced run. Spans nest on one thread (the
// probe drives every layer call in sequence); each span carries its layer,
// its parent, and a group id shared by the spans of one round or epoch.
// Written out once, at the end, as Chrome trace-event JSON.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span inside the innermost open one; returns its handle.
  size_t Begin(std::string name, std::string layer, uint64_t group = 0);
  /// Closes span `handle` (the innermost open one); returns its length in ms.
  double End(size_t handle);

  /// Runs `fn` inside a span; returns the span's length in ms.
  template <typename Fn>
  double Time(std::string name, std::string layer, uint64_t group, Fn&& fn) {
    const size_t handle = Begin(std::move(name), std::move(layer), group);
    fn();
    return End(handle);
  }

  /// Per layer: the summed span time not covered by child spans, in ms.
  std::map<std::string, double> SelfTimeMsByLayer() const;

  /// {"traceEvents": [...]} with one complete ("X") event per span.
  void WriteChromeTrace(const std::string& path) const;

  size_t num_spans() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    std::string layer;
    uint64_t group = 0;
    int64_t parent = -1;
    double begin_us = 0.0;
    double end_us = 0.0;
  };
  double NowUs() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
