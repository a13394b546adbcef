#include "trace.h"

#include <cstdio>

namespace perfbench {

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

size_t Tracer::Begin(std::string name, std::string layer, uint64_t group) {
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.group = group;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.begin_us = NowUs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double Tracer::End(size_t handle) {
  const double now = NowUs();
  if (open_.empty() || open_.back() != handle) Die("trace spans closed out of order");
  open_.pop_back();
  spans_[handle].end_us = now;
  return (now - spans_[handle].begin_us) / 1e3;
}

std::map<std::string, double> Tracer::SelfTimeMsByLayer() const {
  std::vector<double> self_us(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self_us[i] += spans_[i].end_us - spans_[i].begin_us;
    if (spans_[i].parent >= 0) {
      self_us[static_cast<size_t>(spans_[i].parent)] -=
          spans_[i].end_us - spans_[i].begin_us;
    }
  }
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_layer[spans_[i].layer] += self_us[i] / 1e3;
  }
  return by_layer;
}

void Tracer::WriteChromeTrace(const std::string& path) const {
  std::string out = "{\"traceEvents\": [\n";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"span\": %zu, \"parent\": %lld, \"group\": %llu}}",
                  i ? ",\n" : "", s.name.c_str(), s.layer.c_str(), s.begin_us,
                  s.end_us - s.begin_us, i, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.group));
    out += buf;
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  WriteFileOrDie(path, out);
}

}  // namespace perfbench
