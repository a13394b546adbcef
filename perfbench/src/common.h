// Shared plumbing of the benchmark binary: its own random stream, clocks,
// order statistics, memory readings, the correctness log and the metric
// list printed as the final JSON line.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// xoshiro256** seeded through splitmix64. The benchmark draws every input
/// from this generator rather than from the library's scholar::Rng, so a
/// change to the library's random streams never moves the inputs.
class BenchRng {
 public:
  explicit BenchRng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  uint64_t Bounded(uint64_t n) { return Next() % n; }
  /// Standard normal (Box-Muller).
  double Normal();
  /// Exponential with the given mean.
  double Exponential(double mean);

 private:
  uint64_t s_[4];
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Worker threads the benchmark may use: the CPUs in this process's
/// affinity mask (what `nproc` prints).
int UsableCpus();

/// Median of `v` (copied and partially sorted); 0 when empty.
double Median(std::vector<double> v);
/// Nearest-rank percentile q in [0, 1] of `v`; 0 when empty.
double Percentile(std::vector<double> v, double q);

/// Hypervisor steal time of the whole machine so far, in seconds summed
/// over CPUs (/proc/stat); 0 where the kernel does not report it.
double StealSeconds();

/// Peak resident set size of this process so far (VmHWM), in MiB.
double PeakRssMiB();

/// Records named checks of the program's outputs. A failed check prints one
/// line to stderr and makes the run incorrect.
class CheckLog {
 public:
  /// Returns `ok`. Only the first few failures of each name are printed.
  bool Expect(bool ok, std::string_view name, const std::string& detail = "");
  bool all_passed() const { return failures_ == 0; }
  uint64_t failures() const { return failures_; }

 private:
  uint64_t failures_ = 0;
  std::vector<std::pair<std::string, uint64_t>> by_name_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// `v` in %g notation (std::to_string rounds small values to 0.000000).
std::string Sci(double v);

/// Whole-file helpers; abort the run (exit 2) on I/O failure.
std::string ReadFileOrDie(const std::string& path);
void WriteFileOrDie(const std::string& path, std::string_view data);

/// Prints "perfbench: <message>" to stderr and exits with status 2.
[[noreturn]] void Die(const std::string& message);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
