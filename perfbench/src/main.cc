// perfbench: the scholarrank end-to-end benchmark binary.
//
//   perfbench --workload <offline_rank|stream_replay|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --trace-dir <dir>
//   perfbench --self-test --work-dir <dir>
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "util/logging.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  opt.process_start = Clock::now();
  int trace = 0;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value().c_str());
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value();
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      Die("unknown argument " + arg);
    }
  }
  if (opt.work_dir.empty()) Die("--work-dir is required");
  ::mkdir(opt.work_dir.c_str(), 0755);
  opt.threads = UsableCpus();
  // Library progress logging goes to stderr; keep only warnings and errors.
  scholar::SetLogLevel(scholar::LogLevel::kWarning);

  if (self_test) return RunSelfTest(opt);
  if (!(opt.seconds > 0)) Die("--seconds must be positive");
  const double steal_start = StealSeconds();
  RunResult result;
  if (trace != 0) {
    if (opt.trace_dir.empty()) Die("--trace 1 needs --trace-dir");
    ::mkdir(opt.trace_dir.c_str(), 0755);
    result = RunLayerProbe(opt);
  } else if (opt.workload == "offline_rank") {
    result = RunOfflineRank(opt);
  } else if (opt.workload == "stream_replay") {
    result = RunStreamReplay(opt);
  } else if (opt.workload == "serve_mixed") {
    result = RunServeMixed(opt);
  } else {
    ShapeOf(opt.workload);  // dies with the list of workloads
  }
  // Stolen vCPU time inflates every wall-clock metric; report it so that a
  // slow run can be told apart from a slow program.
  const double run_s = SecondsSince(opt.process_start);
  const long cpus = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
  std::cerr << "perfbench: hypervisor steal during the run: "
            << 100.0 * (StealSeconds() - steal_start) / (run_s * cpus)
            << "% of " << cpus << " CPUs over " << run_s << " s\n";
  std::cout << ResultJson(result.correct, result.attempted, result.failed,
                          result.metrics)
            << std::endl;
  return 0;
}
