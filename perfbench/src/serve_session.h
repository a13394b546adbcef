// The serving session shared by serve_mixed and the traced layer probe:
// set-up (snapshots, oracle, request tables) and one closed-loop plus
// open-loop run against an in-process server under hot swaps.
#ifndef PERFBENCH_SERVE_SESSION_H_
#define PERFBENCH_SERVE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "oracle.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"
#include "workloads.h"

namespace perfbench {

/// Aggregate requests per second of the open-loop phase, split evenly over
/// the two clients and round-robin over each client's connections: fixed,
/// far below what two workers sustain, and low enough per connection that
/// the requests one connection accumulates during a stall of seconds stay
/// below the server's 1024-request shedding bound.
constexpr double kOpenLoopRate = 5000.0;

struct ServeReport {
  double closed_qps = 0.0;              // median over 0.25 s windows
  std::vector<double> open_latency_ms;  // from the scheduled send time
  double open_p90_ms = 0.0;             // median over 1 s windows of the p90
  std::vector<double> lag_ms;           // how late each open-loop send ran
  std::vector<double> swap_ms;          // SnapshotManager::Install under load
  uint64_t sent = 0, errors = 0, busy = 0, dropped = 0;
  uint64_t wrong = 0;
  double server_p50_us = 0.0, server_p99_us = 0.0;  // the `stats` verb
  uint64_t shed = 0;
};

class ServeSetup {
 public:
  /// Loads the snapshots PrepareInputs wrote (InputPlan::snapshot), builds
  /// the answer oracle and the request tables; the id sampler's check is
  /// logged to `log`.
  ServeSetup(const RunOptions& opt, CheckLog* log);
  ~ServeSetup();
  ServeSetup(const ServeSetup&) = delete;
  ServeSetup& operator=(const ServeSetup&) = delete;

  ServeReport RunSession(double closed_s, double open_s, double open_rate);

  scholar::serve::SnapshotManager* manager() { return &manager_; }
  const std::vector<std::string>& requests(int client) const;
  double accuracy() const { return accuracy_; }

 private:
  struct Tables;
  RunOptions opt_;
  scholar::serve::SnapshotManager manager_;
  scholar::serve::ScoreSnapshot swap_a_, swap_b_;
  std::unique_ptr<AnswerOracle> oracle_;
  std::unique_ptr<ZipfSampler> ids_;
  std::unique_ptr<Tables> tables_;
  double accuracy_ = 0.0;
  size_t num_nodes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_SESSION_H_
