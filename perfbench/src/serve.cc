// serve_mixed: the request path alone. An in-process serve::Server with two
// event-loop workers answers two client threads: a closed-loop pipelined
// phase, then an open-loop Poisson phase at a fixed rate, while a
// background thread hot-swaps an identical snapshot with a distinct id.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>

#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"
#include "serve_session.h"
#include "workloads.h"

namespace perfbench {

namespace serve = scholar::serve;

namespace {

constexpr size_t kTableSize = 1 << 16;  // requests per client, cycled
constexpr size_t kCheckEvery = 8;       // every 8th table entry is checked
constexpr size_t kPipeline = 32;        // closed-loop requests per batch
constexpr size_t kConnectionsPerClient = 16;
constexpr double kSwapPeriodS = 0.1;
// An answer later than this counts as dropped. Long, because a descheduled
// vCPU can hold a whole worker for hundreds of milliseconds.
constexpr int kAnswerTimeoutMs = 30000;
// Throughput and the open-loop tail are medians over fixed windows, so a
// stall of the host (a descheduled vCPU) moves one window, not the result.
constexpr double kClosedWindowS = 0.25;
constexpr double kOpenWindowS = 1.0;

size_t WindowOf(Clock::time_point start, Clock::time_point t, double window_s) {
  return static_cast<size_t>(std::chrono::duration<double>(t - start).count() /
                             window_s);
}

/// Blocking line client over one TCP connection to localhost.
class LineConn {
 public:
  explicit LineConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) Die("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Die(std::string("connect: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~LineConn() { ::close(fd_); }
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  int fd() const { return fd_; }

  bool SendAll(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      data.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  /// Next complete line if one is buffered.
  bool PopLine(std::string* line) {
    const size_t nl = buffer_.find('\n', consumed_);
    if (nl == std::string::npos) return false;
    line->assign(buffer_, consumed_, nl - consumed_);
    consumed_ = nl + 1;
    if (consumed_ > (1 << 16)) {
      buffer_.erase(0, consumed_);
      consumed_ = 0;
    }
    return true;
  }

  /// Receives once; false when the connection closed or failed.
  bool Receive(bool wait) {
    char chunk[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), wait ? 0 : MSG_DONTWAIT);
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;
    }
  }

  bool ReadLine(std::string* line) {
    while (!PopLine(line)) {
      if (!Receive(/*wait=*/true)) return false;
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t consumed_ = 0;
};

/// Per-client request table and the expected answers of its sample.
struct ClientTable {
  std::vector<std::string> requests;
  std::vector<std::string> expected;  // for indices divisible by kCheckEvery
};

struct ClientTally {
  uint64_t sent = 0;
  uint64_t answered = 0;
  uint64_t errors = 0;   // ERR answers
  uint64_t busy = 0;     // BUSY answers (shed)
  uint64_t dropped = 0;  // sent, never answered
  uint64_t wrong = 0;    // checked answers that differ from the oracle
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> latency_ms_by_window;  // open loop
  std::vector<uint64_t> answered_by_window;               // closed loop
  std::vector<double> lag_ms;
  size_t next = 0;       // next table index
};

void Tally(const ClientTable& table, size_t index, const std::string& line,
           ClientTally* tally) {
  ++tally->answered;
  if (line.rfind("OK", 0) != 0) {
    if (line == "BUSY") {
      ++tally->busy;
    } else {
      ++tally->errors;
    }
    return;
  }
  if (index % kCheckEvery == 0 && line != table.expected[index / kCheckEvery]) {
    ++tally->wrong;
  }
}

/// Closed loop over several connections: each keeps one pipelined batch of
/// kPipeline requests in flight and sends the next when the last answer of
/// its batch arrives.
void ClosedLoop(const std::vector<LineConn*>& conns, const ClientTable& table,
                Clock::time_point start, Clock::time_point end,
                ClientTally* tally) {
  struct InFlight {
    size_t first = 0;        // table index of the batch's first request
    size_t outstanding = 0;  // answers still due
  };
  std::vector<InFlight> flight(conns.size());
  std::string batch;
  auto send_batch = [&](size_t c) {
    batch.clear();
    flight[c].first = tally->next;
    for (size_t i = 0; i < kPipeline; ++i) {
      batch += table.requests[(tally->next + i) % kTableSize];
      batch += '\n';
    }
    tally->next += kPipeline;
    tally->sent += kPipeline;
    flight[c].outstanding = kPipeline;
    if (!conns[c]->SendAll(batch)) {
      tally->dropped += kPipeline;
      flight[c].outstanding = 0;
    }
  };
  for (size_t c = 0; c < conns.size(); ++c) send_batch(c);
  std::vector<pollfd> fds;
  std::vector<size_t> which;
  std::string line;
  for (;;) {
    fds.clear();
    which.clear();
    for (size_t c = 0; c < conns.size(); ++c) {
      if (flight[c].outstanding > 0) {
        fds.push_back({conns[c]->fd(), POLLIN, 0});
        which.push_back(c);
      }
    }
    if (fds.empty()) return;
    const int ready = ::poll(fds.data(), fds.size(), kAnswerTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;  // no answer in time: the rest count as dropped
    for (size_t f = 0; f < fds.size(); ++f) {
      if (fds[f].revents == 0) continue;
      const size_t c = which[f];
      InFlight& in = flight[c];
      if (!conns[c]->Receive(/*wait=*/false)) {
        tally->dropped += in.outstanding;
        in.outstanding = 0;
        continue;
      }
      while (in.outstanding > 0 && conns[c]->PopLine(&line)) {
        Tally(table, (in.first + kPipeline - in.outstanding) % kTableSize, line, tally);
        --in.outstanding;
      }
      if (in.outstanding == 0) {
        const Clock::time_point now = Clock::now();
        const size_t w = WindowOf(start, now, kClosedWindowS);
        if (w >= tally->answered_by_window.size()) {
          tally->answered_by_window.resize(w + 1);
        }
        tally->answered_by_window[w] += kPipeline;
        if (now < end) send_batch(c);
      }
    }
  }
  for (const InFlight& in : flight) tally->dropped += in.outstanding;
}

/// Poisson arrivals at `rate` per second, sent round-robin over `conns`;
/// latency runs from each request's scheduled send time, so a stall also
/// delays the requests behind it.
void OpenLoop(const std::vector<LineConn*>& conns, const ClientTable& table,
              double rate, uint64_t seed, Clock::time_point start,
              Clock::time_point end, ClientTally* tally) {
  BenchRng rng(seed);
  struct Pending {
    Clock::time_point due;
    size_t index;
  };
  std::vector<std::deque<Pending>> pending(conns.size());
  std::vector<std::string> batch(conns.size());
  size_t outstanding = 0;
  size_t next_conn = 0;
  auto gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(rng.Exponential(1.0 / rate)));
  };
  Clock::time_point due = start + gap();
  std::vector<pollfd> fds(conns.size());
  std::string line;
  for (;;) {
    Clock::time_point now = Clock::now();
    for (std::string& b : batch) b.clear();
    while (due <= now && due < end) {
      const size_t c = next_conn++ % conns.size();
      const size_t index = tally->next++ % kTableSize;
      batch[c] += table.requests[index];
      batch[c] += '\n';
      pending[c].push_back({due, index});
      ++outstanding;
      ++tally->sent;
      tally->lag_ms.push_back(
          std::chrono::duration<double, std::milli>(now - due).count());
      due += gap();
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      if (!batch[c].empty() && !conns[c]->SendAll(batch[c])) {
        tally->dropped += outstanding;
        return;
      }
    }
    if (outstanding == 0 && due >= end) return;
    // Wait for answers until the next send is due (or briefly, at the end).
    const Clock::duration wait =
        due < end ? std::max(due - now, Clock::duration::zero())
                  : std::chrono::duration_cast<Clock::duration>(
                        std::chrono::milliseconds(kAnswerTimeoutMs));
    timespec ts{};
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    ts.tv_sec = ns / 1000000000;
    ts.tv_nsec = ns % 1000000000;
    for (size_t c = 0; c < conns.size(); ++c) fds[c] = {conns[c]->fd(), POLLIN, 0};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) break;
    if (ready == 0 && due >= end) break;  // answers overdue at the end
    for (size_t c = 0; ready > 0 && c < conns.size(); ++c) {
      if (fds[c].revents == 0) continue;
      if (!conns[c]->Receive(/*wait=*/false)) {
        tally->dropped += outstanding;
        return;
      }
      now = Clock::now();
      while (!pending[c].empty() && conns[c]->PopLine(&line)) {
        const Pending& p = pending[c].front();
        const double ms = std::chrono::duration<double, std::milli>(now - p.due).count();
        tally->latency_ms.push_back(ms);
        const size_t w = WindowOf(start, p.due, kOpenWindowS);
        if (w >= tally->latency_ms_by_window.size()) {
          tally->latency_ms_by_window.resize(w + 1);
        }
        tally->latency_ms_by_window[w].push_back(ms);
        Tally(table, p.index, line, tally);
        pending[c].pop_front();
        --outstanding;
      }
    }
  }
  tally->dropped += outstanding;
}

/// Parses "<key>=<number>" out of a `stats` answer; 0 when absent.
double StatsField(const std::string& stats, const std::string& key) {
  const size_t at = stats.find(" " + key + "=");
  return at == std::string::npos ? 0.0
                                 : std::strtod(stats.c_str() + at + key.size() + 2,
                                               nullptr);
}

}  // namespace

struct ServeSetup::Tables {
  std::vector<ClientTable> clients;
};

ServeSetup::ServeSetup(const RunOptions& opt, CheckLog* log) : opt_(opt) {
  auto read = [&](const std::string& name) {
    scholar::Result<serve::ScoreSnapshot> s =
        serve::ScoreSnapshot::ReadFile(WorkPath(opt, name));
    if (!s.ok()) Die(name + ": " + s.status().ToString());
    return std::move(s).value();
  };
  swap_a_ = read("snapshot.bin");
  swap_b_ = read("snapshot2.bin");
  if (!manager_.LoadFile(WorkPath(opt, "snapshot.bin")).ok()) {
    Die("cannot load snapshot.bin");
  }

  const std::string raw = ReadFileOrDie(WorkPath(opt, "scores.bin"));
  std::vector<double> scores(raw.size() / sizeof(double));
  std::memcpy(scores.data(), raw.data(), scores.size() * sizeof(double));
  {
    const BenchCorpus corpus = LoadCorpus(WorkPath(opt, "corpus.bin"));
    oracle_ = std::make_unique<AnswerOracle>(corpus, scores);
    accuracy_ = PairwiseAccuracy(scores, corpus.impact, opt.seed);
  }
  num_nodes_ = scores.size();

  // The skewed id sampler must follow the Zipf pmf: the share of each of
  // the ten hottest ids over 10^6 draws lies within five binomial standard
  // errors of its pmf.
  ids_ = std::make_unique<ZipfSampler>(num_nodes_, 1.1);
  {
    constexpr size_t kDraws = 1000000;
    std::vector<size_t> counts(10, 0);
    BenchRng rng(opt.seed ^ 0x21bfULL);
    for (size_t i = 0; i < kDraws; ++i) {
      const uint32_t id = ids_->Sample(&rng);
      if (id < counts.size()) ++counts[id];
    }
    for (size_t k = 0; k < counts.size(); ++k) {
      const double p = ids_->Pmf(k);
      const double share = static_cast<double>(counts[k]) / kDraws;
      const double se = std::sqrt(p * (1 - p) / kDraws);
      log->Expect(std::abs(share - p) <= 5 * se, "serve.zipf_sampler_pmf",
                  "id " + std::to_string(k) + ": share " + std::to_string(share) +
                      " vs pmf " + std::to_string(p));
    }
  }

  tables_ = std::make_unique<Tables>();
  for (int c = 0; c < 2; ++c) {
    BenchRng rng(opt.seed * 7919 + static_cast<uint64_t>(c));
    ClientTable table;
    table.requests.reserve(kTableSize);
    for (size_t i = 0; i < kTableSize; ++i) {
      table.requests.push_back(MakeRequest(*ids_, &rng));
      if (i % kCheckEvery == 0) {
        table.expected.push_back(oracle_->Expected(table.requests.back()));
      }
    }
    tables_->clients.push_back(std::move(table));
  }
}

ServeSetup::~ServeSetup() = default;

const std::vector<std::string>& ServeSetup::requests(int client) const {
  return tables_->clients[static_cast<size_t>(client)].requests;
}

ServeReport ServeSetup::RunSession(double closed_s, double open_s,
                                   double open_rate) {
  serve::ServerOptions server_options;
  server_options.port = 0;
  server_options.num_workers = 2;
  serve::QueryEngineOptions engine_options;
  engine_options.allow_reload = false;
  serve::Server server(&manager_, engine_options, server_options);
  const bool started = server.Start().ok();
  if (!started) Die("server start failed");

  ServeReport report;
  ClientTally tally[2];
  {
    // SO_REUSEPORT hashes each connection to a worker at random; with one
    // connection per client, half of all runs put both on one worker. With
    // sixteen per client each worker gets enough connections to stay busy
    // in the closed loop, whatever the split.
    std::vector<std::unique_ptr<LineConn>> owned;
    std::vector<LineConn*> conns[2];
    for (int c = 0; c < 2; ++c) {
      for (size_t i = 0; i < kConnectionsPerClient; ++i) {
        owned.push_back(std::make_unique<LineConn>(server.port()));
        conns[c].push_back(owned.back().get());
      }
    }

    std::atomic<bool> stop_swaps{false};
    std::thread swapper([&] {
      uint64_t i = 0;
      while (!stop_swaps.load()) {
        std::this_thread::sleep_for(std::chrono::duration<double>(kSwapPeriodS));
        serve::ScoreSnapshot copy = (++i % 2 == 1) ? swap_b_ : swap_a_;
        const Clock::time_point t0 = Clock::now();
        manager_.Install(std::move(copy));
        report.swap_ms.push_back(SecondsSince(t0) * 1e3);
      }
    });

    const Clock::time_point closed_start = Clock::now();
    const Clock::time_point closed_end =
        closed_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(closed_s));
    {
      std::thread c1([&] {
        ClosedLoop(conns[1], tables_->clients[1], closed_start, closed_end, &tally[1]);
      });
      ClosedLoop(conns[0], tables_->clients[0], closed_start, closed_end, &tally[0]);
      c1.join();
    }
    std::vector<double> window_qps;
    for (size_t w = 0; w < static_cast<size_t>(closed_s / kClosedWindowS); ++w) {
      uint64_t answered = 0;
      for (const ClientTally& t : tally) {
        if (w < t.answered_by_window.size()) answered += t.answered_by_window[w];
      }
      window_qps.push_back(static_cast<double>(answered) / kClosedWindowS);
    }
    report.closed_qps = Median(window_qps);

    const Clock::time_point open_start = Clock::now();
    const Clock::time_point open_end =
        open_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(open_s));
    {
      std::thread c1([&] {
        OpenLoop(conns[1], tables_->clients[1], open_rate / 2, opt_.seed * 31 + 1,
                 open_start, open_end, &tally[1]);
      });
      OpenLoop(conns[0], tables_->clients[0], open_rate / 2, opt_.seed * 31,
               open_start, open_end, &tally[0]);
      c1.join();
    }
    stop_swaps.store(true);
    swapper.join();

    std::string stats;
    if (conns[0][0]->SendAll("stats\n") && conns[0][0]->ReadLine(&stats)) {
      report.server_p50_us = StatsField(stats, "p50_ns") / 1e3;
      report.server_p99_us = StatsField(stats, "p99_ns") / 1e3;
      report.shed = static_cast<uint64_t>(StatsField(stats, "shed"));
    }
    for (const ClientTally& t : tally) {
      report.sent += t.sent;
      report.errors += t.errors;
      report.busy += t.busy;
      report.dropped += t.dropped;
      report.wrong += t.wrong;
      report.open_latency_ms.insert(report.open_latency_ms.end(),
                                    t.latency_ms.begin(), t.latency_ms.end());
      report.lag_ms.insert(report.lag_ms.end(), t.lag_ms.begin(), t.lag_ms.end());
    }
  }
  std::vector<double> window_p90;
  for (size_t w = 0; w < static_cast<size_t>(open_s / kOpenWindowS); ++w) {
    std::vector<double> merged;
    for (const ClientTally& t : tally) {
      if (w < t.latency_ms_by_window.size()) {
        merged.insert(merged.end(), t.latency_ms_by_window[w].begin(),
                      t.latency_ms_by_window[w].end());
      }
    }
    window_p90.push_back(Percentile(std::move(merged), 0.9));
  }
  report.open_p90_ms = Median(window_p90);
  server.Stop();
  server.Wait();
  return report;
}

RunResult RunServeMixed(const RunOptions& opt) {
  PrepareInputs(opt, ShapeOf(opt.workload), {.snapshot = true});
  CheckLog log;
  ServeSetup setup(opt, &log);
  const double setup_s = SecondsSince(opt.process_start);

  const ServeReport report =
      setup.RunSession(0.4 * opt.seconds, 0.6 * opt.seconds, kOpenLoopRate);
  const double peak_rss = PeakRssMiB();

  log.Expect(report.wrong == 0, "serve.served_answer",
             std::to_string(report.wrong) + " wrong answers");
  RunResult result;
  result.attempted = report.sent;
  result.failed = report.errors + report.busy + report.dropped;
  result.correct = log.all_passed();
  result.metrics =
      EndToEndMetrics(setup_s, Median(report.open_latency_ms), report.closed_qps,
                      peak_rss, setup.accuracy());
  return result;
}

}  // namespace perfbench
