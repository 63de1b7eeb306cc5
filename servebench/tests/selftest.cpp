// Self-tests of the benchmark's own machinery: input generation, the
// tail-percentile rule, the /proc readers and error accounting when the
// server hangs up mid-run.  Run: python3 servebench/run.py --selftest
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "loop.hpp"
#include "measure.hpp"
#include "serve/protocol.hpp"
#include "workload.hpp"

namespace sb = servebench;

namespace {

// ---- generator determinism ------------------------------------------------

void expect_same(const sb::Plan& a, const sb::Plan& b) {
  EXPECT_EQ(a.measured.lines, b.measured.lines);
  EXPECT_EQ(a.measured.lanes, b.measured.lanes);
  EXPECT_EQ(a.measured.cls, b.measured.cls);
  ASSERT_EQ(a.warmup.size(), b.warmup.size());
  for (std::size_t i = 0; i < a.warmup.size(); ++i) {
    EXPECT_EQ(a.warmup[i].lines, b.warmup[i].lines);
    EXPECT_EQ(a.warmup[i].lanes, b.warmup[i].lanes);
  }
}

TEST(Generator, SameSeedSameBytes) {
  for (sb::Workload w : {sb::Workload::kColdSolve, sb::Workload::kHotRepeat,
                         sb::Workload::kFleetChurn}) {
    expect_same(sb::make_plan(w, 7, 1.0, 4), sb::make_plan(w, 7, 1.0, 4));
  }
}

TEST(Generator, DifferentSeedsGiveDisjointColdScenarios) {
  const sb::Plan a = sb::make_plan(sb::Workload::kColdSolve, 1, 2.0, 4);
  const sb::Plan b = sb::make_plan(sb::Workload::kColdSolve, 2, 2.0, 4);
  const std::set<std::string> la(a.measured.lines.begin(),
                                 a.measured.lines.end());
  EXPECT_EQ(la.size(), a.measured.lines.size()) << "a scenario repeats";
  auto scenario = [](const std::string& line) {
    const std::size_t at = line.find("\"scenario\":");
    return line.substr(at, line.find('}', at) - at);
  };
  std::set<std::string> sa;
  for (const std::string& l : a.measured.lines) sa.insert(scenario(l));
  for (const std::string& l : b.measured.lines) {
    EXPECT_EQ(sa.count(scenario(l)), 0u) << l;
  }
  // The warm-up's scenarios are fresh too, so the measured hit ratio stays 0.
  ASSERT_EQ(a.warmup.size(), 1u);
  for (const std::string& l : a.warmup[0].lines) {
    EXPECT_EQ(sa.count(scenario(l)), 0u) << l;
  }
}

TEST(Generator, CountsFollowSecondsInWholeCycles) {
  const std::size_t one = sb::measured_requests(sb::Workload::kColdSolve, 1, 4);
  const std::size_t ten =
      sb::measured_requests(sb::Workload::kColdSolve, 10, 4);
  EXPECT_GT(ten, one);
  const std::size_t cycle =
      sb::make_plan(sb::Workload::kColdSolve, 1, 0.01, 4).measured.lines.size();
  EXPECT_EQ(ten % cycle, 0u);
  EXPECT_EQ(sb::measured_requests(sb::Workload::kFleetChurn, 3, 4) % 4, 0u);
}

TEST(Generator, EveryLineParses) {
  for (sb::Workload w : {sb::Workload::kColdSolve, sb::Workload::kHotRepeat,
                         sb::Workload::kFleetChurn}) {
    const sb::Plan p = sb::make_plan(w, 3, 0.01, 4);
    std::vector<const sb::Phase*> phases = {&p.measured};
    for (const sb::Phase& ph : p.warmup) phases.push_back(&ph);
    for (const sb::Phase* ph : phases) {
      ASSERT_EQ(ph->lines.size(), ph->cls.size());
      for (const std::string& line : ph->lines) {
        EXPECT_TRUE(dyncg::serve::parse_request(line).is_ok()) << line;
      }
    }
  }
}

TEST(Generator, FleetLanesKeepSessionsApart) {
  const sb::Plan p = sb::make_plan(sb::Workload::kFleetChurn, 5, 0.1, 4);
  ASSERT_EQ(p.fleets.size(), 4u);
  ASSERT_EQ(p.measured.lanes.size(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    const std::string name = "\"fleet\":\"" + p.fleets[c].name + "\"";
    for (std::size_t i : p.measured.lanes[c]) {
      EXPECT_NE(p.measured.lines[i].find(name), std::string::npos);
    }
  }
}

// ---- the tail-percentile rule ---------------------------------------------

TEST(Tail, HighestPercentileWithTenBeyond) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const sb::Tail t = sb::tail_percentile(v, 10);
  EXPECT_TRUE(t.qualified);
  EXPECT_EQ(t.value, 90.0);  // 91..100 lie beyond it
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_EQ(t.beyond, 10u);
  std::size_t after = 0;
  for (double x : v) after += x > t.value;
  EXPECT_EQ(after, 10u);
}

TEST(Tail, SmallSamples) {
  const sb::Tail eleven =
      sb::tail_percentile({5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11}, 10);
  EXPECT_TRUE(eleven.qualified);
  EXPECT_EQ(eleven.value, 1.0);
  const sb::Tail ten = sb::tail_percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 10);
  EXPECT_FALSE(ten.qualified);
  EXPECT_EQ(ten.value, 10.0);
  EXPECT_EQ(sb::tail_percentile({}, 10).samples, 0u);
}

TEST(Tail, BeyondStopsAtP95ForLongRuns) {
  EXPECT_EQ(sb::tail_beyond(50), 10u);
  EXPECT_EQ(sb::tail_beyond(199), 10u);
  EXPECT_EQ(sb::tail_beyond(468), 23u);
  EXPECT_EQ(sb::tail_beyond(40000), 2000u);
  std::vector<double> v;
  for (int i = 1; i <= 40000; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(sb::tail_percentile(v, sb::tail_beyond(v.size())).percentile,
                   95.0);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(sb::median({3, 1, 2}), 2.0);
  EXPECT_EQ(sb::median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(sb::median({}), 0.0);
}

// ---- /proc readers ----------------------------------------------------------

TEST(Proc, StatTicksSkipAWeirdCommandName) {
  const std::string stat =
      "4242 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 111 222 13 14 15 16";
  EXPECT_EQ(sb::parse_stat_cpu_ticks(stat), std::optional<std::uint64_t>(333));
  EXPECT_FALSE(sb::parse_stat_cpu_ticks("garbage").has_value());
  EXPECT_FALSE(sb::parse_stat_cpu_ticks("1 (x) S 1 2").has_value());
}

TEST(Proc, StatusKb) {
  const std::string status =
      "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  1234 kB\nVmRSS:\t  1000 kB\n";
  EXPECT_EQ(sb::parse_status_kb(status, "VmHWM"),
            std::optional<std::uint64_t>(1234));
  EXPECT_FALSE(sb::parse_status_kb(status, "VmSwap").has_value());
}

TEST(Proc, LiveReadersTrackThisProcess) {
  const std::optional<double> cpu0 = sb::process_cpu_seconds(0);
  ASSERT_TRUE(cpu0.has_value());
  volatile double sink = 0;
  const std::int64_t until = sb::now_ns() + 60'000'000;  // 60 ms busy
  while (sb::now_ns() < until) sink = sink + 1.0;
  const std::optional<double> cpu1 = sb::process_cpu_seconds(0);
  ASSERT_TRUE(cpu1.has_value());
  EXPECT_GE(*cpu1 - *cpu0, 0.02);

  const std::optional<double> rss0 = sb::process_peak_rss_mb(0);
  ASSERT_TRUE(rss0.has_value());
  std::vector<char> block(64u << 20, 1);  // touch 64 MB
  const std::optional<double> rss1 = sb::process_peak_rss_mb(0);
  ASSERT_TRUE(rss1.has_value());
  EXPECT_GE(*rss1, *rss0 + 48.0);
  EXPECT_EQ(block[block.size() / 2], 1);
}

// ---- error accounting when the server hangs up ------------------------------

// A loopback server that answers every line with an OK status, except that
// the first accepted connection hangs up without answering its
// `close_after + 1`-th line.
class FakeServer {
 public:
  explicit FakeServer(std::size_t close_after) : close_after_(close_after) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    listen(listen_fd_, 8);
    socklen_t len = sizeof(addr);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~FakeServer() {
    stop_ = true;
    thread_.join();
    close(listen_fd_);
  }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;
  int port() const { return port_; }

 private:
  void serve() {
    struct Peer {
      int fd;
      std::string buf;
      std::size_t answered = 0;
    };
    std::vector<Peer> peers;
    std::size_t accepted = 0;
    while (!stop_) {
      std::vector<pollfd> fds = {{listen_fd_, POLLIN, 0}};
      for (const Peer& p : peers) fds.push_back({p.fd, POLLIN, 0});
      if (poll(fds.data(), fds.size(), 20) <= 0) continue;
      if (fds[0].revents & POLLIN) {
        peers.push_back(Peer{accept(listen_fd_, nullptr, nullptr), {}});
        ++accepted;
        continue;
      }
      for (std::size_t i = 0; i < peers.size(); ++i) {
        Peer& p = peers[i];
        if (p.fd < 0 || fds[i + 1].revents == 0) continue;
        char chunk[4096];
        const ssize_t n = read(p.fd, chunk, sizeof(chunk));
        if (n <= 0) {
          close(p.fd);
          p.fd = -1;
          continue;
        }
        p.buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl;
        while (p.fd >= 0 && (nl = p.buf.find('\n')) != std::string::npos) {
          p.buf.erase(0, nl + 1);
          if (i == 0 && p.answered == close_after_) {
            close(p.fd);
            p.fd = -1;
            break;
          }
          const std::string ok = "{\"status\":\"OK\"}\n";
          if (write(p.fd, ok.data(), ok.size()) < 0) break;
          ++p.answered;
        }
      }
    }
    for (Peer& p : peers) {
      if (p.fd >= 0) close(p.fd);
    }
  }

  std::size_t close_after_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

sb::Phase numbered_phase(std::size_t lanes, std::size_t per_lane) {
  sb::Phase p;
  for (std::size_t l = 0; l < lanes; ++l) {
    p.lanes.emplace_back();
    for (std::size_t i = 0; i < per_lane; ++i) {
      p.lanes.back().push_back(p.lines.size());
      p.lines.push_back("{\"op\":\"ping\",\"id\":" +
                        std::to_string(p.lines.size()) + "}");
      p.cls.push_back(sb::kRead);
    }
  }
  return p;
}

std::vector<sb::Connection> connect_two(int port) {
  std::vector<sb::Connection> conns(2);
  for (sb::Connection& c : conns) EXPECT_TRUE(c.connect_to(port));
  return conns;
}

// Each case runs with the sleeping and the busy-polling client.
TEST(Accounting, SharedLaneContinuesOnTheSurvivors) {
  for (const bool busy_poll : {false, true}) {
    SCOPED_TRACE(busy_poll ? "busy_poll" : "sleeping");
    FakeServer server(3);
    std::vector<sb::Connection> conns = connect_two(server.port());
    const sb::Phase phase = numbered_phase(1, 20);
    std::size_t sunk = 0;
    const sb::PhaseRun run = sb::run_phase(
        conns, phase, [&](std::size_t, std::string&&) { ++sunk; }, 10.0,
        nullptr, busy_poll);
    EXPECT_FALSE(run.timed_out);
    EXPECT_EQ(run.lost_connections, 1u);
    EXPECT_EQ(run.answered(), 19u);  // only the in-flight request is lost
    EXPECT_EQ(sunk, 19u);
    std::size_t lost = 0;
    for (std::size_t s = 0; s < run.line.size(); ++s) {
      if (run.recv_ns[s] < 0) {
        ++lost;
        EXPECT_GE(run.sent_ns[s], 0);  // it was on the wire
      }
    }
    EXPECT_EQ(lost, 1u);
  }
}

TEST(Accounting, BoundLaneLosesItsRemainder) {
  for (const bool busy_poll : {false, true}) {
    SCOPED_TRACE(busy_poll ? "busy_poll" : "sleeping");
    FakeServer server(3);
    std::vector<sb::Connection> conns = connect_two(server.port());
    const sb::Phase phase = numbered_phase(2, 10);
    const sb::PhaseRun run = sb::run_phase(
        conns, phase, [](std::size_t, std::string&&) {}, 10.0, nullptr,
        busy_poll);
    EXPECT_EQ(run.lost_connections, 1u);
    EXPECT_EQ(run.answered(), 13u);  // 3 on the closed lane, 10 on the other
    std::size_t unsent = 0;
    for (std::int64_t t : run.sent_ns) unsent += t < 0;
    EXPECT_EQ(unsent, 6u);  // lane 0 after its lost 4th request
  }
}

}  // namespace
