#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include "dyncg/motion.hpp"
#include "envelope/dynamic_envelope.hpp"
#include "envelope/scenario_key.hpp"
#include "serve/client.hpp"
#include "serve/fleet.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"
#include "support/status.hpp"

// In-process tests for the server loop's resilience machinery
// (docs/ROBUSTNESS.md#serving-resilience): admission boundaries at
// queue_cap / max_conns / max_line, deadline budgets, graceful drain,
// slow-client defenses.  Each test runs a real Server on its own thread,
// speaks the wire protocol over loopback sockets, and asserts exact
// response sequences — the protocol-level contracts the shell-script gates
// (serve_e2e.sh, serve_chaos.sh) can only probe statistically.
namespace dyncg {
namespace serve {
namespace {

// Server on a background thread; port() is polled until the listener is up.
class TestServer {
 public:
  explicit TestServer(ServerOptions opt) : server_(opt) {
    thread_ = std::thread([this] { status_ = server_.run(); });
    while (server_.port() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~TestServer() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
  }
  Server& server() { return server_; }
  int port() const { return server_.port(); }
  Status join() {
    thread_.join();
    return status_;
  }

 private:
  Server server_;
  Status status_ = Status::ok();
  std::thread thread_;
};

// Next response line; empty string on EOF / reset.
std::string next_line(LineClient& c) {
  std::string line;
  return c.recv_line(&line) ? line : "";
}

std::string ask(LineClient& c, const std::string& request) {
  std::string response;
  return c.round_trip(request, &response) ? response : "";
}

std::string status_of(const std::string& response) {
  json::Value v;
  if (!json::parse(response, &v)) return "<unparseable>";
  const json::Value* s = v.find("status");
  return s != nullptr && s->is_string() ? s->string : "<missing>";
}

ServeStats stats_of(LineClient& c) {
  std::string line = ask(c, "{\"op\":\"stats\"}");
  ServeStats stats;
  EXPECT_TRUE(read_stats(line, &stats)) << line;
  return stats;
}

// A request the engine takes tens of milliseconds to answer — long enough
// that work queued behind it observably waits.
std::string heavy(int seed) {
  return "{\"op\":\"neighbor\",\"id\":\"h" + std::to_string(seed) +
         "\",\"scenario\":{\"seed\":" + std::to_string(seed) +
         ",\"n\":4096,\"k\":2}}";
}

// --- admission boundaries ----------------------------------------------------

TEST(ServeAdmission, LineCapBoundary) {
  ServerOptions opt;
  opt.max_line = 128;
  TestServer ts(opt);
  LineClient c(ts.port());

  // Exactly max_line bytes (newline excluded) is admitted...
  std::string line = "{\"op\":\"ping\",\"id\":\"";
  line.append(opt.max_line - line.size() - 2, 'x');
  line += "\"}";
  ASSERT_EQ(line.size(), opt.max_line);
  EXPECT_EQ(status_of(ask(c, line)), "OK");

  // ...one byte more is INVALID_ARGUMENT, and the connection survives.
  std::string over = "{\"op\":\"ping\",\"id\":\"";
  over.append(opt.max_line - over.size() - 1, 'x');
  over += "\"}";
  ASSERT_EQ(over.size(), opt.max_line + 1);
  std::string resp = ask(c, over);
  EXPECT_EQ(status_of(resp), "INVALID_ARGUMENT");
  EXPECT_NE(resp.find("max_line"), std::string::npos);
  EXPECT_EQ(status_of(ask(c, "{\"op\":\"ping\"}")), "OK");
}

TEST(ServeAdmission, MachineBeyondTopologyLimitAnsweredNotFatal) {
  TestServer ts(ServerOptions{});
  LineClient c(ts.port());
  // neighbor on CCC at n = 256 needs more than CCC's 2048 PEs; shuffle at
  // n = 512 more than shuffle-exchange's 2^12; contain (with or without a
  // box) and steady need two points.  Each is refused at parse time, and
  // the same connection keeps being served.
  struct Case {
    const char* machine;
    const char* request;
    const char* why;
  };
  const Case refused[] = {
      {"ccc", R"({"op":"neighbor","machine":"ccc","scenario":{"n":256}})",
       "simulates at most"},
      {"shuffle",
       R"({"op":"neighbor","machine":"shuffle","scenario":{"n":512}})",
       "simulates at most"},
      {"mesh", R"({"op":"contain","scenario":{"n":1}})", "two points"},
      {"mesh", R"({"op":"contain","scenario":{"n":1},"box":[8,6]})",
       "two points"},
      {"mesh", R"({"op":"steady","scenario":{"n":1}})", "two points"},
  };
  for (const Case& k : refused) {
    std::string resp = ask(c, k.request);
    EXPECT_EQ(status_of(resp), "INVALID_ARGUMENT") << resp;
    EXPECT_NE(resp.find(k.why), std::string::npos) << resp;
    std::string next =
        ask(c, std::string("{\"op\":\"collisions\",\"machine\":\"") +
                   k.machine + "\",\"scenario\":{\"n\":8}}");
    EXPECT_EQ(status_of(next), "OK") << next;
  }
  EXPECT_EQ(status_of(ask(c, "{\"op\":\"ping\"}")), "OK");
}

TEST(ServeAdmission, QueueCapShedsOldestFirst) {
  ServerOptions opt;
  opt.queue_cap = 4;
  TestServer ts(opt);
  LineClient c(ts.port());

  // Six requests in one write arrive as one read burst, which take_lines
  // admits synchronously before any batch runs: lines 1-4 fill the queue,
  // line 5 sheds line 1, line 6 sheds line 2.  Shed answers are rendered
  // immediately (before the batch), so the response order is pinned:
  // two UNAVAILABLE sheds, then OK for ids 3..6.
  std::string burst;
  for (int i = 1; i <= 6; ++i) {
    burst += "{\"op\":\"ping\",\"id\":" + std::to_string(i) + "}\n";
  }
  ASSERT_TRUE(c.send_raw(burst));
  std::vector<std::string> responses;
  for (int i = 0; i < 6; ++i) responses.push_back(next_line(c));

  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(status_of(responses[i]), "UNAVAILABLE") << responses[i];
    EXPECT_NE(responses[i].find("queue cap"), std::string::npos);
  }
  for (int i = 2; i < 6; ++i) {
    EXPECT_EQ(status_of(responses[i]), "OK") << responses[i];
    EXPECT_NE(responses[i].find("\"id\":" + std::to_string(i + 1)),
              std::string::npos)
        << responses[i];
  }
  EXPECT_EQ(stats_of(c).shed, 2u);
}

TEST(ServeAdmission, ConnLimitBoundary) {
  ServerOptions opt;
  opt.max_conns = 2;
  TestServer ts(opt);

  // Exactly max_conns clients are served concurrently...
  LineClient c1(ts.port());
  LineClient c2(ts.port());
  EXPECT_EQ(status_of(ask(c1, "{\"op\":\"ping\"}")), "OK");
  EXPECT_EQ(status_of(ask(c2, "{\"op\":\"ping\"}")), "OK");

  // ...the next connect is told UNAVAILABLE and closed.
  {
    LineClient c3(ts.port());
    std::string bye = next_line(c3);
    EXPECT_EQ(status_of(bye), "UNAVAILABLE") << bye;
    EXPECT_NE(bye.find("connection limit"), std::string::npos);
    EXPECT_EQ(next_line(c3), "");  // EOF
  }
}

// --- deadlines ---------------------------------------------------------------

TEST(ServeDeadline, ExpiredAtDequeueWithoutTouchingCache) {
  ServerOptions opt;
  opt.batch_cap = 1;  // the victim waits behind the heavy request
  TestServer ts(opt);
  LineClient c(ts.port());

  const char* victim =
      "{\"op\":\"neighbor\",\"id\":\"v\",\"scenario\":"
      "{\"seed\":7,\"n\":6,\"k\":1},\"deadline_ms\":1}";
  ASSERT_TRUE(c.send_raw(heavy(1) + "\n" + victim + "\n"));
  std::string first = next_line(c);
  EXPECT_EQ(status_of(first), "OK") << first;
  std::string second = next_line(c);
  EXPECT_EQ(status_of(second), "DEADLINE_EXCEEDED") << second;
  EXPECT_NE(second.find("\"id\":\"v\""), std::string::npos) << second;

  // The expired request never ran and never touched the cache: the same
  // scenario sent again (no deadline) is a miss, and the counters agree.
  std::string retry = ask(c,
      "{\"op\":\"neighbor\",\"id\":\"v2\",\"scenario\":"
      "{\"seed\":7,\"n\":6,\"k\":1}}");
  EXPECT_EQ(status_of(retry), "OK") << retry;
  EXPECT_NE(retry.find("\"cache\":\"miss\""), std::string::npos) << retry;
  EXPECT_EQ(stats_of(c).deadline_exceeded, 1u);
}

TEST(ServeDeadline, ServerDefaultAppliesAndPerRequestOverrides) {
  ServerOptions opt;
  opt.batch_cap = 1;
  opt.deadline_ms = 1;  // server-wide default: everything queued expires
  TestServer ts(opt);
  LineClient c(ts.port());

  // The victim inherits the 1 ms server default and expires waiting behind
  // the heavy request (which may or may not expire itself, depending on
  // how fast it reaches the front — only the victim's fate is pinned).
  const char* victim =
      "{\"op\":\"ping\",\"id\":\"inherit\"}";
  ASSERT_TRUE(c.send_raw(heavy(2) + "\n" + victim + "\n"));
  (void)next_line(c);  // heavy: OK or DEADLINE_EXCEEDED, both legal
  std::string second = next_line(c);
  EXPECT_EQ(status_of(second), "DEADLINE_EXCEEDED") << second;
  EXPECT_NE(second.find("\"id\":\"inherit\""), std::string::npos) << second;

  // A generous per-request deadline_ms overrides the tight default.
  std::string ride =
      "{\"op\":\"ping\",\"id\":\"override\",\"deadline_ms\":60000}";
  ASSERT_TRUE(c.send_raw(heavy(3) + "\n" + ride + "\n"));
  (void)next_line(c);
  std::string fourth = next_line(c);
  EXPECT_EQ(status_of(fourth), "OK") << fourth;
  EXPECT_NE(fourth.find("\"id\":\"override\""), std::string::npos) << fourth;
}

// --- graceful drain ----------------------------------------------------------

TEST(ServeDrain, RejectsNewWorkFinishesQueuedAndExitsOk) {
  ServerOptions opt;
  opt.batch_cap = 1;
  opt.drain_ms = 30000;  // ample: everything queued must complete
  TestServer ts(opt);
  LineClient c(ts.port());

  // ~1.5 s of queued heavy work keeps the server draining long enough to
  // observe the draining rejection deterministically.
  std::string burst;
  for (int i = 0; i < 30; ++i) burst += heavy(100 + i) + "\n";
  ASSERT_TRUE(c.send_raw(burst));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ts.server().request_drain();
  // The drain flag is observed between batches; this line arrives while
  // the server is still chewing through the queued heavies, so by the time
  // it is read, draining_ is set and the rejection is deterministic.  Its
  // response is rendered after the heavies' (the batch loop does not poll),
  // so it is read last.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(c.send_raw("{\"op\":\"ping\",\"id\":\"late\"}\n"));

  // All 30 queued heavies still complete OK, in order...
  int ok = 0;
  for (int i = 0; i < 30; ++i) {
    std::string r = next_line(c);
    if (status_of(r) == "OK") ++ok;
  }
  EXPECT_EQ(ok, 30);
  // ...the late line is rejected with the draining marker, and the server
  // returns cleanly.
  std::string late = next_line(c);
  EXPECT_EQ(status_of(late), "UNAVAILABLE") << late;
  EXPECT_NE(late.find("\"draining\":true"), std::string::npos) << late;
  EXPECT_EQ(next_line(c), "");  // drained server closed the connection
  Status st = ts.join();
  EXPECT_TRUE(st.is_ok()) << st.to_string();
}

TEST(ServeDrain, BudgetExpiryShedsRemainingWork) {
  ServerOptions opt;
  opt.batch_cap = 1;
  opt.drain_ms = 150;  // far less than the queued ~1.5 s of work
  TestServer ts(opt);
  LineClient c(ts.port());

  std::string burst;
  for (int i = 0; i < 30; ++i) burst += heavy(200 + i) + "\n";
  ASSERT_TRUE(c.send_raw(burst));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ts.server().request_drain();

  // Every queued line is answered exactly once: the few that beat the
  // budget complete OK, the rest are shed UNAVAILABLE — none vanish.
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < 30; ++i) {
    std::string r = next_line(c);
    ASSERT_NE(r, "") << "response " << i << " missing after drain";
    std::string s = status_of(r);
    if (s == "OK") ++ok;
    if (s == "UNAVAILABLE") {
      EXPECT_NE(r.find("shed while draining"), std::string::npos) << r;
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, 30);
  EXPECT_GT(shed, 0) << "a 150 ms budget cannot fit ~1.5 s of work";
  Status st = ts.join();
  EXPECT_TRUE(st.is_ok()) << st.to_string();
}

// --- fleet sessions ----------------------------------------------------------

std::string field_of(const std::string& response, const std::string& key) {
  json::Value v;
  if (!json::parse(response, &v)) return "<unparseable>";
  const json::Value* x = v.find(key);
  if (x == nullptr) return "<missing>";
  if (x->is_string()) return x->string;
  if (x->is_number()) return std::to_string(x->number);
  return "<wrong-type>";
}

TEST(ServeFleet, LifecycleMatchesOracleAndStatsTrackSessions) {
  ServerOptions opt;
  TestServer ts(opt);
  LineClient c(ts.port());

  std::string open = ask(c,
      "{\"op\":\"fleet_open\",\"d\":2,\"k\":1}");
  ASSERT_EQ(status_of(open), "OK") << open;
  EXPECT_NE(open.find("\"fleet\":\"fleet-1\""), std::string::npos) << open;
  EXPECT_EQ(stats_of(c).fleets, 1u);

  std::string update = ask(c,
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
      "{\"id\":5,\"point\":[[4,-1],[0]]},"
      "{\"id\":2,\"point\":[[0,1],[3]]}],\"advance\":1.5}");
  ASSERT_EQ(status_of(update), "OK") << update;
  EXPECT_NE(update.find("\"inserted\":2"), std::string::npos) << update;
  EXPECT_NE(update.find("\"t\":\"1.5\""), std::string::npos) << update;

  // The served envelope must be byte-identical to the from-scratch oracle
  // over the same member set — the correctness contract of the maintained
  // merge tree, checked here through the full wire path.
  const Trajectory ref = fleet_origin(2);
  std::vector<std::pair<std::uint64_t, Polynomial>> members;
  members.emplace_back(
      5, fleet_score(
             Trajectory({Polynomial({4.0, -1.0}), Polynomial({0.0})}), ref));
  members.emplace_back(
      2, fleet_score(
             Trajectory({Polynomial({0.0, 1.0}), Polynomial({3.0})}), ref));
  DynamicEnvelope oracle =
      canonical_rebuild(members, 1.5, /*take_min=*/true, fleet_s_bound(1));
  std::string query =
      ask(c, "{\"op\":\"fleet_query\",\"fleet\":\"fleet-1\"}");
  ASSERT_EQ(status_of(query), "OK") << query;
  EXPECT_EQ(field_of(query, "result"), oracle.result_string()) << query;
  EXPECT_EQ(field_of(query, "key"),
            fingerprint_hex(oracle.state_fingerprint()));

  std::string closed =
      ask(c, "{\"op\":\"fleet_close\",\"fleet\":\"fleet-1\"}");
  ASSERT_EQ(status_of(closed), "OK") << closed;
  EXPECT_EQ(stats_of(c).fleets, 0u);
  // The name is retired with the session.
  EXPECT_EQ(status_of(ask(c,
                "{\"op\":\"fleet_query\",\"fleet\":\"fleet-1\"}")),
            "INVALID_ARGUMENT");
}

TEST(ServeFleet, AdmissionCapsSessionsAndMembers) {
  ServerOptions opt;
  opt.max_fleets = 1;
  opt.max_fleet_members = 2;
  TestServer ts(opt);
  LineClient c(ts.port());

  ASSERT_EQ(status_of(ask(c, "{\"op\":\"fleet_open\"}")), "OK");
  std::string refused = ask(c, "{\"op\":\"fleet_open\"}");
  EXPECT_EQ(status_of(refused), "UNAVAILABLE") << refused;

  // Two members fit; a batch that would reach three is refused whole, and
  // an erase+insert in one batch stays within the cap.
  ASSERT_EQ(status_of(ask(c,
                "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
                "{\"id\":1,\"point\":[[1],[0]]},"
                "{\"id\":2,\"point\":[[2],[0]]}]}")),
            "OK");
  std::string over = ask(c,
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
      "{\"id\":3,\"point\":[[3],[0]]}]}");
  EXPECT_EQ(status_of(over), "UNAVAILABLE") << over;
  std::string swap = ask(c,
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"erase\":[1],"
      "\"insert\":[{\"id\":3,\"point\":[[3],[0]]}]}");
  EXPECT_EQ(status_of(swap), "OK") << swap;
  EXPECT_NE(swap.find("\"members\":2"), std::string::npos) << swap;

  // Closing the only session frees its slot for a new open.
  ASSERT_EQ(status_of(ask(c,
                "{\"op\":\"fleet_close\",\"fleet\":\"fleet-1\"}")),
            "OK");
  std::string reopened = ask(c, "{\"op\":\"fleet_open\"}");
  EXPECT_EQ(status_of(reopened), "OK");
  // Session names are never reused within a server's lifetime.
  EXPECT_NE(reopened.find("\"fleet\":\"fleet-2\""), std::string::npos)
      << reopened;
}

TEST(ServeFleet, RejectedUpdateLeavesSessionUntouched) {
  ServerOptions opt;
  TestServer ts(opt);
  LineClient c(ts.port());

  ASSERT_EQ(status_of(ask(c, "{\"op\":\"fleet_open\",\"k\":1}")), "OK");
  ASSERT_EQ(status_of(ask(c,
                "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
                "{\"id\":1,\"point\":[[1],[0]]}],\"advance\":2}")),
            "OK");
  const std::string before =
      ask(c, "{\"op\":\"fleet_query\",\"fleet\":\"fleet-1\"}");

  // Each rejected batch carries one bad op alongside a valid insert; the
  // valid part must not land (validate-all-then-apply).
  const char* bad_updates[] = {
      // erase of an unknown member
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
      "{\"id\":9,\"point\":[[9],[0]]}],\"erase\":[404]}",
      // duplicate member id
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
      "{\"id\":9,\"point\":[[9],[0]]},{\"id\":1,\"point\":[[8],[0]]}]}",
      // insert above the session's motion degree
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
      "{\"id\":9,\"point\":[[9],[0]]},{\"id\":8,\"point\":[[1,1,1],[0]]}]}",
      // time moving backwards
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
      "{\"id\":9,\"point\":[[9],[0]]}],\"advance\":1}",
      // wrong arity for the session dimension
      "{\"op\":\"fleet_update\",\"fleet\":\"fleet-1\",\"insert\":["
      "{\"id\":9,\"point\":[[9]]}]}",
  };
  for (const char* line : bad_updates) {
    EXPECT_EQ(status_of(ask(c, line)), "INVALID_ARGUMENT") << line;
    EXPECT_EQ(ask(c, "{\"op\":\"fleet_query\",\"fleet\":\"fleet-1\"}"),
              before)
        << "session changed by rejected update: " << line;
  }
}

TEST(ServeFleet, PipelinedBurstKeepsArrivalOrder) {
  // Fleet ops ride the same batch replay as everything else: a single
  // write containing open/update/query/close interleaved with pings is
  // answered strictly in arrival order.
  ServerOptions opt;
  TestServer ts(opt);
  LineClient c(ts.port());
  std::string burst;
  burst += "{\"op\":\"fleet_open\",\"id\":1}\n";
  burst += "{\"op\":\"ping\",\"id\":2}\n";
  burst +=
      "{\"op\":\"fleet_update\",\"id\":3,\"fleet\":\"fleet-1\","
      "\"insert\":[{\"id\":1,\"point\":[[1],[1]]}]}\n";
  burst += "{\"op\":\"fleet_query\",\"id\":4,\"fleet\":\"fleet-1\"}\n";
  burst += "{\"op\":\"fleet_close\",\"id\":5,\"fleet\":\"fleet-1\"}\n";
  ASSERT_TRUE(c.send_raw(burst));
  for (int i = 1; i <= 5; ++i) {
    std::string r = next_line(c);
    EXPECT_EQ(status_of(r), "OK") << r;
    EXPECT_NE(r.find("\"id\":" + std::to_string(i)), std::string::npos) << r;
  }
}

// --- slow-client defenses ----------------------------------------------------

TEST(ServeSlowClient, OutputBufferOverflowDisconnects) {
  ServerOptions opt;
  opt.max_out_buf = 2048;
  TestServer ts(opt);

  // A client that pipelines hundreds of requests and never reads: kernel
  // buffers (SO_SNDBUF capped near max_out_buf, tiny SO_RCVBUF here) fill
  // within a few KiB, the server-side backlog crosses max_out_buf, and the
  // connection is cut.  The client cannot get all its answers — that IS
  // the defense; memory stayed bounded instead.
  LineClient c(ts.port(), 1, /*rcvbuf=*/1024);
  std::string burst;
  for (int i = 0; i < 500; ++i) {
    burst += "{\"op\":\"ping\",\"id\":" + std::to_string(i) + "}\n";
  }
  ASSERT_TRUE(c.send_raw(burst));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  int got = 0;
  while (!next_line(c).empty()) ++got;
  EXPECT_LT(got, 500);

  // The server is unharmed and still answers a well-behaved client.
  LineClient fresh(ts.port());
  EXPECT_EQ(status_of(ask(fresh, "{\"op\":\"ping\"}")), "OK");
}

TEST(ServeSlowClient, StallTimeoutReapsIdleConnectionsOnly) {
  ServerOptions opt;
  opt.stall_timeout_ms = 200;
  TestServer ts(opt);

  LineClient stalled(ts.port());
  LineClient active(ts.port());
  // `stalled` sends half a line and goes quiet; `active` keeps making
  // progress across several stall windows and must be spared.
  ASSERT_TRUE(stalled.send_raw("{\"op\":\"ping\","));
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(status_of(ask(active, "{\"op\":\"ping\"}")), "OK");
  }
  EXPECT_EQ(next_line(stalled), "");  // reaped: EOF, no response
}

}  // namespace
}  // namespace serve
}  // namespace dyncg
