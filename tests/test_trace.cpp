#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <numeric>
#include <sstream>

#include "envelope/parallel_envelope.hpp"
#include "machine/fabric.hpp"
#include "ops/basic.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

// Tests for the observability layer: RAII spans (nesting, cost attribution,
// zero overhead when disabled, determinism of the simulated figures), the
// fabric/machine telemetry counters, CostSnapshot arithmetic, and the JSON
// writer/parser that back the export formats.

// Global allocation counter for the zero-overhead test.  Counting all
// new/delete in the test binary is safe: we only compare the count across a
// region that performs no other allocations.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC pairs the replaced operator delete[] with the library operator new[]
// and flags the free(); the pairing is ours and correct (both sides malloc).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace dyncg {
namespace {

// Each test that records spans owns the global buffer for its duration.
struct TraceSession {
  TraceSession() {
    trace::clear();
    trace::enable();
  }
  ~TraceSession() {
    trace::disable();
    trace::clear();
  }
};

PolyFamily small_family(std::uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Polynomial> fns;
  for (int i = 0; i < n; ++i) {
    std::vector<double> c{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
    fns.push_back(Polynomial(c));
  }
  return PolyFamily(std::move(fns));
}

TEST(CostSnapshot, Arithmetic) {
  CostSnapshot a{10, 100, 5};
  CostSnapshot b{3, 7, 1};
  CostSnapshot sum = a + b;
  EXPECT_EQ(sum.rounds, 13u);
  EXPECT_EQ(sum.messages, 107u);
  EXPECT_EQ(sum.local_ops, 6u);
  a += b;
  EXPECT_EQ(a, sum);
  EXPECT_NE(a, b);
  EXPECT_EQ(sum - b, CostSnapshot({10, 100, 5}));
}

TEST(CostSnapshot, ToJson) {
  CostSnapshot s{10, 100, 5};
  EXPECT_EQ(s.to_json(),
            "{\"rounds\":10,\"messages\":100,\"local_ops\":5,\"time\":15}");
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(s.to_json(), &v, &err)) << err;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("rounds")->number, 10.0);
  EXPECT_EQ(v.find("time")->number, 15.0);
}

TEST(Json, WriterParserRoundtrip) {
  json::Writer w;
  w.begin_object();
  w.key("s");
  w.value("quote \" backslash \\ newline \n tab \t");
  w.key("n");
  w.value(-12.5);
  w.key("big");
  w.value(std::uint64_t{1} << 53);
  w.key("flag");
  w.value(true);
  w.key("nothing");
  w.value_null();
  w.key("arr");
  w.begin_array();
  w.value(1);
  w.value(2);
  w.begin_object();
  w.end_object();
  w.end_array();
  w.end_object();

  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(w.str(), &v, &err)) << err << " in " << w.str();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("s")->string, "quote \" backslash \\ newline \n tab \t");
  EXPECT_EQ(v.find("n")->number, -12.5);
  EXPECT_EQ(v.find("big")->number, 9007199254740992.0);
  EXPECT_EQ(v.find("flag")->type, json::Value::Type::kBool);
  EXPECT_TRUE(v.find("flag")->boolean);
  EXPECT_EQ(v.find("nothing")->type, json::Value::Type::kNull);
  ASSERT_EQ(v.find("arr")->array.size(), 3u);
  EXPECT_EQ(v.find("arr")->array[1].number, 2.0);
}

TEST(Json, ParserRejectsMalformed) {
  json::Value v;
  std::string err;
  EXPECT_FALSE(json::parse("{", &v, &err));
  EXPECT_FALSE(json::parse("[1,]", &v, &err));
  EXPECT_FALSE(json::parse("{\"a\":1} trailing", &v, &err));
  EXPECT_FALSE(json::parse("\"unterminated", &v, &err));
  EXPECT_FALSE(json::parse("01", &v, &err));
  EXPECT_TRUE(json::parse("  [1, 2.5e3, \"\\u0041\"] ", &v, &err)) << err;
  EXPECT_EQ(v.array[2].string, "A");
}

TEST(TraceSpan, NestingDepthAndOrder) {
  TraceSession session;
  {
    TRACE_SPAN("outer");
    {
      TRACE_SPAN("inner1");
    }
    {
      TRACE_SPAN("inner2");
      { TRACE_SPAN("leaf"); }
    }
  }
  std::vector<trace::Event> ev = trace::snapshot();
  ASSERT_EQ(ev.size(), 4u);
  // Sorted by start time: outer, inner1, inner2, leaf.
  EXPECT_EQ(ev[0].name, "outer");
  EXPECT_EQ(ev[0].depth, 0u);
  EXPECT_EQ(ev[1].name, "inner1");
  EXPECT_EQ(ev[1].depth, 1u);
  EXPECT_EQ(ev[2].name, "inner2");
  EXPECT_EQ(ev[2].depth, 1u);
  EXPECT_EQ(ev[3].name, "leaf");
  EXPECT_EQ(ev[3].depth, 2u);
  // All on the recording (main) thread, intervals nested in the outer span.
  for (const trace::Event& e : ev) {
    EXPECT_EQ(e.tid, ev[0].tid);
    EXPECT_GE(e.start_ns, ev[0].start_ns);
    EXPECT_LE(e.start_ns + e.dur_ns, ev[0].start_ns + ev[0].dur_ns);
  }
  EXPECT_EQ(trace::event_count(), 4u);
}

TEST(TraceSpan, LedgerDeltaMatchesHandCount) {
  TraceSession session;
  Machine m = Machine::hypercube_for(16);
  CostMeter meter(m.ledger());
  std::vector<long> v(16);
  std::iota(v.begin(), v.end(), 0L);
  ops::reduce(m, v, std::plus<long>{});
  CostSnapshot measured = meter.elapsed();

  // Hand count: reduce on n=16 runs log2(16)=4 exchange levels, each
  // charging exchange_rounds(k) rounds, n messages, and one local op.
  CostSnapshot expected;
  for (unsigned k = 0; k < 4; ++k) {
    expected.rounds += m.topology().exchange_rounds(k);
    expected.messages += 16;
    expected.local_ops += 1;
  }
  EXPECT_EQ(measured, expected);

  // The span recorded by ops::reduce must carry exactly that delta.
  std::vector<trace::Event> ev = trace::snapshot();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].name, "ops.reduce");
  EXPECT_EQ(ev[0].cost, expected);
}

TEST(TraceSpan, DisabledModeAllocatesNothing) {
  ASSERT_FALSE(trace::enabled());
  CostLedger ledger;
  // Warm up any lazy thread-local state outside the measured region.
  { TRACE_SPAN("warmup"); }
  std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    TRACE_SPAN("disabled");
    TRACE_SPAN_COST("disabled_cost", ledger);
  }
  std::uint64_t after = g_allocations.load();
  EXPECT_EQ(before, after);
  EXPECT_EQ(trace::event_count(), 0u);
}

TEST(TraceSpan, LedgerIdenticalWithTracingOnAndOff) {
  for (unsigned threads : {1u, 4u}) {
    set_host_threads(threads);
    PolyFamily fam = small_family(99, 16);

    Machine off = envelope_machine_mesh(fam.size(), 1);
    ASSERT_FALSE(trace::enabled());
    PiecewiseFn env_off = parallel_envelope(off, fam, 1);
    CostSnapshot cost_off = off.ledger().snapshot();

    Machine on = envelope_machine_mesh(fam.size(), 1);
    PiecewiseFn env_on;
    {
      TraceSession session;
      env_on = parallel_envelope(on, fam, 1);
      EXPECT_GT(trace::event_count(), 0u);
    }
    CostSnapshot cost_on = on.ledger().snapshot();

    // Byte-identical figures and identical output, tracing on or off.
    EXPECT_EQ(cost_off, cost_on) << "threads=" << threads;
    ASSERT_EQ(env_off.pieces.size(), env_on.pieces.size());
    for (std::size_t i = 0; i < env_off.pieces.size(); ++i) {
      EXPECT_EQ(env_off.pieces[i].id, env_on.pieces[i].id);
      EXPECT_EQ(env_off.pieces[i].iv.lo, env_on.pieces[i].iv.lo);
      EXPECT_EQ(env_off.pieces[i].iv.hi, env_on.pieces[i].iv.hi);
    }
  }
  set_host_threads(0);  // back to the default resolution
}

TEST(TraceExport, ChromeTraceAndJsonlWellFormed) {
  TraceSession session;
  Machine m = Machine::hypercube_for(8);
  std::vector<long> v(8, 1);
  ops::reduce(m, v, std::plus<long>{});

  const std::string base = ::testing::TempDir() + "test_trace_out";
  ASSERT_TRUE(trace::write(base + ".json"));
  ASSERT_TRUE(trace::write(base + ".jsonl"));

  std::ifstream in(base + ".json");
  std::stringstream ss;
  ss << in.rdbuf();
  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(ss.str(), &doc, &err)) << err;
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), trace::event_count());
  const json::Value& e = events->array[0];
  EXPECT_EQ(e.find("name")->string, "ops.reduce");
  EXPECT_EQ(e.find("ph")->string, "X");
  EXPECT_EQ(e.find("args")->find("rounds")->number,
            static_cast<double>(m.ledger().snapshot().rounds));

  std::ifstream jl(base + ".jsonl");
  std::string line;
  std::size_t lines = 0;
  while (std::getline(jl, line)) {
    if (line.empty()) continue;
    json::Value rec;
    ASSERT_TRUE(json::parse(line, &rec, &err)) << err;
    EXPECT_NE(rec.find("name"), nullptr);
    EXPECT_NE(rec.find("rounds"), nullptr);
    ++lines;
  }
  EXPECT_EQ(lines, trace::event_count());

  EXPECT_FALSE(trace::write("/nonexistent-dir/trace.json"));
  std::remove((base + ".json").c_str());
  std::remove((base + ".jsonl").c_str());
}

TEST(FabricTelemetry, CountersMatchTraffic) {
  auto topo = make_mesh_for(4);  // 2x2 mesh: every node has 2 neighbors
  CostLedger ledger;
  Fabric<long> fab(*topo, &ledger);
  FabricTelemetry tel;
  fab.set_telemetry(&tel);
  ASSERT_EQ(tel.link_messages.size(), fab.directed_links());

  // Round 1: two words.  Round 2: one word.  Round 3: empty.
  std::size_t n0 = topo->neighbors(0)[0];
  std::size_t n1 = topo->neighbors(0)[1];
  fab.send(0, n0, 1L);
  fab.send(0, n1, 2L);
  fab.deliver();
  fab.send(n0, 0, 3L);
  fab.deliver();
  fab.deliver();

  EXPECT_EQ(tel.rounds, 3u);
  EXPECT_EQ(tel.messages, 3u);
  EXPECT_EQ(tel.max_in_flight, 2u);
  std::uint64_t link_total =
      std::accumulate(tel.link_messages.begin(), tel.link_messages.end(),
                      std::uint64_t{0});
  EXPECT_EQ(link_total, tel.messages);
  EXPECT_EQ(tel.max_link_messages(), 1u);
  std::uint64_t hist_total = std::accumulate(
      tel.round_histogram.begin(), tel.round_histogram.end(), std::uint64_t{0});
  EXPECT_EQ(hist_total, tel.rounds);
  // Bucket 0: the empty round; bucket 1: the 1-word round; bucket 2: the
  // 2-word round.
  ASSERT_EQ(tel.round_histogram.size(), 3u);
  EXPECT_EQ(tel.round_histogram[0], 1u);
  EXPECT_EQ(tel.round_histogram[1], 1u);
  EXPECT_EQ(tel.round_histogram[2], 1u);
  // The fabric's own ledger view agrees.
  EXPECT_EQ(ledger.snapshot().rounds, tel.rounds);
  EXPECT_EQ(ledger.snapshot().messages, tel.messages);

  EXPECT_FALSE(tel.report().empty());
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(tel.to_json(), &v, &err)) << err;
  EXPECT_EQ(v.find("messages")->number, 3.0);
}

}  // namespace
}  // namespace dyncg
