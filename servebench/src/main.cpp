// servebench — closed-loop benchmark of a live dyncg_serve.
//
//   servebench --workload cold_solve|hot_repeat|fleet_churn --seed N
//              --seconds S --trace 0|1 [--out DIR]
//
// One run: compute the in-process references for the seed's request
// stream; launch dyncg_serve --threads <nproc> and time its set-up several
// times (launch to first ping answered, plus the workload's warm-up); drive
// the measured requests closed-loop over min(4, nproc) loopback
// connections with tracing off; check every response against its reference; and, with --trace 1,
// replay the same stream in-process (untraced, then traced) for the
// per-layer figures.  The last stdout line is one JSON object
// {"correct","attempted","failed","metrics"}; the full report, the span
// table and the exact-count record go to DIR.  Exit 0 only when every
// check passed.  See README.md.
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "loop.hpp"
#include "measure.hpp"
#include "poly/kernels.hpp"
#include "replay.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"
#include "workload.hpp"

namespace sb = servebench;
namespace json = dyncg::json;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out = ".bench_build/servebench/reports";
};

const char* const kServer = SERVEBENCH_SERVER;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload "
               "cold_solve|hot_repeat|fleet_churn --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0') usage("bad --seconds");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--out") {
      a.out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!sb::parse_workload(a.workload)) usage("unknown or missing --workload");
  if (!have_seed || a.seconds <= 0 || a.trace < 0) {
    usage("--seed, --seconds and --trace are required");
  }
  return a;
}

void make_dirs(const std::string& path) {
  for (std::size_t at = 1; at <= path.size(); ++at) {
    if (at == path.size() || path[at] == '/') {
      mkdir(path.substr(0, at).c_str(), 0755);
    }
  }
}

std::uint64_t file_hash(const std::string& path) {
  return sb::response_hash(sb::read_file(path));
}

// Counters and histograms from a `metrics` response, by name; histograms
// contribute "<name>.count" and "<name>.sum".  `deterministic` collects
// the names the registry marks deterministic.
struct Registry {
  std::map<std::string, double> values;
  std::vector<std::string> deterministic;
};

bool parse_registry(const std::string& response, Registry* out) {
  json::Value v;
  if (!json::parse(response, &v)) return false;
  const json::Value* m = v.find("metrics");
  if (m == nullptr) return false;
  auto field = [](const json::Value& e, const char* key) {
    const json::Value* f = e.find(key);
    return f != nullptr ? *f : json::Value{};
  };
  auto add = [&](const json::Value& e, const std::string& name,
                 const char* key) {
    out->values[name] = field(e, key).number;
    if (field(e, "stability").string == "deterministic") {
      out->deterministic.push_back(name);
    }
  };
  if (const json::Value* cs = m->find("counters")) {
    for (const json::Value& c : cs->array) {
      add(c, field(c, "name").string, "value");
    }
  }
  if (const json::Value* hs = m->find("histograms")) {
    for (const json::Value& h : hs->array) {
      const std::string name = field(h, "name").string;
      add(h, name + ".count", "count");
      add(h, name + ".sum", "sum");
    }
  }
  return true;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Every digit of a measured value (json::Writer rounds to 12).
std::string full(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  json::Writer w;
  w.begin_object();
  for (const Metric& m : ms) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value_raw(full(m.value));
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

// Measured-phase rounds; per-request figures are medians over them.  A
// cold_solve round is one cycle of its machine shapes (the plan holds a
// whole number of cycles), so every round has the same mix.
std::size_t measured_rounds(const sb::Plan& plan) {
  if (plan.workload == sb::Workload::kColdSolve) {
    return std::max<std::size_t>(1, plan.measured.requests() /
                                        sb::cold_cycle_size());
  }
  return std::min<std::size_t>(40, plan.measured.requests());
}

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

}  // namespace

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  const Args args = parse_args(argc, argv);
  if (dyncg::Status s = dyncg::kernels::init_simd_from_env(); !s.is_ok()) {
    usage(s.message().c_str());
  }
  dyncg::set_host_threads(1);  // replay and references run serial queries
  const sb::Workload wl = *sb::parse_workload(args.workload);
  const unsigned nproc =
      static_cast<unsigned>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  const unsigned threads = nproc;
  const std::size_t conns_n = std::min<std::size_t>(4, nproc);
  make_dirs(args.out);
  const std::string tag = args.workload + "-seed" + std::to_string(args.seed) +
                          "-trace" + std::to_string(args.trace);
  std::vector<std::string> problems;
  auto fail_setup = [&](const std::string& why) {
    std::fprintf(stderr, "servebench: %s\n", why.c_str());
    return 1;
  };

  // ---- inputs and references (outside every timed window) ----------------
  const sb::Plan plan = sb::make_plan(wl, args.seed, args.seconds, conns_n);
  const sb::Phase& measured = plan.measured;
  const sb::References refs =
      sb::compute_references(plan, nproc, /*canonical_per_session=*/64);
  problems.insert(problems.end(), refs.problems.begin(), refs.problems.end());

  // ---- set-up, repeated; the last server stays up for the measurement -----
  const int setups = 5;
  const std::vector<std::string> server_args = {
      "--threads", std::to_string(threads), "--max-fleet-members",
      std::to_string(sb::kFleetMaxMembers)};
  // hot_repeat and fleet_churn are ping-pong bound on the server's one poll
  // thread; pinning the client to CPU 0 and the server to CPU 1 gives every
  // run the same thread placement, one source of run-to-run variance less.
  // The pinned client busy-polls its connections, so its CPU never sleeps
  // and each next request goes out without a wake-up.  cold_solve computes
  // on every server thread and stays unpinned, with a sleeping client.
  const bool pinned = wl != sb::Workload::kColdSolve && nproc >= 2;
  const std::vector<int> server_cpus =
      pinned ? std::vector<int>{1} : std::vector<int>{};
  if (pinned) sb::pin_this_thread({0});
  sb::ServerProcess server;
  std::vector<sb::Connection> conns;
  std::vector<double> setup_s;
  std::size_t warmup_requests = 0;
  for (int rep = 0; rep < setups; ++rep) {
    conns.clear();
    server.stop();
    const std::int64_t t0 = sb::now_ns();
    const std::string err =
        server.start(kServer, server_args, args.out + "/" + tag + ".port",
                     args.out + "/" + tag + ".server.log", 30.0, server_cpus);
    if (!err.empty()) return fail_setup(err);
    for (std::size_t c = 0; c < conns_n; ++c) {
      conns.emplace_back();
      if (!conns.back().connect_to(server.port())) {
        return fail_setup("cannot connect to dyncg_serve");
      }
    }
    std::string pong;
    if (!conns[0].round_trip("{\"op\":\"ping\"}", &pong) ||
        pong.find("\"OK\"") == std::string::npos) {
      return fail_setup("ping failed: " + pong);
    }
    warmup_requests = 0;
    for (const sb::Phase& w : plan.warmup) {
      std::size_t bad = 0;
      sb::PhaseRun run = sb::run_phase(
          conns, w,
          [&](std::size_t, std::string&& resp) {
            if (!sb::is_ok_response(resp)) ++bad;
          },
          120.0);
      warmup_requests += run.line.size();
      if (bad > 0 || run.answered() != run.line.size()) {
        return fail_setup("warm-up request failed");
      }
    }
    setup_s.push_back(static_cast<double>(sb::now_ns() - t0) * 1e-9);
  }

  std::string stats_resp, metrics_before, metrics_after;
  if (!conns[0].round_trip("{\"op\":\"stats\"}", &stats_resp) ||
      !conns[0].round_trip("{\"op\":\"metrics\"}", &metrics_before)) {
    return fail_setup("stats/metrics before the measured phase failed");
  }

  // ---- measured phase (tracing off), in rounds -----------------------------
  // Every round is a slice of each lane with the same mix; the per-request
  // figures below are medians over rounds, so a slow second on a shared
  // host moves one round, not the result.
  const std::size_t rounds_n = measured_rounds(plan);
  // The replays cover the first quarter of the rounds: per-call means need
  // no more, and a --trace 1 run of the slowest workload stays well inside
  // its time limit on a slow host.
  const std::size_t replay_rounds = (rounds_n + 3) / 4;
  sb::PhaseRun run;  // all rounds, slots concatenated
  std::vector<std::size_t> slot_line;
  // Per slot: 0 = unanswered, 1 = OK and byte-identical to the reference,
  // 2 = answered but an error or different from the reference.
  std::vector<std::uint8_t> verdict;
  std::vector<double> round_rps, round_cpu_ms, round_p50, round_w50, round_r50;
  double server_cpu_s = 0.0;
  double replayed_server_cpu_s = 0.0;  // over the rounds the replay covers
  const std::int64_t measure_deadline = sb::now_ns() + 150'000'000'000;
  for (std::size_t r = 0; r < rounds_n; ++r) {
    const std::vector<std::vector<std::size_t>> lanes = measured.round(r, rounds_n);
    const std::size_t base = slot_line.size();
    for (const auto& lane : lanes) {
      slot_line.insert(slot_line.end(), lane.begin(), lane.end());
    }
    verdict.resize(slot_line.size(), 0);
    const std::optional<double> cpu0 = sb::process_cpu_seconds(server.pid());
    const sb::PhaseRun rr = sb::run_phase(
        conns, measured,
        [&](std::size_t slot, std::string&& resp) {
          const std::size_t line = slot_line[base + slot];
          const sb::Reference& ref = refs.measured[line];
          const bool good = ref.ok && sb::response_hash(resp) == ref.hash;
          verdict[base + slot] = good ? 1 : 2;
          if (!good && problems.size() < 16) {
            problems.push_back("mismatch: " + measured.lines[line].substr(0, 200) +
                               " -> " + resp.substr(0, 300));
          }
        },
        std::max(1.0, static_cast<double>(measure_deadline - sb::now_ns()) * 1e-9),
        &lanes, /*busy_poll=*/pinned);
    const std::optional<double> cpu1 = sb::process_cpu_seconds(server.pid());
    const double cpu = cpu0 && cpu1 ? *cpu1 - *cpu0 : 0.0;
    server_cpu_s += cpu;
    if (r < replay_rounds) replayed_server_cpu_s += cpu;
    std::size_t ok_r = 0;
    std::vector<double> lat_r, lat_rw, lat_rr;
    for (std::size_t s = 0; s < rr.line.size(); ++s) {
      if (verdict[base + s] != 1) continue;
      ++ok_r;
      const double ms = ms_between(rr.sent_ns[s], rr.recv_ns[s]);
      lat_r.push_back(ms);
      (measured.cls[rr.line[s]] == sb::kWrite ? lat_rw : lat_rr).push_back(ms);
    }
    round_rps.push_back(rr.wall_s > 0 ? static_cast<double>(ok_r) / rr.wall_s : 0.0);
    round_cpu_ms.push_back(ok_r ? cpu * 1e3 / static_cast<double>(ok_r) : 0.0);
    round_p50.push_back(sb::median(lat_r));
    round_w50.push_back(sb::median(lat_rw));
    round_r50.push_back(sb::median(lat_rr));
    run.line.insert(run.line.end(), rr.line.begin(), rr.line.end());
    run.sent_ns.insert(run.sent_ns.end(), rr.sent_ns.begin(), rr.sent_ns.end());
    run.recv_ns.insert(run.recv_ns.end(), rr.recv_ns.begin(), rr.recv_ns.end());
    run.wall_s += rr.wall_s;
    run.bytes_sent += rr.bytes_sent;
    run.bytes_received += rr.bytes_received;
    run.lost_connections += rr.lost_connections;
    run.timed_out = run.timed_out || rr.timed_out;
    if (rr.timed_out || rr.lost_connections > 0) break;
  }
  if (!conns[0].alive() ||
      !conns[0].round_trip("{\"op\":\"metrics\"}", &metrics_after)) {
    metrics_after.clear();
  }
  const std::optional<double> rss = sb::process_peak_rss_mb(server.pid());
  conns.clear();
  server.stop();

  // ---- end-to-end figures -------------------------------------------------
  const std::size_t attempted = measured.requests();
  verdict.resize(attempted, 0);  // rounds never run count as unanswered
  std::size_t ok = 0;
  std::vector<double> lat, lat_write, lat_read;
  dyncg::CostSnapshot sim;
  std::size_t updates = 0;
  for (std::size_t s = 0; s < slot_line.size(); ++s) {
    const std::size_t line = slot_line[s];
    if (measured.lines[line].rfind("{\"op\":\"fleet_update\"", 0) == 0) ++updates;
    if (verdict[s] != 1) continue;
    ++ok;
    sim.rounds += refs.measured[line].cost.rounds;
    sim.messages += refs.measured[line].cost.messages;
    sim.local_ops += refs.measured[line].cost.local_ops;
    const double ms = ms_between(run.sent_ns[s], run.recv_ns[s]);
    lat.push_back(ms);
    (measured.cls[line] == sb::kWrite ? lat_write : lat_read).push_back(ms);
  }
  const std::size_t failed = attempted - ok;
  if (run.timed_out) problems.push_back("measured phase timed out");
  if (run.lost_connections > 0) {
    problems.push_back(std::to_string(run.lost_connections) +
                       " connection(s) closed by the server mid-run");
  }
  if (refs.canonical_mismatches > 0) {
    problems.push_back("fleet state differs from canonical_rebuild");
  }
  const sb::Tail tail = sb::tail_percentile(lat, sb::tail_beyond(lat.size()));
  const double wall = run.wall_s > 0 ? run.wall_s : 1e-9;
  std::vector<Metric> e2e = {
      {"setup_s", sb::median(setup_s), "s"},
      {"throughput_rps", sb::median(round_rps), "req/s"},
      {"latency_p50_ms", sb::median(round_p50), "ms"},
      {"latency_tail_ms", tail.value, "ms"},
      {"success_rate",
       static_cast<double>(ok) / static_cast<double>(std::max<std::size_t>(1, attempted)),
       "ratio"},
      {"cpu_ms_per_req", sb::median(round_cpu_ms), "ms"},
      {"peak_rss_mb", rss.value_or(0.0), "MB"},
      {"write_p50_ms", sb::median(round_w50), "ms"},
      {"read_p50_ms", sb::median(round_r50), "ms"},
  };

  // ---- registry deltas and the exact-count guard --------------------------
  Registry before, after;
  if (!parse_registry(metrics_before, &before) ||
      !parse_registry(metrics_after, &after)) {
    problems.push_back("metrics op unreadable");
  }
  auto delta = [&](const std::string& name) {
    return after.values[name] - before.values[name];
  };
  std::map<std::string, double> exact = {
      {"sim.rounds", static_cast<double>(sim.rounds)},
      {"sim.messages", static_cast<double>(sim.messages)},
      {"sim.local_ops", static_cast<double>(sim.local_ops)},
      {"ok_responses", static_cast<double>(ok)},
  };
  for (const std::string& name : after.deterministic) exact[name] = delta(name);
  json::Writer ew;
  ew.begin_object();
  for (const auto& [k, v] : exact) {
    ew.key(k);
    ew.value_raw(full(v));
  }
  ew.end_object();
  const std::string exact_dir = args.out + "/exact";
  make_dirs(exact_dir);
  char key[64];
  std::snprintf(key, sizeof(key), "%016llx",
                static_cast<unsigned long long>(
                    file_hash(kServer) ^ (file_hash("/proc/self/exe") * 31)));
  const std::string exact_path =
      exact_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
      "-n" + std::to_string(attempted) + "-c" + std::to_string(conns_n) +
      "-" + key + ".json";
  const std::string recorded = sb::read_file(exact_path);
  if (recorded.empty()) {
    if (FILE* f = std::fopen(exact_path.c_str(), "w")) {
      std::fputs(ew.str().c_str(), f);
      std::fclose(f);
    }
  } else if (recorded != ew.str()) {
    problems.push_back("exact counts differ from an earlier run of this build "
                       "and seed (" + exact_path + ")");
  }

  // ---- traced replay (per-layer) ------------------------------------------
  std::vector<Metric> layers;
  sb::ReplayResult traced;
  double overhead = 0.0;
  if (args.trace == 1) {
    const sb::ReplayResult plain =
        sb::replay(plan, false, replay_rounds, rounds_n);
    traced = sb::replay(plan, true, replay_rounds, rounds_n);
    overhead = plain.wall_s > 0 ? traced.wall_s / plain.wall_s - 1.0 : 0.0;
    auto span = [&](const std::string& n) { return traced.spans[n]; };
    auto mean_ms = [&](const std::string& n) {
      const sb::SpanRow r = span(n);
      return r.count ? r.total_ms / static_cast<double>(r.count) : 0.0;
    };
    const double calls = static_cast<double>(traced.engine_calls);
    auto per_call = [&](const std::string& group) {
      return calls > 0 ? traced.group_ms[group] / calls : 0.0;
    };
    double rq_total = 0, rq_self = 0, rq_count = 0;
    for (const auto& [name, row] : traced.spans) {
      if (name.rfind("bench.engine.run_query.", 0) != 0) continue;
      rq_total += row.total_ms;
      rq_self += row.self_ms;
      rq_count += static_cast<double>(row.count);
    }
    const double build_total = span("bench.machine.build").total_ms;
    const double hits = delta("serve.cache.hits");
    const double misses = delta("serve.cache.misses");
    const double batch_n = delta("serve.batch.size.count");
    const double sent = static_cast<double>(
        std::count_if(run.sent_ns.begin(), run.sent_ns.end(),
                      [](std::int64_t t) { return t >= 0; }));
    const double answered = static_cast<double>(run.answered());
    const double upd = static_cast<double>(std::max<std::size_t>(1, updates));
    const double raw_wall_ms = (traced.wall_s + traced.build_s) * 1e3;
    layers = {
        {"serve.batches", delta("serve.batches"), "count"},
        {"serve.batch_size_mean",
         batch_n > 0 ? delta("serve.batch.size.sum") / batch_n : 0.0, "req"},
        {"serve.engine_busy_share",
         delta("serve.query.host_ns.sum") * 1e-9 / (wall * threads), "ratio"},
        {"serve.loop_cpu_share",
         replayed_server_cpu_s > 0 ? 1.0 - plain.cpu_s / replayed_server_cpu_s
                                   : 0.0,
         "ratio"},
        {"serve.shed", delta("serve.shed"), "count"},
        {"serve.deadline_exceeded", delta("serve.deadline_exceeded"), "count"},
        {"protocol.parse_us", mean_ms("bench.protocol.parse") * 1e3, "us"},
        {"protocol.render_us", mean_ms("bench.protocol.render") * 1e3, "us"},
        {"protocol.request_bytes",
         sent > 0 ? static_cast<double>(run.bytes_sent) / sent : 0.0, "B"},
        {"protocol.response_bytes",
         answered > 0 ? static_cast<double>(run.bytes_received) / answered : 0.0,
         "B"},
        {"cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
         "ratio"},
        {"cache.find_us", mean_ms("bench.cache.find") * 1e3, "us"},
        {"cache.evictions", delta("serve.cache.evictions"), "count"},
    };
    for (const char* op :
         {"neighbor", "pairs", "collisions", "hullwhen", "contain", "steady"}) {
      layers.push_back({std::string("engine.query_ms.") + op,
                        mean_ms(std::string("bench.engine.run_query.") + op),
                        "ms"});
    }
    const std::vector<Metric> more = {
        {"engine.self_ms", rq_count > 0 ? rq_self / rq_count : 0.0, "ms"},
        {"machine.build_ms", mean_ms("bench.machine.build"), "ms"},
        {"machine.build_share", rq_total > 0 ? build_total / rq_total : 0.0,
         "ratio"},
        {"machine.pes", calls > 0 ? traced.pes_sum / calls : 0.0, "count"},
        {"ops.broadcast_ms", per_call("ops.broadcast"), "ms"},
        {"ops.reduce_ms", per_call("ops.reduce"), "ms"},
        {"ops.sort_ms", per_call("ops.sort"), "ms"},
        {"ops.prefix_ms", per_call("ops.prefix"), "ms"},
        {"envelope.parallel_ms", per_call("envelope.parallel"), "ms"},
        {"envelope.level_ms", per_call("envelope.level"), "ms"},
        {"envelope.update_us", mean_ms("bench.fleet.update") * 1e3, "us"},
        {"envelope.update.recombines",
         updates ? delta("envelope.update.recombines") / upd : 0.0, "count"},
        {"envelope.update.nodes_touched",
         updates ? delta("envelope.update.nodes_touched") / upd : 0.0, "count"},
        {"envelope.query_us", mean_ms("bench.fleet.query") * 1e3, "us"},
        {"kernels.horner.elements", delta("kernels.horner.elements"), "count"},
        {"kernels.compare.elements", delta("kernels.compare.elements"), "count"},
        {"kernels.coeffs.elements", delta("kernels.coeffs.elements"), "count"},
        {"sim.rounds", static_cast<double>(sim.rounds), "count"},
        {"sim.messages", static_cast<double>(sim.messages), "count"},
        {"sim.local_ops", static_cast<double>(sim.local_ops), "count"},
        {"trace.unattributed_share",
         raw_wall_ms > 0 ? traced.unattributed_ms / raw_wall_ms : 0.0, "ratio"},
        {"trace.overhead", overhead, "ratio"},
    };
    layers.insert(layers.end(), more.begin(), more.end());
  }

  // ---- report ---------------------------------------------------------------
  const bool correct = failed == 0 && problems.empty();
  std::string git_rev = "unknown";
  {
    json::Value v;
    if (json::parse(stats_resp, &v)) {
      if (const json::Value* st = v.find("stats")) {
        if (const json::Value* g = st->find("git_rev")) git_rev = g->string;
      }
    }
  }
  json::Writer w;
  w.begin_object();
  w.key("workload");
  w.value(args.workload);
  w.key("config");
  w.begin_object();
  w.key("seed");
  w.value(args.seed);
  w.key("seconds");
  w.value(args.seconds);
  w.key("nproc");
  w.value(static_cast<std::uint64_t>(nproc));
  w.key("server_threads");
  w.value(static_cast<std::uint64_t>(threads));
  w.key("pinned");
  w.value(pinned);
  w.key("connections");
  w.value(static_cast<std::uint64_t>(conns_n));
  w.key("simd");
  w.value(dyncg::kernels::active_simd_name());
  w.key("build_type");
  w.value(SERVEBENCH_BUILD_TYPE);
  w.key("git_rev");
  w.value(git_rev);
  w.key("measured_requests");
  w.value(static_cast<std::uint64_t>(attempted));
  w.key("warmup_requests");
  w.value(static_cast<std::uint64_t>(warmup_requests));
  w.key("setups");
  w.value(static_cast<std::uint64_t>(setups));
  w.key("canonical_checks");
  w.value(static_cast<std::uint64_t>(refs.canonical_checks));
  w.end_object();
  w.key("correct");
  w.value(correct);
  w.key("attempted");
  w.value(static_cast<std::uint64_t>(attempted));
  w.key("failed");
  w.value(static_cast<std::uint64_t>(failed));
  w.key("error_rate");
  w.value(static_cast<double>(failed) / static_cast<double>(std::max<std::size_t>(1, attempted)));
  w.key("latency_tail");
  w.begin_object();
  w.key("percentile");
  w.value(tail.percentile);
  w.key("samples");
  w.value(static_cast<std::uint64_t>(tail.samples));
  w.key("beyond");
  w.value(static_cast<std::uint64_t>(tail.beyond));
  w.end_object();
  w.key("rounds");
  w.begin_object();
  for (const auto& [name, v] :
       {std::pair<const char*, const std::vector<double>*>{"throughput_rps",
                                                          &round_rps},
        {"cpu_ms_per_req", &round_cpu_ms},
        {"latency_p50_ms", &round_p50},
        {"write_p50_ms", &round_w50},
        {"read_p50_ms", &round_r50}}) {
    w.key(name);
    w.begin_array();
    for (double x : *v) w.value(x);
    w.end_array();
  }
  w.end_object();
  w.key("whole_run");
  w.begin_object();
  w.key("throughput_rps");
  w.value(static_cast<double>(ok) / wall);
  w.key("cpu_ms_per_req");
  w.value(ok ? server_cpu_s * 1e3 / static_cast<double>(ok) : 0.0);
  w.key("latency_p50_ms");
  w.value(sb::median(lat));
  w.end_object();
  w.key("setup_samples_s");
  w.begin_array();
  for (double s : setup_s) w.value(s);
  w.end_array();
  w.key("end_to_end");
  w.value_raw(metrics_json(e2e));
  w.key("per_layer");
  w.value_raw(metrics_json(layers));
  w.key("exact_counts");
  w.value_raw(ew.str());
  if (args.trace == 1) {
    w.key("spans");
    w.begin_array();
    for (const auto& [name, row] : traced.spans) {
      w.begin_object();
      w.key("name");
      w.value(name);
      w.key("count");
      w.value(row.count);
      w.key("total_ms");
      w.value(row.total_ms);
      w.key("self_ms");
      w.value(row.self_ms);
      w.end_object();
    }
    w.begin_object();
    w.key("name");
    w.value("unattributed");
    w.key("self_ms");
    w.value(traced.unattributed_ms);
    w.end_object();
    w.end_array();
    w.key("trace_overhead");
    w.value(overhead);
  }
  w.key("problems");
  w.begin_array();
  for (const std::string& p : problems) w.value(p);
  w.end_array();
  w.end_object();
  const std::string report_path = args.out + "/" + tag + ".json";
  if (FILE* f = std::fopen(report_path.c_str(), "w")) {
    std::fputs(w.str().c_str(), f);
    std::fputs("\n", f);
    std::fclose(f);
  }

  const std::vector<Metric>& shown = args.trace == 1 ? layers : e2e;
  for (const std::string& p : problems) {
    std::fprintf(stderr, "servebench: %s\n", p.c_str());
  }
  std::printf("servebench %s seed=%llu requests=%zu ok=%zu report=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              attempted, ok, report_path.c_str());
  std::printf("latency_tail_ms is p%.2f over %zu samples (%zu beyond)\n",
              tail.percentile, tail.samples, tail.beyond);
  for (const std::vector<Metric>* group : {&e2e, &layers}) {
    for (const Metric& m : *group) {
      std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  json::Writer last;
  last.begin_object();
  last.key("correct");
  last.value(correct);
  last.key("attempted");
  last.value(static_cast<std::uint64_t>(attempted));
  last.key("failed");
  last.value(static_cast<std::uint64_t>(failed));
  last.key("metrics");
  last.value_raw(metrics_json(shown));
  last.end_object();
  std::printf("%s\n", last.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
