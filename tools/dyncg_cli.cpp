// dyncg_cli — command-line driver for the library.
//
//   dyncg_cli <command> [options]
//
// Commands:
//   neighbor    Theorem 4.1: nearest/farthest sequence for a query point
//   pairs       Section 6 ext.: closest/farthest pair sequence
//   collisions  Theorem 4.2: collision times for a query point
//   hullwhen    Theorem 4.5: when is the query a hull vertex
//   contain     Theorem 4.6/4.8: containment intervals / smallest cube
//   steady      Section 5: steady-state survey
//   envelope    Theorem 3.2: min function of random polynomials
//   topo        print a topology's pattern costs
//
// Common options:
//   --n <int>         number of points/functions        (default 8)
//   --k <int>         motion degree                     (default 2)
//   --d <int>         space dimension                   (default 2)
//   --seed <int>      workload seed                     (default 1)
//   --machine <mesh|hypercube|ccc|shuffle>              (default mesh)
//   --query <int>     query point index                 (default 0)
//   --farthest        use the farthest variant
//   --adaptive        adaptive (submesh) envelope
//   --box <w,h,...>   rectangle dimensions for `contain`
//   --file <path>     load the system from a dyncg-motion file
//   --faults <spec>   inject a deterministic fault plan (grammar in
//                     docs/ROBUSTNESS.md, e.g. "link:0-1@0..,drop:2-3@4").
//                     Overrides the DYNCG_FAULTS env var.  The geometric
//                     output is unchanged; the ledger pays the honest
//                     recovery price.
//   --fault-report    print the fault counters after the run
//   --threads <int>   host threads for the simulator (0 = all hardware
//                     threads; overrides DYNCG_THREADS; default 1).  Never
//                     changes the reported rounds/messages/local_ops — see
//                     docs/PARALLELISM.md.
//   --simd <mode>     numeric-kernel dispatch: scalar|avx2|auto (overrides
//                     DYNCG_SIMD; default auto).  Never changes any output
//                     byte — docs/PERFORMANCE.md#simd-kernels.
//   --trace-out <file>  record a span trace of the run and write it to
//                     <file> on exit: Chrome trace_event JSON (load in
//                     chrome://tracing or ui.perfetto.dev), or a flat JSONL
//                     metrics stream when <file> ends in ".jsonl".  Also
//                     accepts --trace-out=<file>.  The DYNCG_TRACE env var
//                     does the same without a flag (docs/OBSERVABILITY.md).
//
// Exit codes (docs/ROBUSTNESS.md): 0 success; 1 I/O error; 2 usage error
// (unknown flags, malformed values); 3 invalid argument; 4 failed
// precondition (machine too small for the workload); 5 parse error
// (malformed motion file or fault spec); 6 unsupported input; 7
// unrecoverable fault.  Library input validation is surfaced as returned
// Status errors, never aborts.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dyncg/allpairs.hpp"
#include "dyncg/collision.hpp"
#include "dyncg/motion_io.hpp"
#include "dyncg/containment.hpp"
#include "dyncg/hull_membership.hpp"
#include "dyncg/proximity.hpp"
#include "dyncg/query_machine.hpp"
#include "envelope/parallel_envelope.hpp"
#include "machine/faults.hpp"
#include "pieces/envelope_serial.hpp"
#include "poly/kernels.hpp"
#include "steady/machine_geometry.hpp"
#include "support/fatal.hpp"
#include "support/flags.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace {

using namespace dyncg;

struct Options {
  std::string command;
  std::size_t n = 8;
  int k = 2;
  std::size_t d = 2;
  std::uint64_t seed = 1;
  std::string machine = "mesh";
  std::size_t query = 0;
  bool farthest = false;
  bool adaptive = false;
  std::vector<double> box;
  std::string file;  // load the system from a dyncg-motion file instead
  std::string faults;       // --faults spec (overrides DYNCG_FAULTS)
  bool fault_report = false;
  std::string trace_out;  // write a span trace here on exit
};

// Fault plan attached to every machine the commands build (set from
// --faults), and whether to print the counters afterwards.
const FaultPlan* g_cli_faults = nullptr;
bool g_fault_report = false;
// --trace-out path, visible to the fatal-flush hook.
std::string g_trace_out;

// argv[0], named by the usage line.
const char* g_argv0 = "dyncg_cli";

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: %s <neighbor|pairs|collisions|hullwhen|contain|steady|"
               "envelope|topo> [--n N] [--k K] [--d D] [--seed S] "
               "[--machine mesh|hypercube|ccc|shuffle] [--query Q] "
               "[--farthest] [--adaptive] [--box w,h,...] [--file PATH] "
               "[--threads T] [--simd scalar|avx2|auto] [--faults SPEC] "
               "[--fault-report] [--trace-out FILE]\n",
               g_argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  g_argv0 = argv[0];
  if (argc < 2) usage();
  Options o;
  o.command = argv[1];
  constexpr long kMaxSize = 1L << 40;
  flags::Walker args(argc, argv, 2, usage);
  while (args.next()) {
    if (args.is("--n")) {
      o.n = static_cast<std::size_t>(args.integer(1, kMaxSize));
    } else if (args.is("--k")) {
      o.k = static_cast<int>(args.integer(0, 64));
    } else if (args.is("--d")) {
      o.d = static_cast<std::size_t>(args.integer(1, 64));
    } else if (args.is("--seed")) {
      o.seed = static_cast<std::uint64_t>(args.integer(0, kMaxSize));
    } else if (args.is("--machine")) {
      o.machine = args.value();
      if (o.machine != "mesh" && o.machine != "hypercube" &&
          o.machine != "ccc" && o.machine != "shuffle") {
        args.expected("mesh|hypercube|ccc|shuffle", o.machine);
      }
    } else if (args.is("--query")) {
      o.query = static_cast<std::size_t>(args.integer(0, kMaxSize));
    } else if (args.is("--farthest")) {
      o.farthest = true;
    } else if (args.is("--adaptive")) {
      o.adaptive = true;
    } else if (args.is("--file")) {
      o.file = args.value();
      if (o.file.empty()) args.expected("a path", "");
    } else if (args.is("--faults")) {
      o.faults = args.value();
      if (o.faults.empty()) args.expected("a fault spec", "");
    } else if (args.is("--fault-report")) {
      o.fault_report = true;
    } else if (args.is("--trace-out")) {
      o.trace_out = args.value();
      if (o.trace_out.empty()) args.expected("a path", "");
    } else if (args.is("--threads")) {
      set_host_threads(static_cast<unsigned>(args.integer(0, 1024)));
    } else if (args.is("--simd")) {
      std::string mode = args.value();
      if (Status s = kernels::set_simd_mode(mode); !s.is_ok()) {
        args.expected("scalar|avx2|auto", mode);
      }
    } else if (args.is("--box")) {
      std::string spec = args.value();
      if (spec.empty()) args.expected("w,h,...", "");
      std::size_t pos = 0;
      while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        std::size_t len =
            (comma == std::string::npos ? spec.size() : comma) - pos;
        const std::string tok = spec.substr(pos, len);
        char* end = nullptr;
        double v = std::strtod(tok.c_str(), &end);
        if (end == tok.c_str() || *end != '\0') args.expected("a number", tok);
        o.box.push_back(v);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      args.unknown();
    }
  }
  return o;
}

// Print a library Status error and return its process exit code.
int fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
  return st.exit_code();
}

// Build a planned machine; a machine beyond its family's simulable limit is
// an invalid argument (exit 3).
Machine build_or_exit(const StatusOr<MachinePlan>& plan) {
  if (!plan.is_ok()) std::exit(fail(plan.status()));
  return build_machine(plan.value());
}

// The --machine family with at least `capacity` PEs (envelope, topo).
Machine make_machine(const Options& o, std::size_t capacity) {
  return build_or_exit(plan_machine(o.machine, capacity));
}

// The machine a query runs on — the one the serving engine builds for the
// same scenario (dyncg/query_machine.hpp).
Machine query_machine(const Options& o, Query query, const MotionSystem& sys) {
  return build_or_exit(plan_query_machine(query, sys, o.machine));
}

// Attach the --faults plan (the DYNCG_FAULTS env plan is picked up by the
// Machine constructor on its own).
void arm(Machine& m) {
  if (g_cli_faults != nullptr) m.set_fault_plan(g_cli_faults);
}

void report_cost(const Machine& m, const CostSnapshot& cost) {
  std::printf("[%s, %zu PEs] %s\n", m.topology().name().c_str(), m.size(),
              cost.to_string().c_str());
  if (g_fault_report) std::fputs(m.fault_report().c_str(), stdout);
}

StatusOr<MotionSystem> make_system(const Options& o) {
  if (!o.file.empty()) return try_load_motion_system(o.file);
  Rng rng(o.seed);
  return random_motion_system(rng, o.n, o.d, o.k);
}

int cmd_neighbor(const Options& o) {
  StatusOr<MotionSystem> sys = make_system(o);
  if (!sys.is_ok()) return fail(sys.status());
  Machine m = query_machine(o, Query::kNeighbor, sys.value());
  arm(m);
  CostMeter meter(m.ledger());
  StatusOr<NeighborSequence> seq =
      try_neighbor_sequence(m, sys.value(), o.query, o.farthest);
  if (!seq.is_ok()) return fail(seq.status());
  std::printf("%s\n", seq.value().to_string().c_str());
  report_cost(m, meter.elapsed());
  return 0;
}

int cmd_pairs(const Options& o) {
  StatusOr<MotionSystem> sys = make_system(o);
  if (!sys.is_ok()) return fail(sys.status());
  Machine m = query_machine(o, Query::kPairs, sys.value());
  arm(m);
  CostMeter meter(m.ledger());
  PairSequence seq = closest_pair_sequence(m, sys.value(), o.farthest);
  std::printf("%s\n", seq.to_string().c_str());
  report_cost(m, meter.elapsed());
  return 0;
}

int cmd_collisions(const Options& o) {
  StatusOr<MotionSystem> sys = make_system(o);
  if (!sys.is_ok()) return fail(sys.status());
  Machine m = query_machine(o, Query::kCollisions, sys.value());
  arm(m);
  CostMeter meter(m.ledger());
  StatusOr<CollisionReport> rep = try_collision_times(m, sys.value(), o.query);
  if (!rep.is_ok()) return fail(rep.status());
  if (rep.value().events.empty()) {
    std::printf("no collisions for P%zu\n", o.query);
  }
  for (const CollisionEvent& e : rep.value().events) {
    std::printf("t = %10.4f  P%zu <-> P%zu\n", e.time, o.query, e.other);
  }
  report_cost(m, meter.elapsed());
  return 0;
}

int cmd_hullwhen(const Options& o) {
  StatusOr<MotionSystem> sys = make_system(o);
  if (!sys.is_ok()) return fail(sys.status());
  Machine m = query_machine(o, Query::kHullwhen, sys.value());
  arm(m);
  CostMeter meter(m.ledger());
  StatusOr<IntervalSet> hit =
      try_hull_membership_intervals(m, sys.value(), o.query);
  if (!hit.is_ok()) return fail(hit.status());
  std::printf("P%zu is a hull vertex during %s\n", o.query,
              hit.value().to_string().c_str());
  report_cost(m, meter.elapsed());
  return 0;
}

int cmd_contain(const Options& o) {
  StatusOr<MotionSystem> sys = make_system(o);
  if (!sys.is_ok()) return fail(sys.status());
  Machine m = query_machine(o, Query::kContain, sys.value());
  arm(m);
  CostMeter meter(m.ledger());
  if (!o.box.empty()) {
    std::vector<double> dims = o.box;
    dims.resize(sys.value().dimension(), o.box.back());
    StatusOr<IntervalSet> J = try_containment_intervals(m, sys.value(), dims);
    if (!J.is_ok()) return fail(J.status());
    std::printf("fits the box during %s\n", J.value().to_string().c_str());
  } else {
    SmallestCube cube = smallest_enclosing_cube(m, sys.value());
    std::printf("smallest enclosing cube: edge %.4f at t = %.4f\n", cube.edge,
                cube.time);
  }
  report_cost(m, meter.elapsed());
  return 0;
}

int cmd_steady(const Options& o) {
  Rng rng(o.seed);
  MotionSystem sys = diverging_motion_system(rng, o.n, std::max(1, o.k));
  Machine m = query_machine(o, Query::kSteady, sys);
  arm(m);
  CostMeter meter(m.ledger());
  std::printf("steady NN of P%zu: P%zu\n", o.query,
              machine_steady_neighbor(m, sys, o.query, o.farthest));
  auto hull = machine_steady_hull_ids(m, sys);
  std::printf("steady hull: ");
  for (std::size_t id : hull) std::printf("P%zu ", id);
  std::printf("\n");
  auto far = machine_steady_farthest_pair(m, sys);
  std::printf("steady farthest pair: (P%zu, P%zu)\n", far.a, far.b);
  report_cost(m, meter.elapsed());
  return 0;
}

int cmd_envelope(const Options& o) {
  Rng rng(o.seed);
  std::vector<Polynomial> fns;
  for (std::size_t i = 0; i < o.n; ++i) {
    std::vector<double> c(static_cast<std::size_t>(o.k) + 1);
    for (double& x : c) x = rng.uniform(-2, 2);
    fns.push_back(Polynomial(c));
  }
  PolyFamily fam(std::move(fns));
  Machine m = make_machine(o, lambda_upper_bound(ceil_pow2(o.n), o.k));
  arm(m);
  CostMeter meter(m.ledger());
  StatusOr<PiecewiseFn> env =
      try_parallel_envelope(m, fam, std::max(1, o.k),
                            /*take_min=*/!o.farthest, nullptr, o.adaptive);
  if (!env.is_ok()) return fail(env.status());
  std::printf("%s envelope, %zu pieces:\n  %s\n",
              o.farthest ? "upper" : "lower", env.value().piece_count(),
              env.value().to_string().c_str());
  report_cost(m, meter.elapsed());
  return 0;
}

int cmd_topo(const Options& o) {
  Machine m = make_machine(o, o.n);
  const Topology& t = m.topology();
  std::printf("%s: %zu PEs, diameter %zu, unit shift %u rounds\n",
              t.name().c_str(), t.size(), t.diameter(), t.shift_rounds());
  std::printf("offset-exchange rounds:");
  for (int k = 0; (std::size_t{2} << k) <= t.size(); ++k) {
    std::printf(" k=%d:%u", k, t.exchange_rounds(static_cast<unsigned>(k)));
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int run_command(const Options& o) {
  if (o.command == "neighbor") return cmd_neighbor(o);
  if (o.command == "pairs") return cmd_pairs(o);
  if (o.command == "collisions") return cmd_collisions(o);
  if (o.command == "hullwhen") return cmd_hullwhen(o);
  if (o.command == "contain") return cmd_contain(o);
  if (o.command == "steady") return cmd_steady(o);
  if (o.command == "envelope") return cmd_envelope(o);
  if (o.command == "topo") return cmd_topo(o);
  std::fprintf(stderr, "error: unknown command '%s'\n", o.command.c_str());
  usage();
}

int main(int argc, char** argv) {
  // Resolve DYNCG_SIMD up front so a typo'd value is a usage error (exit 2)
  // instead of an abort inside the first kernel call; --simd overrides it.
  if (Status s = kernels::init_simd_from_env(); !s.is_ok()) {
    std::fprintf(stderr, "error: %s\n", s.message().c_str());
    return 2;
  }
  Options o = parse(argc, argv);
  static FaultPlan cli_plan;  // static: outlives every Machine in the cmds
  if (!o.faults.empty()) {
    StatusOr<FaultPlan> parsed = FaultPlan::parse(o.faults);
    if (!parsed.is_ok()) return fail(parsed.status());
    cli_plan = std::move(parsed).value();
    g_cli_faults = &cli_plan;
  }
  g_fault_report = o.fault_report;
  if (!o.trace_out.empty()) {
    trace::enable();
    // Also flush the trace if the run dies on a DYNCG_ASSERT.
    g_trace_out = o.trace_out;
    fatal::register_flush([] {
      if (!g_trace_out.empty()) trace::write(g_trace_out);
    });
  }
  int rc = run_command(o);
  if (!o.trace_out.empty()) {
    if (!trace::write(o.trace_out)) {
      std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                   o.trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %zu spans -> %s\n", trace::event_count(),
                 o.trace_out.c_str());
  }
  return rc;
}
