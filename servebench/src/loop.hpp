#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workload.hpp"

// The system under test and the closed-loop client that drives it.
namespace servebench {

// A dyncg_serve child process on an ephemeral loopback port.  The
// destructor stops it (SIGINT, then SIGKILL after a grace period) and reaps
// it, so no server outlives the benchmark on any path.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Launch `binary args... --port 0 --port-file <port_file>` with output to
  // `log_path`, and wait until it is listening.  A non-empty `cpus` pins
  // the server (every thread it starts) to those CPUs.  Empty string on
  // success, otherwise what went wrong.
  std::string start(const std::string& binary,
                    const std::vector<std::string>& args,
                    const std::string& port_file, const std::string& log_path,
                    double timeout_s, const std::vector<int>& cpus = {});
  void stop();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

// One blocking line-oriented client connection (TCP_NODELAY).
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&&) = delete;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool connect_to(int port);
  bool send_line(const std::string& line);  // appends '\n'
  // Read what is available (one read call); false on EOF or error.
  bool read_some();
  // Pop one complete line from the buffer, without its '\n'.
  bool pop_line(std::string* line);
  // Blocking round trip; false when the server hung up.
  bool round_trip(const std::string& line, std::string* response);

  int fd() const { return fd_; }
  bool alive() const { return fd_ >= 0; }
  void close_fd();

 private:
  int fd_ = -1;
  std::string buf_;
};

// Per-request timing of one phase, indexed by slot: the slots of lane 0
// come first, then lane 1, ...; within a lane they follow lane order.
struct PhaseRun {
  std::vector<std::size_t> line;     // index into Phase::lines per slot
  std::vector<std::int64_t> sent_ns;  // -1 = never sent
  std::vector<std::int64_t> recv_ns;  // -1 = never answered
  double wall_s = 0.0;                // first send to last response
  std::uint64_t bytes_sent = 0;       // request bytes incl. newlines
  std::uint64_t bytes_received = 0;   // response bytes incl. newlines
  std::size_t lost_connections = 0;   // hung up with a request in flight
  bool timed_out = false;
  std::size_t answered() const;
};

// Called once per response, after the connection's next request is
// already on the wire (so checking overlaps the server's work).
using ResponseSink = std::function<void(std::size_t slot, std::string&&)>;

// Drive `phase` closed-loop over `conns` from this one thread: every live
// connection keeps exactly one request in flight.  A connection the server
// closes loses its in-flight request (never answered) and, for a bound
// lane, the rest of that lane; a shared lane continues on the others.
// Unsent and unanswered slots stay at -1.  Gives up after `timeout_s`.
// `lanes` index `phase.lines`; they default to the phase's own lanes (a
// caller measuring in rounds passes one round's slice of them).
// `busy_poll` spins on a zero-timeout poll instead of sleeping, so the
// client's CPU never idles and answering a response never waits for the
// client to be woken; only for a client pinned to a CPU of its own.
PhaseRun run_phase(std::vector<Connection>& conns, const Phase& phase,
                   const ResponseSink& sink, double timeout_s,
                   const std::vector<std::vector<std::size_t>>* lanes = nullptr,
                   bool busy_poll = false);

std::int64_t now_ns();

// Pin the calling thread (and threads it starts later) to `cpus`.
bool pin_this_thread(const std::vector<int>& cpus);

}  // namespace servebench
