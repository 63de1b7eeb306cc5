#include "loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "measure.hpp"

namespace servebench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool pin_this_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

namespace {
void sleep_us(long us) {
  timespec ts{us / 1000000, (us % 1000000) * 1000};
  nanosleep(&ts, nullptr);
}
}  // namespace

// ---- ServerProcess --------------------------------------------------------

ServerProcess::~ServerProcess() { stop(); }

std::string ServerProcess::start(const std::string& binary,
                                 const std::vector<std::string>& args,
                                 const std::string& port_file,
                                 const std::string& log_path,
                                 double timeout_s,
                                 const std::vector<int>& cpus) {
  stop();
  unlink(port_file.c_str());
  std::vector<std::string> argv_s;
  argv_s.push_back(binary);
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  for (const char* a : {"--port", "0", "--port-file"}) argv_s.push_back(a);
  argv_s.push_back(port_file);
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) return "fork failed";
  if (pid == 0) {
    // Die with this process, even if it is killed before destructors run.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(125);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int null = open("/dev/null", O_RDONLY);
    if (log >= 0) {
      dup2(log, STDOUT_FILENO);
      dup2(log, STDERR_FILENO);
    }
    if (null >= 0) dup2(null, STDIN_FILENO);
    if (!cpus.empty() && !pin_this_thread(cpus)) _exit(126);
    execv(argv[0], argv.data());
    _exit(127);
  }
  pid_ = pid;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (now_ns() < deadline) {
    const std::string text = read_file(port_file);
    if (!text.empty() && text.back() == '\n') {
      port_ = std::atoi(text.c_str());
      if (port_ > 0) return "";
      return "unreadable port file: " + text;
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return "server exited during start-up (log: " + log_path + ")";
    }
    sleep_us(200);
  }
  stop();
  return "server did not start listening in time (log: " + log_path + ")";
}

void ServerProcess::stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGINT);
  int status = 0;
  for (int i = 0; i < 1000; ++i) {  // 10 s grace
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    sleep_us(10000);
  }
  kill(pid_, SIGKILL);
  waitpid(pid_, &status, 0);
  pid_ = -1;
}

// ---- Connection -----------------------------------------------------------

Connection::~Connection() { close_fd(); }

Connection::Connection(Connection&& other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)) {
  other.fd_ = -1;
}

void Connection::close_fd() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

bool Connection::connect_to(int port) {
  close_fd();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close_fd();
    return false;
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool Connection::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  // A short line goes out with its newline in one write (one segment under
  // TCP_NODELAY); a long one is written in place, then the newline.
  auto write_all = [&](const char* p, std::size_t n) {
    while (n > 0) {
      const ssize_t w = write(fd_, p, n);
      if (w <= 0) return false;
      p += w;
      n -= static_cast<std::size_t>(w);
    }
    return true;
  };
  if (line.size() < 4096) {
    std::string out = line;
    out += '\n';
    return write_all(out.data(), out.size());
  }
  return write_all(line.data(), line.size()) && write_all("\n", 1);
}

bool Connection::read_some() {
  if (fd_ < 0) return false;
  char chunk[65536];
  const ssize_t n = read(fd_, chunk, sizeof(chunk));
  if (n <= 0) return false;
  buf_.append(chunk, static_cast<std::size_t>(n));
  return true;
}

bool Connection::pop_line(std::string* line) {
  const std::size_t nl = buf_.find('\n');
  if (nl == std::string::npos) return false;
  line->assign(buf_, 0, nl);
  buf_.erase(0, nl + 1);
  return true;
}

bool Connection::round_trip(const std::string& line, std::string* response) {
  if (!send_line(line)) return false;
  while (!pop_line(response)) {
    if (!read_some()) return false;
  }
  return true;
}

// ---- closed loop ----------------------------------------------------------

std::size_t PhaseRun::answered() const {
  return static_cast<std::size_t>(
      std::count_if(recv_ns.begin(), recv_ns.end(),
                    [](std::int64_t t) { return t >= 0; }));
}

PhaseRun run_phase(std::vector<Connection>& conns, const Phase& phase,
                   const ResponseSink& sink, double timeout_s,
                   const std::vector<std::vector<std::size_t>>* lane_view,
                   bool busy_poll) {
  PhaseRun r;
  const std::vector<std::vector<std::size_t>>& lanes =
      lane_view != nullptr ? *lane_view : phase.lanes;
  const bool shared = lanes.size() == 1;
  std::vector<std::size_t> base(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    base[l] = r.line.size();
    r.line.insert(r.line.end(), lanes[l].begin(), lanes[l].end());
  }
  r.sent_ns.assign(r.line.size(), -1);
  r.recv_ns.assign(r.line.size(), -1);
  std::vector<std::size_t> next(lanes.size(), 0);
  std::vector<long> in_flight(conns.size(), -1);

  auto lose = [&](std::size_t c) {
    conns[c].close_fd();
    if (in_flight[c] >= 0) ++r.lost_connections;
    in_flight[c] = -1;
  };
  // Put connection c's next request on the wire; false when its lane is
  // exhausted or the connection is gone.
  auto dispatch = [&](std::size_t c) {
    const std::size_t l = shared ? 0 : c;
    if (l >= lanes.size() || !conns[c].alive()) return false;
    if (next[l] >= lanes[l].size()) return false;
    const std::size_t slot = base[l] + next[l]++;
    const std::string& line = phase.lines[r.line[slot]];
    in_flight[c] = static_cast<long>(slot);
    r.sent_ns[slot] = now_ns();
    if (!conns[c].send_line(line)) {
      lose(c);
      return false;
    }
    r.bytes_sent += line.size() + 1;
    return true;
  };

  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(timeout_s * 1e9);
  const std::size_t used =
      phase.max_connections == 0
          ? conns.size()
          : std::min(conns.size(), phase.max_connections);
  for (std::size_t c = 0; c < used; ++c) dispatch(c);
  std::vector<pollfd> fds;
  std::vector<std::size_t> fd_conn;
  std::string response;
  for (;;) {
    fds.clear();
    fd_conn.clear();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (in_flight[c] < 0) continue;
      fds.push_back(pollfd{conns[c].fd(), POLLIN, 0});
      fd_conn.push_back(c);
    }
    if (fds.empty()) break;
    if (now_ns() > deadline) {
      r.timed_out = true;
      break;
    }
    if (poll(fds.data(), fds.size(), busy_poll ? 0 : 100) <= 0) continue;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const std::size_t c = fd_conn[i];
      if (!conns[c].read_some()) {
        lose(c);
        continue;
      }
      while (in_flight[c] >= 0 && conns[c].pop_line(&response)) {
        const std::size_t slot = static_cast<std::size_t>(in_flight[c]);
        r.recv_ns[slot] = now_ns();
        r.bytes_received += response.size() + 1;
        in_flight[c] = -1;
        dispatch(c);
        sink(slot, std::move(response));
      }
    }
  }
  std::int64_t last = start;
  for (std::int64_t t : r.recv_ns) last = std::max(last, t);
  r.wall_s = static_cast<double>(last - start) * 1e-9;
  return r;
}

}  // namespace servebench
