#pragma once

#include <cstdint>
#include <string>

#include "serve/protocol.hpp"
#include "support/json.hpp"

// The client side of dyncg_serve's wire protocol, shared by every program
// that talks to a live server and checks its answers (dyncg_load,
// dyncg_chaos, the in-process server tests): finding the port, a line
// client, the in-process oracle, and readers for `stats` and `metrics`.
namespace dyncg {
namespace serve {

// `port` when it is positive; otherwise the port read from `port_file`,
// polled for up to 10 s.  -1 when neither gives one.
int resolve_port(int port, const std::string& port_file);

// Blocking line-delimited client on 127.0.0.1.
class LineClient {
 public:
  // Connects to 127.0.0.1:`port`, trying `attempts` times 100 ms apart (a
  // server may still be between fork and listen), each on a fresh socket.
  // `rcvbuf` > 0 sets SO_RCVBUF first.  When every attempt fails,
  // connected() is false and every send and receive fails.
  explicit LineClient(int port, int attempts = 1, int rcvbuf = 0);
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  ~LineClient();

  bool connected() const { return fd_ >= 0; }

  // `line` plus the newline.
  bool send_line(const std::string& line);
  // Raw bytes, newlines supplied by the caller (several requests in one
  // write land in one server read burst).
  bool send_raw(const std::string& bytes);
  // The next line without its newline; false on EOF or reset.
  bool recv_line(std::string* line);
  // send_line then recv_line.
  bool round_trip(const std::string& request, std::string* response);

  // Hands the connected socket to the caller, who then owns it; bytes
  // already buffered by recv_line are dropped.
  int release();

 private:
  int fd_ = -1;
  std::string buf_;
};

// How an in-process recompute judges one answered request.
enum class OracleVerdict {
  kAgrees,       // same bytes, or both sides refused the request
  kParseRejects, // the server answered OK a line parse_request refuses
  kRunFails,     // the server answered OK where run_query fails
  kMismatch,     // the recompute succeeds and the answer differs
};

// Recomputes `request_line` through parse_request + run_query and compares
// it with the server's answer: `served_ok` for an OK status, `result` its
// `result` text.  Admin ops (ping, stats, ...) always agree.
OracleVerdict check_against_oracle(const std::string& request_line,
                                   bool served_ok, const std::string& result);

// The counters of a `stats` response (git_rev and uptime_seconds are left
// as they are).  False unless `response` carries every counter
// render_stats writes.
bool read_stats(const std::string& response, ServeStats* out);

// The registry object of a `metrics` response; false when `response` has
// none.
bool read_metrics(const std::string& response, json::Value* registry);

// The value of counter `name` in a registry from read_metrics; false when
// the registry has no such counter.
bool find_counter(const json::Value& registry, const std::string& name,
                  std::uint64_t* value);

}  // namespace serve
}  // namespace dyncg
