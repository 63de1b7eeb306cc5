#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <utility>

#include "serve/engine.hpp"

namespace dyncg {
namespace serve {

int resolve_port(int port, const std::string& port_file) {
  if (port > 0) return port;
  if (port_file.empty()) return -1;
  // The server writes the file after binding; poll briefly.
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::ifstream in(port_file);
    int p = 0;
    if (in >> p && p > 0) return p;
    usleep(100 * 1000);
  }
  return -1;
}

LineClient::LineClient(int port, int attempts, int rcvbuf) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) usleep(100 * 1000);
    // A socket whose connect failed is in an unspecified state (POSIX), so
    // every attempt starts from a fresh one.
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    if (rcvbuf > 0) {
      setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      fd_ = fd;
      return;
    }
    close(fd);
  }
}

LineClient::~LineClient() {
  if (fd_ >= 0) close(fd_);
}

bool LineClient::send_line(const std::string& line) {
  return send_raw(line + "\n");
}

bool LineClient::send_raw(const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = write(fd_, bytes.data() + off, bytes.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool LineClient::recv_line(std::string* line) {
  for (;;) {
    std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    char chunk[65536];
    ssize_t n = read(fd_, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool LineClient::round_trip(const std::string& request,
                            std::string* response) {
  return send_line(request) && recv_line(response);
}

int LineClient::release() {
  buf_.clear();
  return std::exchange(fd_, -1);
}

OracleVerdict check_against_oracle(const std::string& request_line,
                                   bool served_ok, const std::string& result) {
  StatusOr<Request> req = parse_request(request_line);
  if (!req.is_ok()) {
    return served_ok ? OracleVerdict::kParseRejects : OracleVerdict::kAgrees;
  }
  if (is_admin_op(req.value().op)) return OracleVerdict::kAgrees;
  StatusOr<CachedResult> want = run_query(req.value());
  if (!want.is_ok()) {
    return served_ok ? OracleVerdict::kRunFails : OracleVerdict::kAgrees;
  }
  return served_ok && result == want.value().text ? OracleVerdict::kAgrees
                                                  : OracleVerdict::kMismatch;
}

bool read_stats(const std::string& response, ServeStats* out) {
  json::Value v;
  const json::Value* stats = nullptr;
  if (!json::parse(response, &v) || (stats = v.find("stats")) == nullptr ||
      !stats->is_object()) {
    return false;
  }
  const std::pair<const char*, std::uint64_t*> counters[] = {
      {"schema_version", &out->schema_version},
      {"connections", &out->connections},
      {"requests", &out->requests},
      {"errors", &out->errors},
      {"rejected", &out->rejected},
      {"shed", &out->shed},
      {"deadline_exceeded", &out->deadline_exceeded},
      {"batches", &out->batches},
      {"hits", &out->hits},
      {"misses", &out->misses},
      {"evictions", &out->evictions},
      {"entries", &out->entries},
      {"fleets", &out->fleets},
  };
  for (const auto& [key, field] : counters) {
    const json::Value* c = stats->find(key);
    if (c == nullptr || !c->is_number()) return false;
    *field = static_cast<std::uint64_t>(c->number);
  }
  return true;
}

bool read_metrics(const std::string& response, json::Value* registry) {
  json::Value v;
  if (!json::parse(response, &v)) return false;
  const json::Value* m = v.find("metrics");
  if (m == nullptr || !m->is_object()) return false;
  *registry = *m;
  return true;
}

bool find_counter(const json::Value& registry, const std::string& name,
                  std::uint64_t* value) {
  const json::Value* counters = registry.find("counters");
  if (counters == nullptr) return false;
  for (const json::Value& c : counters->array) {
    const json::Value* n = c.find("name");
    const json::Value* x = c.find("value");
    if (n != nullptr && n->is_string() && n->string == name && x != nullptr) {
      *value = static_cast<std::uint64_t>(x->number);
      return true;
    }
  }
  return false;
}

}  // namespace serve
}  // namespace dyncg
