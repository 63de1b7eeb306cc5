#include "support/flags.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace dyncg {
namespace flags {

StatusOr<long> parse_int(const std::string& flag, const std::string& tok,
                         long min_value, long max_value) {
  const char* s = tok.c_str();
  char* end = nullptr;
  errno = 0;
  long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < min_value ||
      v > max_value) {
    return Status::invalid_argument(
        flag + " expects an integer in [" + std::to_string(min_value) + ", " +
        std::to_string(max_value) + "], got '" + tok + "'");
  }
  return v;
}

bool Walker::next() {
  if (++i_ >= argc_) return false;
  flag_ = argv_[i_];
  has_inline_ = false;
  inline_value_.clear();
  if (std::size_t eq = flag_.find('='); eq != std::string::npos) {
    inline_value_ = flag_.substr(eq + 1);
    flag_.resize(eq);
    has_inline_ = true;
  }
  return true;
}

std::string Walker::value() {
  if (has_inline_) return inline_value_;
  if (i_ + 1 >= argc_) fail(flag_ + " needs a value");
  return argv_[++i_];
}

long Walker::integer(long min_value, long max_value) {
  StatusOr<long> v = parse_int(flag_, value(), min_value, max_value);
  if (!v.is_ok()) fail(v.status().message());
  return v.value();
}

void Walker::fail(const std::string& message) const {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  usage_();
  std::exit(2);  // usage_ does not return; never reached
}

void Walker::expected(const std::string& what, const std::string& got) const {
  fail(flag_ + " expects " + what + ", got '" + got + "'");
}

void Walker::unknown() const { fail("unknown flag '" + flag_ + "'"); }

}  // namespace flags
}  // namespace dyncg
