#pragma once

#include <string>

#include "support/status.hpp"

// Strict command-line parsing shared by the tools (dyncg_cli, dyncg_serve,
// dyncg_load, dyncg_chaos), so all four refuse the same inputs with the same
// words.
//
// Every value flag takes `--flag value` or `--flag=value`.  An unknown flag,
// a missing value or a malformed value prints one "error: ..." line to
// stderr and then calls the tool's usage(), which prints the usage line and
// exits 2.
namespace dyncg {
namespace flags {

// `tok` as a base-10 integer in [min_value, max_value]: the whole token must
// be the number and it must not overflow.  A typo like `--n 1O24` or
// `--k ""` is an error, never a silent zero.  INVALID_ARGUMENT message:
// "<flag> expects an integer in [lo, hi], got '<tok>'".
StatusOr<long> parse_int(const std::string& flag, const std::string& tok,
                         long min_value, long max_value);

// Walks argv[first..argc) one flag at a time:
//   while (args.next()) {
//     if (args.is("--n")) n = args.integer(1, 64); else args.unknown();
//   }
class Walker {
 public:
  // Prints the tool's usage line and exits; must not return.
  using Usage = void (*)();

  Walker(int argc, char** argv, int first, Usage usage)
      : argc_(argc), argv_(argv), i_(first - 1), usage_(usage) {}

  // Moves to the next flag; false once argv is exhausted.
  bool next();
  // Whether the current flag, without its "=value" part, is `name`.
  bool is(const char* name) const { return flag_ == name; }

  // The flag's value: the inline "=value" (possibly empty), else the next
  // argument.  "<flag> needs a value" when there is none.
  std::string value();
  // value() through parse_int.
  long integer(long min_value, long max_value);

  // "error: <message>", then usage.
  [[noreturn]] void fail(const std::string& message) const;
  // "error: <flag> expects <what>, got '<got>'", then usage.
  [[noreturn]] void expected(const std::string& what,
                             const std::string& got) const;
  // "error: unknown flag '<flag>'", then usage.
  [[noreturn]] void unknown() const;

 private:
  int argc_;
  char** argv_;
  int i_;
  Usage usage_;
  std::string flag_;
  std::string inline_value_;
  bool has_inline_ = false;
};

}  // namespace flags
}  // namespace dyncg
