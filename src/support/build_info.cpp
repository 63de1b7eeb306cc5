#include "support/build_info.hpp"

#include <cstdio>

namespace dyncg {

namespace {

#if defined(__unix__) || defined(__APPLE__)
std::string run_command(const std::string& cmd) {
  std::string out;
  if (std::FILE* p = popen(cmd.c_str(), "r")) {
    char buf[128];
    std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, p);
    if (pclose(p) == 0 && got > 0) out.assign(buf, got);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}
#endif

}  // namespace

std::string git_revision() {
#if defined(DYNCG_SOURCE_DIR)
  const char* source_dir = DYNCG_SOURCE_DIR;
#else
  const char* source_dir = nullptr;
#endif
#if defined(DYNCG_GIT_REV)
  const char* baked = DYNCG_GIT_REV;
#else
  const char* baked = nullptr;
#endif
#if defined(__unix__) || defined(__APPLE__)
  if (source_dir != nullptr) {
    const std::string base = std::string("git -C \"") + source_dir + "\" ";
    std::string rev = run_command(base + "rev-parse --short HEAD 2>/dev/null");
    if (!rev.empty() &&
        rev.find_first_not_of("0123456789abcdef") == std::string::npos) {
      if (!run_command(base + "status --porcelain 2>/dev/null").empty()) {
        rev += "-dirty";
      }
      return rev;
    }
  }
#else
  (void)source_dir;
#endif
  return baked != nullptr ? baked : "unknown";
}

}  // namespace dyncg
