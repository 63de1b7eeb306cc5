#pragma once

#include <string>

// Revision stamping shared by every binary that names the commit it runs:
// the bench harness's BENCH_<name>.json, dyncg_load's BENCH_serve.json and
// dyncg_serve's `stats` response.
//
// The configure-time DYNCG_GIT_REV stamp goes stale (or stays "-dirty") the
// moment the tree changes after cmake ran, so the revision is resolved at
// *run time* when a git binary and the source tree are reachable, and only
// falls back to the baked-in stamp.  Both compile definitions
// (DYNCG_GIT_REV, DYNCG_SOURCE_DIR) are set on build_info.cpp alone, so
// callers pass nothing and a stale stamp rebuilds one file.
namespace dyncg {

// "a277f7c" or "a277f7c-dirty"; the baked-in stamp when git is unavailable;
// "unknown" when both fail.
std::string git_revision();

}  // namespace dyncg
