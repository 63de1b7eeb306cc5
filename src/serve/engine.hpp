#pragma once

#include "serve/protocol.hpp"
#include "support/status.hpp"

// Query execution for the serving layer.
//
// run_query answers one validated request by building the same machine
// dyncg_cli would build for the same scenario and rendering the same text
// the CLI prints — byte for byte, minus the CLI's trailing cost line (the
// ledger figures travel in the structured `cost` field instead).  The e2e
// suite enforces that equivalence by diffing served results against CLI
// stdout, so any drift between the two front ends is a test failure, not a
// documentation footnote.
//
// run_query is a pure function of the request: it builds its own Machine,
// arms the request's own fault plan, and writes no shared state (CCC and
// shuffle-exchange topologies are shared, but immutable once built), so the
// server may execute distinct requests of a batch concurrently
// (docs/SERVING.md#batching).
namespace dyncg {
namespace serve {

// Errors are the library's own validation statuses (invalid argument,
// failed precondition, unrecoverable fault), exactly what the CLI would
// exit with.  Requires req.system (callers never pass ping/stats).
StatusOr<CachedResult> run_query(const Request& req);

}  // namespace serve
}  // namespace dyncg
