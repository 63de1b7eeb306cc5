#pragma once

#include "serve/protocol.hpp"
#include "support/status.hpp"

// Query execution for the serving layer.
//
// run_query answers one validated request through dyncg/query_machine.hpp:
// it plans and builds the query's machine, arms the request's fault plan,
// and wraps one answer_query call in a request-tagged span, a cost meter
// and the per-query metrics.  dyncg_cli answers through the same call, so
// a served `result` is the CLI's stdout minus its trailing cost line (the
// ledger figures travel in the structured `cost` field instead); the e2e
// suite diffs the two for every query.
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
