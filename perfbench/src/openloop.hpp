// The open-loop generator: one thread spins to each due time and sends the
// next pre-built request line into Server::submit, whatever the server's
// state, while two waiter threads stamp each answer as it lands. Latency is
// taken from each request's due time.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"
#include "src/serve/server.hpp"

namespace perfbench {

struct LoopOutcome {
  OpenLoopSample sample;  ///< seconds relative to the phase start
  rbpeb::serve::ResponseMessage response;
  double parse_us = 0.0;  ///< parse_request of this line, on the generator
};

/// Send `lines[i]` at start + i/rate (rate 0: all due at the start) and
/// collect every answer. Each request goes through serve::parse_request and
/// Server::submit, as rbpeb_serve does with its input. With tracing on,
/// each request becomes a top-level span (due → answer) whose children are
/// the generator's lateness, the parse, the submit and the time inside the
/// server.
std::vector<LoopOutcome> run_open_loop(rbpeb::serve::Server& server,
                                       const std::vector<std::string>& lines,
                                       double rate, SpanRecorder& spans,
                                       std::int64_t first_request_id = 0);

/// Start a server whose workers run on CPUs 1–2, and pin the calling
/// (generator) thread to CPU 0; run_open_loop's waiters take CPU 3. Kept
/// apart, a woken worker never lands on the spinning generator's CPU and
/// stalls the submit. No pinning below four CPUs.
std::unique_ptr<rbpeb::serve::Server> start_server(
    const rbpeb::serve::ServerOptions& options);

/// A field of one histogram in Server::metrics_snapshot_json(), e.g.
/// ("queue_us", "p50"). -1 when absent.
double snapshot_histogram(const std::string& snapshot_json,
                          const std::string& histogram,
                          const std::string& field);

}  // namespace perfbench
