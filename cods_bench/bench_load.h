// Load generators over the wire: closed loops with a pipelining window,
// an open loop with seeded Poisson arrivals, and the SMO writer. Each
// uses blocking Clients on loopback; every response is verified against
// the statement source's oracle as it arrives.
//
// Timing: a run has a warm-up phase and a measured window. Closed loops
// time a statement from its frame write to its response read. The open
// loop times it from its SCHEDULED send time, so a stall charges every
// request queued behind it, and reports how late the generator ran.

#ifndef CODS_BENCH_BENCH_LOAD_H_
#define CODS_BENCH_BENCH_LOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_data.h"

namespace cods_bench {

/// What one load phase observed.
struct LoadStats {
  /// Latencies of statements that completed inside the measured window
  /// (µs), overall and per statement class.
  std::vector<double> latency_us;
  std::vector<std::vector<double>> class_latency_us;
  /// Generator lateness (µs): open loop — actual minus scheduled send;
  /// closed loop — response read to the next frame write.
  std::vector<double> gen_lag_us;
  uint64_t completed = 0;  // OK and verified inside the measured window
  uint64_t attempted = 0;  // every statement sent, warm-up included
  uint64_t failed = 0;     // error responses and wrong answers
  double seconds = 0;      // length of the measured window
};

/// `connections` client threads, each keeping `window` statements in
/// flight, for `warmup_s` then `seconds` of measurement.
LoadStats RunClosedLoop(uint16_t port, int connections, int window,
                        const StmtSource& source, uint64_t seed,
                        double warmup_s, double seconds);

/// One connection: a sender thread plus the calling thread receiving;
/// arrivals are Poisson at `rate` statements/s from the seed, starting
/// at `start_ns`.
LoadStats RunOpenLoop(uint16_t port, double rate, const StmtSource& source,
                      uint64_t seed, int64_t start_ns, double warmup_s,
                      double seconds);

/// The SMO writer: one connection, one statement in flight, cycling
/// through `cycle` until the window ends, then finishing the cycle so
/// the schema is restored.
struct WriterStats {
  /// Per statement of the cycle: latencies (µs) inside the window.
  std::vector<std::vector<double>> latency_us;
  uint64_t completed = 0;  // statements acked inside the window
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t cycles = 0;     // full cycles run, warm-up included
  double seconds = 0;
};

/// Runs the writer on the calling thread. `start_ns` is the shared
/// phase origin (so the writer's window lines up with a concurrent
/// reader's).
WriterStats RunWriter(uint16_t port, const std::vector<std::string>& cycle,
                      int64_t start_ns, double warmup_s, double seconds);

/// A blocking client of the server on loopback `port`; dies on failure.
std::unique_ptr<cods::server::Client> Connect(uint16_t port);

/// Runs `texts` one at a time over a fresh connection, requiring an OK
/// ack for each.
CheckCount RunScriptOverWire(uint16_t port,
                             const std::vector<std::string>& texts);

}  // namespace cods_bench

#endif  // CODS_BENCH_BENCH_LOAD_H_
