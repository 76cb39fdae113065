// The traced run: splits statement and SMO time across the modules by
// timing calls into their public functions from outside the library.
//
// Spans (name, start, end, parent, request id) are kept in memory and
// written to the trace file when the probe ends; a layer's self time is
// its span's duration minus its children's. The probe replays a fixed
// prefix of the workload's statement stream twice — over the wire one
// statement at a time (the unloaded end-to-end time), and in-process in
// the order the server calls the layers — and one evolution round on the
// workload's probe table three ways (engine only, durable, over the
// wire). End-to-end metrics never come from here.

#ifndef CODS_BENCH_BENCH_TRACE_H_
#define CODS_BENCH_BENCH_TRACE_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_data.h"
#include "durability/db.h"

namespace cods_bench {

/// In-memory span recorder.
class Tracer {
 public:
  struct Span {
    const char* name = "";  // static, or interned by Intern()
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    uint64_t request = 0;
  };

  /// Opens a span starting now; returns its id.
  int Begin(const char* name, int parent, uint64_t request);
  void End(int id);
  /// Records a span with explicit bounds.
  int Add(const char* name, int parent, uint64_t request, int64_t start_ns,
          int64_t end_ns);
  /// A stable copy of a dynamic span name.
  const char* Intern(const std::string& name);
  /// The span; the reference is invalidated by the next Begin / Add.
  const Span& span(int id) const { return spans_[static_cast<size_t>(id)]; }
  int64_t DurationNs(int id) const {
    return span(id).end_ns - span(id).start_ns;
  }
  /// Duration minus the children's durations.
  int64_t SelfNs(int id) const;

  /// Writes {"spans": [...]} with self times.
  void Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> child_ns_;
  std::set<std::string> names_;
};

struct ProbeInputs {
  cods::DurableDb* db = nullptr;
  cods::DurableDbOptions db_options;
  std::string db_dir;
  uint16_t port = 0;  // a server over `db`
  std::string scratch_dir;
  const StmtSource* statements = nullptr;
  int n_statements = 0;
  uint64_t seed = 0;
  std::vector<std::string> smo_round;  // restores the schema
  // From the untraced load phase of the same run.
  double batch_hit_ratio = 0;
  std::vector<double> gen_lag_us;
};

/// The per-layer metrics, in BENCHMARK.json order.
std::vector<Metric> RunTraceProbe(const ProbeInputs& in,
                                  const std::string& trace_path,
                                  uint64_t* attempted, uint64_t* failed);

}  // namespace cods_bench

#endif  // CODS_BENCH_BENCH_TRACE_H_
