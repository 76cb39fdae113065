#include "bench_load.h"

#include <algorithm>
#include <map>
#include <memory>
#include <thread>

#include "bench_common.h"
#include "server/client.h"

namespace cods_bench {

using cods::Result;
using cods::server::Client;
using cods::server::EncodeExecute;
using cods::server::FrameType;
using cods::server::WireResponse;

namespace {

constexpr int kMaxReportedFailures = 5;

void ReportFailure(uint64_t failed, const std::string& text,
                   const std::string& why) {
  if (failed <= kMaxReportedFailures) {
    std::fprintf(stderr, "failed: %s: %s\n", text.c_str(), why.c_str());
  }
}

void Merge(LoadStats* into, LoadStats&& from) {
  into->latency_us.insert(into->latency_us.end(), from.latency_us.begin(),
                          from.latency_us.end());
  into->gen_lag_us.insert(into->gen_lag_us.end(), from.gen_lag_us.begin(),
                          from.gen_lag_us.end());
  for (size_t c = 0; c < from.class_latency_us.size(); ++c) {
    into->class_latency_us[c].insert(into->class_latency_us[c].end(),
                                     from.class_latency_us[c].begin(),
                                     from.class_latency_us[c].end());
  }
  into->completed += from.completed;
  into->attempted += from.attempted;
  into->failed += from.failed;
}

// One closed-loop connection: keeps `window` statements in flight until
// t_end, then drains. The measured window is judged on response time.
void ClosedConnection(uint16_t port, int window, const StmtSource& source,
                      uint64_t seed, int64_t t_measure, int64_t t_end,
                      LoadStats* out) {
  std::unique_ptr<Client> client = Connect(port);
  StmtStream stream(source, seed);
  struct InFlight {
    Stmt stmt;
    int64_t sent_ns;
  };
  std::map<uint64_t, InFlight> inflight;
  auto send = [&](int64_t ready_ns) {
    Stmt stmt = stream.Next();
    const uint64_t id = client->NextRequestId();
    const int64_t now = NowNs();
    if (ready_ns >= t_measure) out->gen_lag_us.push_back(NsToUs(now - ready_ns));
    Check(client->SendRaw(EncodeExecute(id, stmt.text)), "sending a statement");
    inflight.emplace(id, InFlight{std::move(stmt), now});
    ++out->attempted;
  };
  for (int i = 0; i < window; ++i) send(-1);
  while (!inflight.empty()) {
    Result<WireResponse> resp = client->ReceiveAny();
    const int64_t now = NowNs();
    if (!resp.ok()) Die("receiving a response", resp.status());
    auto it = inflight.find(resp.ValueOrDie().request_id);
    if (it == inflight.end()) Die("response for an unknown request id");
    std::string why;
    if (!source.Verify(it->second.stmt, resp.ValueOrDie(), &why)) {
      ++out->failed;
      ReportFailure(out->failed, it->second.stmt.text, why);
    } else if (now >= t_measure && now <= t_end) {
      const double us = NsToUs(now - it->second.sent_ns);
      out->latency_us.push_back(us);
      out->class_latency_us[static_cast<size_t>(it->second.stmt.cls)]
          .push_back(us);
      ++out->completed;
    }
    inflight.erase(it);
    if (NowNs() < t_end) send(now);
  }
}

}  // namespace

std::unique_ptr<Client> Connect(uint16_t port) {
  return Take(Client::Connect("127.0.0.1", port), "connecting to the server");
}

LoadStats RunClosedLoop(uint16_t port, int connections, int window,
                        const StmtSource& source, uint64_t seed,
                        double warmup_s, double seconds) {
  const int64_t t_measure = NowNs() + static_cast<int64_t>(warmup_s * 1e9);
  const int64_t t_end = t_measure + static_cast<int64_t>(seconds * 1e9);
  std::vector<LoadStats> per(static_cast<size_t>(connections));
  for (LoadStats& s : per) {
    s.class_latency_us.resize(static_cast<size_t>(source.NumClasses()));
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back(ClosedConnection, port, window, std::cref(source),
                         seed * 1000003 + static_cast<uint64_t>(c), t_measure,
                         t_end, &per[static_cast<size_t>(c)]);
  }
  for (std::thread& t : threads) t.join();
  LoadStats out;
  out.class_latency_us.resize(static_cast<size_t>(source.NumClasses()));
  for (LoadStats& s : per) Merge(&out, std::move(s));
  out.seconds = seconds;
  return out;
}

LoadStats RunOpenLoop(uint16_t port, double rate, const StmtSource& source,
                      uint64_t seed, int64_t start_ns, double warmup_s,
                      double seconds) {
  std::unique_ptr<Client> client = Connect(port);
  Rng rng(seed);
  StmtStream stream(source, seed + 1);
  // The whole arrival schedule and statement stream are drawn up front:
  // the sender only sleeps and writes, the receiver only reads and
  // verifies, and neither writes anything the other reads.
  const int64_t t0 = start_ns;
  const int64_t t_measure = t0 + static_cast<int64_t>(warmup_s * 1e9);
  const int64_t t_end = t_measure + static_cast<int64_t>(seconds * 1e9);
  std::vector<int64_t> due;
  std::vector<Stmt> stmts;
  for (double t = Exponential(rng, 1e9 / rate);
       t0 + static_cast<int64_t>(t) < t_end; t += Exponential(rng, 1e9 / rate)) {
    due.push_back(t0 + static_cast<int64_t>(t));
    stmts.push_back(stream.Next());
  }
  const size_t n = due.size();
  const uint64_t base_id = client->NextRequestId();
  std::vector<int64_t> lag_ns(n, 0);

  // The sender is the one extra thread; the caller's thread receives.
  std::thread sender([&] {
    for (size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::nanoseconds(due[i])));
      lag_ns[i] = NowNs() - due[i];
      Check(client->SendRaw(EncodeExecute(base_id + i, stmts[i].text)),
            "sending a statement");
    }
  });
  LoadStats out;
  out.class_latency_us.resize(static_cast<size_t>(source.NumClasses()));
  for (size_t k = 0; k < n; ++k) {
    Result<WireResponse> resp = client->ReceiveAny();
    const int64_t now = NowNs();
    if (!resp.ok()) Die("receiving a response", resp.status());
    const uint64_t i = resp.ValueOrDie().request_id - base_id;
    if (i >= n) Die("response for an unknown request id");
    std::string why;
    if (!source.Verify(stmts[i], resp.ValueOrDie(), &why)) {
      ++out.failed;
      ReportFailure(out.failed, stmts[i].text, why);
    } else if (due[i] >= t_measure) {
      const double us = NsToUs(now - due[i]);
      out.latency_us.push_back(us);
      out.class_latency_us[static_cast<size_t>(stmts[i].cls)].push_back(us);
      ++out.completed;
    }
  }
  sender.join();
  for (size_t i = 0; i < n; ++i) {
    if (due[i] >= t_measure) out.gen_lag_us.push_back(NsToUs(lag_ns[i]));
  }
  out.attempted = n;
  out.seconds = seconds;
  return out;
}

WriterStats RunWriter(uint16_t port, const std::vector<std::string>& cycle,
                      int64_t start_ns, double warmup_s, double seconds) {
  std::unique_ptr<Client> client = Connect(port);
  const int64_t t_measure = start_ns + static_cast<int64_t>(warmup_s * 1e9);
  const int64_t t_end = t_measure + static_cast<int64_t>(seconds * 1e9);
  WriterStats out;
  out.latency_us.resize(cycle.size());
  for (size_t j = 0;; j = (j + 1) % cycle.size()) {
    if (j == 0 && NowNs() >= t_end) break;
    const int64_t sent = NowNs();
    Result<WireResponse> resp = client->Execute(cycle[j]);
    const int64_t now = NowNs();
    if (!resp.ok()) Die("running " + cycle[j], resp.status());
    ++out.attempted;
    if (resp.ValueOrDie().type != FrameType::kResultOk) {
      ++out.failed;
      ReportFailure(out.failed, cycle[j],
                    cods::server::FormatWireResponse(resp.ValueOrDie()));
    } else if (now >= t_measure && now <= t_end) {
      out.latency_us[j].push_back(NsToUs(now - sent));
      ++out.completed;
    }
    if (j + 1 == cycle.size()) ++out.cycles;
  }
  out.seconds = seconds;
  return out;
}

CheckCount RunScriptOverWire(uint16_t port,
                             const std::vector<std::string>& texts) {
  std::unique_ptr<Client> client = Connect(port);
  CheckCount out;
  for (const std::string& text : texts) {
    Result<WireResponse> resp = client->Execute(text);
    ++out.checked;
    if (!resp.ok() || resp.ValueOrDie().type != FrameType::kResultOk) {
      ++out.failed;
      ReportFailure(out.failed, text,
                    resp.ok() ? cods::server::FormatWireResponse(resp.ValueOrDie())
                              : resp.status().ToString());
    }
  }
  return out;
}

}  // namespace cods_bench
