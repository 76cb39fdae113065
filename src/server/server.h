// cods_server's core: a poll()-based event loop multiplexing long-lived
// sessions over TCP, dispatching statements through two-lane admission
// control onto the shared ThreadPool, and answering on the frame
// protocol of server/wire.h.
//
// Threading model:
//   * One event-loop thread owns every fd: accept, read, frame decode,
//     parse, classify, admit, and write-back. Statement execution never
//     runs here.
//   * Admission workers (server/admission.h) run batches on the shared
//     ThreadPool: deadline checks, SMO writes (serialized, then
//     committed through DurableDb::ApplyScript), and query
//     batches through the sharing executor (server/batch.h) against
//     ONE pinned Snapshot per batch. Responses are appended to the
//     connection's write buffer and the loop is woken via self-pipe.
//   * Responses may be answered out of admission order (the point lane
//     overtakes the heavy lane); clients match responses to requests by
//     request id.
//
// Sessions: one per connection. A session pins no snapshot: each query
// batch pins the root for its run only, so a root a commit retires is
// freed by the committing writer, never by a reader's next statement.
// Each session holds a bounded in-flight statement budget and at most
// one frame's worth (max_frame_bytes) of unsent answers — past either
// limit the loop stops reading the socket, pushing backpressure into
// TCP — and a prepared-statement cache with root-change invalidation
// (server/prepared.h).
//
// Durability: writes go through DurableDb::ApplyScript, whose OK means
// fsync'd-then-visible; an acked SMO response therefore implies a
// crash-durable commit, and graceful Shutdown() drains every admitted
// statement and flushes every response before closing sockets.

#ifndef CODS_SERVER_SERVER_H_
#define CODS_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "durability/db.h"
#include "server/admission.h"
#include "server/batch.h"
#include "server/prepared.h"
#include "server/wire.h"

namespace cods::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port with port()

  int point_workers = 1;
  int heavy_workers = 2;
  size_t lane_queue_limit = 1024;   // per-lane admission queue
  size_t max_batch = 16;            // statements per execution batch
  size_t session_queue_limit = 64;  // per-session in-flight statements
  int statement_timeout_ms = 10000; // 0 = no deadline
  uint64_t heavy_row_threshold = 4096;  // point/heavy estimate split
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  int exec_threads = 1;  // ExecContext width for statement execution
};

struct ServerStats {
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t statements_ok = 0;
  uint64_t statements_error = 0;
  uint64_t statements_timed_out = 0;
  uint64_t protocol_errors = 0;  // bad frames -> connection closed
  AdmissionStats admission;
  BatchStats batch;
};

class Server {
 public:
  /// Serves a durable database: SMOs go through ApplyScript (WAL +
  /// fsync before ack), queries pin snapshots.
  Server(DurableDb* db, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event loop.
  Status Start();

  /// The bound port (after Start).
  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting and reading, execute every admitted
  /// statement, flush every response, then close. Idempotent.
  void Shutdown();

  ServerStats GetStats() const;

 private:
  struct Conn;
  struct PendingStatement;

  Status ExecuteWrite(const Smo& smo);

  void EventLoop();
  void WakeLoop();
  void AcceptOne();
  void ReadConn(const std::shared_ptr<Conn>& conn);
  /// Admits the complete frames in the read buffer while MayAdmit
  /// holds; the rest stay held for the loop to resume.
  void DecodeFrames(const std::shared_ptr<Conn>& conn);
  /// The per-session backpressure gate. Requires conn.mu.
  bool MayAdmit(const Conn& conn) const;
  void FlushConn(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void HandleFrame(const std::shared_ptr<Conn>& conn, const Frame& frame);
  void AdmitStatement(const std::shared_ptr<Conn>& conn, uint64_t request_id,
                      Statement stmt);
  /// Loop-thread response (no in-flight accounting).
  void EnqueueOutput(const std::shared_ptr<Conn>& conn, std::string bytes);
  /// Worker-thread response: appends, releases one in-flight slot,
  /// wakes the loop.
  void SendResponse(const std::shared_ptr<Conn>& conn, std::string bytes);
  void RunBatch(Lane lane, std::vector<AdmissionTask> tasks);

  DurableDb* db_;
  const ServerOptions options_;

  AdmissionController admission_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] read, [1] write
  uint16_t port_ = 0;
  std::thread loop_thread_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};  // stop accept/read, keep writing
  std::atomic<bool> stop_{false};      // event loop exits
  std::atomic<bool> shut_down_{false};

  // Connection registry: mutated only by the loop thread; the mutex
  // covers the map itself for Shutdown's flush scan.
  mutable std::mutex conns_mu_;
  std::map<int, std::shared_ptr<Conn>> conns_;
  uint64_t next_session_id_ = 1;

  std::mutex write_mu_;  // serializes SMO application

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace cods::server

#endif  // CODS_SERVER_SERVER_H_
