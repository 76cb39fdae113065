#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

namespace cods::server {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + strerror(errno));
}

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

// ---- Connection / session state -----------------------------------------

// Bytes queued for a socket. A partial send() advances an offset instead
// of erasing the sent prefix, and the buffer compacts only once the
// offset passes half of it, so draining n bytes under backpressure moves
// O(n) bytes in total rather than O(n²).
class OutBuf {
 public:
  bool empty() const { return sent_ == bytes_.size(); }
  const char* data() const { return bytes_.data() + sent_; }
  size_t size() const { return bytes_.size() - sent_; }

  OutBuf& operator+=(const std::string& more) {
    bytes_ += more;
    return *this;
  }

  void Consume(size_t n) {
    sent_ += n;
    if (sent_ == bytes_.size()) {
      bytes_.clear();
      sent_ = 0;
    } else if (sent_ > bytes_.size() / 2) {
      bytes_.erase(0, sent_);
      sent_ = 0;
    }
  }

 private:
  std::string bytes_;
  size_t sent_ = 0;
};

struct Server::Conn {
  int fd = -1;
  uint64_t session_id = 0;

  // Loop-thread-only read state.
  std::string rbuf;
  bool held = false;  // rbuf holds frames paused at the in-flight cap

  // Write state, shared with workers.
  std::mutex mu;
  OutBuf wbuf;
  bool close_after_flush = false;
  bool closed = false;
  size_t in_flight = 0;  // admitted statements awaiting a response

  // Session: prepared-statement cache (no snapshot; see server.h).
  std::mutex session_mu;
  uint64_t next_stmt_id = 1;
  std::map<uint64_t, PreparedStatement> prepared;
};

struct Server::PendingStatement {
  std::shared_ptr<Conn> conn;
  uint64_t request_id = 0;
  Statement stmt;
};

// ---- Construction -------------------------------------------------------

Server::Server(DurableDb* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      admission_(
          [this](Lane lane, std::vector<AdmissionTask> tasks) {
            RunBatch(lane, std::move(tasks));
          },
          AdmissionOptions{options_.point_workers, options_.heavy_workers,
                           options_.lane_queue_limit, options_.max_batch}) {}

Server::~Server() {
  Shutdown();
}

Status Server::ExecuteWrite(const Smo& smo) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return db_->ApplyScript({smo});
}

// ---- Lifecycle ----------------------------------------------------------

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    return Errno("bind " + options_.host + ":" +
                 std::to_string(options_.port));
  }
  if (listen(listen_fd_, 128) < 0) return Errno("listen");
  socklen_t len = sizeof addr;
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  CODS_RETURN_NOT_OK(SetNonBlocking(listen_fd_));
  if (pipe(wake_fds_) < 0) return Errno("pipe");
  CODS_RETURN_NOT_OK(SetNonBlocking(wake_fds_[0]));
  CODS_RETURN_NOT_OK(SetNonBlocking(wake_fds_[1]));
  loop_thread_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void Server::WakeLoop() {
  if (wake_fds_[1] >= 0) {
    char b = 1;
    ssize_t ignored = write(wake_fds_[1], &b, 1);
    (void)ignored;  // EAGAIN means a wakeup is already pending
  }
}

void Server::Shutdown() {
  if (!started_.load() || shut_down_.exchange(true)) return;
  // Phase 1: stop accepting and reading; admitted statements keep
  // executing and their responses keep flowing out.
  draining_.store(true);
  WakeLoop();
  // Phase 2: run every queued statement to completion.
  admission_.Drain();
  // Phase 3: wait (bounded) for the loop to flush every response.
  // cods-lint: allow(wall-clock): shutdown flush deadline; bounds how
  // long Stop() waits, never what any statement computes.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    bool all_flushed = true;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& [fd, conn] : conns_) {
        (void)fd;
        std::lock_guard<std::mutex> cl(conn->mu);
        if (!conn->closed && !conn->wbuf.empty()) {
          all_flushed = false;
          break;
        }
      }
    }
    // cods-lint: allow(wall-clock): same shutdown deadline as above.
    if (all_flushed || std::chrono::steady_clock::now() > deadline) break;
    WakeLoop();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Phase 4: stop the loop and close everything.
  stop_.store(true);
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [fd, conn] : conns_) {
      std::lock_guard<std::mutex> cl(conn->mu);
      if (!conn->closed) {
        close(fd);
        conn->closed = true;
      }
    }
    conns_.clear();
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_fds_[0] >= 0) close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) close(wake_fds_[1]);
  listen_fd_ = wake_fds_[0] = wake_fds_[1] = -1;
}

ServerStats Server::GetStats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ServerStats out = stats_;
  out.admission = admission_.GetStats();
  return out;
}

// ---- Event loop ---------------------------------------------------------

void Server::EventLoop() {
  while (!stop_.load()) {
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Conn>> polled;
    bool draining = draining_.load();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    if (!draining) fds.push_back({listen_fd_, POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto& [fd, conn] : conns_) {
        short events = 0;
        {
          std::lock_guard<std::mutex> cl(conn->mu);
          if (conn->closed) continue;
          if (!conn->wbuf.empty()) events |= POLLOUT;
          // Frames already read but held back are decoded before the
          // socket is read again, so rbuf stays bounded by one read.
          if (!conn->held && MayAdmit(*conn)) events |= POLLIN;
        }
        fds.push_back({fd, events, 0});
        polled.push_back(conn);
      }
    }
    int rc = poll(fds.data(), fds.size(), 100);
    if (rc < 0 && errno != EINTR) break;
    if (stop_.load()) break;
    size_t idx = 0;
    if (fds[idx].revents & POLLIN) {
      char buf[256];
      while (read(wake_fds_[0], buf, sizeof buf) > 0) {
      }
    }
    ++idx;
    if (!draining) {
      if (fds[idx].revents & POLLIN) AcceptOne();
      ++idx;
    }
    for (size_t c = 0; c < polled.size(); ++c, ++idx) {
      const std::shared_ptr<Conn>& conn = polled[c];
      short re = fds[idx].revents;
      if (re & (POLLERR | POLLHUP | POLLNVAL)) {
        CloseConn(conn);
        continue;
      }
      if (re & POLLOUT) FlushConn(conn);
      // Every response wakes the loop, so held frames resume as soon as
      // one frees a slot.
      if (re & POLLIN) {
        ReadConn(conn);
      } else if (conn->held) {
        DecodeFrames(conn);
      }
    }
  }
}

void Server::AcceptOne() {
  for (;;) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn->session_id = next_session_id_++;
      conns_[fd] = conn;
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.sessions_opened;
  }
}

void Server::CloseConn(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> cl(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    close(conn->fd);
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(conn->fd);
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.sessions_closed;
}

bool Server::MayAdmit(const Conn& conn) const {
  // Backpressure: at the in-flight cap, or with a frame's worth of
  // answers unsent (a slot frees when its answer is queued, not sent),
  // no more frames are admitted and the socket goes unread, so the
  // client's sends eventually block in TCP.
  return !draining_.load() && !conn.close_after_flush && !conn.closed &&
         conn.in_flight < options_.session_queue_limit &&
         conn.wbuf.size() < options_.max_frame_bytes;
}

void Server::ReadConn(const std::shared_ptr<Conn>& conn) {
  // One buffer per call, and DecodeFrames stops at the backpressure
  // gate, so a session never has more than one read's worth of frames
  // waiting in rbuf.
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = recv(conn->fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn->rbuf.append(buf, static_cast<size_t>(n));
      break;
    }
    if (n == 0) {
      CloseConn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
  DecodeFrames(conn);
}

void Server::DecodeFrames(const std::shared_ptr<Conn>& conn) {
  conn->held = false;
  while (!conn->rbuf.empty()) {
    {
      std::lock_guard<std::mutex> cl(conn->mu);
      if (!MayAdmit(*conn)) {
        conn->held = true;
        return;
      }
    }
    Frame frame;
    size_t consumed = 0;
    Status error;
    DecodeStatus ds = DecodeFrame(conn->rbuf, options_.max_frame_bytes, &frame,
                                  &consumed, &error);
    if (ds == DecodeStatus::kNeedMore) return;
    if (ds == DecodeStatus::kError) {
      // Hostile or corrupt input: answer with a typed error, then close
      // the connection — the stream is unsynchronized beyond this point.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.protocol_errors;
      }
      std::lock_guard<std::mutex> cl(conn->mu);
      if (!conn->closed) {
        conn->wbuf += EncodeError(0, error);
        conn->close_after_flush = true;
      }
      conn->rbuf.clear();
      return;
    }
    conn->rbuf.erase(0, consumed);
    HandleFrame(conn, frame);
  }
}

void Server::FlushConn(const std::shared_ptr<Conn>& conn) {
  bool close_now = false;
  {
    std::lock_guard<std::mutex> cl(conn->mu);
    if (conn->closed) return;
    while (!conn->wbuf.empty()) {
      ssize_t n = send(conn->fd, conn->wbuf.data(), conn->wbuf.size(),
                       MSG_NOSIGNAL);
      if (n > 0) {
        conn->wbuf.Consume(static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close_now = true;  // peer is gone
      break;
    }
    if (conn->wbuf.empty() && conn->close_after_flush) close_now = true;
  }
  if (close_now) CloseConn(conn);
}

void Server::EnqueueOutput(const std::shared_ptr<Conn>& conn,
                           std::string bytes) {
  {
    std::lock_guard<std::mutex> cl(conn->mu);
    if (conn->closed) return;
    conn->wbuf += bytes;
  }
  FlushConn(conn);  // loop thread: try an eager write
}

void Server::SendResponse(const std::shared_ptr<Conn>& conn,
                          std::string bytes) {
  {
    std::lock_guard<std::mutex> cl(conn->mu);
    if (conn->in_flight > 0) --conn->in_flight;
    if (conn->closed) return;
    conn->wbuf += bytes;
  }
  WakeLoop();
}

// ---- Frame dispatch (loop thread) ---------------------------------------

void Server::HandleFrame(const std::shared_ptr<Conn>& conn,
                         const Frame& frame) {
  Result<WireRequest> req_r = DecodeRequest(frame);
  if (!req_r.ok()) {
    // Structurally valid frame with a malformed body: typed error, then
    // close (same unsynchronized-stream reasoning as decode errors).
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.protocol_errors;
    }
    std::lock_guard<std::mutex> cl(conn->mu);
    if (!conn->closed) {
      conn->wbuf += EncodeError(frame.request_id, req_r.status());
      conn->close_after_flush = true;
    }
    return;
  }
  const WireRequest& req = req_r.ValueOrDie();
  switch (req.type) {
    case FrameType::kHello:
      if (req.protocol != kProtocolVersion) {
        EnqueueOutput(conn,
                      EncodeError(req.request_id,
                                  Status::InvalidArgument(
                                      "protocol version mismatch: server " +
                                      std::to_string(kProtocolVersion) +
                                      ", client " +
                                      std::to_string(req.protocol))));
        return;
      }
      EnqueueOutput(conn, EncodeHelloOk(req.request_id, conn->session_id));
      return;
    case FrameType::kPing:
      EnqueueOutput(conn, EncodePong(req.request_id));
      return;
    case FrameType::kGoodbye: {
      std::lock_guard<std::mutex> cl(conn->mu);
      if (!conn->closed) {
        conn->wbuf += EncodeResultOk(req.request_id, "goodbye");
        conn->close_after_flush = true;
      }
      return;
    }
    case FrameType::kExecute: {
      Result<Statement> stmt = ParseStatement(req.text);
      if (!stmt.ok()) {
        EnqueueOutput(conn, EncodeError(req.request_id, stmt.status()));
        return;
      }
      AdmitStatement(conn, req.request_id, std::move(stmt).ValueOrDie());
      return;
    }
    case FrameType::kPrepare: {
      Snapshot snap = db_->GetSnapshot();
      Result<PreparedStatement> prepared =
          PrepareStatement(req.text, snap.root());
      if (!prepared.ok()) {
        EnqueueOutput(conn, EncodeError(req.request_id, prepared.status()));
        return;
      }
      uint64_t stmt_id;
      uint32_t n_params = prepared.ValueOrDie().n_params;
      {
        std::lock_guard<std::mutex> sl(conn->session_mu);
        stmt_id = conn->next_stmt_id++;
        conn->prepared.emplace(stmt_id, std::move(prepared).ValueOrDie());
      }
      EnqueueOutput(conn, EncodePrepareOk(req.request_id, stmt_id, n_params));
      return;
    }
    case FrameType::kExecPrepared: {
      Snapshot snap = db_->GetSnapshot();
      Result<Statement> bound{Statement{}};
      {
        std::lock_guard<std::mutex> sl(conn->session_mu);
        auto it = conn->prepared.find(req.stmt_id);
        if (it == conn->prepared.end()) {
          bound = Status::KeyError("unknown prepared statement id " +
                                   std::to_string(req.stmt_id));
        } else {
          PreparedStatement& entry = it->second;
          if (entry.resolved_root_id != snap.root().id()) {
            // The catalog evolved under the cache: re-resolve against
            // the new root before answering — never from the stale
            // resolution.
            Status revalidated = ValidateResolution(entry.stmt, snap.root());
            if (!revalidated.ok()) {
              bound = revalidated.WithContext(
                  "prepared statement invalidated by schema evolution");
            } else {
              entry.resolved_root_id = snap.root().id();
            }
          }
          if (bound.ok()) bound = BindParams(entry, req.params);
        }
      }
      if (!bound.ok()) {
        EnqueueOutput(conn, EncodeError(req.request_id, bound.status()));
        return;
      }
      AdmitStatement(conn, req.request_id, std::move(bound).ValueOrDie());
      return;
    }
    case FrameType::kClosePrepared: {
      size_t erased;
      {
        std::lock_guard<std::mutex> sl(conn->session_mu);
        erased = conn->prepared.erase(req.stmt_id);
      }
      if (erased == 0) {
        EnqueueOutput(conn,
                      EncodeError(req.request_id,
                                  Status::KeyError(
                                      "unknown prepared statement id " +
                                      std::to_string(req.stmt_id))));
      } else {
        EnqueueOutput(conn, EncodeResultOk(req.request_id, "closed"));
      }
      return;
    }
    default:
      EnqueueOutput(conn,
                    EncodeError(req.request_id,
                                Status::InvalidArgument(
                                    std::string("unexpected frame type ") +
                                    FrameTypeToString(req.type))));
      return;
  }
}

void Server::AdmitStatement(const std::shared_ptr<Conn>& conn,
                            uint64_t request_id, Statement stmt) {
  Snapshot snap = db_->GetSnapshot();
  Lane lane =
      ClassifyStatement(stmt, snap.root(), options_.heavy_row_threshold);
  auto payload = std::make_shared<PendingStatement>();
  payload->conn = conn;
  payload->request_id = request_id;
  payload->stmt = std::move(stmt);
  AdmissionTask task;
  task.payload = payload;
  // cods-lint: allow(wall-clock): admission deadline — timeouts are part
  // of the server contract (kTimedOut), not of query results.
  task.deadline = options_.statement_timeout_ms > 0
                      ? std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(
                                options_.statement_timeout_ms)
                      : std::chrono::steady_clock::time_point::max();
  {
    std::lock_guard<std::mutex> cl(conn->mu);
    ++conn->in_flight;
  }
  Status admitted = admission_.Submit(lane, std::move(task));
  if (!admitted.ok()) {
    {
      std::lock_guard<std::mutex> cl(conn->mu);
      if (conn->in_flight > 0) --conn->in_flight;
    }
    EnqueueOutput(conn, EncodeError(request_id, admitted));
  }
}

// ---- Batch execution (worker threads) -----------------------------------

void Server::RunBatch(Lane lane, std::vector<AdmissionTask> tasks) {
  // cods-lint: allow(wall-clock): deadline check against the admission
  // timestamp above; expiry yields kTimedOut, never a different result.
  auto now = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<PendingStatement>> queries;
  std::vector<std::shared_ptr<PendingStatement>> writes;
  for (AdmissionTask& task : tasks) {
    auto stmt = std::static_pointer_cast<PendingStatement>(task.payload);
    if (task.deadline < now) {
      SendResponse(stmt->conn,
                   EncodeError(stmt->request_id,
                               Status::TimedOut(
                                   "statement missed its deadline in the " +
                                   std::string(LaneToString(lane)) +
                                   " lane queue")));
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.statements_timed_out;
      continue;
    }
    (stmt->stmt.kind == Statement::Kind::kQuery ? queries : writes)
        .push_back(std::move(stmt));
  }

  // Writes: strictly serial, acked only after DurableDb reports the
  // commit fsync'd and the root swapped.
  for (const auto& stmt : writes) {
    Status st = ExecuteWrite(stmt->stmt.smo);
    if (st.ok()) {
      SendResponse(stmt->conn, EncodeResultOk(stmt->request_id, "OK"));
    } else {
      SendResponse(stmt->conn, EncodeError(stmt->request_id, st));
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++(st.ok() ? stats_.statements_ok : stats_.statements_error);
  }

  if (queries.empty()) return;
  // Queries: one pinned snapshot for the whole batch, dropped when the
  // batch ends; compatible statements share evals (server/batch.h).
  Snapshot snap = db_->GetSnapshot();
  std::vector<const QueryRequest*> requests;
  requests.reserve(queries.size());
  for (const auto& stmt : queries) requests.push_back(&stmt->stmt.query);
  ExecContext exec(std::max(1, options_.exec_threads));
  BatchStats batch_stats;
  std::vector<BatchOutcome> outcomes =
      ExecuteQueryBatch(*snap.store(), requests, &exec, &batch_stats);
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& stmt = queries[i];
    BatchOutcome& out = outcomes[i];
    std::string response;
    if (out.status.ok()) {
      response = EncodeQueryResult(stmt->request_id, out.result);
      // The peer enforces the same frame limit and would drop the whole
      // connection on a larger frame; refuse just this statement.
      const size_t payload = response.size() - kFrameHeaderBytes;
      if (payload > options_.max_frame_bytes) {
        out.status = Status::OutOfRange(
            "result frame of " + std::to_string(payload) +
            " bytes exceeds the frame limit of " +
            std::to_string(options_.max_frame_bytes) + " bytes");
      }
    }
    if (!out.status.ok()) {
      response = EncodeError(stmt->request_id, out.status);
    }
    SendResponse(stmt->conn, std::move(response));
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.batch.statements += batch_stats.statements;
  stats_.batch.shared_groups += batch_stats.shared_groups;
  stats_.batch.batch_hits += batch_stats.batch_hits;
  for (const BatchOutcome& out : outcomes) {
    ++(out.status.ok() ? stats_.statements_ok : stats_.statements_error);
  }
}

}  // namespace cods::server
