#include "net/server.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <thread>
#include <utility>

#include "net/frame.h"
#include "net/protocol.h"

namespace blowfish {

namespace {

/// Requests per SUBMIT are capped so a malicious header cannot make a
/// connection collect REQ frames forever.
constexpr uint64_t kMaxBatchLines = 65536;

/// The batch's TOTAL text is capped separately: the per-line and
/// per-batch caps compose to ~4.3 GiB, which one connection could
/// otherwise make the daemon buffer before any engine-side validation.
constexpr size_t kMaxBatchBytes = size_t{8} << 20;  // 8 MiB

/// epoll user-data tags for the two non-connection registrations (real
/// Connection pointers can never be 1 or 2).
constexpr uint64_t kListenerTag = 1;
constexpr uint64_t kWakeupTag = 2;

/// Per-connection recv chunk, and how many chunks one EPOLLIN event
/// may consume before yielding. Level-triggered epoll re-reports a
/// socket with residue, so the bound trades a little latency on a
/// firehose connection for fairness across the loop's other sockets.
constexpr size_t kReadChunk = 16384;
constexpr int kMaxReadsPerEvent = 16;

/// Once this many flushed bytes sit ahead of the outbound buffer's
/// cursor, compact — amortized O(1), keeps a long-lived pipelining
/// connection's buffer from growing monotonically.
constexpr size_t kCompactThreshold = size_t{256} << 10;

/// Label values live inside a {k=v,...} block, so the block's
/// structural characters (and quotes) are mapped to '_'. Session names
/// come from request text and can contain anything printable.
std::string SanitizeLabelValue(std::string value) {
  for (char& c : value) {
    if (c == '{' || c == '}' || c == ',' || c == '=' || c == '"') c = '_';
  }
  return value;
}

}  // namespace

StatusOr<std::unique_ptr<BlowfishServer>> BlowfishServer::Start(
    EngineHost* host, ServerOptions options) {
  BLOWFISH_ASSIGN_OR_RETURN(
      ListenSocket listener,
      ListenSocket::BindTcp(options.bind_address, options.port,
                            options.accept_backlog));
  BLOWFISH_RETURN_IF_ERROR(listener.SetNonBlocking(true));
  std::unique_ptr<BlowfishServer> server(
      new BlowfishServer(host, std::move(listener), std::move(options)));
  BLOWFISH_RETURN_IF_ERROR(server->StartLoops());
  return server;
}

BlowfishServer::BlowfishServer(EngineHost* host, ListenSocket listener,
                               ServerOptions options)
    : host_(host),
      listener_(std::move(listener)),
      options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : obs::MetricsRegistry::Global()),
      tracer_(options_.tracer != nullptr ? options_.tracer
                                         : obs::TraceWriter::Global()),
      start_us_(obs::MonotonicMicros()),
      connections_total_(metrics_->GetCounter("net_connections_total")),
      connections_active_(metrics_->GetGauge("net_connections_active")),
      frames_in_total_(metrics_->GetCounter("net_frames_in_total")),
      frames_out_total_(metrics_->GetCounter("net_frames_out_total")),
      bytes_in_total_(metrics_->GetCounter("net_bytes_in_total")),
      bytes_out_total_(metrics_->GetCounter("net_bytes_out_total")),
      batches_total_(metrics_->GetCounter("net_batches_total")),
      send_deadline_expired_total_(
          metrics_->GetCounter("net_send_deadline_expired_total")),
      connections_dead_total_(
          metrics_->GetCounter("net_connections_dead_total")),
      drain_escalations_total_(
          metrics_->GetCounter("net_drain_escalations_total")),
      accept_transient_errors_total_(
          metrics_->GetCounter("net_accept_transient_errors_total")),
      protocol_errors_total_(
          metrics_->GetCounter("net_protocol_errors_total")),
      transport_errors_total_(
          metrics_->GetCounter("net_transport_errors_total")),
      connections_rejected_total_(
          metrics_->GetCounter("net_connections_rejected_total")),
      idle_evictions_total_(
          metrics_->GetCounter("net_idle_evictions_total")),
      outbound_overflow_total_(
          metrics_->GetCounter("net_outbound_overflow_total")) {}

BlowfishServer::~BlowfishServer() {
  Stop();
  for (auto& loop : loops_) {
    if (loop->epoll_fd >= 0) {
      ::close(loop->epoll_fd);
      loop->epoll_fd = -1;
    }
  }
}

Status BlowfishServer::StartLoops() {
  const int n = options_.io_threads < 1 ? 1 : options_.io_threads;
  for (int i = 0; i < n; ++i) {
    auto loop = std::make_unique<IoLoop>();
    loop->index = i;
    loop->server = this;
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epoll_fd < 0) {
      return Status::Internal(std::string("epoll_create1: ") +
                              std::strerror(errno));
    }
    BLOWFISH_ASSIGN_OR_RETURN(loop->wakeup, WakeupFd::Create());
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeupTag;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wakeup.fd(),
                    &ev) != 0) {
      return Status::Internal(std::string("epoll_ctl(wakeup): ") +
                              std::strerror(errno));
    }
    loops_.push_back(std::move(loop));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  if (::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listener_.fd(),
                  &ev) != 0) {
    return Status::Internal(std::string("epoll_ctl(listener): ") +
                            std::strerror(errno));
  }
  listener_registered_ = true;
  for (auto& loop : loops_) {
    loop->thread = std::thread([this, raw = loop.get()]() { RunLoop(raw); });
  }
  return Status::OK();
}

void BlowfishServer::Stop() {
  // Serialize whole stops: two concurrent callers (a signal-wakeup
  // thread racing the destructor, say) must not both join the same
  // std::thread. The second caller blocks here until the first join
  // completes, then returns at once.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  const bool had_work =
      active_connections_.load() > 0 || total_inflight_.load() > 0;
  stopping_.store(true);
  listener_.Shutdown();
  for (auto& loop : loops_) loop->wakeup.Signal();
  const auto log = [this](const std::string& line) {
    if (options_.drain_log) options_.drain_log(line);
  };
  // No new connections or SUBMITs past this point (the loops half-close
  // every read side when they see stopping_). Grace period for the
  // batches in flight to settle and their frames to flush; "work" is
  // in-flight batches plus connections with unflushed outbound bytes.
  const auto pending = [this]() {
    size_t n = total_inflight_.load();
    for (const auto& loop : loops_) {
      n += loop->out_pending.load(std::memory_order_relaxed);
    }
    return n;
  };
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.drain_grace_ms);
  size_t remaining = pending();
  if (remaining > 0) {
    log("drain: waiting on " + std::to_string(remaining) +
        " connection(s) with a batch in flight (grace " +
        std::to_string(options_.drain_grace_ms) + " ms)");
  }
  auto next_log = std::chrono::steady_clock::now() +
                  std::chrono::seconds(1);
  while (remaining > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const size_t now_remaining = pending();
    if (now_remaining != remaining ||
        std::chrono::steady_clock::now() >= next_log) {
      if (now_remaining > 0) {
        log("drain: " + std::to_string(now_remaining) +
            " connection(s) still in flight");
      }
      next_log = std::chrono::steady_clock::now() +
                 std::chrono::seconds(1);
    }
    remaining = now_remaining;
  }
  if (remaining > 0) {
    // Grace expired: the loops abandon every connection that still has
    // work — undelivered frames drop, transports shut down fully (which
    // is what unblocks a peer pinning its buffer by not reading). The
    // batches keep executing and settle engine-side.
    escalating_.store(true);
    for (auto& loop : loops_) loop->wakeup.Signal();
    log("drain: grace expired, escalated " + std::to_string(remaining) +
        " connection(s) to full shutdown");
  }
  // Unbounded settlement wait: budget settlement must finish before
  // the ledger flush that follows Stop() in blowfish_serverd, and the
  // engine guarantees every admitted batch terminates.
  while (total_inflight_.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  exiting_.store(true);
  for (auto& loop : loops_) loop->wakeup.Signal();
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  if (had_work) log("drain: complete");
  listener_.Close();
}

void BlowfishServer::RunLoop(IoLoop* loop) {
  epoll_event events[64];
  while (!exiting_.load()) {
    const int timeout = LoopTimeoutMs(loop, obs::MonotonicMicros());
    const int n = ::epoll_wait(loop->epoll_fd, events, 64, timeout);
    if (n < 0 && errno != EINTR) break;  // the epoll fd itself is broken
    if (exiting_.load()) break;
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.u64 == kWakeupTag) {
        loop->wakeup.Drain();
        continue;
      }
      if (ev.data.u64 == kListenerTag) {
        AcceptReady(loop);
        continue;
      }
      Connection* conn = static_cast<Connection*>(ev.data.ptr);
      // EPOLLERR/EPOLLHUP surface through the read path: the next recv
      // reports the pending error (counted as a transport error) or
      // EOF. Connections are destroyed only in ProcessFinishQueue
      // below, never here, so every ev.data.ptr in this batch stays
      // valid while the batch is processed.
      if (ev.events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        ReadReady(loop, conn);
      }
      if (ev.events & EPOLLOUT) {
        std::lock_guard<std::mutex> lk(conn->out_mu);
        if (!conn->dead) FlushLocked(conn);
      }
    }
    AdoptIncoming(loop);
    if (stopping_.load() && !loop->draining) DrainLoop(loop);
    if (escalating_.load() && !loop->escalated) EscalateLoop(loop);
    SweepTimers(loop, obs::MonotonicMicros());
    ProcessFinishQueue(loop);
  }
  // Exit: Stop() has already waited out every in-flight batch, so no
  // pool thread holds a Connection* — tear the rest down directly.
  AdoptIncoming(loop);
  std::vector<Connection*> leftover;
  leftover.reserve(loop->conns.size());
  for (const auto& entry : loop->conns) leftover.push_back(entry.first);
  for (Connection* conn : leftover) DestroyConnection(loop, conn);
}

void BlowfishServer::AdoptIncoming(IoLoop* loop) {
  std::vector<std::unique_ptr<Connection>> incoming;
  {
    std::lock_guard<std::mutex> lk(loop->mu);
    incoming.swap(loop->incoming);
  }
  for (auto& conn : incoming) {
    Connection* raw = conn.get();
    loop->conns.emplace(raw, std::move(conn));
    std::lock_guard<std::mutex> lk(raw->out_mu);
    if (loop->draining) {
      // Raced Stop(): adopted only so the teardown below reaps it.
      raw->read_closed = true;
      RequestFinishCheck(raw);
    } else {
      UpdateEpollLocked(raw, EPOLLIN);
    }
  }
}

void BlowfishServer::ProcessFinishQueue(IoLoop* loop) {
  std::vector<Connection*> q;
  {
    std::lock_guard<std::mutex> lk(loop->mu);
    q.swap(loop->finish_q);
  }
  for (Connection* conn : q) {
    if (loop->conns.find(conn) == loop->conns.end()) continue;  // reaped
    if (!Finishable(conn)) continue;
    DestroyConnection(loop, conn);
  }
}

bool BlowfishServer::Finishable(Connection* conn) {
  if (conn->inflight.load(std::memory_order_acquire) != 0) return false;
  std::lock_guard<std::mutex> lk(conn->out_mu);
  if (conn->dead) return true;
  return conn->read_closed && conn->out_off >= conn->out.size();
}

void BlowfishServer::DestroyConnection(IoLoop* loop, Connection* conn) {
  {
    std::lock_guard<std::mutex> lk(conn->out_mu);
    if (conn->out_nonempty_since_us != 0) {
      // Only reachable on the loop-exit path (a dead connection was
      // abandoned, a finished one has drained).
      loop->out_pending.fetch_sub(1, std::memory_order_relaxed);
      conn->out_nonempty_since_us = 0;
    }
    UpdateEpollLocked(conn, 0);
    conn->sock.ShutdownBoth();
  }
  connections_active_->Decrement();
  active_connections_.fetch_sub(1);
  loop->conns.erase(conn);  // closes the fd
}

void BlowfishServer::RequestFinishCheck(Connection* conn) {
  IoLoop* loop = conn->owner;
  {
    std::lock_guard<std::mutex> lk(loop->mu);
    loop->finish_q.push_back(conn);
  }
  loop->wakeup.Signal();
}

void BlowfishServer::AcceptReady(IoLoop* loop) {
  if (stopping_.load()) return;
  // Bounded burst; level-triggered epoll re-reports a non-empty
  // backlog.
  for (int i = 0; i < 64; ++i) {
    Socket sock;
    int accept_errno = 0;
    const IoResult r = listener_.TryAccept(&sock, &accept_errno);
    if (r == IoResult::kWouldBlock) return;
    if (r == IoResult::kEof) {
      // Shutdown or a fatal listener error: stop accepting for good.
      if (listener_registered_) {
        ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, listener_.fd(), nullptr);
        listener_registered_ = false;
      }
      return;
    }
    if (r == IoResult::kError) {
      // Transient (EMFILE and friends): count it, disarm the listener,
      // and let SweepTimers re-arm it after the backoff — the fix for
      // the historical accept-loop death, where one failed accept()
      // ended the daemon's ability to serve new clients forever.
      // Pending connections wait in the backlog meanwhile.
      accept_transient_errors_total_->Increment();
      if (listener_registered_) {
        ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, listener_.fd(), nullptr);
        listener_registered_ = false;
      }
      accept_rearm_us_ =
          obs::MonotonicMicros() +
          uint64_t(std::max(1, options_.accept_retry_ms)) * 1000;
      return;
    }
    connections_total_->Increment();
    if (options_.max_connections > 0 &&
        active_connections_.load() >= options_.max_connections) {
      // Over the cap: one structured ERR, then close. The frame is a
      // handful of bytes into a fresh socket's empty send buffer, so
      // the nonblocking send delivers it (best effort regardless).
      connections_rejected_total_->Increment();
      const std::string frame = EncodeFrame(EncodeErrorPayload(
          Status::ResourceExhausted(
              "connection limit (" +
              std::to_string(options_.max_connections) + ") reached")));
      size_t sent = 0;
      Status send_error;
      (void)sock.SendNb(frame.data(), frame.size(), &sent, &send_error);
      sock.ShutdownBoth();
      continue;  // sock closes at scope end
    }
    connections_active_->Increment();
    active_connections_.fetch_add(1);
    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(sock);
    conn->last_activity_us.store(obs::MonotonicMicros(),
                                 std::memory_order_relaxed);
    IoLoop* target = loops_[accept_rr_++ % loops_.size()].get();
    conn->owner = target;
    {
      std::lock_guard<std::mutex> lk(target->mu);
      target->incoming.push_back(std::move(conn));
    }
    if (target != loop) target->wakeup.Signal();
    // else: AdoptIncoming runs right after this event batch.
  }
}

void BlowfishServer::ReadReady(IoLoop* loop, Connection* conn) {
  (void)loop;
  if (conn->read_closed) return;
  {
    std::lock_guard<std::mutex> lk(conn->out_mu);
    if (conn->dead) return;
  }
  char buf[kReadChunk];
  for (int round = 0; round < kMaxReadsPerEvent; ++round) {
    size_t n = 0;
    Status error;
    const IoResult r = conn->sock.RecvNb(buf, sizeof(buf), &n, &error);
    if (r == IoResult::kWouldBlock) return;
    if (r == IoResult::kEof) {
      // Clean half-close. Anything in flight still finishes and
      // flushes; the connection closes once it has (Finishable).
      std::lock_guard<std::mutex> lk(conn->out_mu);
      conn->read_closed = true;
      if (!conn->dead && conn->registered) {
        UpdateEpollLocked(conn, conn->epoll_mask & ~uint32_t(EPOLLIN));
      }
      RequestFinishCheck(conn);
      return;
    }
    if (r == IoResult::kError) {
      // The transport failed mid-stream (peer reset, network error).
      // This is NOT a protocol error — the client said nothing wrong —
      // so it gets its own counter; conflating the two made the
      // protocol-error count useless as a misbehaving-client signal.
      transport_errors_total_->Increment();
      std::lock_guard<std::mutex> lk(conn->out_mu);
      conn->read_closed = true;
      AbandonLocked(conn);
      return;
    }
    bytes_in_total_->Increment(n);
    conn->last_activity_us.store(obs::MonotonicMicros(),
                                 std::memory_order_relaxed);
    conn->decoder.Feed(buf, n);
    std::string payload;
    while (true) {
      const FrameDecoder::Result dr = conn->decoder.Next(&payload);
      if (dr == FrameDecoder::Result::kNeedMore) break;
      if (dr == FrameDecoder::Result::kError) {
        ProtocolError(conn, conn->decoder.error());
        return;
      }
      frames_in_total_->Increment();
      ProcessFrame(conn, payload);
      if (conn->read_closed) return;  // BYE, protocol error, eviction
    }
  }
  // Chunk budget spent with bytes possibly still pending — the
  // level-triggered epoll reports this socket again next wait.
}

void BlowfishServer::ProcessFrame(Connection* conn,
                                  const std::string& payload) {
  if (conn->collecting) {
    CollectReq(conn, payload);
    return;
  }
  auto msg = ParseWireMessage(payload);
  if (!msg.ok()) {
    ProtocolError(conn, msg.status());
    return;
  }
  ProcessMessage(conn, *msg);
}

void BlowfishServer::ProcessMessage(Connection* conn,
                                    const WireMessage& msg) {
  // STATS and HEALTH are tenant-agnostic: allowed before or after
  // HELLO (an external prober needs neither tenant nor handshake).
  if (msg.verb == kVerbStats) {
    ServeStats(conn);
    return;
  }
  if (msg.verb == kVerbHealth) {
    ServeHealth(conn);
    return;
  }

  if (!conn->hello_done) {
    if (msg.verb != kVerbHello) {
      ProtocolError(conn, Status::FailedPrecondition(
                              "expected HELLO, got " + msg.verb));
      return;
    }
    auto version = GetUintField(msg, "v");
    auto policy = GetField(msg, "policy");
    auto dataset = GetField(msg, "dataset");
    if (!version.ok() || !policy.ok() || !dataset.ok()) {
      ProtocolError(conn, Status::InvalidArgument("malformed HELLO"));
      return;
    }
    if (*version != kProtocolVersion) {
      ProtocolError(conn, Status::FailedPrecondition(
                              "protocol version mismatch: client " +
                              std::to_string(*version) + ", server " +
                              std::to_string(kProtocolVersion)));
      return;
    }
    if (!host_->HasTenant(*policy, *dataset)) {
      ProtocolError(conn, Status::NotFound("unknown tenant ('" + *policy +
                                           "', '" + *dataset + "')"));
      return;
    }
    conn->policy_id = std::move(*policy);
    conn->dataset_id = std::move(*dataset);
    conn->hello_done = true;
    Output(conn, EncodeOkPayload());
    return;
  }

  if (msg.verb == kVerbBye) {
    Output(conn, EncodeOkPayload());
    CloseAfterFlush(conn);
    return;
  }

  if (msg.verb != kVerbSubmit) {
    ProtocolError(conn, Status::FailedPrecondition(
                            "expected SUBMIT or BYE, got " + msg.verb));
    return;
  }
  auto num_lines = GetUintField(msg, "n");
  if (!num_lines.ok()) {
    ProtocolError(conn, num_lines.status());
    return;
  }
  // Optional wire-propagated trace context and batch tag: absent keys
  // (older clients) are no-ops; malformed values are protocol errors
  // like any other known-key violation.
  auto trace = ParseTraceContext(msg);
  if (!trace.ok()) {
    ProtocolError(conn, trace.status());
    return;
  }
  auto tag = ParseBatchTag(msg);
  if (!tag.ok()) {
    ProtocolError(conn, tag.status());
    return;
  }
  if (*num_lines > kMaxBatchLines) {
    ProtocolError(conn, Status::ResourceExhausted(
                            "SUBMIT n=" + std::to_string(*num_lines) +
                            " exceeds the " +
                            std::to_string(kMaxBatchLines) +
                            "-line batch cap"));
    return;
  }
  conn->collecting = true;
  conn->reqs_remaining = *num_lines;
  conn->batch_text.clear();
  conn->batch_tag = std::move(*tag);
  conn->batch_ctx = *trace;
  conn->oversized_line = false;
  conn->oversized_batch = false;
  if (conn->reqs_remaining == 0) FinishBatchCollection(conn);
}

void BlowfishServer::CollectReq(Connection* conn,
                                const std::string& payload) {
  auto req = ParseWireMessage(payload);
  if (!req.ok() || req->verb != kVerbReq) {
    conn->collecting = false;
    ProtocolError(conn, req.ok()
                            ? Status::FailedPrecondition(
                                  "expected REQ, got " + req->verb)
                            : req.status());
    return;
  }
  auto line = GetField(*req, "line");
  if (!line.ok()) {
    conn->collecting = false;
    ProtocolError(conn, line.status());
    return;
  }
  // The line cap is what keeps response-frame metadata (labels,
  // session names, error messages — all echoes of request text) under
  // the frame cap; see net/protocol.h. Oversized input still consumes
  // the batch's remaining REQ frames but buffers nothing more.
  if (line->size() > kMaxRequestLine) {
    conn->oversized_line = true;
  } else if (conn->batch_text.size() + line->size() + 1 > kMaxBatchBytes) {
    conn->oversized_batch = true;
  } else {
    conn->batch_text.append(*line);
    conn->batch_text.push_back('\n');
  }
  if (--conn->reqs_remaining == 0) FinishBatchCollection(conn);
}

void BlowfishServer::FinishBatchCollection(Connection* conn) {
  conn->collecting = false;
  const std::string tag = std::move(conn->batch_tag);
  conn->batch_tag.clear();
  const obs::TraceContext ctx = conn->batch_ctx;
  std::string text = std::move(conn->batch_text);
  conn->batch_text.clear();
  if (conn->oversized_line) {
    OutputError(conn,
                Status::ResourceExhausted("request line exceeds the " +
                                          std::to_string(kMaxRequestLine) +
                                          "-byte cap"),
                tag);
    return;  // batch refused; the connection stays usable
  }
  if (conn->oversized_batch) {
    OutputError(conn,
                Status::ResourceExhausted("batch text exceeds the " +
                                          std::to_string(kMaxBatchBytes) +
                                          "-byte cap"),
                tag);
    return;  // likewise
  }
  auto requests = EngineHost::ParseBatchText(text);
  if (!requests.ok()) {
    // A malformed batch is the client's problem, not the connection's:
    // report it structurally (scoped to the batch when tagged) and
    // stay usable.
    OutputError(conn, requests.status(), tag);
    return;
  }

  // Hand the batch to the engine and return to the event loop — no
  // thread blocks on the future. The completion callback streams each
  // RESULT onto the outbound buffer as its query finishes; the done
  // callback emits RECEIPTs + DONE after settlement. `inflight` keeps
  // the connection alive until the done callback's final decrement, so
  // `conn` outlives every use here. With tracing on, every frame of
  // the batch adds its buffer/socket wall time to one shared
  // accumulator — the frame_write span below.
  const bool traced = tracer_->enabled();
  const uint64_t submit_us = traced ? obs::MonotonicMicros() : 0;
  auto frame_write_us =
      traced ? std::make_shared<std::atomic<uint64_t>>(0) : nullptr;
  conn->inflight.fetch_add(1, std::memory_order_acq_rel);
  total_inflight_.fetch_add(1);
  const std::string policy_id = conn->policy_id;
  const std::string dataset_id = conn->dataset_id;
  (void)host_->SubmitBatch(
      policy_id, dataset_id, std::move(*requests),
      [this, conn, ctx, tag, frame_write_us](
          size_t index, const QueryResponse& response) {
        Output(conn, EncodeBoundedResultPayload(index, response, ctx, tag),
               frame_write_us.get());
      },
      ctx,
      [this, conn, ctx, tag, frame_write_us, traced, submit_us, policy_id,
       dataset_id](const StatusOr<std::vector<QueryResponse>>& responses) {
        if (!responses.ok()) {
          // Pre-engine failure (unknown tenant): one ERR instead of
          // RESULT/DONE; the connection stays usable.
          OutputError(conn, responses.status(), tag);
        } else {
          // Counted BEFORE the frames are enqueued: Output() can flush
          // DONE to the wire inline, and a client that has read DONE
          // must observe the batch in any later STATS snapshot (the
          // increment happens-before the enqueue under out_mu, which
          // happens-before the peer reading the frame).
          batches_total_->Increment();
          // Final receipt state (refunds applied, charges settled),
          // then the batch barrier. All echo the client's trace
          // context and batch tag so a pipelining client can match
          // frames to batches without trusting arrival order.
          for (size_t i = 0; i < responses->size(); ++i) {
            std::string receipt = EncodeReceiptPayload(i, (*responses)[i]);
            AppendTraceContext(&receipt, ctx);
            AppendBatchTag(&receipt, tag);
            Output(conn, receipt, frame_write_us.get());
          }
          std::string done = EncodeDonePayload(responses->size());
          AppendTraceContext(&done, ctx);
          AppendBatchTag(&done, tag);
          Output(conn, done, frame_write_us.get());
          if (traced) {
            // dur_us is the batch's CUMULATIVE buffer/socket time
            // across all its RESULT/RECEIPT/DONE frames, not a
            // contiguous interval — the writes interleave with engine
            // execution.
            obs::TraceEvent span("frame_write");
            span.Str("tenant", policy_id + "/" + dataset_id)
                .Uint("ts_us", submit_us)
                .Uint("dur_us",
                      frame_write_us->load(std::memory_order_relaxed));
            ctx.Stamp(&span);
            tracer_->Write(std::move(span));
          }
        }
        // Last touch of `conn` on this thread: after the decrement the
        // owner loop may free it, so the finish-check goes through a
        // pre-read owner pointer, not through conn.
        IoLoop* owner = conn->owner;
        conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
        {
          std::lock_guard<std::mutex> lk(owner->mu);
          owner->finish_q.push_back(conn);
        }
        owner->wakeup.Signal();
        // Last touch of the server: once Stop() sees no batch in
        // flight it joins the loops, and the destructor closes their
        // wakeup fds, so the Signal above must come first.
        total_inflight_.fetch_sub(1);
      });
}

void BlowfishServer::SweepTimers(IoLoop* loop, uint64_t now_us) {
  if (loop->index == 0 && accept_rearm_us_ != 0 && !stopping_.load() &&
      now_us >= accept_rearm_us_) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerTag;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listener_.fd(), &ev) ==
        0) {
      listener_registered_ = true;
    }
    accept_rearm_us_ = 0;
  }
  const bool stall_on =
      options_.send_timeout_ms > 0 &&
      loop->out_pending.load(std::memory_order_relaxed) > 0;
  const bool idle_on = options_.idle_timeout_ms > 0 && !loop->draining;
  if (!stall_on && !idle_on) return;
  if (now_us < loop->next_sweep_us) return;
  int interval_ms = INT_MAX;
  if (idle_on) {
    interval_ms =
        std::min(interval_ms, std::max(10, options_.idle_timeout_ms / 4));
  }
  if (stall_on) {
    interval_ms = std::min(
        interval_ms, std::clamp(options_.send_timeout_ms / 4, 5, 250));
  }
  loop->next_sweep_us = now_us + uint64_t(interval_ms) * 1000;
  const uint64_t stall_us = uint64_t(options_.send_timeout_ms) * 1000;
  const uint64_t idle_us = uint64_t(options_.idle_timeout_ms) * 1000;
  std::vector<Connection*> evict;
  for (const auto& entry : loop->conns) {
    Connection* conn = entry.first;
    if (options_.send_timeout_ms > 0) {
      std::lock_guard<std::mutex> lk(conn->out_mu);
      if (!conn->dead && conn->out_nonempty_since_us != 0 &&
          now_us - conn->out_nonempty_since_us >= stall_us) {
        // The whole buffer, not any one frame, is the deadline unit: a
        // peer that stopped reading (or trickle-reads without ever
        // draining) is declared dead after one bound.
        send_deadline_expired_total_->Increment();
        MarkDeadLocked(conn);
      }
    }
    if (idle_on && !conn->collecting &&
        conn->inflight.load(std::memory_order_acquire) == 0 &&
        now_us - conn->last_activity_us.load(std::memory_order_relaxed) >=
            idle_us) {
      std::lock_guard<std::mutex> lk(conn->out_mu);
      if (!conn->dead && !conn->read_closed &&
          conn->out_off >= conn->out.size()) {
        evict.push_back(conn);
      }
    }
  }
  for (Connection* conn : evict) {
    // Truly quiescent (no batch, nothing buffered, nothing half-read):
    // tell the client why, then close once the ERR flushes.
    idle_evictions_total_->Increment();
    OutputError(conn, Status::DeadlineExceeded(
                          "idle timeout: no activity for " +
                          std::to_string(options_.idle_timeout_ms) +
                          " ms"));
    CloseAfterFlush(conn);
  }
}

int BlowfishServer::LoopTimeoutMs(IoLoop* loop, uint64_t now_us) const {
  int64_t best = -1;  // -1 = sleep until an event or wakeup
  const auto consider = [&best](int64_t ms) {
    if (ms < 0) ms = 0;
    if (best < 0 || ms < best) best = ms;
  };
  if (options_.idle_timeout_ms > 0 && !loop->draining) {
    consider(std::max(10, options_.idle_timeout_ms / 4));
  }
  if (options_.send_timeout_ms > 0 &&
      loop->out_pending.load(std::memory_order_relaxed) > 0) {
    consider(std::clamp(options_.send_timeout_ms / 4, 5, 250));
  }
  if (loop->index == 0 && accept_rearm_us_ != 0) {
    consider(accept_rearm_us_ > now_us
                 ? int64_t((accept_rearm_us_ - now_us) / 1000) + 1
                 : 0);
  }
  if (best > 60000) best = 60000;
  return static_cast<int>(best);
}

void BlowfishServer::DrainLoop(IoLoop* loop) {
  loop->draining = true;
  if (loop->index == 0 && listener_registered_) {
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, listener_.fd(), nullptr);
    listener_registered_ = false;
  }
  // Half-close every read side: idle connections become finishable at
  // once; one mid-batch finishes the batch, flushes its frames, then
  // closes.
  for (const auto& entry : loop->conns) {
    Connection* conn = entry.first;
    std::lock_guard<std::mutex> lk(conn->out_mu);
    if (conn->read_closed) continue;
    conn->read_closed = true;
    conn->sock.ShutdownRead();
    if (!conn->dead && conn->registered) {
      UpdateEpollLocked(conn, conn->epoll_mask & ~uint32_t(EPOLLIN));
    }
    RequestFinishCheck(conn);
  }
}

void BlowfishServer::EscalateLoop(IoLoop* loop) {
  loop->escalated = true;
  uint64_t escalated = 0;
  for (const auto& entry : loop->conns) {
    Connection* conn = entry.first;
    std::lock_guard<std::mutex> lk(conn->out_mu);
    if (conn->dead) continue;
    if (conn->inflight.load(std::memory_order_acquire) > 0 ||
        conn->out_off < conn->out.size()) {
      AbandonLocked(conn);
      ++escalated;
    }
  }
  if (escalated > 0) drain_escalations_total_->Increment(escalated);
}

void BlowfishServer::Output(Connection* conn, const std::string& payload,
                            std::atomic<uint64_t>* write_us) {
  const uint64_t t0 = write_us != nullptr ? obs::MonotonicMicros() : 0;
  {
    std::lock_guard<std::mutex> lk(conn->out_mu);
    if (!conn->dead) {
      const std::string frame = EncodeFrame(payload);
      // Counted at enqueue: the frame is committed to the wire from
      // the protocol's point of view the moment it is serialized (only
      // transport death can drop it now).
      frames_out_total_->Increment();
      bytes_out_total_->Increment(frame.size());
      conn->last_activity_us.store(obs::MonotonicMicros(),
                                   std::memory_order_relaxed);
      const bool was_empty = conn->out_nonempty_since_us == 0;
      conn->out.append(frame);
      if (was_empty) {
        conn->out_nonempty_since_us = obs::MonotonicMicros();
        conn->owner->out_pending.fetch_add(1, std::memory_order_relaxed);
      }
      FlushLocked(conn);
      if (!conn->dead &&
          conn->out.size() - conn->out_off >
              options_.max_outbound_buffer_bytes) {
        // The peer let the buffer hit the hard cap — the "bounded
        // bytes, then dead" contract fires now rather than waiting out
        // the stall deadline.
        outbound_overflow_total_->Increment();
        MarkDeadLocked(conn);
      }
    }
  }
  if (write_us != nullptr) {
    write_us->fetch_add(obs::MonotonicMicros() - t0,
                        std::memory_order_relaxed);
  }
}

void BlowfishServer::FlushLocked(Connection* conn) {
  while (conn->out_off < conn->out.size()) {
    size_t n = 0;
    Status error;
    const IoResult r =
        conn->sock.SendNb(conn->out.data() + conn->out_off,
                          conn->out.size() - conn->out_off, &n, &error);
    if (r == IoResult::kOk) {
      conn->out_off += n;
      continue;
    }
    if (r == IoResult::kWouldBlock) break;
    // Write failure: the peer is gone. Engine-side work is unaffected;
    // later Outputs become no-ops.
    MarkDeadLocked(conn);
    return;
  }
  if (conn->out_off >= conn->out.size()) {
    conn->out.clear();
    conn->out_off = 0;
    if (conn->out_nonempty_since_us != 0) {
      conn->out_nonempty_since_us = 0;
      conn->owner->out_pending.fetch_sub(1, std::memory_order_relaxed);
    }
    if (conn->registered && (conn->epoll_mask & EPOLLOUT)) {
      UpdateEpollLocked(conn, conn->epoll_mask & ~uint32_t(EPOLLOUT));
    }
    if (conn->read_closed) RequestFinishCheck(conn);
  } else {
    if (conn->out_off > kCompactThreshold) {
      conn->out.erase(0, conn->out_off);
      conn->out_off = 0;
    }
    if (conn->registered && !(conn->epoll_mask & EPOLLOUT)) {
      UpdateEpollLocked(conn, conn->epoll_mask | EPOLLOUT);
    }
  }
}

void BlowfishServer::UpdateEpollLocked(Connection* conn, uint32_t mask) {
  IoLoop* loop = conn->owner;
  if (!conn->registered) {
    if (mask == 0) return;
    epoll_event ev{};
    ev.events = mask;
    ev.data.ptr = conn;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, conn->sock.fd(), &ev) ==
        0) {
      conn->registered = true;
      conn->epoll_mask = mask;
    }
    return;
  }
  if (mask == conn->epoll_mask) return;
  if (mask == 0) {
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->sock.fd(), nullptr);
    conn->registered = false;
    conn->epoll_mask = 0;
    return;
  }
  epoll_event ev{};
  ev.events = mask;
  ev.data.ptr = conn;
  if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->sock.fd(), &ev) ==
      0) {
    conn->epoll_mask = mask;
  }
}

void BlowfishServer::MarkDeadLocked(Connection* conn) {
  if (conn->dead) return;
  connections_dead_total_->Increment();
  AbandonLocked(conn);
}

void BlowfishServer::AbandonLocked(Connection* conn) {
  if (conn->dead) return;
  conn->dead = true;
  if (conn->out_nonempty_since_us != 0) {
    conn->out_nonempty_since_us = 0;
    conn->owner->out_pending.fetch_sub(1, std::memory_order_relaxed);
  }
  conn->out.clear();
  conn->out_off = 0;
  UpdateEpollLocked(conn, 0);
  conn->sock.ShutdownBoth();
  RequestFinishCheck(conn);
}

void BlowfishServer::CloseAfterFlush(Connection* conn) {
  std::lock_guard<std::mutex> lk(conn->out_mu);
  if (conn->read_closed) return;
  conn->read_closed = true;
  if (!conn->dead && conn->registered) {
    UpdateEpollLocked(conn, conn->epoll_mask & ~uint32_t(EPOLLIN));
  }
  RequestFinishCheck(conn);
}

obs::Counter* BlowfishServer::ErrCounterFor(StatusCode code) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = err_counters_.find(code);
  if (it != err_counters_.end()) return it->second;
  obs::Counter* counter = metrics_->GetCounter(
      std::string("net_err_frames_total{code=") +
      StatusCodeToString(code) + "}");
  err_counters_[code] = counter;
  return counter;
}

void BlowfishServer::OutputError(Connection* conn, const Status& status,
                                 const std::string& batch_tag) {
  ErrCounterFor(status.code())->Increment();
  Output(conn, EncodeErrorPayload(status, batch_tag));
}

void BlowfishServer::ProtocolError(Connection* conn,
                                   const Status& status) {
  // Counted before the ERR is enqueued, so a client that has read it
  // sees the error in any later STATS snapshot.
  protocol_errors_total_->Increment();
  OutputError(conn, status);
  // Bad protocol poisons the connection (the framing state is
  // suspect): stop reading, deliver what is buffered, close.
  CloseAfterFlush(conn);
}

void BlowfishServer::ServeStats(Connection* conn) {
  // Snapshot BEFORE writing: the request's frame-in is already counted,
  // the reply's frames-out are not yet — so a client can reconcile the
  // reported counters against the traffic it has generated so far.
  const std::vector<obs::Sample> samples = metrics_->Snapshot();
  for (const obs::Sample& sample : samples) {
    Output(conn, EncodeMetricPayload(sample.name, sample.value));
  }
  Output(conn, EncodeDonePayload(samples.size()));
}

void BlowfishServer::ServeHealth(Connection* conn) {
  // Liveness first (cheap, lock-free), then the budget gauges of every
  // tenant session that exists (see EngineHost::BudgetSnapshot).
  const bool draining = stopping_.load();
  std::vector<std::pair<std::string, double>> samples;
  samples.emplace_back("health_ready", draining ? 0.0 : 1.0);
  samples.emplace_back("health_draining", draining ? 1.0 : 0.0);
  samples.emplace_back(
      "health_uptime_us",
      static_cast<double>(obs::MonotonicMicros() - start_us_));
  samples.emplace_back("health_connections_active",
                       static_cast<double>(connections_active_->Value()));
  for (const EngineHost::TenantBudget& line : host_->BudgetSnapshot()) {
    samples.emplace_back(
        "health_budget_remaining{tenant=" + SanitizeLabelValue(line.tenant) +
            ",session=" +
            SanitizeLabelValue(line.session.empty() ? "default"
                                                    : line.session) +
            "}",
        line.remaining);
  }
  for (const auto& [name, value] : samples) {
    Output(conn, EncodeMetricPayload(name, value));
  }
  Output(conn, EncodeDonePayload(samples.size()));
}

}  // namespace blowfish
