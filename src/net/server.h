// blowfish TCP serving front end — an epoll reactor.
//
// BlowfishServer puts the wire protocol of net/protocol.h in front of
// an existing EngineHost. A small fixed set of I/O threads
// (ServerOptions::io_threads) each run a level-triggered epoll loop
// over nonblocking sockets; connections are dealt to loops round-robin
// at accept. There is no thread per connection and no accept thread:
// the listener is an epoll registration on loop 0, and the scaling
// unit is the engine pool, not the socket count — O(10k) idle
// connections cost file descriptors and buffer pages, never threads.
//
// Per connection the protocol is a state machine: the incremental
// FrameDecoder consumes recv()'d bytes, decoded frames drive
// HELLO/SUBMIT/REQ handling, and everything written goes through a
// per-connection outbound buffer flushed opportunistically (on enqueue)
// and by EPOLLOUT when the socket pushes back. Tenant resolution, budget
// charging and refunds, and sensitivity-cache sharing all flow through
// EngineHost::SubmitBatch unchanged — this layer only moves bytes.
//
// Streaming and pipelining: each SUBMIT is one EngineHost::SubmitBatch
// call. The QueryCompletionCallback serializes each RESULT frame onto
// the outbound buffer the moment its query finishes, and the
// BatchDoneCallback emits the settled RECEIPT frames and DONE — no
// thread ever blocks on the batch future. Because the read side keeps
// decoding while batches are in flight, a client may pipeline many
// SUBMITs on one connection; it demultiplexes the interleaved reply
// frames by the optional `batch=` tag (net/protocol.h), echoed on
// every frame of a tagged batch. Old one-batch-at-a-time clients never
// send the tag and observe the exact pre-reactor frame sequence.
//
// Connection death: a client that disappears mid-batch turns the
// connection's flushes into errors, nothing more. The connection is
// dead-marked (writes become no-ops), the batch keeps executing, and
// its budget charges settle or refund exactly as in a clean run — the
// engine's receipt protocol never hears about the socket. A client
// that stops READING costs bounded outbound-buffer bytes: the buffer
// is capped (max_outbound_buffer_bytes) and a buffer that stays
// non-empty for send_timeout_ms dead-marks the connection
// (net_send_deadline_expired_total) — a stalled reader can never pin
// an engine thread or unbounded memory.
//
// Resource protection: accept()ing past max_connections answers one
// structured ResourceExhausted ERR frame and closes. Transient accept
// errnos (EMFILE and friends — see ListenSocket::IsTransientAcceptError)
// back the listener off briefly and retry
// (net_accept_transient_errors_total) instead of killing the accept
// path. Connections idle past idle_timeout_ms are evicted with a
// DEADLINE_EXCEEDED ERR (net_idle_evictions_total).
//
// Drain: Stop() stops accepting and half-closes every connection's
// read side, then waits for in-flight batches to settle and outbound
// buffers to drain. Past drain_grace_ms it escalates: remaining
// connections get a full shutdown and their undelivered frames are
// dropped — but Stop() still waits for every submitted batch to settle
// engine-side (budget settlement must finish before the ledger flush
// that follows Stop() in blowfish_serverd), which the engine
// guarantees terminates. Then the I/O threads are joined.

#ifndef BLOWFISH_NET_SERVER_H_
#define BLOWFISH_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "server/engine_host.h"
#include "util/socket.h"
#include "util/status.h"

namespace blowfish {

struct WireMessage;  // net/protocol.h

struct ServerOptions {
  /// Numeric IPv4 bind address.
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the resolved port is available via port().
  uint16_t port = 0;
  int accept_backlog = 64;
  /// Reactor threads. Each owns an epoll loop and a share of the
  /// connections; loop 0 also owns the listener. Clamped to >= 1.
  /// Engine work still runs on the EngineHost pool (except with a
  /// zero-thread pool, where batches run inline on the I/O thread —
  /// the determinism configuration the tests pin).
  int io_threads = 2;
  /// Accepted connections above this cap get one structured
  /// ResourceExhausted ERR frame and an immediate close
  /// (net_connections_rejected_total). 0 = unlimited.
  size_t max_connections = 0;
  /// A connection with no traffic, no batch in flight, and nothing
  /// buffered for longer than this is evicted with a DEADLINE_EXCEEDED
  /// ERR frame (net_idle_evictions_total). 0 = never evict.
  int idle_timeout_ms = 0;
  /// Outbound-stall bound: a connection whose outbound buffer stays
  /// non-empty for this long (the peer stopped reading, or trickle-
  /// reads without ever draining) is dead-marked and its remaining
  /// frames dropped (net_send_deadline_expired_total). The batch in
  /// flight settles engine-side exactly as on connection death. 0
  /// disables the bound (tests only).
  int send_timeout_ms = 30000;
  /// Hard cap on one connection's outbound buffer; exceeding it
  /// dead-marks the connection at once
  /// (net_outbound_overflow_total) — the "bounded, then dead-marked"
  /// half of the stalled-reader contract that does not wait for the
  /// deadline.
  size_t max_outbound_buffer_bytes = size_t{64} << 20;  // 64 MiB
  /// How long the listener backs off after a transient accept failure
  /// (EMFILE etc.) before re-arming. Deliberately short: fds freed by
  /// a closing connection should translate into accepts quickly.
  int accept_retry_ms = 20;
  /// Stop(): how long to wait for in-flight batches to finish and
  /// outbound buffers to flush before escalating to a full shutdown
  /// (frames past the deadline are not delivered; the batches still
  /// settle engine-side and Stop() waits for that settlement). Size it
  /// above the slowest batch you intend to drain cleanly.
  int drain_grace_ms = 30000;
  /// Registry for the wire layer's counters (connections, frames and
  /// bytes each way, ERR frames by code, send-deadline expiries,
  /// transient accept errors, transport errors, drain escalations) and
  /// the snapshot a STATS verb answers from. nullptr = the
  /// process-wide default — pass the same registry the EngineHost uses
  /// so one STATS reply covers every layer.
  obs::MetricsRegistry* metrics = nullptr;
  /// Span tracer for the wire layer's own spans (per-batch frame_write,
  /// tagged with the client's trace context when the SUBMIT carried
  /// one). nullptr = the process-wide default writer (disabled until
  /// opened) — pass the same tracer the EngineHost uses so client,
  /// wire, and engine spans land in one file.
  obs::TraceWriter* tracer = nullptr;
  /// Optional sink for drain-progress lines during Stop(): how many
  /// connections still have work in flight (~1/s while waiting out the
  /// grace period) and how many were escalated to a full shutdown.
  /// Called from the stopping thread only. nullptr = silent.
  std::function<void(const std::string&)> drain_log;
};

class BlowfishServer {
 public:
  /// Binds, starts the I/O threads, and returns a listening server.
  /// `host` must outlive the server; its tenants are the set a HELLO
  /// may name.
  static StatusOr<std::unique_ptr<BlowfishServer>> Start(
      EngineHost* host, ServerOptions options = {});

  /// Stop() + join.
  ~BlowfishServer();

  BlowfishServer(const BlowfishServer&) = delete;
  BlowfishServer& operator=(const BlowfishServer&) = delete;

  /// The bound port (resolved when options.port was 0).
  uint16_t port() const { return listener_.port(); }

  /// Graceful drain; see the header comment. Idempotent, callable from
  /// any thread (blowfish_serverd calls it from its signal-wakeup
  /// path).
  void Stop();

  EngineHost& host() { return *host_; }

 private:
  struct IoLoop;

  /// One connection's full state. Owned by exactly one IoLoop; the
  /// read-side state machine runs only on that loop's thread. The
  /// outbound buffer (and the epoll interest mask, which EPOLLOUT
  /// arming mutates) is shared with engine pool threads under out_mu.
  /// Lifetime: destroyed only by the owner loop, and only once
  /// `inflight` is zero — a batch callback never touches a freed
  /// connection.
  struct Connection {
    Socket sock;
    IoLoop* owner = nullptr;

    // ---- Read side (owner thread only) ----
    FrameDecoder decoder;
    bool hello_done = false;
    std::string policy_id;
    std::string dataset_id;
    /// REQ-collection state for the SUBMIT being assembled.
    bool collecting = false;
    uint64_t reqs_remaining = 0;
    std::string batch_text;
    std::string batch_tag;
    obs::TraceContext batch_ctx;
    bool oversized_line = false;
    bool oversized_batch = false;
    /// Set on EOF, BYE, protocol error, or eviction: no further frames
    /// are read or processed; the connection closes once in-flight
    /// batches settle and the outbound buffer drains.
    bool read_closed = false;

    // ---- Outbound (any thread, under out_mu) ----
    std::mutex out_mu;
    std::string out;
    size_t out_off = 0;
    /// Steady-clock micros when `out` last became non-empty; 0 = empty.
    /// The write-stall deadline (send_timeout_ms) keys off this.
    uint64_t out_nonempty_since_us = 0;
    uint32_t epoll_mask = 0;
    bool registered = false;
    /// Transport is gone (write failure, stall, overflow, reset):
    /// every later Output is a no-op.
    bool dead = false;

    // ---- Cross-thread bookkeeping ----
    /// Batches submitted to the engine whose DONE has not yet been
    /// emitted. The owner loop frees the connection only at zero.
    std::atomic<uint32_t> inflight{0};
    std::atomic<uint64_t> last_activity_us{0};
  };

  /// One reactor thread: an epoll fd, a wakeup eventfd, the
  /// connections it owns, and the handoff queues other threads feed it.
  struct IoLoop {
    int index = 0;
    BlowfishServer* server = nullptr;
    int epoll_fd = -1;
    WakeupFd wakeup;
    std::thread thread;
    /// Owner-only once adopted; keyed by pointer for O(1) reap.
    std::unordered_map<Connection*, std::unique_ptr<Connection>> conns;
    std::mutex mu;  // guards incoming + finish_q
    std::vector<std::unique_ptr<Connection>> incoming;
    /// Connections some thread believes may be finishable (inflight
    /// hit zero, buffer drained); the owner re-checks and reaps.
    std::vector<Connection*> finish_q;
    /// Count of owned connections with a non-empty outbound buffer
    /// (maintained under their out_mu) — lets Stop() and the sweep
    /// know whether flush work remains without walking every conn.
    std::atomic<size_t> out_pending{0};
    /// Next time-based maintenance pass (idle eviction, write-stall
    /// deadlines, accept re-arm).
    uint64_t next_sweep_us = 0;
    bool draining = false;
    bool escalated = false;
  };

  BlowfishServer(EngineHost* host, ListenSocket listener,
                 ServerOptions options);

  Status StartLoops();
  void RunLoop(IoLoop* loop);
  void AdoptIncoming(IoLoop* loop);
  void ProcessFinishQueue(IoLoop* loop);
  void AcceptReady(IoLoop* loop);
  void ReadReady(IoLoop* loop, Connection* conn);
  void ProcessFrame(Connection* conn, const std::string& payload);
  void ProcessMessage(Connection* conn, const WireMessage& msg);
  void CollectReq(Connection* conn, const std::string& payload);
  void FinishBatchCollection(Connection* conn);
  void SweepTimers(IoLoop* loop, uint64_t now_us);
  int LoopTimeoutMs(IoLoop* loop, uint64_t now_us) const;
  /// Owner thread, once, when Stop() begins: half-close every owned
  /// connection's read side (and, on loop 0, stop accepting).
  void DrainLoop(IoLoop* loop);
  /// Owner thread, once, when the drain grace expires: abandon every
  /// owned connection that still has work (undelivered frames drop;
  /// batches settle engine-side regardless).
  void EscalateLoop(IoLoop* loop);
  void DestroyConnection(IoLoop* loop, Connection* conn);

  /// Serializes one frame onto the connection's outbound buffer and
  /// flushes what the socket will take; arms EPOLLOUT for the rest.
  /// No-op on a dead connection. When `write_us` is set, the wall time
  /// spent here is added to it — the per-batch accumulator behind the
  /// frame_write span.
  void Output(Connection* conn, const std::string& payload,
              std::atomic<uint64_t>* write_us = nullptr);

  /// Output of an ERR payload, counted under the status code's label
  /// (net_err_frames_total{code=...}). `batch_tag` scopes the error to
  /// one pipelined batch.
  void OutputError(Connection* conn, const Status& status,
                   const std::string& batch_tag = "");

  /// ERR + net_protocol_errors_total + connection close-after-flush:
  /// the client spoke bad protocol.
  void ProtocolError(Connection* conn, const Status& status);

  /// Stops reading (EOF semantics) and lets the connection finish:
  /// close once in-flight batches settle and the buffer drains.
  void CloseAfterFlush(Connection* conn);

  /// Requires conn->out_mu. Pushes buffered bytes; arms/disarms
  /// EPOLLOUT; dead-marks on write failure or overflow.
  void FlushLocked(Connection* conn);

  /// Requires conn->out_mu. Applies `mask` (plus registration) to the
  /// owner loop's epoll.
  void UpdateEpollLocked(Connection* conn, uint32_t mask);

  /// Requires conn->out_mu. MarkDeadLocked counts the death
  /// (net_connections_dead_total) then abandons; AbandonLocked is the
  /// uncounted mechanics (buffer dropped, epoll deregistered, transport
  /// shut down) shared with the read-transport-error and escalation
  /// paths, which keep their own counters.
  void MarkDeadLocked(Connection* conn);
  void AbandonLocked(Connection* conn);

  /// Queues conn for the owner's finish check and wakes it.
  void RequestFinishCheck(Connection* conn);

  /// Owner thread: true once nothing can touch the connection again —
  /// reads stopped or transport dead, no batch in flight, buffer
  /// drained or abandoned.
  bool Finishable(Connection* conn);

  /// Lazily resolves the per-code ERR counter. Takes mu_.
  obs::Counter* ErrCounterFor(StatusCode code);

  /// Answers one STATS verb: snapshots the registry FIRST (so the
  /// reply's own frames-out are not in it), then writes one METRIC
  /// frame per sample and DONE n=<count>.
  void ServeStats(Connection* conn);

  /// Answers one HEALTH verb (allowed pre-HELLO, like STATS): readiness
  /// and drain state, uptime, active connections, and one
  /// health_budget_remaining{tenant=...,session=...} gauge per session
  /// of every tenant. Same METRIC/DONE frame shape as STATS, so clients
  /// share the decode path.
  void ServeHealth(Connection* conn);

  EngineHost* host_;
  ListenSocket listener_;
  ServerOptions options_;
  std::vector<std::unique_ptr<IoLoop>> loops_;
  /// Round-robin dealing of accepted connections to loops.
  size_t accept_rr_ = 0;
  /// Loop 0's accept backoff: 0 = listener armed; otherwise the steady
  /// micros at which to re-arm it.
  uint64_t accept_rearm_us_ = 0;
  bool listener_registered_ = false;
  /// Serializes Stop(); `stopped_` (guarded by it) makes later calls
  /// no-ops without re-joining anything.
  std::mutex stop_mu_;
  bool stopped_ = false;
  std::atomic<bool> stopping_{false};
  /// The drain grace expired: loops abandon connections that still
  /// have work in flight.
  std::atomic<bool> escalating_{false};
  std::atomic<bool> exiting_{false};
  /// Total batches in flight engine-side across all connections; Stop()
  /// waits for zero before letting the loops exit.
  std::atomic<uint64_t> total_inflight_{0};
  /// Currently registered (accepted, not reaped) connections — the
  /// connection-cap decision variable.
  std::atomic<size_t> active_connections_{0};
  std::mutex mu_;  // guards err_counters_
  /// Wire-layer telemetry (obs/metrics.h). The registry pointer and the
  /// fixed handles are resolved at construction and never null; the
  /// per-code ERR counters resolve lazily under mu_. Hot-path updates
  /// touch only the sharded atomics behind these handles — no locks.
  obs::MetricsRegistry* metrics_;
  /// Resolved at construction (Global when unset); never null.
  obs::TraceWriter* tracer_;
  /// MonotonicMicros at construction — the zero of health_uptime_us.
  uint64_t start_us_;
  obs::Counter* connections_total_;
  obs::Gauge* connections_active_;
  obs::Counter* frames_in_total_;
  obs::Counter* frames_out_total_;
  obs::Counter* bytes_in_total_;
  obs::Counter* bytes_out_total_;
  obs::Counter* batches_total_;
  obs::Counter* send_deadline_expired_total_;
  obs::Counter* connections_dead_total_;
  obs::Counter* drain_escalations_total_;
  obs::Counter* accept_transient_errors_total_;
  /// The client spoke bad protocol (framing violation, malformed
  /// message, wrong verb): the connection is closed. A batch-scoped ERR
  /// (a malformed request line) is not one.
  obs::Counter* protocol_errors_total_;
  /// The transport failed mid-read (peer reset, recv error) — the
  /// client's network died, not its protocol. Counted apart from
  /// protocol errors so an ops dashboard can tell flaky networks from
  /// buggy clients.
  obs::Counter* transport_errors_total_;
  obs::Counter* connections_rejected_total_;
  obs::Counter* idle_evictions_total_;
  obs::Counter* outbound_overflow_total_;
  std::map<StatusCode, obs::Counter*> err_counters_;
};

}  // namespace blowfish

#endif  // BLOWFISH_NET_SERVER_H_
