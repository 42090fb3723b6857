// Reactor-edge battery for the epoll wire layer (net/server.h): the
// behaviors a thread-per-connection server could not even express.
// Asserts:
//
//  * pipelined batches: two tagged batches submitted back to back on
//    ONE connection demultiplex by their echoed batch= tags, awaited in
//    either order, with responses bit-identical to the in-process
//    SubmitBatch futures — across pool sizes {0, 1, 8} (on a racing
//    pool the engine-serialization order is recovered from the
//    receipts' charge ids and replayed in-process);
//  * connection cap: the connection past --max_connections gets one
//    structured RESOURCE_EXHAUSTED ERR and a close, counted, and the
//    slot is reusable the moment an occupant leaves;
//  * idle timeout: an idle connection is evicted with a structured
//    DEADLINE_EXCEEDED ERR, freeing capacity at the cap;
//  * transport vs protocol errors: a peer that resets mid-stream
//    increments net_transport_errors_total, NOT protocol_errors;
//  * accept-loop survival: with the fd table driven to EMFILE the
//    daemon counts transient accept errors, keeps serving existing
//    connections, and resumes accepting once descriptors free up;
//  * soak: O(10k) idle connections plus 100 active pipelining clients
//    on a fixed thread budget (io_threads + engine pool — no
//    per-connection threads), with exact STATS arithmetic afterwards;
//  * fd hygiene: every socket the layer creates is CLOEXEC.

#include "net/server.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "server/engine_host.h"
#include "util/random.h"
#include "util/socket.h"

namespace blowfish {
namespace {

constexpr uint64_t kSeed = 20140612;
constexpr char kPolicyId[] = "p";
constexpr char kTenantA[] = "alpha";
constexpr char kTenantB[] = "beta";

std::shared_ptr<const Domain> LineDomain(uint64_t size) {
  return std::make_shared<const Domain>(Domain::Line(size).value());
}

Dataset MakeData(const std::shared_ptr<const Domain>& domain, size_t n,
                 uint64_t seed) {
  Random rng(seed);
  std::vector<ValueIndex> tuples;
  tuples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tuples.push_back(static_cast<ValueIndex>(
        rng.UniformInt(0, static_cast<int64_t>(domain->size()) - 1)));
  }
  return Dataset::Create(domain, std::move(tuples)).value();
}

std::unique_ptr<EngineHost> MakeHost(
    size_t pool_threads, obs::MetricsRegistry* metrics = nullptr) {
  EngineHostOptions options;
  options.num_threads = pool_threads;
  options.root_seed = kSeed;
  options.metrics = metrics;
  auto domain = LineDomain(32);
  Policy policy = Policy::FullDomain(domain).value();
  auto host = std::make_unique<EngineHost>(options);
  EXPECT_TRUE(
      host->AddTenant(kPolicyId, kTenantA, policy, MakeData(domain, 300, 3))
          .ok());
  EXPECT_TRUE(
      host->AddTenant(kPolicyId, kTenantB, policy, MakeData(domain, 200, 5))
          .ok());
  return host;
}

// Two distinct batches on distinct sessions: responses are
// distinguishable by label and the budget arithmetic never overlaps.
constexpr char kBatchOne[] =
    "histogram eps=0.25 label=one_h session=s_one\n"
    "mean eps=0.125 label=one_m session=s_one\n"
    "range eps=0.25 lo=2 hi=9 label=one_r session=s_one\n";
constexpr char kBatchTwo[] =
    "quantiles eps=0.125 qs=0.25,0.5 label=two_q session=s_two\n"
    "mean eps=0.25 label=two_m session=s_two\n";

void ExpectResponsesEqual(const std::vector<QueryResponse>& wire,
                          const std::vector<QueryResponse>& local,
                          const std::string& context) {
  ASSERT_EQ(wire.size(), local.size()) << context;
  for (size_t i = 0; i < wire.size(); ++i) {
    SCOPED_TRACE(context + ", query " + std::to_string(i));
    EXPECT_EQ(wire[i].status.code(), local[i].status.code());
    EXPECT_EQ(wire[i].status.message(), local[i].status.message());
    EXPECT_EQ(wire[i].label, local[i].label);
    EXPECT_EQ(wire[i].sensitivity, local[i].sensitivity);
    EXPECT_EQ(wire[i].cache_hit, local[i].cache_hit);
    ASSERT_EQ(wire[i].values.size(), local[i].values.size());
    for (size_t v = 0; v < wire[i].values.size(); ++v) {
      EXPECT_EQ(wire[i].values[v], local[i].values[v]) << "value " << v;
    }
    EXPECT_EQ(wire[i].receipt.session, local[i].receipt.session);
    EXPECT_EQ(wire[i].receipt.charge_id, local[i].receipt.charge_id);
    EXPECT_EQ(wire[i].receipt.charged, local[i].receipt.charged);
    EXPECT_EQ(wire[i].receipt.epsilon, local[i].receipt.epsilon);
    EXPECT_EQ(wire[i].receipt.remaining, local[i].receipt.remaining);
    EXPECT_EQ(wire[i].receipt.refunded, local[i].receipt.refunded);
  }
}

/// Raw-socket frame plumbing for the tests that speak the protocol
/// below the client library.
struct RawConn {
  Socket sock;
  FrameDecoder decoder;

  static StatusOr<RawConn> Connect(uint16_t port) {
    auto sock = Socket::ConnectTcp("127.0.0.1", port);
    if (!sock.ok()) return sock.status();
    return RawConn{std::move(*sock), FrameDecoder()};
  }

  void Send(const std::string& payload) {
    const std::string frame = EncodeFrame(payload);
    ASSERT_TRUE(sock.SendAll(frame.data(), frame.size()).ok());
  }

  /// Next frame payload; "" on EOF.
  std::string Read() {
    std::string payload;
    char buf[4096];
    while (decoder.Next(&payload) != FrameDecoder::Result::kFrame) {
      auto n = sock.Recv(buf, sizeof(buf));
      EXPECT_TRUE(n.ok());
      if (!n.ok() || *n == 0) return std::string();
      decoder.Feed(buf, *n);
    }
    return payload;
  }

  /// True iff the peer has cleanly closed (next read yields EOF).
  bool AtEof() {
    char buf[64];
    auto n = sock.Recv(buf, sizeof(buf));
    return n.ok() && *n == 0;
  }
};

Status ParseErrFrame(const std::string& payload) {
  auto msg = ParseWireMessage(payload);
  if (!msg.ok()) return msg.status();
  EXPECT_EQ(msg->verb, std::string(kVerbErr)) << payload;
  Status carried;
  EXPECT_TRUE(ParseStatusFields(*msg, &carried).ok()) << payload;
  return carried;
}

double RegistryValue(obs::MetricsRegistry* registry,
                     const std::string& name) {
  // Counter reads go through the text render: no extra read API needed,
  // and — unlike a STATS fetch — no file descriptors either, which the
  // fd-exhaustion test depends on.
  const std::string text = registry->RenderPrometheusText();
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, name.size(), name) == 0 &&
        line.size() > name.size() && line[name.size()] == ' ') {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
  }
  return -1.0;
}

bool WaitFor(const std::function<bool()>& done, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

size_t CountOpenFds() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count >= 3 ? count - 3 : 0;  // ".", "..", the DIR itself
}

TEST(NetReactorTest, PipelinedBatchesDemuxOnOneConnection) {
  // Zero pool workers: the engine runs each batch inline on the I/O
  // thread the moment its last REQ arrives, so server-side execution
  // order is submission order — every interleaving below is exact.
  obs::MetricsRegistry registry;
  auto wire_host = MakeHost(0, &registry);
  auto local_host = MakeHost(0);
  ServerOptions options;
  options.metrics = &registry;
  auto server = BlowfishServer::Start(wire_host.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = BlowfishClient::Connect("127.0.0.1", (*server)->port(),
                                        kPolicyId, kTenantA);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Both batches ship before ANY reply frame is read.
  auto h1 = (*client)->SubmitPipelined(kBatchOne);
  ASSERT_TRUE(h1.ok()) << h1.status().ToString();
  auto h2 = (*client)->SubmitPipelined(kBatchTwo);
  ASSERT_TRUE(h2.ok()) << h2.status().ToString();

  // Await the SECOND batch first: the client must buffer every frame
  // of batch one (which the server wrote first) into its pending state
  // while pumping for batch two.
  std::vector<size_t> order_two;
  auto r2 = (*client)->AwaitBatch(
      *h2, [&](size_t index, const QueryResponse&) {
        order_two.push_back(index);
      });
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r2->size(), 2u);
  EXPECT_EQ(order_two, (std::vector<size_t>{0, 1}));

  // Awaiting batch one now replays its buffered results in their
  // original arrival order — request order, on zero workers.
  std::vector<size_t> order_one;
  auto r1 = (*client)->AwaitBatch(
      *h1, [&](size_t index, const QueryResponse&) {
        order_one.push_back(index);
      });
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_EQ(r1->size(), 3u);
  EXPECT_EQ(order_one, (std::vector<size_t>{0, 1, 2}));

  // Bit-identity against in-process submits in the same order.
  auto req1 = EngineHost::ParseBatchText(kBatchOne);
  auto req2 = EngineHost::ParseBatchText(kBatchTwo);
  ASSERT_TRUE(req1.ok() && req2.ok());
  auto local1 =
      local_host->SubmitBatch(kPolicyId, kTenantA, std::move(*req1)).get();
  auto local2 =
      local_host->SubmitBatch(kPolicyId, kTenantA, std::move(*req2)).get();
  ASSERT_TRUE(local1.ok() && local2.ok());
  ExpectResponsesEqual(*r1, *local1, "batch one");
  ExpectResponsesEqual(*r2, *local2, "batch two");

  EXPECT_TRUE((*client)->Bye().ok());
  (*server)->Stop();
  EXPECT_EQ(RegistryValue(&registry, "net_connections_total"), 1.0);
  EXPECT_EQ(RegistryValue(&registry, "net_batches_total"), 2.0);
  EXPECT_EQ(RegistryValue(&registry, "net_protocol_errors_total"), 0.0);
  EXPECT_EQ(RegistryValue(&registry, "net_transport_errors_total"), 0.0);
}

TEST(NetReactorTest, PipelinedWireIsBitIdenticalAcrossPoolSizes) {
  for (size_t pool : {size_t{0}, size_t{1}, size_t{8}}) {
    const std::string context = "pool " + std::to_string(pool);
    obs::MetricsRegistry registry;
    auto wire_host = MakeHost(pool, &registry);
    ServerOptions options;
    options.metrics = &registry;
    auto server = BlowfishServer::Start(wire_host.get(), options);
    ASSERT_TRUE(server.ok());
    auto client = BlowfishClient::Connect("127.0.0.1", (*server)->port(),
                                          kPolicyId, kTenantA);
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    auto h1 = (*client)->SubmitPipelined(kBatchOne);
    auto h2 = (*client)->SubmitPipelined(kBatchTwo);
    ASSERT_TRUE(h1.ok() && h2.ok());
    auto r1 = (*client)->AwaitBatch(*h1);
    auto r2 = (*client)->AwaitBatch(*h2);
    ASSERT_TRUE(r1.ok()) << context << ": " << r1.status().ToString();
    ASSERT_TRUE(r2.ok()) << context << ": " << r2.status().ToString();

    // A tenant's batches are admitted in submission order at every
    // pool size (the host's per-tenant strand), so the charge ids (the
    // accountant's ledger counter is monotone) put batch one first,
    // and a sequential in-process replay reproduces both.
    ASSERT_FALSE(r1->empty());
    ASSERT_FALSE(r2->empty());
    const bool one_first =
        (*r1)[0].receipt.charge_id < (*r2)[0].receipt.charge_id;
    EXPECT_TRUE(one_first) << context;

    auto local_host = MakeHost(pool);
    auto submit = [&](const char* text) {
      auto requests = EngineHost::ParseBatchText(text);
      EXPECT_TRUE(requests.ok());
      return local_host
          ->SubmitBatch(kPolicyId, kTenantA, std::move(*requests))
          .get();
    };
    auto local_one = submit(kBatchOne);
    auto local_two = submit(kBatchTwo);
    ASSERT_TRUE(local_one.ok() && local_two.ok());
    ExpectResponsesEqual(*r1, *local_one, context + ", batch one");
    ExpectResponsesEqual(*r2, *local_two, context + ", batch two");

    EXPECT_TRUE((*client)->Bye().ok());
    (*server)->Stop();
    EXPECT_EQ(RegistryValue(&registry, "net_batches_total"), 2.0);
    EXPECT_EQ(RegistryValue(&registry, "net_protocol_errors_total"), 0.0);
  }
}

TEST(NetReactorTest, ConnectionCapRejectsWithStructuredErrAndRecovers) {
  obs::MetricsRegistry registry;
  auto host = MakeHost(1, &registry);
  ServerOptions options;
  options.metrics = &registry;
  options.max_connections = 2;
  auto server = BlowfishServer::Start(host.get(), options);
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();

  auto c1 = BlowfishClient::Connect("127.0.0.1", port, kPolicyId, kTenantA);
  auto c2 = BlowfishClient::Connect("127.0.0.1", port, kPolicyId, kTenantB);
  ASSERT_TRUE(c1.ok() && c2.ok());

  // The third connection is told exactly why, then closed — a
  // structured refusal, not a silent drop or a daemon death.
  auto over = RawConn::Connect(port);
  ASSERT_TRUE(over.ok());
  const Status refused = ParseErrFrame(over->Read());
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.message().find("connection limit (2)"),
            std::string::npos)
      << refused.ToString();
  EXPECT_TRUE(over->AtEof());
  EXPECT_EQ(RegistryValue(&registry, "net_connections_rejected_total"),
            1.0);
  EXPECT_EQ(RegistryValue(&registry, "net_connections_active"), 2.0);

  // Departure frees the slot (the gauge decrement is asynchronous —
  // the owner loop reaps after the close — so poll the reconnect).
  EXPECT_TRUE((*c1)->Bye().ok());
  StatusOr<std::unique_ptr<BlowfishClient>> c3 = Status::Internal("never attempted");
  ASSERT_TRUE(WaitFor(
      [&]() {
        c3 = BlowfishClient::Connect("127.0.0.1", port, kPolicyId,
                                     kTenantA);
        return c3.ok();
      },
      5000))
      << c3.status().ToString();
  auto served = (*c3)->SubmitBatchText("histogram eps=0.25\n");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE((*c3)->Bye().ok());
  EXPECT_TRUE((*c2)->Bye().ok());
}

TEST(NetReactorTest, IdleTimeoutEvictsAndFreesTheCap) {
  obs::MetricsRegistry registry;
  auto host = MakeHost(1, &registry);
  ServerOptions options;
  options.metrics = &registry;
  options.max_connections = 1;
  options.idle_timeout_ms = 100;
  auto server = BlowfishServer::Start(host.get(), options);
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();

  auto idle = RawConn::Connect(port);
  ASSERT_TRUE(idle.ok());
  idle->Send(EncodeHelloPayload(kPolicyId, kTenantA));
  EXPECT_NE(idle->Read().find(kVerbOk), std::string::npos);

  // While the occupant is alive, the cap refuses the next connection
  // with ResourceExhausted; after the eviction sweep fires, the same
  // Connect succeeds. The poll's failed attempts ARE the cap probes.
  StatusOr<std::unique_ptr<BlowfishClient>> next = Status::Internal("never attempted");
  ASSERT_TRUE(WaitFor(
      [&]() {
        next = BlowfishClient::Connect("127.0.0.1", port, kPolicyId,
                                       kTenantB);
        return next.ok();
      },
      5000))
      << next.status().ToString();
  EXPECT_EQ(RegistryValue(&registry, "net_idle_evictions_total"), 1.0);

  // The evicted peer was told why before the close.
  const Status evicted = ParseErrFrame(idle->Read());
  EXPECT_EQ(evicted.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(evicted.message().find("idle timeout"), std::string::npos)
      << evicted.ToString();
  EXPECT_TRUE(idle->AtEof());
  EXPECT_TRUE((*next)->Bye().ok());
}

TEST(NetReactorTest, TransportErrorsCountSeparatelyFromProtocolErrors) {
  obs::MetricsRegistry registry;
  auto host = MakeHost(1, &registry);
  ServerOptions options;
  options.metrics = &registry;
  auto server = BlowfishServer::Start(host.get(), options);
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();

  // A client that SPEAKS wrong: protocol error.
  {
    auto bad = RawConn::Connect(port);
    ASSERT_TRUE(bad.ok());
    bad->Send("NOTAVERB");
    EXPECT_EQ(ParseErrFrame(bad->Read()).code(),
              StatusCode::kFailedPrecondition);
  }
  // A transport that FAILS mid-stream: the peer resets (SO_LINGER 0 +
  // close forces RST, not FIN) with a frame half-sent. The old server
  // booked this as a protocol error, blinding the misbehaving-client
  // signal; it must land in its own counter.
  {
    auto dying = RawConn::Connect(port);
    ASSERT_TRUE(dying.ok());
    dying->Send(EncodeHelloPayload(kPolicyId, kTenantA));
    EXPECT_NE(dying->Read().find(kVerbOk), std::string::npos);
    const char partial[2] = {0x00, 0x00};  // half a length prefix
    ASSERT_TRUE(dying->sock.SendAll(partial, sizeof(partial)).ok());
    struct linger hard_reset;
    hard_reset.l_onoff = 1;
    hard_reset.l_linger = 0;
    ASSERT_EQ(::setsockopt(dying->sock.fd(), SOL_SOCKET, SO_LINGER,
                           &hard_reset, sizeof(hard_reset)),
              0);
  }  // ~RawConn closes the socket -> RST

  ASSERT_TRUE(WaitFor(
      [&]() {
        return RegistryValue(&registry, "net_transport_errors_total") >=
               1.0;
      },
      5000));
  (*server)->Stop();
  EXPECT_EQ(RegistryValue(&registry, "net_transport_errors_total"), 1.0);
  // Only the bad verb.
  EXPECT_EQ(RegistryValue(&registry, "net_protocol_errors_total"), 1.0);
}

TEST(NetReactorTest, StatsCountsProtocolErrorsButNotBatchErrors) {
  obs::MetricsRegistry registry;
  auto host = MakeHost(1, &registry);
  ServerOptions options;
  options.metrics = &registry;
  auto server = BlowfishServer::Start(host.get(), options);
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();

  // A malformed request line is a batch-scoped ERR: the connection
  // stays usable, and the client spoke no bad protocol.
  auto client =
      BlowfishClient::Connect("127.0.0.1", port, kPolicyId, kTenantA);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto bad_batch = (*client)->SubmitBatchText("histogram eps=oops\n");
  EXPECT_EQ(bad_batch.status().code(), StatusCode::kInvalidArgument);
  auto good_batch = (*client)->SubmitBatchText("histogram eps=0.25\n");
  ASSERT_TRUE(good_batch.ok()) << good_batch.status().ToString();
  EXPECT_TRUE((*client)->Bye().ok());

  // A bad verb before HELLO is a protocol error: ERR, then close.
  {
    auto bad = RawConn::Connect(port);
    ASSERT_TRUE(bad.ok());
    bad->Send("FROB");
    EXPECT_EQ(ParseErrFrame(bad->Read()).code(),
              StatusCode::kFailedPrecondition);
  }

  // Counted before the ERR went out, so STATS already reports it.
  auto samples = BlowfishClient::FetchStats("127.0.0.1", port);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  double protocol_errors = -1.0;
  for (const MetricSample& sample : *samples) {
    if (sample.name == "net_protocol_errors_total") {
      protocol_errors = sample.value;
    }
  }
  EXPECT_EQ(protocol_errors, 1.0);
  (*server)->Stop();
}

TEST(NetReactorTest, AcceptLoopSurvivesFdExhaustion) {
  obs::MetricsRegistry registry;
  auto host = MakeHost(1, &registry);
  ServerOptions options;
  options.metrics = &registry;
  options.accept_retry_ms = 10;
  auto server = BlowfishServer::Start(host.get(), options);
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();

  // A connection established BEFORE the famine must keep serving
  // through it.
  auto survivor =
      BlowfishClient::Connect("127.0.0.1", port, kPolicyId, kTenantA);
  ASSERT_TRUE(survivor.ok());

  // Drive the process to RLIMIT_NOFILE: clamp the soft limit just
  // above current usage, then soak up every remaining slot.
  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(CountOpenFds() + 8);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> ballast;
  for (int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC); fd >= 0;
       fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC)) {
    ballast.push_back(fd);
  }
  ASSERT_EQ(errno, EMFILE);
  ASSERT_GE(ballast.size(), 4u);

  // Free exactly one slot for the client's own socket: its TCP
  // handshake completes in the kernel (listen backlog), but the
  // daemon's accept4 now fails with EMFILE.
  ::close(ballast.back());
  ballast.pop_back();
  auto pending = RawConn::Connect(port);
  ASSERT_TRUE(pending.ok()) << pending.status().ToString();
  ASSERT_TRUE(WaitFor(
      [&]() {
        return RegistryValue(&registry,
                             "net_accept_transient_errors_total") >= 1.0;
      },
      5000));

  // Established connections never stopped being served meanwhile (the
  // batch needs no new descriptors).
  auto through = (*survivor)->SubmitBatchText("histogram eps=0.25\n");
  ASSERT_TRUE(through.ok()) << through.status().ToString();

  // Descriptors come back; the retry timer re-arms the listener and
  // the parked handshake finally gets accepted — the daemon did NOT
  // die and did NOT wedge its accept path.
  for (int fd : ballast) ::close(fd);
  ballast.clear();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  pending->Send(EncodeHelloPayload(kPolicyId, kTenantB));
  EXPECT_NE(pending->Read().find(kVerbOk), std::string::npos);

  // And brand-new connections accept again.
  auto fresh =
      BlowfishClient::Connect("127.0.0.1", port, kPolicyId, kTenantA);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_TRUE((*fresh)->Bye().ok());
  EXPECT_TRUE((*survivor)->Bye().ok());
}

TEST(NetReactorTest, SoakHoldsThousandsIdlePlusActiveOnFixedThreads) {
  // Scale the idle herd to the fd budget: both ends of every loopback
  // connection live in THIS process, so each costs two descriptors.
  // On a >=21k-fd box this runs the full 10,000; the floor asserts the
  // point regardless — thousands of connections, zero extra threads.
  struct rlimit lim;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &lim), 0);
  if (lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lim), 0);
  }
  constexpr size_t kActive = 100;
  constexpr size_t kDrivers = 4;
  constexpr int kBatchesEach = 2;
  const size_t fd_budget = static_cast<size_t>(lim.rlim_cur) -
                           CountOpenFds() - 512;
  const size_t kIdle =
      std::min<size_t>(10000, fd_budget / 2 - kActive);
  ASSERT_GE(kIdle, 4000u) << "fd limit too low for a meaningful soak";

  obs::MetricsRegistry registry;
  auto host = MakeHost(4, &registry);
  ServerOptions options;
  options.metrics = &registry;
  options.io_threads = 2;
  options.accept_backlog = 512;
  auto server = BlowfishServer::Start(host.get(), options);
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();

  // The idle herd: connected, never speaking (not even HELLO). Cost
  // per connection must be one epoll registration, not one thread.
  std::vector<Socket> idle;
  idle.reserve(kIdle);
  for (size_t i = 0; i < kIdle; ++i) {
    auto sock = Socket::ConnectTcp("127.0.0.1", port);
    ASSERT_TRUE(sock.ok()) << "idle connect " << i << ": "
                           << sock.status().ToString();
    idle.push_back(std::move(*sock));
  }

  // 100 active connections pipelining two tagged batches each, driven
  // by a handful of threads (the point is many CONNECTIONS, not many
  // client threads). Each client's own sessions keep budget exact.
  std::vector<std::unique_ptr<BlowfishClient>> actives(kActive);
  std::atomic<int> failures{0};
  std::vector<std::thread> drivers;
  for (size_t d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d]() {
      for (size_t k = d; k < kActive; k += kDrivers) {
        const char* tenant = (k % 2 == 0) ? kTenantA : kTenantB;
        const std::string session = "soak" + std::to_string(k);
        const std::string batch =
            "histogram eps=0.25 session=" + session + "\n" +
            "mean eps=0.125 session=" + session + "\n" +
            "range eps=0.25 lo=2 hi=9 session=" + session + "\n" +
            "quantiles eps=0.125 qs=0.25,0.5 session=" + session + "\n";
        auto client =
            BlowfishClient::Connect("127.0.0.1", port, kPolicyId, tenant);
        if (!client.ok()) {
          ++failures;
          continue;
        }
        std::vector<uint64_t> handles;
        for (int b = 0; b < kBatchesEach; ++b) {
          auto handle = (*client)->SubmitPipelined(batch);
          if (!handle.ok()) {
            ++failures;
            break;
          }
          handles.push_back(*handle);
        }
        for (uint64_t handle : handles) {
          auto responses = (*client)->AwaitBatch(handle);
          if (!responses.ok() || responses->size() != 4) ++failures;
        }
        actives[k] = std::move(*client);  // stays open for the snapshot
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The thread bill: io_threads(2) + engine pool(4) + this test's own
  // machinery. A thread-per-connection server would be sitting on
  // ~kIdle threads here.
  std::ifstream status("/proc/self/status");
  std::string line;
  size_t threads = 0;
  while (std::getline(status, line)) {
    if (line.compare(0, 8, "Threads:") == 0) {
      threads = std::strtoul(line.c_str() + 8, nullptr, 10);
    }
  }
  EXPECT_GT(threads, 0u);
  EXPECT_LE(threads, 64u) << "reactor must not scale threads with "
                             "connections";

  // Accepts are asynchronous; converge, then take one exact snapshot.
  ASSERT_TRUE(WaitFor(
      [&]() {
        return RegistryValue(&registry, "net_connections_total") ==
               static_cast<double>(kIdle + kActive);
      },
      10000));
  auto samples = BlowfishClient::FetchStats("127.0.0.1", port);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  auto metric = [&](const std::string& name) -> double {
    for (const MetricSample& sample : *samples) {
      if (sample.name == name) return sample.value;
    }
    ADD_FAILURE() << "metric " << name << " missing from STATS";
    return -1.0;
  };
  // Exact arithmetic under O(10k) concurrency: the snapshot includes
  // the STATS connection itself and its one request frame (snapshot
  // precedes the METRIC reply frames).
  EXPECT_EQ(metric("net_connections_total"),
            static_cast<double>(kIdle + kActive + 1));
  EXPECT_EQ(metric("net_connections_active"),
            static_cast<double>(kIdle + kActive + 1));
  // Per active client: HELLO + kBatchesEach*(SUBMIT + 4 REQ), no BYE
  // yet; plus the STATS frame.
  EXPECT_EQ(metric("net_frames_in_total"),
            kActive * (1.0 + kBatchesEach * 5.0) + 1.0);
  // Per active client: OK + kBatchesEach*(4 RESULT + 4 RECEIPT + DONE).
  EXPECT_EQ(metric("net_frames_out_total"),
            kActive * (1.0 + kBatchesEach * 9.0));
  EXPECT_EQ(metric("net_batches_total"),
            static_cast<double>(kActive * kBatchesEach));
  EXPECT_EQ(metric("net_connections_dead_total"), 0.0);
  EXPECT_EQ(metric("net_transport_errors_total"), 0.0);
  EXPECT_EQ(metric("net_connections_rejected_total"), 0.0);
  EXPECT_EQ(metric("net_idle_evictions_total"), 0.0);
  EXPECT_EQ(metric("net_accept_transient_errors_total"), 0.0);

  for (auto& client : actives) {
    ASSERT_NE(client, nullptr);
    EXPECT_TRUE(client->Bye().ok());
  }
  idle.clear();  // closes 10k sockets; Stop() handles whatever remains
  (*server)->Stop();
  EXPECT_EQ(RegistryValue(&registry, "net_protocol_errors_total"), 0.0);
  EXPECT_EQ(RegistryValue(&registry, "net_batches_total"),
            static_cast<double>(kActive * kBatchesEach));
}

TEST(NetReactorTest, EverySocketIsCloexec) {
  // exec hygiene: a forked tool (metrics dumper, config reload hook)
  // must not inherit the daemon's sockets. Everything the net layer
  // creates — listener, accepted connections, client sockets, epoll
  // and eventfd handles — carries CLOEXEC at creation (no fcntl race).
  auto host = MakeHost(1);
  auto server = BlowfishServer::Start(host.get());
  ASSERT_TRUE(server.ok());
  auto c1 = BlowfishClient::Connect("127.0.0.1", (*server)->port(),
                                    kPolicyId, kTenantA);
  ASSERT_TRUE(c1.ok());
  auto responses = (*c1)->SubmitBatchText("histogram eps=0.25\n");
  ASSERT_TRUE(responses.ok());

  DIR* dir = ::opendir("/proc/self/fd");
  ASSERT_NE(dir, nullptr);
  size_t sockets = 0;
  while (struct dirent* entry = ::readdir(dir)) {
    char* end = nullptr;
    const long fd = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0' || fd < 3) continue;
    if (fd == ::dirfd(dir)) continue;
    struct stat st;
    if (::fstat(static_cast<int>(fd), &st) != 0 || !S_ISSOCK(st.st_mode)) {
      continue;
    }
    ++sockets;
    const int flags = ::fcntl(static_cast<int>(fd), F_GETFD);
    ASSERT_GE(flags, 0);
    EXPECT_TRUE(flags & FD_CLOEXEC) << "socket fd " << fd;
  }
  ::closedir(dir);
  // Listener + accepted conn + client conn + the io loops' eventfds
  // don't stat as sockets; at least the three sockets must be there.
  EXPECT_GE(sockets, 3u);
  EXPECT_TRUE((*c1)->Bye().ok());
}

}  // namespace
}  // namespace blowfish
