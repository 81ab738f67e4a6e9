// Copyright (c) hdc authors. Apache-2.0 license.
//
// ServiceEndpoint — serves an existing CrawlService over the hdc wire
// protocol. Each accepted connection becomes one ServerSession
// (server/crawl_service.h): remote tenants therefore inherit everything
// the in-process service already provides — per-session statistics,
// budgets, and a fair scheduling lane on the shared worker pool — and a
// remote conversation is the same conversation an in-process session
// would have had, frame framing aside.
//
// Concurrency model: event-driven, not thread-per-connection. One IO
// thread runs an epoll loop (net/event_loop.h) over the nonblocking
// listener and every nonblocking connection — accepting, assembling
// frames incrementally, and flushing buffered output as sockets become
// writable — while a small endpoint-owned dispatch pool executes the
// session work (batch evaluation on the service's fair lanes). Thousands
// of idle or slow-reading connections therefore cost file descriptors and
// buffers, not threads; the thread count is dispatch_threads + 1
// regardless of connection count. Each connection runs at most one
// request at a time (the HiddenDbServer contract forbids concurrent calls
// on one session); input that arrives while a request is in flight waits
// in the connection's buffer.
//
// The dispatch pool is deliberately NOT the service's worker pool: a
// session batch blocks its dispatching thread until the batch completes,
// and batches themselves fan out onto the service pool — dispatching from
// that same pool could park every worker on blocked batches with no one
// left to run them.
//
// Plain HTTP is sniffed on the first bytes of a connection: `GET
// /metrics` answers a Prometheus text rendering of the service's
// MetricsSnapshot (server/metrics_text.h) and closes, so the same port a
// crawler dials is scrapeable by standard monitoring. (A frame peer can
// never collide with this: "GET " as a frame header would declare a
// ~1.4 GB payload, far beyond kMaxFramePayload.)
//
// Lifecycle: Start() binds and spawns the IO thread and dispatch pool;
// Stop() (or the destructor) shuts the listener down, severs live
// connections, and joins every thread. The CrawlService must outlive the
// endpoint.
//
// Robustness: a peer sending a malformed hello, an oversized length
// prefix, an undecodable batch, or an unknown frame type gets its
// connection closed — never a crash, never a stuck thread — and the
// endpoint keeps serving everyone else. Tests drive this directly
// (remote_transport_test.cc) by speaking garbage at a live endpoint.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/socket.h"
#include "server/crawl_service.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hdc {
namespace net {

struct ServiceEndpointOptions {
  /// Bind address. Loopback by default: the supported deployment is one
  /// trusted machine boundary (tests, benches, the remote_crawl example).
  std::string host = "127.0.0.1";

  /// 0 picks an ephemeral port (read it from port() after Start()).
  uint16_t port = 0;

  /// Threads executing session work (batch evaluation, stats, refills).
  /// Bounds how many *requests* make progress simultaneously — not how
  /// many connections may be open, which is limited only by fds.
  unsigned dispatch_threads = 4;

  /// Fault injection for tests: when > 0, each connection is severed
  /// right before it would send its (N+1)-th response frame — a
  /// deterministic mid-batch connection drop. 0 never drops.
  uint64_t drop_connection_after_responses = 0;

  /// Attach each response's 64-bit truncated SHA-256 content hash to its
  /// frame (protocol v2). Clients verify it at decode, so a corrupted
  /// answer can never seed a client-side cache. Each answer is hashed
  /// twice, once here and once by the client: about 18 us per pass for a
  /// 256-tuple, 6-attribute answer with the SHA-extensions compressor and
  /// 160 us with the portable fallback (4-vCPU x86-64 VM, gcc 12 Release).
  bool attach_content_hashes = true;
};

/// One listening endpoint over one CrawlService.
class ServiceEndpoint {
 public:
  /// `service` is borrowed and must outlive the endpoint.
  ServiceEndpoint(CrawlService* service, ServiceEndpointOptions options = {});
  ~ServiceEndpoint();

  ServiceEndpoint(const ServiceEndpoint&) = delete;
  ServiceEndpoint& operator=(const ServiceEndpoint&) = delete;

  /// Binds, listens, and starts the IO loop and dispatch pool. Fails
  /// (typed) when the address is unusable.
  Status Start();

  /// Severs every connection, joins every thread. Idempotent.
  void Stop();

  bool running() const { return running_; }

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return listener_.port(); }

  uint64_t connections_accepted() const { return connections_accepted_; }

 private:
  /// One client connection's full state. Owned by the IO thread; the
  /// output buffer is additionally touched by dispatch workers under
  /// `out_mutex`, and `done` hands a finished request back to the loop.
  struct Connection {
    uint64_t id = 0;
    Socket socket;

    /// Unparsed inbound bytes; frames are assembled from the front.
    std::string inbuf;

    /// Outbound bytes not yet accepted by the kernel. Workers append
    /// under the mutex; only the IO thread consumes.
    Mutex out_mutex;
    std::string outbuf HDC_GUARDED_BY(out_mutex);
    size_t out_flushed HDC_GUARDED_BY(out_mutex) = 0;

    /// Current epoll interest set (EPOLLIN / EPOLLOUT), to skip
    /// redundant epoll_ctl calls.
    uint32_t interest = 0;

    std::unique_ptr<ServerSession> session;
    uint64_t session_budget = 0;  // kUnlimitedQueries when unbudgeted
    uint64_t responses_sent = 0;

    bool saw_hello = false;
    bool is_http = false;
    /// A dispatch job owns this connection's request right now; the IO
    /// thread must not parse further input or destroy the connection.
    /// IO thread only: set before enqueueing, cleared on completion.
    bool busy = false;
    /// The socket died while busy; completion handling reaps the
    /// connection. IO thread only.
    bool defunct = false;
    /// Flush remaining output, then sever. Set on protocol violations,
    /// HTTP responses, and the injected drop fault (a dispatch worker may
    /// set it while the IO thread flushes).
    bool close_after_flush HDC_GUARDED_BY(out_mutex) = false;
  };

  void IoLoop();
  void DispatchLoop();

  /// Accepts until the listener would block.
  void AcceptReady();
  /// Reads available bytes and assembles/handles as many frames (or the
  /// HTTP request) as the buffer now holds. May dispatch at most one
  /// request (busy flag) — remaining input waits.
  void ReadReady(Connection* conn);
  /// Flushes buffered output; re-arms EPOLLOUT iff bytes remain.
  void WriteReady(Connection* conn);
  /// Tries to consume one complete inbound unit (hello frame, request
  /// frame, or HTTP request) from conn->inbuf. Returns false when more
  /// bytes are needed or the connection went busy/dead.
  bool ConsumeInput(Connection* conn);
  /// Executes one decoded request on a dispatch thread: runs the session
  /// call, appends the response frames to the output buffer, marks done.
  void ExecuteRequest(Connection* conn, Frame frame);
  /// Appends bytes to the connection's output buffer (worker- or
  /// IO-thread-side) and ensures the loop will flush them.
  void QueueOutput(Connection* conn, const std::string& bytes);
  /// Applies interest-set changes after buffer state changed.
  void UpdateInterest(Connection* conn);
  /// Unregisters, closes and destroys a connection. IO thread only.
  void DestroyConnection(Connection* conn);

  /// Handles the first frame of a connection (must be a hello): mints the
  /// session, queues the welcome. Returns false to sever.
  bool HandleHello(Connection* conn, const Frame& frame);
  /// Serves the sniffed HTTP request (metrics scrape) and closes.
  void HandleHttp(Connection* conn);

  CrawlService* service_;
  ServiceEndpointOptions options_;
  Listener listener_;
  EventLoop loop_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> connections_accepted_{0};

  std::thread io_thread_;
  std::vector<std::thread> dispatchers_;

  /// Dispatch queue: requests decoded by the IO thread, executed by the
  /// pool.
  Mutex queue_mutex_;
  CondVar queue_cv_;
  std::deque<std::pair<Connection*, Frame>> queue_
      HDC_GUARDED_BY(queue_mutex_);
  bool queue_stopped_ HDC_GUARDED_BY(queue_mutex_) = false;
  /// Connections whose in-flight request finished, awaiting the IO
  /// thread's completion pass.
  std::vector<uint64_t> completed_ HDC_GUARDED_BY(queue_mutex_);

  /// All live connections, keyed by id (the epoll event data). IO thread
  /// only, except sizing under Stop() after threads are joined.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 0;
};

}  // namespace net
}  // namespace hdc
