// Copyright (c) hdc authors. Apache-2.0 license.
//
// RemoteServer — the first out-of-process HiddenDbServer backend. It
// speaks the hdc wire protocol (net/frame.h) to a ServiceEndpoint
// (net/service_endpoint.h) and presents the standard server contract to
// crawlers, so every algorithm, decorator and CrawlContext works against a
// remote database unchanged.
//
//  - *Pipelining.* IssueBatch ships the whole round in one frame and
//    streams the answers back over the same connection: one wire
//    round-trip per round, however many members it carries.
//  - *Typed failure.* Every transport fault — refused or dropped
//    connection, truncated or malformed frame — surfaces as
//    Status::Unavailable with the answered prefix preserved, exactly the
//    IssueBatch partial-failure contract. The crawl framework already
//    treats that as an interruption: the crawler re-pushes unanswered
//    work and stays resumable (or a RetryingServer absorbs it).
//  - *Reconnect & resume.* A failed connection is redialed transparently
//    on the next call; the re-handshake must present the same k and
//    schema (anything else is FailedPrecondition — the remote data
//    changed under the crawl). A reconnect mints a fresh server-side
//    session, so server-side metering restarts; the *crawl* resumes from
//    its own client-side state or checkpoint (core/checkpoint.h).
//  - *Politeness.* An optional PolitenessPolicy paces wire rounds
//    client-side (min inter-round delay + jitter on an injectable Clock);
//    the pacing applies per round, not per member — batching is how a
//    polite crawler still makes progress.
//  - *Latency feedback.* load_hint() reports latency_feedback = true plus
//    the server's piggybacked queue-wait total, which switches adaptive
//    batch sizing (CrawlOptions::batch_size == 0) into its latency-aware
//    mode (core/batch_sizer.h).
//
// Single conversation, like every HiddenDbServer: no concurrent calls on
// one RemoteServer. Distinct RemoteServers (even to one endpoint) are
// independent sessions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "server/politeness.h"
#include "server/server.h"

namespace hdc {
namespace net {

struct RemoteServerOptions {
  /// Server-side session budget this client requests in its handshake
  /// (UINT64_MAX = unlimited, the default).
  uint64_t max_queries = UINT64_MAX;

  /// Requested scheduling lane shape on the remote service (see
  /// SessionOptions in server/crawl_service.h).
  unsigned weight = 1;
  unsigned max_lane_parallelism = 0;

  /// Display label the remote service shows in its metrics.
  std::string label;

  /// Client-side pacing between wire rounds. Defaults pace nothing.
  PolitenessOptions politeness;
};

/// Client half of the remote backend. Create via Connect().
class RemoteServer : public HiddenDbServer {
 public:
  /// Dials host:port and performs the handshake. On success the returned
  /// server is ready to issue queries; its schema()/k() mirror the remote
  /// service.
  static Status Connect(const std::string& host, uint16_t port,
                        const RemoteServerOptions& options,
                        std::unique_ptr<RemoteServer>* out);

  /// One wire round: the batch is pipelined whole, answers stream back in
  /// order. Keeps the prefix contract on every failure mode (see file
  /// header).
  Status IssueBatch(const std::vector<Query>& queries,
                    std::vector<Response>* responses) override;

  uint64_t k() const override { return k_; }
  const SchemaPtr& schema() const override { return schema_; }
  unsigned batch_parallelism() const override { return batch_parallelism_; }
  ServerLoadHint load_hint() const override;

  /// Fetches the server-side session accounting (one extra wire round).
  Status FetchStats(StatsMessage* out);

  /// Refills the server-side session budget (BudgetServer::Refill across
  /// the wire).
  Status RefillBudget(uint64_t max_queries);

  /// Server-side id of the current session (changes on reconnect).
  /// The service's data version as last piggybacked on the welcome or a
  /// batch-end frame — a client-side answer cache's freshness proof, valid
  /// across reconnects (the welcome refreshes it).
  uint64_t db_version() const override { return db_version_; }

  uint64_t session_id() const { return session_id_; }

  /// Successful re-handshakes after the initial connection.
  uint64_t reconnects() const { return reconnects_; }

  /// True when the next call will have to redial first.
  bool disconnected() const { return !socket_.valid(); }

  /// Politeness accounting (rounds paced, total time slept).
  const PolitenessPolicy& politeness() const { return politeness_; }

 private:
  RemoteServer(std::string host, uint16_t port, RemoteServerOptions options);

  /// Dials + handshakes if the connection is down. After the first
  /// handshake, later ones must agree on k and schema.
  Status EnsureConnected();

  /// Marks the connection dead (next call reconnects) and returns
  /// Unavailable built from `s`.
  Status Drop(const Status& s);

  std::string host_;
  uint16_t port_;
  RemoteServerOptions options_;
  PolitenessPolicy politeness_;

  Socket socket_;
  bool ever_connected_ = false;
  uint64_t session_id_ = 0;
  uint64_t db_version_ = 0;
  uint64_t reconnects_ = 0;

  uint64_t k_ = 0;
  unsigned batch_parallelism_ = 1;
  SchemaPtr schema_;

  /// Last queue-wait total piggybacked by the server (see
  /// ServerLoadHint::queue_wait_total_seconds).
  double queue_wait_total_seconds_ = 0;
};

}  // namespace net
}  // namespace hdc
