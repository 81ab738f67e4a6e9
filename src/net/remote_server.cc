// Copyright (c) hdc authors. Apache-2.0 license.
#include "net/remote_server.h"

#include <utility>

#include "util/macros.h"

namespace hdc {
namespace net {

RemoteServer::RemoteServer(std::string host, uint16_t port,
                           RemoteServerOptions options)
    : host_(std::move(host)),
      port_(port),
      options_(std::move(options)),
      politeness_(options_.politeness) {}

Status RemoteServer::Connect(const std::string& host, uint16_t port,
                             const RemoteServerOptions& options,
                             std::unique_ptr<RemoteServer>* out) {
  // Not make_unique: the constructor is private.
  std::unique_ptr<RemoteServer> server(
      new RemoteServer(host, port, options));
  Status s = server->EnsureConnected();
  if (!s.ok()) return s;
  *out = std::move(server);
  return Status::OK();
}

Status RemoteServer::Drop(const Status& s) {
  socket_.Close();
  if (s.IsUnavailable()) return s;
  return Status::Unavailable(s.ToString());
}

Status RemoteServer::EnsureConnected() {
  if (socket_.valid()) return Status::OK();

  Socket socket;
  Status s = Socket::Connect(host_, port_, &socket);
  if (!s.ok()) return s;

  HelloMessage hello;
  hello.max_queries = options_.max_queries;
  hello.weight = options_.weight;
  hello.max_lane_parallelism = options_.max_lane_parallelism;
  hello.label = options_.label;
  s = SendFrame(&socket, FrameType::kHello, EncodeHello(hello));
  if (!s.ok()) return s;

  Frame frame;
  s = RecvFrame(&socket, &frame);
  if (!s.ok()) return s;
  if (frame.type != FrameType::kWelcome) {
    return Status::Unavailable("handshake: expected welcome frame");
  }
  WelcomeMessage welcome;
  s = DecodeWelcome(frame.payload, &welcome);
  if (!s.ok()) return s;

  SchemaPtr schema = Schema::Make(welcome.attributes);
  if (ever_connected_) {
    // A reconnect must land on the same data space: resuming a crawl
    // against a different schema or k would silently corrupt it.
    if (welcome.k != k_ || !(*schema == *schema_)) {
      return Status::FailedPrecondition(
          "remote service changed k or schema across reconnect");
    }
    ++reconnects_;
  } else {
    k_ = welcome.k;
    schema_ = std::move(schema);
    ever_connected_ = true;
  }
  batch_parallelism_ = welcome.batch_parallelism;
  session_id_ = welcome.session_id;
  db_version_ = welcome.db_version;
  socket_ = std::move(socket);
  return Status::OK();
}

ServerLoadHint RemoteServer::load_hint() const {
  ServerLoadHint hint;
  hint.latency_feedback = true;
  hint.queue_wait_total_seconds = queue_wait_total_seconds_;
  hint.politeness_wait_total_seconds =
      std::chrono::duration<double>(politeness_.total_waited()).count();
  return hint;
}

Status RemoteServer::IssueBatch(const std::vector<Query>& queries,
                                std::vector<Response>* responses) {
  HDC_CHECK(responses != nullptr);
  responses->clear();
  if (queries.empty()) return Status::OK();

  // EnsureConnected never leaves a half-open socket behind; its failure
  // statuses (Unavailable, FailedPrecondition on a changed schema) are
  // returned as-is.
  Status s = EnsureConnected();
  if (!s.ok()) return s;

  politeness_.AwaitRoundStart();

  s = SendFrame(&socket_, FrameType::kIssueBatch,
                EncodeQueryBatch(queries));
  if (!s.ok()) return Drop(s);

  // Stream the answered prefix. Whatever happens to the connection from
  // here on, `responses` keeps every member fully received — the contract
  // a crawl resumes from.
  responses->reserve(queries.size());
  const size_t arity = schema_->num_attributes();
  while (true) {
    Frame frame;
    s = RecvFrame(&socket_, &frame);
    if (!s.ok()) {
      // Dropped mid-batch. A full prefix means every member was in fact
      // answered — only the (implicitly OK) batch-end frame was lost.
      if (responses->size() == queries.size()) {
        socket_.Close();
        return Status::OK();
      }
      return Drop(s);
    }
    if (frame.type == FrameType::kResponse) {
      if (responses->size() == queries.size()) {
        // More answers than questions: protocol violation. Shed one
        // member to keep the prefix-vs-status invariant (it will simply
        // be re-issued).
        responses->pop_back();
        return Drop(Status::Unavailable(
            "protocol violation: more responses than batch members"));
      }
      Response response;
      s = DecodeResponse(frame.payload, arity, &response);
      if (!s.ok()) return Drop(s);
      responses->push_back(std::move(response));
      continue;
    }
    if (frame.type == FrameType::kBatchEnd) {
      BatchEndMessage end;
      s = DecodeBatchEnd(frame.payload, &end);
      if (!s.ok()) return Drop(s);
      queue_wait_total_seconds_ = end.queue_wait_total_seconds;
      db_version_ = end.db_version;
      const bool complete = responses->size() == queries.size();
      if (end.code == Status::Code::kOk) {
        if (!complete) {
          return Drop(Status::Unavailable(
              "protocol violation: OK batch end with partial prefix"));
        }
        return Status::OK();
      }
      if (complete) {
        responses->pop_back();
        return Drop(Status::Unavailable(
            "protocol violation: failed batch end with full prefix"));
      }
      // The server's own verdict (e.g. ResourceExhausted from the session
      // budget): the connection stays healthy.
      return MakeStatus(end.code, std::move(end.message));
    }
    return Drop(Status::Unavailable("protocol violation: unexpected frame "
                                    "inside a batch"));
  }
}

Status RemoteServer::FetchStats(StatsMessage* out) {
  Status s = EnsureConnected();
  if (!s.ok()) return s;
  s = SendFrame(&socket_, FrameType::kStatsRequest, std::string());
  if (!s.ok()) return Drop(s);
  Frame frame;
  s = RecvFrame(&socket_, &frame);
  if (!s.ok()) return Drop(s);
  if (frame.type != FrameType::kStatsReply) {
    return Drop(Status::Unavailable("expected stats reply"));
  }
  s = DecodeStats(frame.payload, out);
  if (!s.ok()) return Drop(s);
  return Status::OK();
}

Status RemoteServer::RefillBudget(uint64_t max_queries) {
  Status s = EnsureConnected();
  if (!s.ok()) return s;
  s = SendFrame(&socket_, FrameType::kRefillBudget,
                EncodeRefill(max_queries));
  if (!s.ok()) return Drop(s);
  Frame frame;
  s = RecvFrame(&socket_, &frame);
  if (!s.ok()) return Drop(s);
  if (frame.type != FrameType::kRefillAck) {
    return Drop(Status::Unavailable("expected refill ack"));
  }
  Status ack;
  s = DecodeAck(frame.payload, &ack);
  if (!s.ok()) return Drop(s);
  return ack;
}

}  // namespace net
}  // namespace hdc
