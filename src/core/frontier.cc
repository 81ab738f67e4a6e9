// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/frontier.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "core/checkpoint.h"
#include "core/crawl_plan.h"
#include "util/macros.h"

namespace hdc {
namespace {

const char* KindName(FrontierItem::Kind kind) {
  return kind == FrontierItem::Kind::kNode ? "node" : "rank";
}

}  // namespace

std::shared_ptr<CrawlState> MakeSeededState(const SchemaPtr& schema,
                                            const std::string& algorithm,
                                            FrontierItem::Kind kind,
                                            const CrawlOptions& options) {
  auto state = std::make_shared<CrawlState>(schema, algorithm, kind);
  state->frontier.push_back(FrontierItem{
      kind,
      options.plan != nullptr ? options.plan->root()
                              : Query::FullSpace(schema),
      0});
  return state;
}

void CrawlState::EncodeFrontier(std::ostream* out) const {
  std::string text;
  AppendFrontier(/*changed_only=*/false, &text);
  *out << text;
}

size_t CrawlState::AppendFrontier(bool changed_only, std::string* out) const {
  const size_t first =
      changed_only ? std::min(item_floor_, frontier.size()) : 0;
  AppendItems(first, out);
  return first;
}

void CrawlState::AppendItems(size_t from, std::string* out) const {
  for (size_t i = from; i < frontier.size(); ++i) {
    const FrontierItem& item = frontier[i];
    *out += "item ";
    *out += KindName(item.kind);
    *out += ' ';
    AppendDecimal(item.level, out);
    *out += ' ';
    AppendQueryTokens(item.q, out);
    *out += '\n';
  }
}

void CrawlState::MarkFrontierCommitted(uint64_t token) const {
  frontier_commit_ = token;
  item_floor_ = frontier.size();
}

Status CrawlState::DecodeFrontier(CheckpointReader* in) {
  frontier_commit_ = 0;
  frontier.clear();
  std::string line;
  while (true) {
    HDC_RETURN_IF_ERROR(in->Next(&line));
    if (line == "frontier-end") return Status::OK();
    HDC_RETURN_IF_ERROR(DecodeLine(in, line));
  }
}

Status CrawlState::DecodeLine(CheckpointReader* in,
                              const std::string& line) {
  const SchemaPtr& schema = extracted.schema();
  std::istringstream tokens(line);
  std::string tag, kind;
  uint32_t level = 0;
  if (!(tokens >> tag >> kind >> level) || tag != "item" ||
      (kind != "node" && kind != "rank")) {
    return in->Error("malformed frontier line: " + line);
  }
  Query q = Query::FullSpace(schema);
  if (Status s = DecodeQueryTokens(&tokens, schema, &q); !s.ok()) {
    return in->Error(s.message());
  }
  FrontierItem item{kind == "node" ? FrontierItem::Kind::kNode
                                   : FrontierItem::Kind::kRank,
                    std::move(q), level};
  if (Status s = CheckItem(item); !s.ok()) return in->Error(s.message());
  frontier.push_back(std::move(item));
  return Status::OK();
}

Status CrawlState::CheckItem(const FrontierItem& item) const {
  if (item.kind != kind_) {
    return Status::InvalidArgument(algorithm_ + " uses no " +
                                   KindName(item.kind) + " items");
  }
  return CheckItemLevel(item, extracted.schema()->categorical_indices());
}

Status CheckItemLevel(const FrontierItem& item,
                      const std::vector<size_t>& order) {
  if (item.kind == FrontierItem::Kind::kRank) {
    return item.level == 0
               ? Status::OK()
               : Status::InvalidArgument("rank item with a nonzero level");
  }
  if (item.level > order.size()) {
    return Status::InvalidArgument("node level out of range");
  }
  for (size_t p = 0; p < item.level; ++p) {
    if (!item.q.IsPinned(order[p])) {
      return Status::InvalidArgument(
          "node at level " + std::to_string(item.level) + " leaves " +
          item.q.schema()->attribute(order[p]).name + " free");
    }
  }
  return Status::OK();
}

void RunFrontier(CrawlContext* ctx, CrawlState* state, FrontierRules* rules) {
  std::vector<FrontierItem>& frontier = state->frontier;
  struct Member {
    FrontierItem item;  // a probed item's rectangle rides in `queries`
    bool lookup;
  };
  std::vector<Member> round;
  std::vector<Query> queries;
  std::vector<Response> responses;
  while (!frontier.empty()) {
    // Frontier items cover disjoint regions, so up to `batch` of them ride
    // one server round trip. Items the rules settle without a query do not
    // count against the round.
    const size_t batch = ctx->RoundSize(rules->RoundWidth());
    round.clear();
    queries.clear();
    while (!frontier.empty() && round.size() < batch) {
      FrontierItem item = std::move(frontier.back());
      frontier.pop_back();
      state->NoteFrontierPop();
      switch (rules->Plan(&item)) {
        case FrontierRules::Step::kDone:
          continue;
        case FrontierRules::Step::kProbe:
          queries.push_back(std::move(item.q));
          round.push_back(Member{std::move(item), false});
          continue;
        case FrontierRules::Step::kLookup:
          queries.push_back(rules->Lookup(item));
          round.push_back(Member{std::move(item), true});
          continue;
      }
    }
    rules->Planned();
    if (round.empty()) continue;

    const std::vector<CrawlContext::Outcome> outcomes =
        ctx->IssueBatch(queries, &responses);
    for (size_t i = 0; i < round.size(); ++i) {
      if (!round[i].lookup) round[i].item.q = std::move(queries[i]);
    }
    for (size_t i = 0; i < round.size(); ++i) {
      if (outcomes[i] == CrawlContext::Outcome::kStop) {
        // Unanswered members go back in reverse so the stack order is
        // exactly as if they had never been popped.
        for (size_t j = round.size(); j-- > i;) {
          frontier.push_back(std::move(round[j].item));
        }
        return;
      }
      bool ok = true;
      if (round[i].lookup) {
        ok = rules->Answered(std::move(round[i].item), outcomes[i],
                             &responses[i]);
      } else if (outcomes[i] == CrawlContext::Outcome::kResolved) {
        ctx->CollectResponse(responses[i]);
      } else if (outcomes[i] == CrawlContext::Outcome::kOverflow) {
        ok = rules->Expand(round[i].item, responses[i]);
      }
      if (!ok) return;
    }
  }
}

bool FrontierRules::Unsolvable(const Query& point) {
  ctx_->SetFatal(Status::Unsolvable("point " + point.ToString() +
                                    " holds more than k tuples"));
  return false;
}

bool FrontierRules::ExpandNode(const FrontierItem& node,
                               const std::vector<size_t>& order) {
  if (node.level == order.size()) return Unsolvable(node.q);
  const size_t attr = order[node.level];
  if (node.q.IsPinned(attr)) {
    frontier_->push_back(
        FrontierItem{FrontierItem::Kind::kNode, node.q, node.level + 1});
    return true;
  }
  const Value domain = static_cast<Value>(node.q.schema()->domain_size(attr));
  for (Value c = domain; c >= 1; --c) {
    frontier_->push_back(FrontierItem{FrontierItem::Kind::kNode,
                                      node.q.WithCategoricalEquals(attr, c),
                                      node.level + 1});
  }
  return true;
}

}  // namespace hdc
