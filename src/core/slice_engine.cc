// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/slice_engine.h"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>

#include "core/checkpoint.h"

#include "core/crawl_context.h"
#include "util/macros.h"

namespace hdc {
namespace {

/// The slice query pinning attribute cat_order[cat_pos] to value v, scoped
/// to the crawl's root rectangle (the full space unless a plan pushed a
/// sub-rectangle down).
Query MakeSliceQuery(const SliceEngineState& st, size_t cat_pos, Value v) {
  return st.root.WithCategoricalEquals(st.cat_order[cat_pos], v);
}

/// Records an answered slice query into the lookup table.
void RecordSlice(SliceEngineState* st, size_t cat_pos, Value v,
                 CrawlContext::Outcome outcome, Response* response) {
  SliceEntry& entry = st->slices[cat_pos][static_cast<size_t>(v)];
  switch (outcome) {
    case CrawlContext::Outcome::kPrunedEmpty:
      entry.state = SliceEntry::State::kResolved;
      break;
    case CrawlContext::Outcome::kResolved:
      entry.state = SliceEntry::State::kResolved;
      entry.bag = std::move(response->tuples);
      break;
    case CrawlContext::Outcome::kOverflow:
      // Remember nothing but a bit (Section 3.2).
      entry.state = SliceEntry::State::kOverflow;
      break;
    case CrawlContext::Outcome::kStop:
      break;  // entry stays unknown; the work item is re-pushed
  }
}

/// Eager preprocessing: issue every slice query of every categorical
/// attribute, up to `batch` per server round trip. Returns false when
/// interrupted (the cursor stays at the first unanswered slice).
bool RunPreprocessing(CrawlContext* ctx, SliceEngineState* st) {
  const SchemaPtr& schema = st->extracted.schema();
  const auto& cat = st->cat_order;
  struct PlannedSlice {
    size_t pos;
    Value value;
  };
  std::vector<PlannedSlice> planned;
  std::vector<Query> queries;
  std::vector<Response> responses;
  while (true) {
    // Walk the cursor forward, collecting up to `batch` unknown slices
    // (already-known entries — e.g. restored from a checkpoint — cost
    // nothing, exactly as in the sequential conversation). Preprocessing
    // has no frontier; auto sizing fills the server's lanes outright.
    const size_t batch =
        ctx->RoundSize(std::numeric_limits<size_t>::max());
    planned.clear();
    queries.clear();
    size_t pos = st->pre_cat_pos;
    Value v = st->pre_value;
    while (pos < cat.size() && planned.size() < batch) {
      const Value domain = static_cast<Value>(schema->domain_size(cat[pos]));
      if (v > domain) {
        ++pos;
        v = 1;
        continue;
      }
      if (st->slices[pos][static_cast<size_t>(v)].state ==
          SliceEntry::State::kUnknown) {
        planned.push_back(PlannedSlice{pos, v});
        queries.push_back(MakeSliceQuery(*st, pos, v));
      }
      ++v;
    }
    if (planned.empty()) {
      st->pre_cat_pos = cat.size();
      st->pre_value = 1;
      st->preprocessing_done = true;
      return true;
    }

    const std::vector<CrawlContext::Outcome> outcomes =
        ctx->IssueBatch(queries, &responses);
    for (size_t i = 0; i < planned.size(); ++i) {
      if (outcomes[i] == CrawlContext::Outcome::kStop) return false;
      RecordSlice(st, planned[i].pos, planned[i].value, outcomes[i],
                  &responses[i]);
      // Advance the resume cursor past the answered slice.
      st->pre_cat_pos = planned[i].pos;
      st->pre_value = planned[i].value + 1;
    }
  }
}

}  // namespace

SliceEngineState::SliceEngineState(SchemaPtr schema, std::string algorithm,
                                   bool eager_mode,
                                   std::vector<size_t> order)
    : CrawlState(std::move(schema)),
      root(Query::FullSpace(extracted.schema())),
      cat_order(std::move(order)),
      eager(eager_mode),
      algorithm_(std::move(algorithm)) {
  const SchemaPtr& s = extracted.schema();
  if (cat_order.empty()) cat_order = s->categorical_indices();
  HDC_CHECK(cat_order.size() == s->num_categorical());
  slices.resize(cat_order.size());
  for (size_t p = 0; p < cat_order.size(); ++p) {
    HDC_CHECK(s->IsCategorical(cat_order[p]));
    slices[p].resize(s->domain_size(cat_order[p]) + 1);
  }
  preprocessing_done = !eager;
}

std::vector<size_t> ResolveCategoricalOrder(const Schema& schema,
                                            CategoricalOrder order) {
  std::vector<size_t> cat = schema.categorical_indices();
  if (order == CategoricalOrder::kSchemaOrder) return cat;
  std::stable_sort(cat.begin(), cat.end(), [&](size_t a, size_t b) {
    return order == CategoricalOrder::kNarrowestFirst
               ? schema.domain_size(a) < schema.domain_size(b)
               : schema.domain_size(a) > schema.domain_size(b);
  });
  return cat;
}

std::shared_ptr<SliceEngineState> MakeSliceEngineState(
    const SchemaPtr& schema, const std::string& algorithm, bool eager,
    CategoricalOrder order, const Query* root) {
  auto st = std::make_shared<SliceEngineState>(
      schema, algorithm, eager, ResolveCategoricalOrder(*schema, order));
  if (root != nullptr) st->root = *root;
  Query seed = st->root;
  if (schema->num_categorical() == 0) {
    // Pure numeric space: the whole crawl is one rank-shrink instance.
    st->frontier.push_back(SliceEngineState::Item{
        SliceEngineState::Item::Kind::kRank, std::move(seed), 0});
  } else {
    st->frontier.push_back(SliceEngineState::Item{
        SliceEngineState::Item::Kind::kNode, std::move(seed), 0});
  }
  return st;
}

void SliceEngineRun(CrawlContext* ctx, SliceEngineState* st,
                    const SliceEngineOptions& options) {
  const SchemaPtr& schema = st->extracted.schema();
  const auto& cat = st->cat_order;
  const uint32_t cat_count = static_cast<uint32_t>(cat.size());

  if (st->eager && !st->preprocessing_done) {
    if (!RunPreprocessing(ctx, st)) return;
  }

  // Every frontier step needs at most one query; a node whose slice lookup
  // was just issued re-enters the frontier and continues next round. That
  // keeps rounds batchable while the batch == 1 conversation stays exactly
  // the sequential one.
  struct Pending {
    enum class Kind : uint8_t { kSliceLookup, kNodeProbe, kRankProbe };
    SliceEngineState::Item item;
    Kind kind;
    size_t slice_pos = 0;  // kSliceLookup only
    Value slice_value = 0;
  };

  // Expands `item` (a node whose region overflowed) one categorical level.
  auto expand_node = [&](const SliceEngineState::Item& item) {
    const size_t next_attr = cat[item.level];
    if (item.q.IsPinned(next_attr)) {
      // The crawl root (a plan's pushdown rectangle) pre-pins this
      // attribute: the node already covers exactly one value, descend
      // without fanning out.
      st->frontier.push_back(SliceEngineState::Item{
          SliceEngineState::Item::Kind::kNode, item.q, item.level + 1});
      return;
    }
    const Value domain = static_cast<Value>(schema->domain_size(next_attr));
    for (Value c = domain; c >= 1; --c) {
      st->frontier.push_back(SliceEngineState::Item{
          SliceEngineState::Item::Kind::kNode,
          item.q.WithCategoricalEquals(next_attr, c), item.level + 1});
    }
  };

  std::vector<Pending> pendings;
  std::vector<SliceEngineState::Item> parked;
  std::vector<Query> queries;
  std::vector<Response> responses;
  while (!st->frontier.empty()) {
    // --- Plan a round: pop items, act on the query-free ones immediately,
    // gather up to `batch` single-query steps. -------------------------
    const size_t batch = ctx->RoundSize(st->frontier.size());
    pendings.clear();
    parked.clear();
    while (!st->frontier.empty() && pendings.size() < batch) {
      SliceEngineState::Item item = std::move(st->frontier.back());
      st->frontier.pop_back();

      if (item.kind == SliceEngineState::Item::Kind::kRank) {
        pendings.push_back(
            Pending{std::move(item), Pending::Kind::kRankProbe, 0, 0});
        continue;
      }

      const uint32_t level = item.level;
      if (level == 0) {
        // The root query is never issued: enumerate its children directly
        // (their slice lookups decide everything the root's status could).
        expand_node(item);
        continue;
      }

      // The node was created by refining its parent with the slice
      // (cat[level-1] = v); that slice decides whether it can be answered
      // locally.
      const size_t pos = level - 1;
      const Value v = item.q.lo(cat[pos]);
      const SliceEntry& slice = st->slices[pos][static_cast<size_t>(v)];
      if (slice.state == SliceEntry::State::kUnknown) {
        const bool already_planned =
            std::any_of(pendings.begin(), pendings.end(),
                        [&](const Pending& p) {
                          return p.kind == Pending::Kind::kSliceLookup &&
                                 p.slice_pos == pos && p.slice_value == v;
                        });
        if (already_planned) {
          // A sibling branch in this very round already asks for the same
          // slice: don't spend a duplicate query — park the item until the
          // round is planned; it finds the recorded entry next round.
          parked.push_back(std::move(item));
          continue;
        }
        pendings.push_back(
            Pending{std::move(item), Pending::Kind::kSliceLookup, pos, v});
        continue;
      }
      if (slice.state == SliceEntry::State::kResolved) {
        // Local answer: the slice's bag is authoritative for this node's
        // region; filter it by the node query. No server query spent.
        ctx->CollectFiltered(slice.bag, item.q);
        continue;
      }

      // Slice overflowed.
      if (level == cat_count) {
        // Every categorical attribute is pinned: hand the numeric subspace
        // to rank-shrink (which will issue this very rectangle as its first
        // query).
        st->frontier.push_back(SliceEngineState::Item{
            SliceEngineState::Item::Kind::kRank, std::move(item.q), 0});
        continue;
      }
      if (level == 1) {
        // The node query *is* the slice query, which overflowed — expand
        // without spending a query.
        expand_node(item);
        continue;
      }
      pendings.push_back(
          Pending{std::move(item), Pending::Kind::kNodeProbe, 0, 0});
    }
    // Parked items re-enter the frontier now that the round is fixed (a
    // park implies a same-slice lookup is pending, so the round is never
    // empty because of parking).
    for (size_t j = parked.size(); j-- > 0;) {
      st->frontier.push_back(std::move(parked[j]));
    }
    if (pendings.empty()) continue;

    // --- Issue the round as one batch. --------------------------------
    queries.clear();
    queries.reserve(pendings.size());
    for (const Pending& p : pendings) {
      queries.push_back(p.kind == Pending::Kind::kSliceLookup
                            ? MakeSliceQuery(*st, p.slice_pos, p.slice_value)
                            : p.item.q);
    }
    const std::vector<CrawlContext::Outcome> outcomes =
        ctx->IssueBatch(queries, &responses);

    // --- Apply responses in issue order. ------------------------------
    for (size_t i = 0; i < pendings.size(); ++i) {
      Pending& p = pendings[i];
      if (outcomes[i] == CrawlContext::Outcome::kStop) {
        // Unanswered members go back in reverse so the stack order is as
        // if they had never been popped.
        for (size_t j = pendings.size(); j-- > i;) {
          st->frontier.push_back(std::move(pendings[j].item));
        }
        return;
      }

      switch (p.kind) {
        case Pending::Kind::kSliceLookup:
          RecordSlice(st, p.slice_pos, p.slice_value, outcomes[i],
                      &responses[i]);
          // The node continues against the now-known slice next round.
          st->frontier.push_back(std::move(p.item));
          break;

        case Pending::Kind::kNodeProbe:
          switch (outcomes[i]) {
            case CrawlContext::Outcome::kPrunedEmpty:
              break;
            case CrawlContext::Outcome::kResolved:
              ctx->CollectResponse(responses[i]);
              break;
            case CrawlContext::Outcome::kOverflow:
              expand_node(p.item);
              break;
            case CrawlContext::Outcome::kStop:
              break;  // handled above
          }
          break;

        case Pending::Kind::kRankProbe: {
          // Numeric sub-problem under a fully-pinned categorical point (or
          // the whole space when cat_count == 0). With no numeric
          // attributes the rectangle is a point: resolved collects it,
          // overflow is fatal.
          if (outcomes[i] == CrawlContext::Outcome::kPrunedEmpty) break;
          if (outcomes[i] == CrawlContext::Outcome::kResolved) {
            ctx->CollectResponse(responses[i]);
            break;
          }
          auto attr =
              ChooseSplitAttribute(p.item.q, responses[i].tuples,
                                   options.rank);
          if (!attr.has_value()) {
            HDC_CHECK_MSG(
                p.item.q.IsPoint(),
                "free categorical attribute at the rank-shrink phase");
            ctx->SetFatal(Status::Unsolvable("point " + p.item.q.ToString() +
                                             " holds more than k tuples"));
            return;
          }
          std::vector<Query> expanded;
          RankShrinkExpand(p.item.q, *attr, responses[i].tuples, ctx->k(),
                           options.rank, &expanded);
          for (auto& q : expanded) {
            st->frontier.push_back(SliceEngineState::Item{
                SliceEngineState::Item::Kind::kRank, std::move(q), 0});
          }
          break;
        }
      }
    }
  }
}


void SliceEngineState::EncodeFrontier(std::ostream* out) const {
  *out << "root ";
  EncodeQueryTokens(root, out);
  *out << '\n';
  *out << "catorder";
  for (size_t attr : cat_order) *out << ' ' << attr;
  *out << '\n';
  *out << "eager " << (eager ? 1 : 0) << '\n';
  *out << "predone " << (preprocessing_done ? 1 : 0) << '\n';
  *out << "precursor " << pre_cat_pos << ' ' << pre_value << '\n';

  for (size_t pos = 0; pos < slices.size(); ++pos) {
    for (size_t v = 1; v < slices[pos].size(); ++v) {
      const SliceEntry& entry = slices[pos][v];
      if (entry.state == SliceEntry::State::kUnknown) continue;
      if (entry.state == SliceEntry::State::kOverflow) {
        *out << "slice " << pos << ' ' << v << " O\n";
      } else {
        *out << "slice " << pos << ' ' << v << " R " << entry.bag.size()
             << '\n';
        for (const ReturnedTuple& rt : entry.bag) {
          *out << "bag " << rt.hidden_id << ' ';
          EncodeTupleTokens(rt.tuple, out);
          *out << '\n';
        }
      }
    }
  }

  for (const Item& item : frontier) {
    *out << "item "
         << (item.kind == Item::Kind::kNode ? "node" : "rank") << ' '
         << item.level << ' ';
    EncodeQueryTokens(item.q, out);
    *out << '\n';
  }
}

Status SliceEngineState::DecodeFrontier(CheckpointReader* in) {
  const SchemaPtr& schema = extracted.schema();
  const size_t arity = schema->num_attributes();
  frontier.clear();

  std::string line, tag;
  HDC_RETURN_IF_ERROR(in->Next(&line));
  {
    std::string rest;
    if (Status s = ExpectTagged(line, "root", &rest); !s.ok()) {
      return in->Error(s.message());
    }
    std::istringstream tokens(rest);
    if (Status s = DecodeQueryTokens(&tokens, schema, &root); !s.ok()) {
      return in->Error(s.message());
    }
  }
  HDC_RETURN_IF_ERROR(in->Next(&line));
  {
    std::istringstream tokens(line);
    if (!(tokens >> tag) || tag != "catorder") {
      return in->Error("expected catorder line, got: " + line);
    }
    std::vector<size_t> order;
    size_t attr;
    while (tokens >> attr) order.push_back(attr);
    if (order.size() != schema->num_categorical()) {
      return in->Error("catorder has wrong arity");
    }
    for (size_t a : order) {
      if (a >= schema->num_attributes() || !schema->IsCategorical(a)) {
        return in->Error("catorder lists a bad attribute");
      }
    }
    cat_order = std::move(order);
    slices.assign(cat_order.size(), {});
    for (size_t p = 0; p < cat_order.size(); ++p) {
      slices[p].resize(schema->domain_size(cat_order[p]) + 1);
    }
  }
  HDC_RETURN_IF_ERROR(in->Next(&line));
  {
    std::istringstream tokens(line);
    int flag = 0;
    if (!(tokens >> tag >> flag) || tag != "eager") {
      return in->Error("expected eager line, got: " + line);
    }
    eager = flag != 0;
  }
  HDC_RETURN_IF_ERROR(in->Next(&line));
  {
    std::istringstream tokens(line);
    int flag = 0;
    if (!(tokens >> tag >> flag) || tag != "predone") {
      return in->Error("expected predone line, got: " + line);
    }
    preprocessing_done = flag != 0;
  }
  HDC_RETURN_IF_ERROR(in->Next(&line));
  {
    std::istringstream tokens(line);
    if (!(tokens >> tag >> pre_cat_pos >> pre_value) || tag != "precursor") {
      return in->Error("expected precursor line, got: " + line);
    }
    if (pre_cat_pos > slices.size()) {
      return in->Error("preprocessing cursor out of range");
    }
  }

  while (true) {
    HDC_RETURN_IF_ERROR(in->Next(&line));
    if (line == "frontier-end") return Status::OK();
    std::istringstream tokens(line);
    if (!(tokens >> tag)) {
      return in->Error("malformed slice-state line: " + line);
    }
    if (tag == "slice") {
      size_t pos = 0, value = 0;
      std::string state_code;
      if (!(tokens >> pos >> value >> state_code) || pos >= slices.size() ||
          value == 0 || value >= slices[pos].size()) {
        return in->Error("malformed slice line: " + line);
      }
      SliceEntry& entry = slices[pos][value];
      if (state_code == "O") {
        entry.state = SliceEntry::State::kOverflow;
      } else if (state_code == "R") {
        size_t count = 0;
        if (!(tokens >> count)) {
          return in->Error("malformed slice line: " + line);
        }
        entry.state = SliceEntry::State::kResolved;
        entry.bag.clear();
        for (size_t i = 0; i < count; ++i) {
          HDC_RETURN_IF_ERROR(in->Next(&line));
          std::istringstream bag_tokens(line);
          std::string bag_tag;
          uint64_t hidden_id = 0;
          if (!(bag_tokens >> bag_tag >> hidden_id) || bag_tag != "bag") {
            return in->Error("malformed bag line: " + line);
          }
          Tuple t;
          Status s = DecodeTupleTokens(&bag_tokens, arity, &t);
          if (!s.ok()) return in->Error(s.message());
          entry.bag.push_back(ReturnedTuple{std::move(t), hidden_id});
        }
      } else {
        return in->Error("unknown slice state: " + line);
      }
    } else if (tag == "item") {
      std::string kind;
      uint32_t level = 0;
      if (!(tokens >> kind >> level)) {
        return in->Error("malformed item line: " + line);
      }
      Query q = Query::FullSpace(schema);
      Status s = DecodeQueryTokens(&tokens, schema, &q);
      if (!s.ok()) return in->Error(s.message());
      if (kind != "node" && kind != "rank") {
        return in->Error("unknown item kind: " + line);
      }
      Item item{kind == "node" ? Item::Kind::kNode : Item::Kind::kRank,
                std::move(q), level};
      if (item.kind == Item::Kind::kNode &&
          level > schema->num_categorical()) {
        return in->Error("item level out of range");
      }
      frontier.push_back(std::move(item));
    } else {
      return in->Error("unknown slice-state line: " + line);
    }
  }
}

}  // namespace hdc
