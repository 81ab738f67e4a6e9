// Copyright (c) hdc authors. Apache-2.0 license.
#include "core/slice_engine.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "core/checkpoint.h"
#include "core/crawl_context.h"
#include "core/frontier.h"
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
      return;  // entry stays unknown; the work item is re-pushed
  }
  st->NoteSliceSet(cat_pos, v);
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
      st->NoteCursorMoved();
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
      st->NoteCursorMoved();
    }
  }
}

}  // namespace

SliceEngineState::SliceEngineState(SchemaPtr schema, std::string algorithm,
                                   bool eager_mode,
                                   std::vector<size_t> order)
    : CrawlState(std::move(schema), std::move(algorithm),
                 FrontierItem::Kind::kNode),
      root(Query::FullSpace(extracted.schema())),
      cat_order(std::move(order)),
      eager(eager_mode) {
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
  // Pure numeric space: the whole crawl is one rank-shrink instance.
  st->frontier.push_back(FrontierItem{schema->num_categorical() == 0
                                          ? FrontierItem::Kind::kRank
                                          : FrontierItem::Kind::kNode,
                                      st->root, 0});
  return st;
}

namespace {

/// The slice engine's rules (the extended-DFS of Section 3.2), on top of
/// rank-shrink's rule for the rank items. An item needs at most one query
/// per round: a node whose slice is unknown waits on a slice lookup and
/// re-enters the frontier once it is answered. That keeps rounds batchable
/// while the batch == 1 conversation stays exactly the sequential one.
class SliceRules : public RankShrinkRules {
 public:
  SliceRules(CrawlContext* ctx, SliceEngineState* st,
             const RankShrinkOptions& rank)
      : RankShrinkRules(ctx, st, rank), st_(st) {}

  Step Plan(FrontierItem* item) override {
    if (item->kind == FrontierItem::Kind::kRank) return Step::kProbe;
    if (item->level == 0) {
      // The root query is never issued: enumerate its children directly
      // (their slice lookups decide everything the root's status could).
      ExpandNode(*item, st_->cat_order);
      return Step::kDone;
    }

    // The node was created by refining its parent with the slice
    // (cat_order[level-1] = v); that slice decides whether it can be
    // answered locally.
    const auto [pos, v] = SliceOf(*item);
    const SliceEntry& slice = st_->slices[pos][static_cast<size_t>(v)];
    if (slice.state == SliceEntry::State::kUnknown) {
      if (std::find(planned_.begin(), planned_.end(),
                    std::make_pair(pos, v)) != planned_.end()) {
        // A sibling branch in this very round already asks for the same
        // slice: don't spend a duplicate query — park the item until the
        // round is planned; it finds the recorded entry next round.
        parked_.push_back(std::move(*item));
        return Step::kDone;
      }
      planned_.emplace_back(pos, v);
      return Step::kLookup;
    }
    if (slice.state == SliceEntry::State::kResolved) {
      // Local answer: the slice's bag is authoritative for this node's
      // region; filter it by the node query. No server query spent.
      ctx_->CollectFiltered(slice.bag, item->q);
      return Step::kDone;
    }

    // Slice overflowed.
    if (item->level == st_->cat_order.size()) {
      // Every categorical attribute is pinned: hand the numeric subspace
      // to rank-shrink (which will issue this very rectangle as its first
      // query).
      frontier_->push_back(
          FrontierItem{FrontierItem::Kind::kRank, std::move(item->q), 0});
      return Step::kDone;
    }
    if (item->level == 1) {
      // The node query *is* the slice query, which overflowed — expand
      // without spending a query.
      ExpandNode(*item, st_->cat_order);
      return Step::kDone;
    }
    return Step::kProbe;
  }

  Query Lookup(const FrontierItem& item) override {
    const auto [pos, v] = SliceOf(item);
    return MakeSliceQuery(*st_, pos, v);
  }

  void Planned() override {
    // Parked items re-enter the frontier now that the round is fixed (a
    // park implies a same-slice lookup is pending, so the round is never
    // empty because of parking).
    for (size_t j = parked_.size(); j-- > 0;) {
      frontier_->push_back(std::move(parked_[j]));
    }
    parked_.clear();
    planned_.clear();
  }

  bool Answered(FrontierItem item, CrawlContext::Outcome outcome,
                Response* response) override {
    const auto [pos, v] = SliceOf(item);
    RecordSlice(st_, pos, v, outcome, response);
    if (outcome == CrawlContext::Outcome::kOverflow &&
        item.level == st_->cat_order.size() && Lookup(item) == item.q) {
      // The slice query was this very rectangle (one categorical
      // attribute, or a plan root pinning the others): expand its
      // rank-shrink children from the overflowing answer in hand instead of
      // asking it again. The answer is dropped right here, so the table
      // still remembers only a bit.
      item.kind = FrontierItem::Kind::kRank;
      item.level = 0;
      return RankShrinkRules::Expand(item, *response);
    }
    // The node continues against the now-known slice next round.
    frontier_->push_back(std::move(item));
    return true;
  }

  bool Expand(const FrontierItem& item, const Response& response) override {
    if (item.kind == FrontierItem::Kind::kRank) {
      // Numeric sub-problem under a fully-pinned categorical point (or the
      // whole space when there is no categorical attribute).
      return RankShrinkRules::Expand(item, response);
    }
    return ExpandNode(item, st_->cat_order);
  }

 private:
  /// The slice (position in cat_order, value) that refined `node` from its
  /// parent.
  std::pair<size_t, Value> SliceOf(const FrontierItem& node) const {
    const size_t pos = node.level - 1;
    return {pos, node.q.lo(st_->cat_order[pos])};
  }

  SliceEngineState* st_;
  std::vector<std::pair<size_t, Value>> planned_;  // this round's lookups
  std::vector<FrontierItem> parked_;
};

}  // namespace

void SliceEngineRun(CrawlContext* ctx, SliceEngineState* st,
                    const RankShrinkOptions& rank) {
  if (st->eager && !st->preprocessing_done) {
    if (!RunPreprocessing(ctx, st)) return;
  }
  SliceRules rules(ctx, st, rank);
  RunFrontier(ctx, st, &rules);
}

size_t SliceEngineState::AppendFrontier(bool changed_only,
                                        std::string* out) const {
  // Lines 0-2 (root, catorder, eager) never change once the state exists,
  // lines 3-4 (the cursor) change only in preprocessing. The slice table
  // follows in (position, value) order, then the items. `first` stays
  // kNone until the first line that may have changed.
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  size_t first = changed_only ? kNone : 0;
  if (first == 0) {
    *out += "root ";
    AppendQueryTokens(root, out);
    *out += "\ncatorder";
    for (size_t attr : cat_order) {
      *out += ' ';
      AppendDecimal(attr, out);
    }
    *out += eager ? "\neager 1\n" : "\neager 0\n";
  }
  if (first == kNone && cursor_changed_) first = 3;
  if (first != kNone) {
    *out += preprocessing_done ? "predone 1\n" : "predone 0\n";
    *out += "precursor ";
    AppendDecimal(pre_cat_pos, out);
    *out += ' ';
    AppendDecimal(pre_value, out);
    *out += '\n';
  }

  size_t line = 5;
  for (size_t pos = 0; pos < slices.size(); ++pos) {
    for (size_t v = 1; v < slices[pos].size(); ++v) {
      const SliceEntry& entry = slices[pos][v];
      if (entry.state == SliceEntry::State::kUnknown) continue;
      const bool resolved = entry.state == SliceEntry::State::kResolved;
      if (first == kNone && std::make_pair(pos, v) >= slice_floor_) {
        first = line;
      }
      line += resolved ? 1 + entry.bag.size() : 1;
      if (first == kNone) continue;
      *out += "slice ";
      AppendDecimal(pos, out);
      *out += ' ';
      AppendDecimal(v, out);
      if (!resolved) {
        *out += " O\n";
        continue;
      }
      *out += " R ";
      AppendDecimal(entry.bag.size(), out);
      *out += '\n';
      for (const ReturnedTuple& rt : entry.bag) {
        *out += "bag ";
        AppendDecimal(rt.hidden_id, out);
        *out += ' ';
        AppendTupleTokens(rt.tuple, out);
        *out += '\n';
      }
    }
  }

  size_t from_item = 0;
  if (first == kNone) {
    from_item = std::min(item_floor_, frontier.size());
    first = line + from_item;
  }
  AppendItems(from_item, out);
  return first;
}

void SliceEngineState::MarkFrontierCommitted(uint64_t token) const {
  slice_floor_ = {slices.size(), 0};
  cursor_changed_ = false;
  CrawlState::MarkFrontierCommitted(token);
}

Status SliceEngineState::DecodeFrontier(CheckpointReader* in) {
  const SchemaPtr& schema = extracted.schema();
  std::string line;
  std::istringstream tokens;
  // Reads the next line, "<tag> <values>...", leaving the rest in `tokens`.
  auto next = [&](const std::string& tag, auto&... values) {
    Status s = in->Next(&line);
    std::string word;
    if (s.ok()) {
      tokens = std::istringstream(line);
      if (!(tokens >> word) || word != tag || !(tokens >> ... >> values)) {
        s = in->Error("expected " + tag + " line, got: " + line);
      }
    }
    return s;
  };
  HDC_RETURN_IF_ERROR(next("root"));
  if (Status s = DecodeQueryTokens(&tokens, schema, &root); !s.ok()) {
    return in->Error(s.message());
  }
  HDC_RETURN_IF_ERROR(next("catorder"));
  cat_order.clear();
  for (size_t attr; tokens >> attr;) {
    if (attr >= schema->num_attributes() || !schema->IsCategorical(attr)) {
      return in->Error("catorder lists a bad attribute");
    }
    cat_order.push_back(attr);
  }
  if (cat_order.size() != schema->num_categorical()) {
    return in->Error("catorder has wrong arity");
  }
  slices.assign(cat_order.size(), {});
  for (size_t p = 0; p < cat_order.size(); ++p) {
    slices[p].resize(schema->domain_size(cat_order[p]) + 1);
  }
  int eager_flag = 0, done_flag = 0;
  HDC_RETURN_IF_ERROR(next("eager", eager_flag));
  HDC_RETURN_IF_ERROR(next("predone", done_flag));
  HDC_RETURN_IF_ERROR(next("precursor", pre_cat_pos, pre_value));
  if (pre_cat_pos > slices.size()) {
    return in->Error("preprocessing cursor out of range");
  }
  eager = eager_flag != 0;
  preprocessing_done = done_flag != 0;
  return CrawlState::DecodeFrontier(in);
}

Status SliceEngineState::DecodeLine(CheckpointReader* in,
                                    const std::string& line) {
  std::istringstream tokens(line);
  std::string tag;
  if (!(tokens >> tag) || tag != "slice") {
    return CrawlState::DecodeLine(in, line);
  }
  size_t pos = 0, value = 0;
  std::string state_code;
  if (!(tokens >> pos >> value >> state_code) || pos >= slices.size() ||
      value == 0 || value >= slices[pos].size()) {
    return in->Error("malformed slice line: " + line);
  }
  SliceEntry& entry = slices[pos][value];
  if (state_code == "O") {
    entry.state = SliceEntry::State::kOverflow;
    return Status::OK();
  }
  size_t count = 0;
  if (state_code != "R" || !(tokens >> count)) {
    return in->Error("malformed slice line: " + line);
  }
  entry.state = SliceEntry::State::kResolved;
  entry.bag.clear();
  const size_t arity = extracted.schema()->num_attributes();
  std::string bag_line;
  for (size_t i = 0; i < count; ++i) {
    HDC_RETURN_IF_ERROR(in->Next(&bag_line));
    std::istringstream bag_tokens(bag_line);
    std::string bag_tag;
    uint64_t hidden_id = 0;
    if (!(bag_tokens >> bag_tag >> hidden_id) || bag_tag != "bag") {
      return in->Error("malformed bag line: " + bag_line);
    }
    Tuple t;
    Status s = DecodeTupleTokens(&bag_tokens, arity, &t);
    if (!s.ok()) return in->Error(s.message());
    entry.bag.push_back(ReturnedTuple{std::move(t), hidden_id});
  }
  return Status::OK();
}

Status SliceEngineState::CheckItem(const FrontierItem& item) const {
  HDC_RETURN_IF_ERROR(CheckItemLevel(item, cat_order));
  if (item.kind == FrontierItem::Kind::kRank) {
    for (size_t attr : cat_order) {
      if (!item.q.IsPinned(attr)) {
        return Status::InvalidArgument(
            "rank item leaves categorical " +
            extracted.schema()->attribute(attr).name + " free");
      }
    }
  }
  return Status::OK();
}

}  // namespace hdc
