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

/// True when the slice query (cat_order[cat_pos] = v) is the crawl root
/// itself: a plan root pins that attribute to v.
bool IsRootSlice(const SliceEngineState& st, size_t cat_pos, Value v) {
  const size_t attr = st.cat_order[cat_pos];
  return st.root.IsPinned(attr) && st.root.lo(attr) == v;
}

/// The first attribute of `attrs` that `q` leaves free, or attrs.end().
std::vector<size_t>::const_iterator FirstFree(
    const Query& q, const std::vector<size_t>& attrs) {
  return std::find_if(attrs.begin(), attrs.end(),
                      [&](size_t attr) { return !q.IsPinned(attr); });
}

/// Records an answered slice query (never kStop) into the lookup table. A
/// slice query that is the crawl root itself is the slice query of every
/// position the root pins: its answer is recorded for all of them, so
/// nothing asks the root again.
void RecordSlice(SliceEngineState* st, size_t cat_pos, Value v,
                 CrawlContext::Outcome outcome, Response* response) {
  SliceEntry answer;
  // An overflowing slice: remember nothing but a bit (Section 3.2).
  answer.state = outcome == CrawlContext::Outcome::kOverflow
                     ? SliceEntry::State::kOverflow
                     : SliceEntry::State::kResolved;
  if (outcome == CrawlContext::Outcome::kResolved) {
    answer.bag = std::move(response->tuples);
  }
  const Query& root = st->root;
  const bool is_root = IsRootSlice(*st, cat_pos, v);
  for (size_t p = 0; is_root && p < st->cat_order.size(); ++p) {
    const size_t attr = st->cat_order[p];
    if (p == cat_pos || !root.IsPinned(attr)) continue;
    st->slices[p][static_cast<size_t>(root.lo(attr))] = answer;
    st->NoteSliceSet(p, root.lo(attr));
  }
  st->slices[cat_pos][static_cast<size_t>(v)] = std::move(answer);
  st->NoteSliceSet(cat_pos, v);
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

  size_t RoundWidth() override {
    // The eager pass's lookups are independent of the stack: its rounds
    // fill the server's lanes outright.
    return st_->eager && NextUnasked() ? std::numeric_limits<size_t>::max()
                                       : frontier_->size();
  }

  Step Plan(FrontierItem* item) override {
    if (item->kind == FrontierItem::Kind::kRank) return Step::kProbe;
    if (item->level == 0) {
      if (st_->eager && NextUnasked()) {
        // The eager pass: the root stays at the bottom of the stack and
        // this pop of it asks the next slice.
        frontier_->push_back(*item);
        planned_.push_back(Key({pos_, v_}));
        *item = FrontierItem{FrontierItem::Kind::kSlice,
                             MakeSliceQuery(*st_, pos_, v_++),
                             static_cast<uint32_t>(pos_ + 1)};
        return Step::kLookup;
      }
      if (st_->eager && !planned_.empty()) {
        // Only this round's lookups remain: the root parks, and as the
        // bottom item it ends the round.
        parked_.push_back(std::move(*item));
        return Step::kDone;
      }
      // The root query is never issued: enumerate its children directly
      // (their slice lookups decide everything the root's status could).
      ExpandNode(*item, st_->cat_order);
      return Step::kDone;
    }

    // The node was created by refining its parent with the slice
    // (cat_order[level-1] = v); that slice decides whether it can be
    // answered locally.
    const std::pair<size_t, Value> slice = SliceOf(*item);
    const SliceEntry& entry =
        st_->slices[slice.first][static_cast<size_t>(slice.second)];
    if (entry.state == SliceEntry::State::kUnknown) {
      if (Unasked(slice)) {
        planned_.push_back(Key(slice));
        return Step::kLookup;
      }
      // A sibling branch in this very round already asks for the same
      // slice: don't spend a duplicate query — park the item until the
      // round is planned; it finds the recorded entry next round.
      parked_.push_back(std::move(*item));
      return Step::kDone;
    }
    if (entry.state == SliceEntry::State::kResolved) {
      // Local answer: the slice's bag is authoritative for this node's
      // region; filter it by the node query. No server query spent.
      ctx_->CollectFiltered(entry.bag, item->q);
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
    if (item->level == 1 || item->q == st_->root) {
      // The node query *is* the slice query, which overflowed (at level 1,
      // and along a plan root's pinned attributes) — expand without
      // spending a query.
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
    if (item.kind == FrontierItem::Kind::kSlice) return true;  // eager pass
    if (outcome == CrawlContext::Outcome::kOverflow &&
        FirstFree(item.q, st_->cat_order) == st_->cat_order.end() &&
        Lookup(item) == item.q) {
      // The slice query was this very rectangle and pins every categorical
      // (one categorical attribute, or a plan root pinning the others):
      // expand its rank-shrink children from the overflowing answer in hand
      // instead of asking it again. The answer is dropped right here, so
      // the table still remembers only a bit.
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
  /// parent, or that an eager-pass lookup (its level is the node's) asks.
  std::pair<size_t, Value> SliceOf(const FrontierItem& node) const {
    const size_t pos = node.level - 1;
    return {pos, node.q.lo(st_->cat_order[pos])};
  }

  /// `slice`, or one shared key when its query is the crawl root: all root
  /// slices are one query (RecordSlice records it for each).
  std::pair<size_t, Value> Key(std::pair<size_t, Value> slice) const {
    return IsRootSlice(*st_, slice.first, slice.second)
               ? std::make_pair(st_->cat_order.size(), Value{0})
               : slice;
  }

  /// True when `slice` is unknown and its query is not planned this round.
  bool Unasked(std::pair<size_t, Value> slice) const {
    return st_->slices[slice.first][static_cast<size_t>(slice.second)]
                   .state == SliceEntry::State::kUnknown &&
           std::find(planned_.begin(), planned_.end(), Key(slice)) ==
               planned_.end();
  }

  /// Moves the eager pass's scan (pos_, v_) to the next slice entry that
  /// is unknown and not planned this round; false when none is left. Every
  /// entry the scan has passed is known once its round is answered, and a
  /// stopped round ends the run, so the scan never moves back.
  bool NextUnasked() {
    for (; pos_ < st_->slices.size(); ++pos_, v_ = 1) {
      for (; v_ < static_cast<Value>(st_->slices[pos_].size()); ++v_) {
        if (Unasked({pos_, v_})) return true;
      }
    }
    return false;
  }

  SliceEngineState* st_;
  std::vector<std::pair<size_t, Value>> planned_;  // this round's lookups
  std::vector<FrontierItem> parked_;
  size_t pos_ = 0;  // the eager pass's scan
  Value v_ = 1;
};

}  // namespace

void SliceEngineRun(CrawlContext* ctx, SliceEngineState* st,
                    const RankShrinkOptions& rank) {
  SliceRules rules(ctx, st, rank);
  RunFrontier(ctx, st, &rules);
  // A stop's unanswered eager lookups are the first unknown entries in
  // table order: the next run's scan plans them again.
  while (!st->frontier.empty() &&
         st->frontier.back().kind == FrontierItem::Kind::kSlice) {
    st->frontier.pop_back();
  }
}

size_t SliceEngineState::AppendFrontier(bool changed_only,
                                        std::string* out) const {
  // Lines 0-2 (root, catorder, eager) never change once the state exists.
  // The slice table follows in (position, value) order, then the items.
  // `first` stays kNone until the first line that may have changed.
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

  size_t line = 3;
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
  int eager_flag = 0;
  HDC_RETURN_IF_ERROR(next("eager", eager_flag));
  eager = eager_flag != 0;
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
  const auto free = FirstFree(item.q, cat_order);
  if (item.kind == FrontierItem::Kind::kRank && free != cat_order.end()) {
    return Status::InvalidArgument("rank item leaves categorical " +
                                   extracted.schema()->attribute(*free).name +
                                   " free");
  }
  return Status::OK();
}

}  // namespace hdc
