// Copyright (c) hdc authors. Apache-2.0 license.
#include "server/local_index.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HDC_X86 1
#endif

#include "util/macros.h"
#include "util/worker_pool.h"

namespace hdc {

namespace {

inline int PopCount(uint64_t w) { return __builtin_popcountll(w); }
inline int CountTrailingZeros(uint64_t w) { return __builtin_ctzll(w); }

/// When a numeric range matches fewer ids than 1/8 of the dataset, it is
/// worth materializing it into a driver bitmap from the sorted array
/// instead of testing rows block by block.
constexpr uint64_t kMaterializeDivisor = 8;

/// A range driver is materialized only when it is decisively smaller than
/// the cheapest categorical bitmap; otherwise the bitmaps drive and the
/// range is applied lazily to the (already small) survivor set.
constexpr uint64_t kDriverAdvantage = 4;

/// First index >= `v` in sorted `b[pos..nb)`, found by galloping: double the
/// step until overshooting, then binary-search the last doubling window.
/// O(log(gap)) per call with sequential access — far fewer mispredicted
/// branches than a from-scratch binary search when consecutive probes
/// advance monotonically (which intersection probes do).
inline size_t AdvanceTo(const uint16_t* b, size_t pos, size_t nb,
                        uint16_t v) {
  if (pos >= nb || b[pos] >= v) return pos;
  size_t lo = pos;  // invariant: b[lo] < v
  size_t step = 1;
  size_t hi = pos + step;
  while (hi < nb && b[hi] < v) {
    lo = hi;
    step <<= 1;
    hi = pos + step;
  }
  if (hi > nb) hi = nb;
  return static_cast<size_t>(std::lower_bound(b + lo + 1, b + hi, v) - b);
}

/// Galloping intersection of sorted sets: walks the smaller side (a) and
/// gallops through the larger, so the cost is O(na * log(nb / na)) — the
/// right shape when one side is far rarer than the other. Requires
/// na <= nb.
size_t IntersectGalloping(const uint16_t* a, size_t na, const uint16_t* b,
                          size_t nb, uint16_t* out) {
  size_t j = 0;
  size_t m = 0;
  for (size_t i = 0; i < na; ++i) {
    const uint16_t v = a[i];
    j = AdvanceTo(b, j, nb, v);
    if (j == nb) break;
    if (b[j] == v) {
      out[m++] = v;
      ++j;
    }
  }
  return m;
}

#ifdef HDC_X86
/// SSE4.2 intersection of sorted uint16 sets, 8 elements per side at a
/// time: PCMPISTRM compares every element of one register against every
/// element of the other in a single instruction, and the window with the
/// smaller maximum advances (elements are unique within a side, so a value
/// can match at most once and no duplicates arise). This is the
/// branch-light all-pairs scheme of Schlegel et al. for comparable-size
/// sets; heavily skewed pairs go to the galloping routine instead.
__attribute__((target("sse4.2"))) size_t IntersectSse42(
    const uint16_t* a, size_t na, const uint16_t* b, size_t nb,
    uint16_t* out) {
  size_t i = 0;
  size_t j = 0;
  size_t m = 0;
  // PCMPISTRM reads a zero element as a string terminator, and 0 is a
  // legal low-16 id. The arrays are sorted and duplicate-free, so a zero
  // can only sit at index 0 of either side: peel it scalar and the SIMD
  // windows below are guaranteed terminator-free.
  if (a[0] == 0 || b[0] == 0) {
    if (a[0] == 0 && b[0] == 0) out[m++] = 0;
    i += size_t{a[0] == 0};
    j += size_t{b[0] == 0};
  }
  const size_t na8 = i + ((na - i) & ~size_t{7});
  const size_t nb8 = j + ((nb - j) & ~size_t{7});
  while (i < na8 && j < nb8) {
    // Disjoint windows are the common case under skew: step over them with
    // two cheap scalar compares and save the string compare for windows
    // that can actually share a value.
    if (b[j + 7] < a[i]) {
      j += 8;
      continue;
    }
    if (a[i + 7] < b[j]) {
      i += 8;
      continue;
    }
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    const __m128i hits = _mm_cmpistrm(
        vb, va, _SIDD_UWORD_OPS | _SIDD_CMP_EQUAL_ANY | _SIDD_BIT_MASK);
    int mask = _mm_extract_epi32(hits, 0);
    while (mask != 0) {
      const int bit = __builtin_ctz(static_cast<unsigned>(mask));
      out[m++] = a[i + static_cast<size_t>(bit)];
      mask &= mask - 1;
    }
    // Branchless advance: which side's window moves is data-dependent and
    // would mispredict constantly as a branch.
    const uint16_t a_max = a[i + 7];
    const uint16_t b_max = b[j + 7];
    i += size_t{a_max <= b_max} * 8;
    j += size_t{b_max <= a_max} * 8;
  }
  // Scalar merge over whatever tails remain.
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out[m++] = a[i];
      ++i;
      ++j;
    }
  }
  return m;
}

bool HaveSse42() {
  static const bool have = __builtin_cpu_supports("sse4.2");
  return have;
}
#endif  // HDC_X86

/// Below this size ratio the all-pairs SIMD walk beats galloping; above it
/// the smaller side is rare enough that skipping through the larger side
/// logarithmically wins.
constexpr size_t kGallopSkew = 16;

/// Intersects sorted sets a and b into `out` (capacity >= min(na, nb));
/// returns the result size. Dispatches between the SIMD all-pairs kernel
/// and the galloping walk on size skew (and on what the CPU offers).
size_t IntersectSorted(const uint16_t* a, size_t na, const uint16_t* b,
                       size_t nb, uint16_t* out) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (na == 0) return 0;
#ifdef HDC_X86
  if (nb / na < kGallopSkew && HaveSse42()) {
    // Both sides are about to be streamed end to end and are usually cold
    // (every query lands on different value bitmaps): issue the footprint
    // as prefetches up front so the misses overlap instead of serialising
    // behind the walk.
    for (size_t p = 0; p < nb; p += 32) __builtin_prefetch(b + p);
    for (size_t p = 0; p < na; p += 32) __builtin_prefetch(a + p);
    return IntersectSse42(a, na, b, nb, out);
  }
#endif
  return IntersectGalloping(a, na, b, nb, out);
}

/// A sort key and the row id it belongs to.
struct KeyedId {
  uint64_t key;
  uint32_t id;
};

/// Stable LSD radix sort of `items` by key ascending, 16 bits per pass. A
/// pass whose digit is the same in every key is skipped, so narrow keys
/// (small value spans, id-derived priorities) cost one or two linear
/// passes instead of a comparison sort.
void RadixSortByKey(std::vector<KeyedId>* items) {
  if (items->empty()) return;
  uint64_t varying = 0;
  for (const KeyedId& item : *items) varying |= item.key ^ (*items)[0].key;
  std::vector<KeyedId> out(items->size());
  std::vector<uint32_t> offsets(size_t{1} << 16);
  for (unsigned shift = 0; shift < 64; shift += 16) {
    if (((varying >> shift) & 0xffff) == 0) continue;
    std::fill(offsets.begin(), offsets.end(), 0);
    for (const KeyedId& item : *items) ++offsets[(item.key >> shift) & 0xffff];
    std::exclusive_scan(offsets.begin(), offsets.end(), offsets.begin(),
                        uint32_t{0});
    for (const KeyedId& item : *items) {
      out[offsets[(item.key >> shift) & 0xffff]++] = item;
    }
    items->swap(out);
  }
}

}  // namespace

const char* IndexEngineName(IndexEngine engine) {
  switch (engine) {
    case IndexEngine::kScan:
      return "scan";
    case IndexEngine::kBitmap:
      return "bitmap";
  }
  return "unknown";
}

// --- construction -----------------------------------------------------------

void LocalIndex::Bitmap::Build(const uint32_t* ids, size_t count) {
  cardinality = count;
  if (count == 0) return;
  blocks.resize((ids[count - 1] >> kBlockShift) + 1);
  for (size_t i = 0; i < count; ++i) {
    ++blocks[ids[i] >> kBlockShift].cardinality;
  }
  // Dense blocks flip to a bitset at the cutover, where it becomes both
  // smaller and faster than the sorted array.
  size_t array_total = 0;
  size_t word_total = 0;
  for (Container& c : blocks) {
    if (c.cardinality >= kArrayCutover) {
      c.kind = Container::Kind::kBitset;
      c.offset = static_cast<uint32_t>(word_total);
      word_total += kWordsPerBlock;
    } else if (c.cardinality > 0) {
      c.kind = Container::Kind::kArray;
      c.offset = static_cast<uint32_t>(array_total);
      array_total += c.cardinality;
    }
  }
  arena.resize(array_total);
  words.assign(word_total, 0);
  // Ids ascend, so array payloads fill the arena front to back.
  uint16_t* next = arena.data();
  for (size_t i = 0; i < count; ++i) {
    const Container& c = blocks[ids[i] >> kBlockShift];
    const uint16_t low = static_cast<uint16_t>(ids[i] & (kBlockSize - 1));
    if (c.kind == Container::Kind::kArray) {
      *next++ = low;
    } else {
      words[c.offset + (low >> 6)] |= uint64_t{1} << (low & 63);
    }
  }
}

LocalIndex::LocalIndex(std::shared_ptr<const Dataset> dataset, uint64_t k,
                       std::unique_ptr<RankingPolicy> policy,
                       IndexEngine engine)
    : dataset_(std::move(dataset)), k_(k), engine_(engine) {
  HDC_CHECK(dataset_ != nullptr);
  HDC_CHECK_MSG(k_ >= 1, "the result limit k must be positive");
  HDC_CHECK_MSG(dataset_->size() <= UINT32_MAX, "row ids are 32-bit");

  if (policy == nullptr) policy = MakeRandomPriorityPolicy(0x5eedULL);
  std::vector<uint64_t> priorities = policy->AssignPriorities(*dataset_);
  HDC_CHECK(priorities.size() == dataset_->size());

  // kScan builds no structures: every query walks the tuples and compares
  // priorities.
  if (engine_ == IndexEngine::kScan) {
    priorities_ = std::move(priorities);
  } else {
    BuildBitmapStructures(priorities);
  }
}

void LocalIndex::BuildBitmapStructures(
    const std::vector<uint64_t>& priorities) {
  const Schema& schema = *dataset_->schema();
  const size_t d = schema.num_attributes();
  const size_t n = dataset_->size();
  const uint32_t blocks = num_blocks();

  // Rank order: priority descending, then (the sort being stable over an
  // id-ordered input) dataset id ascending.
  std::vector<KeyedId> keyed(n);
  for (size_t i = 0; i < n; ++i) {
    keyed[i] = {~priorities[i], static_cast<uint32_t>(i)};
  }
  RadixSortByKey(&keyed);
  original_ids_.resize(n);
  for (size_t r = 0; r < n; ++r) original_ids_[r] = keyed[r].id;

  columns_.assign(d, std::vector<Value>(n));
  for (size_t r = 0; r < n; ++r) {
    const Tuple& tuple = dataset_->tuple(original_ids_[r]);
    for (size_t a = 0; a < d; ++a) columns_[a][r] = tuple[a];
  }

  value_bitmaps_.assign(d, {});
  zone_maps_.assign(d, {});
  sorted_ids_.assign(d, {});
  sorted_values_.assign(d, {});
  std::vector<uint32_t> bucketed(n);
  for (size_t a = 0; a < d; ++a) {
    const auto& col = columns_[a];
    if (schema.IsCategorical(a)) {
      // Counting sort of internal ids by value; each bucket stays
      // ascending, ready for Bitmap::Build.
      auto& bitmaps = value_bitmaps_[a];
      bitmaps.resize(schema.domain_size(a) + 1);
      std::vector<size_t> starts(bitmaps.size() + 1, 0);
      for (Value v : col) ++starts[static_cast<size_t>(v) + 1];
      for (size_t v = 1; v < starts.size(); ++v) starts[v] += starts[v - 1];
      std::vector<size_t> cursor(starts.begin(), starts.end() - 1);
      for (size_t r = 0; r < n; ++r) {
        bucketed[cursor[static_cast<size_t>(col[r])]++] =
            static_cast<uint32_t>(r);
      }
      for (size_t v = 0; v < bitmaps.size(); ++v) {
        Bitmap& bm = bitmaps[v];
        bm.Build(bucketed.data() + starts[v], starts[v + 1] - starts[v]);
        for (const Container& c : bm.blocks) {
          if (c.kind == Container::Kind::kArray) {
            ++build_stats_.array_containers;
          } else if (c.kind == Container::Kind::kBitset) {
            ++build_stats_.bitset_containers;
          }
        }
      }
    } else {
      // The value-sorted view doubles as exact range selectivity and as
      // the source for materializing selective range drivers. Flipping
      // the sign bit orders signed values as unsigned keys.
      for (size_t r = 0; r < n; ++r) {
        keyed[r] = {static_cast<uint64_t>(col[r]) ^ (uint64_t{1} << 63),
                    static_cast<uint32_t>(r)};
      }
      RadixSortByKey(&keyed);
      auto& ids = sorted_ids_[a];
      auto& vals = sorted_values_[a];
      ids.resize(n);
      vals.resize(n);
      for (size_t i = 0; i < n; ++i) {
        ids[i] = keyed[i].id;
        vals[i] = col[keyed[i].id];
      }

      ZoneMap& zone = zone_maps_[a];
      zone.min.resize(blocks);
      zone.max.resize(blocks);
      for (uint32_t b = 0; b < blocks; ++b) {
        const size_t base = size_t{b} << kBlockShift;
        const size_t end = base + block_rows(b);
        Value lo = col[base];
        Value hi = col[base];
        for (size_t i = base + 1; i < end; ++i) {
          lo = std::min(lo, col[i]);
          hi = std::max(hi, col[i]);
        }
        zone.min[b] = lo;
        zone.max[b] = hi;
        ++build_stats_.zone_map_blocks;
      }
    }
  }
}

// --- shared helpers ---------------------------------------------------------

bool LocalIndex::IsCrawlable() const {
  return dataset_->MaxPointMultiplicity() <= k_;
}

bool LocalIndex::VerifyRow(const Query& query, uint32_t id,
                           size_t skip_attr) const {
  const size_t d = columns_.size();
  for (size_t a = 0; a < d; ++a) {
    if (a == skip_attr) continue;
    const AttrInterval& ext = query.extent(a);
    const Value v = columns_[a][id];
    if (v < ext.lo || v > ext.hi) return false;
  }
  return true;
}

bool LocalIndex::CoversDomain(const Query& query, size_t a) const {
  const AttributeSpec& spec = dataset_->schema()->attribute(a);
  const AttrInterval& ext = query.extent(a);
  if (spec.is_categorical()) {
    return ext.lo <= 1 && ext.hi >= static_cast<Value>(spec.domain_size);
  }
  return ext.lo <= spec.lo && ext.hi >= spec.hi;
}

std::pair<size_t, size_t> LocalIndex::SortedRange(size_t a, Value lo,
                                                  Value hi) const {
  const auto& vals = sorted_values_[a];
  const size_t begin = static_cast<size_t>(
      std::lower_bound(vals.begin(), vals.end(), lo) - vals.begin());
  const size_t end = static_cast<size_t>(
      std::upper_bound(vals.begin(), vals.end(), hi) - vals.begin());
  return {begin, end};
}

// --- kScan ------------------------------------------------------------------

void LocalIndex::CollectMatchesScan(const Query& query,
                                    std::vector<uint32_t>* out) const {
  const size_t n = dataset_->size();
  for (size_t i = 0; i < n; ++i) {
    if (query.Matches(dataset_->tuple(i))) {
      out->push_back(static_cast<uint32_t>(i));
    }
  }
}

uint64_t LocalIndex::CountMatchesScan(const Query& query) const {
  const size_t n = dataset_->size();
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (query.Matches(dataset_->tuple(i))) ++count;
  }
  return count;
}

// --- kBitmap ----------------------------------------------------------------

bool LocalIndex::PlanPredicates(const Query& query,
                                std::vector<PlannedPredicate>* plan) const {
  const Schema& schema = *dataset_->schema();
  const size_t d = schema.num_attributes();

  plan->clear();
  for (size_t a = 0; a < d; ++a) {
    if (CoversDomain(query, a)) continue;
    const AttrInterval& ext = query.extent(a);
    PlannedPredicate pred;
    if (schema.IsCategorical(a)) {
      // Categorical non-wildcard slots are always pinned (the query model
      // admits no other categorical range).
      pred.kind = PlannedPredicate::Kind::kBitmap;
      pred.bitmap = &value_bitmaps_[a][static_cast<size_t>(ext.lo)];
      pred.count = pred.bitmap->cardinality;
    } else {
      pred.kind = PlannedPredicate::Kind::kRange;
      pred.attr = a;
      pred.lo = ext.lo;
      pred.hi = ext.hi;
      const auto range = SortedRange(a, ext.lo, ext.hi);
      pred.count = range.second - range.first;
    }
    if (pred.count == 0) return false;
    plan->push_back(pred);
  }

  // Cheapest bitmaps first (smallest drives the per-block intersection),
  // ranges last (they strip survivors, so they want a small input).
  std::stable_sort(plan->begin(), plan->end(),
                   [](const PlannedPredicate& x, const PlannedPredicate& y) {
                     const bool xr = x.kind == PlannedPredicate::Kind::kRange;
                     const bool yr = y.kind == PlannedPredicate::Kind::kRange;
                     if (xr != yr) return yr;
                     return x.count < y.count;
                   });
  return true;
}

LocalIndex::ZoneFit LocalIndex::ClassifyZone(const PlannedPredicate& range,
                                             uint32_t block) const {
  const ZoneMap& zone = zone_maps_[range.attr];
  if (zone.min[block] > range.hi || zone.max[block] < range.lo) {
    return ZoneFit::kNone;
  }
  if (zone.min[block] >= range.lo && zone.max[block] <= range.hi) {
    return ZoneFit::kAll;
  }
  return ZoneFit::kPartial;
}

template <typename Visitor>
void LocalIndex::ForEachMatchBitmap(const std::vector<PlannedPredicate>& plan,
                                    const uint64_t* driver_words,
                                    const uint32_t* driver_epochs,
                                    uint32_t epoch, Visitor&& visit) const {
  const uint32_t blocks = num_blocks();

  // Per-block participant slots, refilled each block. Sizes are bounded by
  // the schema's attribute count, which is small; the arrays live on the
  // stack of this one call.
  struct ArrayRef {
    const uint16_t* data;
    uint32_t size;
  };
  std::vector<ArrayRef> arrays;
  std::vector<const uint64_t*> bitsets;
  std::vector<const PlannedPredicate*> partials;
  arrays.reserve(plan.size());
  bitsets.reserve(plan.size() + 1);
  partials.reserve(plan.size());

  for (uint32_t b = 0; b < blocks; ++b) {
    const uint32_t base = b << kBlockShift;
    const uint32_t rows = block_rows(b);

    if (driver_words != nullptr && driver_epochs[b] != epoch) {
      continue;  // the materialized range driver has no id in this block
    }

    arrays.clear();
    bitsets.clear();
    partials.clear();
    if (driver_words != nullptr) {
      bitsets.push_back(driver_words + size_t{b} * kWordsPerBlock);
    }

    bool block_empty = false;
    for (const PlannedPredicate& pred : plan) {
      if (pred.kind == PlannedPredicate::Kind::kBitmap) {
        const Bitmap& bm = *pred.bitmap;
        if (bm.blocks.size() <= b ||
            bm.blocks[b].kind == Container::Kind::kEmpty) {
          block_empty = true;
          break;
        }
        const Container& c = bm.blocks[b];
        if (c.kind == Container::Kind::kArray) {
          arrays.push_back({bm.ArrayAt(c), c.cardinality});
        } else {
          bitsets.push_back(bm.WordsAt(c));
        }
      } else {
        const ZoneFit fit = ClassifyZone(pred, b);
        if (fit == ZoneFit::kNone) {
          block_empty = true;
          break;
        }
        if (fit == ZoneFit::kPartial) partials.push_back(&pred);
        // kAll: the zone proves every row of the block matches — drop the
        // predicate for this block without touching a row.
      }
    }
    if (block_empty) continue;

    auto passes_partials = [&](uint32_t id) {
      for (const PlannedPredicate* p : partials) {
        const Value v = columns_[p->attr][id];
        if (v < p->lo || v > p->hi) return false;
      }
      return true;
    };

    if (!arrays.empty()) {
      // Sparse path: fold the array containers together smallest-first with
      // galloping intersections (linear in the survivor set, logarithmic in
      // the gaps), then membership-test only the survivors against bitsets
      // and boundary ranges. Arrays never exceed the cutover, so two
      // ping-pong stack buffers of that size always suffice.
      std::sort(arrays.begin(), arrays.end(),
                [](const ArrayRef& x, const ArrayRef& y) {
                  return x.size < y.size;
                });
      uint16_t buf[2][kArrayCutover];
      const uint16_t* cur = arrays[0].data;
      size_t cur_n = arrays[0].size;
      for (size_t i = 1; i < arrays.size() && cur_n > 0; ++i) {
        uint16_t* next = buf[i & 1];
        cur_n = IntersectSorted(cur, cur_n, arrays[i].data, arrays[i].size,
                                next);
        cur = next;
      }
      for (size_t s = 0; s < cur_n; ++s) {
        const uint16_t low = cur[s];
        bool pass = true;
        for (size_t i = 0; pass && i < bitsets.size(); ++i) {
          pass = (bitsets[i][low >> 6] >> (low & 63)) & 1;
        }
        const uint32_t id = base + low;
        if (pass && passes_partials(id) && !visit(id)) return;
      }
      continue;
    }

    if (!bitsets.empty()) {
      // Dense path: word-at-a-time AND across every bitset, then ANDNOT
      // away the candidates the boundary-range tests reject. Chunks of
      // words keep the AND vectorized yet let an early stop skip the rest
      // of the block.
      constexpr uint32_t kChunkWords = 64;
      for (uint32_t chunk = 0; chunk < kWordsPerBlock; chunk += kChunkWords) {
        uint64_t words[kChunkWords];
        std::memcpy(words, bitsets[0] + chunk, sizeof(words));
        for (size_t i = 1; i < bitsets.size(); ++i) {
          for (uint32_t w = 0; w < kChunkWords; ++w) {
            words[w] &= bitsets[i][chunk + w];
          }
        }
        for (uint32_t w = 0; w < kChunkWords; ++w) {
          uint64_t m = words[w];
          if (m == 0) continue;
          const uint32_t word_base = base + (chunk + w) * 64;
          if (!partials.empty()) {
            uint64_t reject = 0;
            for (uint64_t rest = m; rest != 0; rest &= rest - 1) {
              const int bit = CountTrailingZeros(rest);
              if (!passes_partials(word_base + bit)) {
                reject |= uint64_t{1} << bit;
              }
            }
            m &= ~reject;
          }
          for (; m != 0; m &= m - 1) {
            if (!visit(word_base + CountTrailingZeros(m))) return;
          }
        }
      }
      continue;
    }

    if (!partials.empty()) {
      // Boundary blocks of a range-only query: scan the block's rows.
      for (uint32_t r = 0; r < rows; ++r) {
        const uint32_t id = base + r;
        if (passes_partials(id) && !visit(id)) return;
      }
      continue;
    }

    // Every predicate covers this whole block: all its rows match.
    for (uint32_t r = 0; r < rows; ++r) {
      if (!visit(base + r)) return;
    }
  }
}

void LocalIndex::AnswerQueryBitmap(const Query& query, Response* response,
                                   EvalScratch* scratch) const {
  const size_t n = dataset_->size();

  std::vector<PlannedPredicate> plan;
  std::vector<uint32_t>& kept = scratch->ids;
  kept.clear();

  const uint64_t* driver_words = nullptr;
  const uint32_t* driver_epochs = nullptr;

  if (PlanPredicates(query, &plan)) {
    // Decide whether a numeric range should drive. The smallest range
    // (exact count via the sorted array) is materialized into a bitmap
    // when it is decisively cheaper than the best categorical bitmap —
    // the classic "huge category, needle range" case, where a blind
    // bitmap intersection would walk the whole category.
    uint64_t best_bitmap = UINT64_MAX;
    size_t best_range_slot = plan.size();
    for (size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].kind == PlannedPredicate::Kind::kBitmap) {
        best_bitmap = std::min(best_bitmap, plan[i].count);
      } else if (best_range_slot == plan.size() ||
                 plan[i].count < plan[best_range_slot].count) {
        best_range_slot = i;  // ranges sorted ascending, but be explicit
      }
    }
    if (best_range_slot < plan.size()) {
      const PlannedPredicate& range = plan[best_range_slot];
      const bool beats_bitmaps = best_bitmap == UINT64_MAX ||
                                 range.count * kDriverAdvantage < best_bitmap;
      if (beats_bitmaps && range.count <= n / kMaterializeDivisor) {
        const size_t words_needed = size_t{num_blocks()} * kWordsPerBlock;
        if (scratch->range_words.size() < words_needed) {
          scratch->range_words.resize(words_needed, 0);
          scratch->block_epoch.assign(num_blocks(), scratch->epoch);
        }
        if (scratch->epoch == UINT32_MAX) {
          // Epoch wrap: age every block out explicitly so a stale entry
          // can never collide with a recycled epoch value.
          std::fill(scratch->block_epoch.begin(), scratch->block_epoch.end(),
                    0);
          scratch->epoch = 0;
        }
        ++scratch->epoch;
        const auto& ids = sorted_ids_[range.attr];
        const auto span = SortedRange(range.attr, range.lo, range.hi);
        for (size_t i = span.first; i < span.second; ++i) {
          const uint32_t id = ids[i];
          const uint32_t block = id >> kBlockShift;
          uint64_t* block_words =
              scratch->range_words.data() + size_t{block} * kWordsPerBlock;
          if (scratch->block_epoch[block] != scratch->epoch) {
            std::memset(block_words, 0, kWordsPerBlock * sizeof(uint64_t));
            scratch->block_epoch[block] = scratch->epoch;
          }
          const uint32_t low = id & (kBlockSize - 1);
          block_words[low >> 6] |= uint64_t{1} << (low & 63);
        }
        driver_words = scratch->range_words.data();
        driver_epochs = scratch->block_epoch.data();
        plan.erase(plan.begin() + best_range_slot);
      }
    }

    // Internal ids ascend in server order: the first k survivors are the
    // answer, and survivor k+1 proves overflow and ends the walk.
    const uint64_t k = k_;
    ForEachMatchBitmap(plan, driver_words, driver_epochs, scratch->epoch,
                       [&kept, k](uint32_t id) {
                         kept.push_back(id);
                         return kept.size() <= k;
                       });
  }

  response->tuples.clear();
  response->overflow = kept.size() > k_;
  if (response->overflow) kept.pop_back();  // survivor k+1
  for (uint32_t& id : kept) id = original_ids_[id];
  // An overflowing answer is already in server order; a resolved bag is
  // returned in dataset-id order.
  if (!response->overflow) std::sort(kept.begin(), kept.end());
  response->tuples.reserve(kept.size());
  for (uint32_t id : kept) {
    response->tuples.push_back(ReturnedTuple{dataset_->tuple(id), id});
  }
}

uint64_t LocalIndex::CountMatchesBitmap(const Query& query) const {
  const size_t n = dataset_->size();

  std::vector<PlannedPredicate> plan;
  if (!PlanPredicates(query, &plan)) return 0;
  if (plan.empty()) return n;

  // If a range is the cheapest constraint, count by walking its sorted
  // slice and verifying rows — no scratch bitmap needed for counting.
  uint64_t best_bitmap = UINT64_MAX;
  size_t best_range_slot = plan.size();
  for (size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].kind == PlannedPredicate::Kind::kBitmap) {
      best_bitmap = std::min(best_bitmap, plan[i].count);
    } else if (best_range_slot == plan.size()) {
      best_range_slot = i;
    }
  }
  if (best_range_slot < plan.size() &&
      plan[best_range_slot].count < best_bitmap) {
    const PlannedPredicate& range = plan[best_range_slot];
    if (plan.size() == 1) return range.count;
    const auto& ids = sorted_ids_[range.attr];
    const auto span = SortedRange(range.attr, range.lo, range.hi);
    uint64_t count = 0;
    for (size_t i = span.first; i < span.second; ++i) {
      if (VerifyRow(query, ids[i], range.attr)) ++count;
    }
    return count;
  }

  uint64_t count = 0;
  ForEachMatchBitmap(plan, nullptr, nullptr, 0, [&count](uint32_t) {
    ++count;
    return true;
  });
  return count;
}

// --- engine dispatch --------------------------------------------------------

uint64_t LocalIndex::CountMatches(const Query& query) const {
  return engine_ == IndexEngine::kScan ? CountMatchesScan(query)
                                       : CountMatchesBitmap(query);
}

void LocalIndex::AnswerQuery(const Query& query, Response* response,
                             EvalScratch* scratch, QueryStats* stats) const {
  HDC_CHECK(response != nullptr);
  HDC_CHECK(scratch != nullptr);
  HDC_CHECK_MSG(query.schema() != nullptr &&
                    query.schema()->CompatibleWith(*dataset_->schema()),
                "query schema does not match the server's data space");
  ++stats->queries;

  if (engine_ == IndexEngine::kBitmap) {
    AnswerQueryBitmap(query, response, scratch);
    if (response->overflow) ++stats->overflows;
    stats->tuples += response->tuples.size();
    return;
  }

  std::vector<uint32_t>& matches = scratch->ids;
  matches.clear();
  CollectMatchesScan(query, &matches);
  response->tuples.clear();

  const size_t count = matches.size();
  response->overflow = count > k_;
  if (response->overflow) {
    ++stats->overflows;
    // Keep the k highest-priority rows (ties by id ascending) — the fixed
    // ranking a real site would apply.
    auto better = [this](uint32_t x, uint32_t y) { return Outranks(x, y); };
    std::nth_element(matches.begin(), matches.begin() + k_, matches.end(),
                     better);
    matches.resize(k_);
    std::sort(matches.begin(), matches.end(), better);
  }

  response->tuples.reserve(matches.size());
  for (uint32_t id : matches) {
    response->tuples.push_back(ReturnedTuple{dataset_->tuple(id), id});
  }
  stats->tuples += response->tuples.size();
}

void EvaluateBatch(const LocalIndex& index, WorkerPool* pool,
                   const std::vector<Query>& queries,
                   std::vector<Response>* responses, QueryStats* stats,
                   EvalScratch* scratch, uint64_t lane) {
  HDC_CHECK(responses != nullptr);
  HDC_CHECK(stats != nullptr);
  const size_t n = queries.size();
  responses->assign(n, Response{});
  if (pool == nullptr || pool->threads() == 0 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      index.AnswerQuery(queries[i], &(*responses)[i], scratch, stats);
      scratch->TrimAfterBatch();
    }
    return;
  }

  // Per-member stat slots keep the workers write-disjoint; the per-thread
  // scratch amortises allocations across members and batches, and is
  // trimmed after every member so one oversized round cannot pin
  // peak-size buffers on a pool thread for the rest of the process.
  std::vector<QueryStats> deltas(n);
  pool->ParallelFor(lane, n, [&](size_t i) {
    static thread_local EvalScratch scratch;
    index.AnswerQuery(queries[i], &(*responses)[i], &scratch, &deltas[i]);
    scratch.TrimAfterBatch();
  });
  for (const QueryStats& delta : deltas) stats->Add(delta);
}

}  // namespace hdc
