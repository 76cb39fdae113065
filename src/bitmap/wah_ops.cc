#include "bitmap/wah_ops.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "bitmap/popcount.h"

namespace cods {

namespace {

enum class OpKind { kAnd, kOr, kXor, kAndNot };

inline uint64_t ApplyOp(OpKind op, uint64_t x, uint64_t y) {
  switch (op) {
    case OpKind::kAnd:
      return x & y;
    case OpKind::kOr:
      return x | y;
    case OpKind::kXor:
      return x ^ y;
    case OpKind::kAndNot:
      return x & ~y;
  }
  return 0;
}

// Consumes `groups` groups from `dec`, crossing run boundaries as needed.
void ConsumeAcross(WahDecoder& dec, uint64_t groups) {
  while (groups > 0) {
    CODS_DCHECK(!dec.exhausted());
    uint64_t take = dec.remaining_groups();
    if (take > groups) take = groups;
    dec.Consume(take);
    groups -= take;
  }
}

// Shared driver for the binary operations. `emit` is called with either
// (fill_value, group_count) runs or literal payloads; this keeps the
// fill-skipping logic in one place. We instantiate it twice: once
// building an output bitmap, once only counting.
template <typename FillSink, typename LiteralSink>
void RunBinaryOp(const WahBitmap& a, const WahBitmap& b, OpKind op,
                 FillSink&& emit_fill, LiteralSink&& emit_literal) {
  CODS_CHECK(a.size() == b.size())
      << "WAH binary op on different sizes: " << a.size() << " vs "
      << b.size();
  uint64_t bits_left = a.size();
  WahDecoder da(a);
  WahDecoder db(b);
  while (bits_left > 0) {
    CODS_DCHECK(!da.exhausted() && !db.exhausted());
    // Fast paths: a zero fill annihilates AND/ANDNOT; a one fill
    // saturates OR. These skip whole runs of the other operand.
    if (da.is_fill() || db.is_fill()) {
      bool a_is_zero_fill = da.is_fill() && !da.fill_value();
      bool b_is_zero_fill = db.is_fill() && !db.fill_value();
      bool a_is_one_fill = da.is_fill() && da.fill_value();
      bool b_is_one_fill = db.is_fill() && db.fill_value();
      uint64_t skip = 0;
      bool out_value = false;
      bool take_from_a = false;
      if ((op == OpKind::kAnd || op == OpKind::kAndNot) && a_is_zero_fill) {
        skip = da.remaining_groups();
        out_value = false;
        take_from_a = true;
      } else if (op == OpKind::kAnd && b_is_zero_fill) {
        skip = db.remaining_groups();
        out_value = false;
        take_from_a = false;
      } else if (op == OpKind::kAndNot && b_is_one_fill) {
        skip = db.remaining_groups();
        out_value = false;
        take_from_a = false;
      } else if (op == OpKind::kOr && a_is_one_fill) {
        skip = da.remaining_groups();
        out_value = true;
        take_from_a = true;
      } else if (op == OpKind::kOr && b_is_one_fill) {
        skip = db.remaining_groups();
        out_value = true;
        take_from_a = false;
      }
      if (skip > 0) {
        emit_fill(out_value, skip);
        if (take_from_a) {
          da.Consume(skip);
          ConsumeAcross(db, skip);
        } else {
          db.Consume(skip);
          ConsumeAcross(da, skip);
        }
        bits_left -= skip * kWahGroupBits;
        continue;
      }
    }
    if (da.is_fill() && db.is_fill()) {
      uint64_t groups = da.remaining_groups() < db.remaining_groups()
                            ? da.remaining_groups()
                            : db.remaining_groups();
      bool value = ApplyOp(op, da.fill_value() ? 1 : 0,
                           db.fill_value() ? 1 : 0) != 0;
      emit_fill(value, groups);
      da.Consume(groups);
      db.Consume(groups);
      bits_left -= groups * kWahGroupBits;
      continue;
    }
    uint64_t payload = ApplyOp(op, da.group_payload(), db.group_payload()) &
                       wah::kPayloadMask;
    uint64_t bits = bits_left < kWahGroupBits ? bits_left : kWahGroupBits;
    emit_literal(payload, bits);
    da.Consume(1);
    db.Consume(1);
    bits_left -= bits;
  }
}

WahBitmap BinaryOp(const WahBitmap& a, const WahBitmap& b, OpKind op) {
  WahBitmap out;
  RunBinaryOp(
      a, b, op,
      [&](bool value, uint64_t groups) {
        out.AppendRun(value, groups * kWahGroupBits);
      },
      [&](uint64_t payload, uint64_t bits) { out.AppendBits(payload, bits); });
  return out;
}

// Shared driver for the k-way operations; `op` must be kAnd or kOr.
// Emits (fill value, group count) runs or combined literal payloads,
// exactly like RunBinaryOp but for arbitrary k.
//
// Event-driven merge: instead of touching all k decoders per 63-bit
// group (O(k) even when k-1 operands sit in megabit identity fills),
// each operand lives in exactly one of two places:
//
//   * `active` — its current run is a literal group, so it must be
//     combined into every output group until the run ends;
//   * the min-heap — it is parked inside a fill, keyed by the absolute
//     group index where that fill ends. Identity fills contribute
//     nothing until they end; annihilating fills trigger a galloping
//     skip to their end the moment they are classified.
//
// The literal step therefore costs O(|active|), and an operand's decoder
// is only advanced when the cursor actually reaches the end of its
// current run (O(log k) heap work per run). This is what keeps the
// k-way kernel ahead of the pairwise fold for very wide unions (k ≳ 64)
// with literal-heavy operands. Callers handle k == 0 and k == 1.
template <typename FillSink, typename LiteralSink>
void RunManyOp(const std::vector<const WahBitmap*>& operands, OpKind op,
               uint64_t size, FillSink&& emit_fill,
               LiteralSink&& emit_literal) {
  const bool is_or = op == OpKind::kOr;
  // The fill value that determines the output regardless of the other
  // operands (OR: ones; AND: zeros). Identity fills are its complement.
  const bool annihilator = is_or;
  const uint32_t k = static_cast<uint32_t>(operands.size());
  // Minimum fill length (in groups) worth parking in the heap; below it
  // the per-group identity combine is cheaper than push + pop + advance.
  constexpr uint64_t kParkThreshold = 8;

  struct OpState {
    WahDecoder dec;
    uint64_t pos;  // groups consumed so far (current run starts here)
    explicit OpState(const WahBitmap& bm) : dec(bm), pos(0) {}
  };
  std::vector<OpState> ops;
  ops.reserve(k);
  for (const WahBitmap* bm : operands) ops.emplace_back(*bm);

  // Consumes groups until `st` is positioned at group `target` (which
  // may land in the middle of a fill).
  auto advance_to = [](OpState& st, uint64_t target) {
    while (st.pos < target) {
      CODS_DCHECK(!st.dec.exhausted());
      uint64_t avail = st.dec.remaining_groups();
      uint64_t want = target - st.pos;
      uint64_t take = avail < want ? avail : want;
      st.dec.Consume(take);
      st.pos += take;
    }
  };

  // Min-heap of (fill end, operand) for parked operands.
  using HeapEntry = std::pair<uint64_t, uint32_t>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      parked;
  std::vector<uint32_t> active, reexamine;
  active.reserve(k);
  reexamine.reserve(k);
  for (uint32_t i = 0; i < k; ++i) reexamine.push_back(i);

  uint64_t g = 0;  // cursor, in absolute groups
  uint64_t bits_left = size;
  while (bits_left > 0) {
    // Classify operands whose current run starts (or resumes) at the
    // cursor. Annihilating fills record the farthest skip target. Short
    // fills are NOT worth the heap round trip: they stay in the active
    // list, where group_payload() expands them to the fill pattern and
    // the combine handles them like literals.
    uint64_t ann_end = 0;
    for (uint32_t i : reexamine) {
      OpState& st = ops[i];
      CODS_DCHECK(st.pos == g);
      CODS_DCHECK(!st.dec.exhausted());
      if (st.dec.is_fill() && st.dec.remaining_groups() >= kParkThreshold) {
        uint64_t end = st.pos + st.dec.remaining_groups();
        if (st.dec.fill_value() == annihilator && end > ann_end) {
          ann_end = end;
        }
        parked.push({end, i});
      } else {
        active.push_back(i);
      }
    }
    reexamine.clear();

    if (ann_end > g) {
      // Galloping skip: the output is the annihilator value up to
      // ann_end regardless of every other operand; only operands whose
      // current run ends inside the span advance their decoders (in
      // whole-run steps), everyone else stays parked.
      emit_fill(annihilator, ann_end - g);
      bits_left -= (ann_end - g) * kWahGroupBits;
      for (uint32_t i : active) {
        advance_to(ops[i], ann_end);
        reexamine.push_back(i);
      }
      active.clear();
      g = ann_end;
      while (!parked.empty() && parked.top().first <= g) {
        uint32_t i = parked.top().second;
        parked.pop();
        advance_to(ops[i], g);
        reexamine.push_back(i);
      }
      continue;
    }

    if (active.empty()) {
      // Everyone is inside an identity fill; the earliest fill end
      // bounds the homogeneous span.
      CODS_DCHECK(!parked.empty());
      uint64_t next_end = parked.top().first;
      emit_fill(!annihilator, next_end - g);
      bits_left -= (next_end - g) * kWahGroupBits;
      g = next_end;
      while (!parked.empty() && parked.top().first <= g) {
        uint32_t i = parked.top().second;
        parked.pop();
        advance_to(ops[i], g);
        reexamine.push_back(i);
      }
      continue;
    }

    // Literal step: only the active operands carry payload bits; parked
    // identity fills contribute the reduction identity.
    uint64_t acc = is_or ? 0 : wah::kPayloadMask;
    if (is_or) {
      for (uint32_t i : active) acc |= ops[i].dec.group_payload();
    } else {
      for (uint32_t i : active) acc &= ops[i].dec.group_payload();
    }
    uint64_t bits = bits_left < kWahGroupBits ? bits_left : kWahGroupBits;
    emit_literal(acc & wah::kPayloadMask, bits);
    bits_left -= bits;
    g += 1;
    // Advance the active operands one group. The common case (operand
    // stays active) leaves `active` untouched; it is compacted only when
    // somebody actually parks or exhausts.
    bool changed = false;
    for (uint32_t& slot : active) {
      OpState& st = ops[slot];
      st.dec.Consume(1);
      st.pos += 1;
      if (st.dec.exhausted()) {  // only at bits_left == 0
        slot = UINT32_MAX;
        changed = true;
      } else if (st.dec.is_fill() &&
                 st.dec.remaining_groups() >= kParkThreshold) {
        reexamine.push_back(slot);
        slot = UINT32_MAX;
        changed = true;
      }
    }
    if (changed) {
      active.erase(std::remove(active.begin(), active.end(), UINT32_MAX),
                   active.end());
    }
    while (!parked.empty() && parked.top().first <= g) {
      uint32_t i = parked.top().second;
      parked.pop();
      advance_to(ops[i], g);
      reexamine.push_back(i);
    }
  }
}

// Cache-blocked alternative to the event-driven merge for the regime
// where it goes memory-bound: many operands (k ≳ 16) whose runs are
// short and uniformly scattered, so nearly every operand is in the
// active list for nearly every group and the per-group reduction costs
// O(k) with no fills to skip. Instead of merging run streams, each
// operand deposits its groups into a 63-bit-per-slot accumulator block
// that stays L1-resident across all k operands (one operand's pass over
// a 4 KB block is a handful of cache lines, revisited k times while
// hot), and the block is re-emitted through the same canonical sinks —
// so the output is bit-identical to the heap merge's.
template <typename FillSink, typename LiteralSink>
void RunManyOpBlocked(const std::vector<const WahBitmap*>& operands,
                      OpKind op, uint64_t size, FillSink&& emit_fill,
                      LiteralSink&& emit_literal) {
  const bool is_or = op == OpKind::kOr;
  const uint64_t identity = is_or ? 0 : wah::kPayloadMask;
  // 512 slots * 8 B = 4 KB accumulator: small enough to stay in L1 while
  // every operand revisits it, large enough to amortize the per-operand
  // loop overhead.
  constexpr uint64_t kBlockGroups = 512;

  std::vector<WahDecoder> decs;
  decs.reserve(operands.size());
  for (const WahBitmap* bm : operands) decs.emplace_back(*bm);

  const uint64_t total_groups = (size + kWahGroupBits - 1) / kWahGroupBits;
  std::vector<uint64_t> acc(
      static_cast<size_t>(std::min(kBlockGroups, total_groups)));
  uint64_t bits_left = size;
  for (uint64_t g0 = 0; g0 < total_groups; g0 += kBlockGroups) {
    const uint64_t ng = std::min(kBlockGroups, total_groups - g0);
    std::fill(acc.begin(), acc.begin() + static_cast<long>(ng), identity);
    for (WahDecoder& dec : decs) {
      uint64_t g = 0;
      while (g < ng) {
        CODS_DCHECK(!dec.exhausted());
        if (dec.is_fill()) {
          uint64_t take = std::min(dec.remaining_groups(), ng - g);
          if (dec.fill_value() == is_or) {
            // Annihilator fill: saturates OR / clears AND over the span.
            std::fill(acc.begin() + static_cast<long>(g),
                      acc.begin() + static_cast<long>(g + take),
                      is_or ? wah::kPayloadMask : uint64_t{0});
          }
          dec.Consume(take);
          g += take;
        } else {
          if (is_or) {
            acc[g] |= dec.group_payload();
          } else {
            acc[g] &= dec.group_payload();
          }
          dec.Consume(1);
          ++g;
        }
      }
    }
    // Emit the block: homogeneous spans as fills (batched so the sink's
    // AppendRun merges them in one step), everything else as literals.
    uint64_t g = 0;
    while (g < ng) {
      uint64_t payload = acc[g] & wah::kPayloadMask;
      bool homogeneous = payload == 0 || payload == wah::kPayloadMask;
      if (homogeneous && bits_left >= kWahGroupBits) {
        uint64_t run = 1;
        while (g + run < ng &&
               (acc[g + run] & wah::kPayloadMask) == payload &&
               bits_left >= (run + 1) * kWahGroupBits) {
          ++run;
        }
        emit_fill(payload != 0, run);
        bits_left -= run * kWahGroupBits;
        g += run;
      } else {
        uint64_t bits = bits_left < kWahGroupBits ? bits_left : kWahGroupBits;
        emit_literal(payload, bits);
        bits_left -= bits;
        ++g;
      }
    }
  }
  CODS_DCHECK(bits_left == 0);
}

// Routes between the event-driven merge and the cache-blocked pass. The
// blocked path wins when the operand set is wide AND literal-heavy
// (scattered short runs): total compressed words per output group is a
// direct proxy for the average active-list size the heap merge would
// grind through. Fill-heavy (clustered) operand sets stay on the heap
// merge, whose galloping skips are unbeatable there. Pure function of
// the operand stats, so the choice is deterministic — and both paths
// emit identical canonical words anyway.
bool UseBlockedManyOp(const std::vector<const WahBitmap*>& operands,
                      uint64_t size) {
  if (operands.size() < 16) return false;
  uint64_t total_groups = (size + kWahGroupBits - 1) / kWahGroupBits;
  if (total_groups == 0) return false;
  uint64_t total_words = 0;
  for (const WahBitmap* bm : operands) total_words += bm->NumWords();
  return total_words >= 4 * total_groups;
}

// Size validation shared by the general merge and the k<=1 fast paths
// (the fold this replaces CHECK-ed every operand, so these do too).
void CheckOperandSizes(const std::vector<const WahBitmap*>& operands,
                       uint64_t size) {
  for (const WahBitmap* bm : operands) {
    CODS_CHECK(bm->size() == size)
        << "WAH k-way op operand of size " << bm->size() << ", want "
        << size;
  }
}

WahBitmap ManyOp(const std::vector<const WahBitmap*>& operands, OpKind op,
                 uint64_t size) {
  CheckOperandSizes(operands, size);
  WahBitmap out;
  if (operands.empty()) {
    out.AppendRun(op == OpKind::kAnd, size);
    return out;
  }
  if (operands.size() == 1) return *operands[0];
  uint64_t max_words = 0;
  for (const WahBitmap* bm : operands) {
    if (bm->NumWords() > max_words) max_words = bm->NumWords();
  }
  out.Reserve(max_words);
  auto emit_fill = [&](bool value, uint64_t groups) {
    out.AppendRun(value, groups * kWahGroupBits);
  };
  auto emit_literal = [&](uint64_t payload, uint64_t bits) {
    out.AppendBits(payload, bits);
  };
  if (UseBlockedManyOp(operands, size)) {
    RunManyOpBlocked(operands, op, size, emit_fill, emit_literal);
  } else {
    RunManyOp(operands, op, size, emit_fill, emit_literal);
  }
  return out;
}

uint64_t ManyOpCount(const std::vector<const WahBitmap*>& operands, OpKind op,
                     uint64_t size) {
  CheckOperandSizes(operands, size);
  if (operands.empty()) return op == OpKind::kAnd ? size : 0;
  if (operands.size() == 1) return operands[0]->CountOnes();
  const bool blocked = UseBlockedManyOp(operands, size);
  return DispatchPopcount([&] {
    uint64_t ones = 0;
    auto emit_fill = [&](bool value, uint64_t groups) {
      if (value) ones += groups * kWahGroupBits;
    };
    auto emit_literal = [&](uint64_t payload, uint64_t bits) {
      if (bits < kWahGroupBits) payload &= (uint64_t{1} << bits) - 1;
      ones += Popcount(payload);
    };
    if (blocked) {
      RunManyOpBlocked(operands, op, size, emit_fill, emit_literal);
    } else {
      RunManyOp(operands, op, size, emit_fill, emit_literal);
    }
    return ones;
  });
}

}  // namespace

WahBitmap WahAnd(const WahBitmap& a, const WahBitmap& b) {
  return BinaryOp(a, b, OpKind::kAnd);
}

WahBitmap WahOr(const WahBitmap& a, const WahBitmap& b) {
  return BinaryOp(a, b, OpKind::kOr);
}

WahBitmap WahXor(const WahBitmap& a, const WahBitmap& b) {
  return BinaryOp(a, b, OpKind::kXor);
}

WahBitmap WahAndNot(const WahBitmap& a, const WahBitmap& b) {
  return BinaryOp(a, b, OpKind::kAndNot);
}

WahBitmap WahNot(const WahBitmap& a) {
  WahBitmap out;
  uint64_t bits_left = a.size();
  WahDecoder dec(a);
  while (bits_left > 0) {
    CODS_DCHECK(!dec.exhausted());
    if (dec.is_fill()) {
      uint64_t groups = dec.remaining_groups();
      out.AppendRun(!dec.fill_value(), groups * kWahGroupBits);
      dec.Consume(groups);
      bits_left -= groups * kWahGroupBits;
    } else {
      uint64_t bits = bits_left < kWahGroupBits ? bits_left : kWahGroupBits;
      out.AppendBits(~dec.group_payload(), bits);
      dec.Consume(1);
      bits_left -= bits;
    }
  }
  return out;
}

uint64_t WahAndCount(const WahBitmap& a, const WahBitmap& b) {
  return DispatchPopcount([&] {
    uint64_t ones = 0;
    RunBinaryOp(
        a, b, OpKind::kAnd,
        [&](bool value, uint64_t groups) {
          if (value) ones += groups * kWahGroupBits;
        },
        [&](uint64_t payload, uint64_t bits) {
          if (bits < kWahGroupBits) payload &= (uint64_t{1} << bits) - 1;
          ones += Popcount(payload);
        });
    return ones;
  });
}

WahBitmap WahOrMany(const std::vector<const WahBitmap*>& operands,
                    uint64_t size) {
  return ManyOp(operands, OpKind::kOr, size);
}

WahBitmap WahAndMany(const std::vector<const WahBitmap*>& operands,
                     uint64_t size) {
  return ManyOp(operands, OpKind::kAnd, size);
}

uint64_t WahOrManyCount(const std::vector<const WahBitmap*>& operands,
                        uint64_t size) {
  return ManyOpCount(operands, OpKind::kOr, size);
}

uint64_t WahAndManyCount(const std::vector<const WahBitmap*>& operands,
                         uint64_t size) {
  return ManyOpCount(operands, OpKind::kAnd, size);
}

namespace {

// Output buffer for the in-place merges. After a merge the pre-merge
// accumulator representation is swapped in here, so its word vector is
// recycled as the next call's output buffer — a fold loop allocates only
// while the buffer is still growing toward its steady-state capacity.
// Thread-local, so concurrent folds (e.g. per-column ParallelFor grains)
// each own a buffer.
WahBitmap& InPlaceScratch() {
  static thread_local WahBitmap scratch;
  return scratch;
}

// One streaming merge of `a op b` into the recycled buffer; the result
// is swapped into `a`. Safe for aliasing (a == &b): both sides are read
// through independent decoders and the output lives in the buffer.
void MergeInPlace(WahBitmap* a, const WahBitmap& b, OpKind op) {
  WahBitmap& out = InPlaceScratch();
  out.Clear();
  out.Reserve(a->NumWords() + b.NumWords());
  RunBinaryOp(
      *a, b, op,
      [&](bool value, uint64_t groups) {
        out.AppendRun(value, groups * kWahGroupBits);
      },
      [&](uint64_t payload, uint64_t bits) { out.AppendBits(payload, bits); });
  a->Swap(out);
}

}  // namespace

void WahBitmap::OrWith(const WahBitmap& other) {
  CODS_CHECK(size() == other.size())
      << "WAH OrWith on different sizes: " << size() << " vs "
      << other.size();
  if (other.IsAllZeros() || IsAllOnes()) return;
  if (IsAllZeros() || other.IsAllOnes()) {
    *this = other;
    return;
  }
  MergeInPlace(this, other, OpKind::kOr);
}

void WahBitmap::AndWith(const WahBitmap& other) {
  CODS_CHECK(size() == other.size())
      << "WAH AndWith on different sizes: " << size() << " vs "
      << other.size();
  if (other.IsAllOnes() || IsAllZeros()) return;
  if (IsAllOnes() || other.IsAllZeros()) {
    *this = other;
    return;
  }
  MergeInPlace(this, other, OpKind::kAnd);
}

bool WahIntersects(const WahBitmap& a, const WahBitmap& b) {
  CODS_CHECK(a.size() == b.size());
  uint64_t bits_left = a.size();
  WahDecoder da(a);
  WahDecoder db(b);
  while (bits_left > 0) {
    CODS_DCHECK(!da.exhausted() && !db.exhausted());
    if (da.is_fill() && !da.fill_value()) {
      uint64_t groups = da.remaining_groups();
      da.Consume(groups);
      ConsumeAcross(db, groups);
      bits_left -= groups * kWahGroupBits;
      continue;
    }
    if (db.is_fill() && !db.fill_value()) {
      uint64_t groups = db.remaining_groups();
      db.Consume(groups);
      ConsumeAcross(da, groups);
      bits_left -= groups * kWahGroupBits;
      continue;
    }
    uint64_t bits = bits_left < kWahGroupBits ? bits_left : kWahGroupBits;
    uint64_t payload = da.group_payload() & db.group_payload();
    if (bits < kWahGroupBits) payload &= (uint64_t{1} << bits) - 1;
    if (payload != 0) return true;
    da.Consume(1);
    db.Consume(1);
    bits_left -= bits;
  }
  return false;
}

}  // namespace cods
