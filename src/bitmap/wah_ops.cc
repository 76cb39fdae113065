#include "bitmap/wah_ops.h"

#include "bitmap/popcount.h"

namespace cods {

namespace {

enum class OpKind { kAnd, kOr };

inline uint64_t ApplyOp(OpKind op, uint64_t x, uint64_t y) {
  return op == OpKind::kAnd ? x & y : x | y;
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
    // Fast path: a zero fill annihilates AND and a one fill saturates
    // OR, so the output skips that whole run of the other operand.
    const bool annihilator = op == OpKind::kOr;
    const bool a_skips = da.is_fill() && da.fill_value() == annihilator;
    if (a_skips || (db.is_fill() && db.fill_value() == annihilator)) {
      WahDecoder& lead = a_skips ? da : db;
      WahDecoder& other = a_skips ? db : da;
      const uint64_t skip = lead.remaining_groups();
      emit_fill(annihilator, skip);
      lead.Consume(skip);
      ConsumeAcross(other, skip);
      bits_left -= skip * kWahGroupBits;
      continue;
    }
    if (da.is_fill() && db.is_fill()) {
      // Both sit on identity fills (ones for AND, zeros for OR).
      uint64_t groups = da.remaining_groups() < db.remaining_groups()
                            ? da.remaining_groups()
                            : db.remaining_groups();
      emit_fill(!annihilator, groups);
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

}  // namespace

WahBitmap WahAnd(const WahBitmap& a, const WahBitmap& b) {
  return BinaryOp(a, b, OpKind::kAnd);
}

WahBitmap WahOr(const WahBitmap& a, const WahBitmap& b) {
  return BinaryOp(a, b, OpKind::kOr);
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

}  // namespace cods
