// Engine-local IntType arithmetic for the bytecode VM (DESIGN.md §12).
//
// expr/type.h's helpers switch on the type (bits_of), and the compiler keeps
// that switch as a jump table even once inlined into the VM. These compute
// the same values from the enum's bit layout instead: the low two bits
// select the width (8 << n), bit 2 the signedness. The VM uses only these;
// the compiler half of bytecode.cc, the interpreter and the devices keep
// using expr/type.h, and tests/vm_hot_path_test.cc holds the two equal.
#pragma once

#include <cstdint>

#include "expr/type.h"

namespace sedspec::checker::engine {

static_assert(static_cast<unsigned>(IntType::kU8) == 0 &&
              static_cast<unsigned>(IntType::kU64) == 3 &&
              static_cast<unsigned>(IntType::kI8) == 4 &&
              static_cast<unsigned>(IntType::kI64) == 7);

/// bits_of(t).
[[gnu::always_inline]] inline unsigned vm_bits(IntType t) {
  return 8u << (static_cast<unsigned>(t) & 3);
}

/// is_signed(t).
[[gnu::always_inline]] inline bool vm_signed(IntType t) {
  return static_cast<unsigned>(t) >= 4;
}

/// truncate_to(t, raw).
[[gnu::always_inline]] inline uint64_t vm_trunc(IntType t, uint64_t raw) {
  return raw & (~uint64_t{0} >> (64 - vm_bits(t)));
}

/// Raw 64-bit two's-complement pattern of the value interpret(t, raw)
/// (eval.cc's pattern_of): zero- or sign-extension from the type's width.
[[gnu::always_inline]] inline uint64_t vm_pattern(IntType t, uint64_t raw) {
  const unsigned shift = 64 - vm_bits(t);
  const uint64_t high = raw << shift;
  const auto sext = static_cast<uint64_t>(static_cast<int64_t>(high) >> shift);
  return vm_signed(t) ? sext : high >> shift;
}

/// interpret(t, raw).
[[gnu::always_inline]] inline __int128 vm_interp(IntType t, uint64_t raw) {
  const uint64_t v = vm_pattern(t, raw);
  return vm_signed(t) ? static_cast<__int128>(static_cast<int64_t>(v))
                      : static_cast<__int128>(v);
}

/// representable(t, v): exactly the values that survive a wrap to the
/// type's width and back.
[[gnu::always_inline]] inline bool vm_repr(IntType t, __int128 v) {
  return vm_interp(t, static_cast<uint64_t>(v)) == v;
}

/// wrap_to(t, v).
[[gnu::always_inline]] inline uint64_t vm_wrap(IntType t, __int128 v) {
  return vm_trunc(t, static_cast<uint64_t>(v));
}

}  // namespace sedspec::checker::engine
