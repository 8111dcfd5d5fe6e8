// The bytecode VM's hot-path building blocks (DESIGN.md §12) against the
// reference code they replace:
//  - the engine-local IntType helpers (checker/engine/vm_int.h) must equal
//    expr/type.h on every type, on the width boundaries and on random input;
//  - StateArena's fixed-width load_scalar/store_scalar must read and write
//    exactly the bytes param()/set_param() do;
//  - the engine's in-bounds buffer load/store fast path must leave the same
//    shadow bytes as StateArena::buf_load/buf_store, and every index it does
//    not own (count, -1, further out in the arena, outside the arena) must
//    reach the arena with the same diag, incident and adjacent-field
//    corruption. The interpreter, which always goes through the arena, is
//    the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "checker/engine/bytecode.h"
#include "checker/engine/engine.h"
#include "checker/engine/vm_int.h"
#include "common/rng.h"
#include "guest/workload.h"
#include "program/arena.h"
#include "spec/es_cfg.h"

namespace sedspec {
namespace {

using checker::CheckerConfig;
using checker::EngineKind;
using namespace checker::engine;  // vm_* helpers, BytecodeEngine, Op
using namespace eb;
using namespace sb;

constexpr IntType kAllTypes[] = {IntType::kU8,  IntType::kU16, IntType::kU32,
                                 IntType::kU64, IntType::kI8,  IntType::kI16,
                                 IntType::kI32, IntType::kI64};

// Returns a failure message naming the first helper that disagrees with
// expr/type.h for (t, raw), or an empty string.
std::string raw_mismatch(IntType t, uint64_t raw) {
  if (vm_bits(t) != bits_of(t)) return "bits";
  if (vm_signed(t) != is_signed(t)) return "signed";
  if (vm_trunc(t, raw) != truncate_to(t, raw)) return "trunc";
  if (vm_interp(t, raw) != interpret(t, raw)) return "interp";
  const auto pattern =
      static_cast<uint64_t>(static_cast<unsigned __int128>(interpret(t, raw)));
  if (vm_pattern(t, raw) != pattern) return "pattern";
  return {};
}

std::string wide_mismatch(IntType t, __int128 v) {
  if (vm_repr(t, v) != representable(t, v)) return "repr";
  if (vm_wrap(t, v) != wrap_to(t, v)) return "wrap";
  return {};
}

std::vector<uint64_t> boundary_values() {
  std::vector<uint64_t> out = {0, 1, 2, 3};
  for (const unsigned b : {8u, 16u, 32u, 64u}) {
    const uint64_t half = uint64_t{1} << (b - 1);
    for (const uint64_t v : {half - 1, half, half + 1, 2 * half - 1,
                             2 * half - 2, 2 * half, 2 * half + 1}) {
      out.push_back(v);
      out.push_back(~v);  // the same boundary seen from the top
    }
  }
  return out;
}

std::vector<__int128> wide_boundary_values() {
  std::vector<__int128> out;
  for (const uint64_t u : boundary_values()) {
    const auto v = static_cast<__int128>(u);
    for (const __int128 w : {v, -v, static_cast<__int128>(
                                        static_cast<int64_t>(u)),
                             v + (static_cast<__int128>(1) << 64),
                             -v - (static_cast<__int128>(1) << 64),
                             v << 63, -(v << 63)}) {
      out.push_back(w);
    }
  }
  return out;
}

TEST(VmIntOps, MatchTypeHOnBoundaries) {
  size_t cases = 0;
  for (const IntType t : kAllTypes) {
    for (const uint64_t raw : boundary_values()) {
      ASSERT_EQ(raw_mismatch(t, raw), "")
          << type_name(t) << " raw=0x" << std::hex << raw;
      ++cases;
    }
    for (const __int128 v : wide_boundary_values()) {
      ASSERT_EQ(wide_mismatch(t, v), "")
          << type_name(t) << " v=0x" << std::hex
          << static_cast<uint64_t>(static_cast<unsigned __int128>(v) >> 64)
          << ":" << static_cast<uint64_t>(v);
      ++cases;
    }
  }
  EXPECT_GT(cases, 1000u);
}

TEST(VmIntOps, MatchTypeHOnRandomValues) {
  Rng rng(0x1e7a1);
  constexpr int kDraws = 1 << 20;
  for (int i = 0; i < kDraws; ++i) {
    const IntType t = kAllTypes[rng.below(8)];
    // Vary magnitude so every width's sign bit is hit often.
    const uint64_t raw = rng.next_u64() >> rng.below(64);
    ASSERT_EQ(raw_mismatch(t, raw), "")
        << type_name(t) << " raw=0x" << std::hex << raw;
    const auto hi = static_cast<__int128>(
        static_cast<int64_t>(rng.next_u64()) >> rng.below(64));
    const __int128 v = (hi << 64) | static_cast<__int128>(rng.next_u64());
    ASSERT_EQ(wide_mismatch(t, v), "") << type_name(t) << " draw " << i;
    // Values near the representable range (sums/products of 64-bit
    // operands) are the ones the VM's overflow checks actually see.
    const __int128 near = interpret(t, raw) + static_cast<int64_t>(
                                                  rng.below(5)) - 2;
    ASSERT_EQ(wide_mismatch(t, near), "") << type_name(t) << " draw " << i;
  }
}

// ---------------------------------------------------------------------------
// StateArena fixed-width scalar access.
// ---------------------------------------------------------------------------

TEST(ArenaScalarAccess, FixedWidthMatchesParamBytes) {
  StateLayout layout("S");
  std::vector<ParamId> ids;
  for (const IntType t : kAllTypes) {
    ids.push_back(layout.add_scalar(type_name(t) + "_f", FieldKind::kRegister,
                                    t));
  }
  StateArena generic(&layout);
  StateArena fixed(&layout);
  Rng rng(0xa11e);
  for (int i = 0; i < 20000; ++i) {
    const ParamId id = ids[rng.below(ids.size())];
    const FieldDesc& f = layout.field(id);
    const uint64_t raw = rng.next_u64() >> rng.below(64);
    generic.set_param(id, raw);
    fixed.store_scalar(f.offset, f.size, truncate_to(f.type, raw));
    ASSERT_TRUE(std::ranges::equal(generic.bytes(), fixed.bytes()))
        << f.name << " raw=0x" << std::hex << raw;
    ASSERT_EQ(fixed.load_scalar(f.offset, f.size), generic.param(id))
        << f.name;
  }
  // The final state reads back the same through both paths.
  for (const ParamId id : ids) {
    EXPECT_EQ(fixed.load_scalar(layout.field(id).offset, layout.field(id).size),
              generic.param(id));
  }
}

TEST(ArenaScalarAccess, OddWidthTakesTheVariableCopy) {
  // StateLayout only builds 1/2/4/8-byte fields, so the fallback width is
  // driven directly: exactly `size` little-endian bytes, nothing around them.
  StateLayout layout("S");
  const ParamId buf = layout.add_buffer("buf", 1, 16);
  StateArena arena(&layout);
  const uint32_t off = layout.field(buf).offset;
  for (const uint32_t size : {3u, 5u, 6u, 7u}) {
    std::ranges::fill(arena.buffer_span(buf), 0xee);
    arena.store_scalar(off + 4, size, 0x0807060504030201ULL);
    const auto bytes = arena.buffer_span(buf);
    for (uint32_t i = 0; i < 16; ++i) {
      const uint8_t want =
          (i >= 4 && i < 4 + size) ? static_cast<uint8_t>(i - 3) : 0xee;
      ASSERT_EQ(bytes[i], want) << "size " << size << " byte " << i;
    }
    const uint64_t mask = (uint64_t{1} << (8 * size)) - 1;
    EXPECT_EQ(arena.load_scalar(off + 4, size), 0x0807060504030201ULL & mask)
        << "size " << size;
  }
}

// ---------------------------------------------------------------------------
// The engine's buffer fast path vs. StateArena's generic path.
// ---------------------------------------------------------------------------

enum class BufShape {
  kBatchedStore,  // index/value fit the kBoundsBatch superinstruction
  kPlainStore,    // the value reads a local, so the store stays kBufStore
  kLoad,          // kBufLoad into a scalar field
};

// One plain block on the fdc layout, entered by a PIO write to port 0:
//   data_pos = 0
//   [fifo[data_pos] = 0x5a]  or  [local 1 = 0xcd]
//   fifo[data_pos | io.value] = value     (or data_len = fifo[...])
// The index is state-derived (it reads a parameter), so out-of-bounds
// accesses are diagnosed, and io.value reaches any 64-bit index, -1 too.
spec::EsCfg buffer_spec(const Device& device, BufShape shape) {
  const StateLayout& layout = device.program().layout();
  const ParamId fifo = *layout.find("fifo");
  const ParamId data_pos = *layout.find("data_pos");
  const ParamId data_len = *layout.find("data_len");
  spec::EsCfg cfg;
  cfg.device_name = device.name();
  cfg.trained_rounds = 1;
  for (size_t i = 0; i < layout.field_count(); ++i) {
    cfg.params.push_back(static_cast<ParamId>(i));
  }
  const ExprRef index =
      bin(BinaryOp::kOr, param(data_pos, IntType::kU64),
          io_value(IntType::kU64), IntType::kU64);
  spec::EsBlock b;
  b.site = 0;
  b.name = "buf";
  b.kind = BlockKind::kPlain;
  b.max_visits_per_round = 1;
  b.ends = true;
  b.dsod.push_back(assign(data_pos, c(0, IntType::kU32)));
  switch (shape) {
    case BufShape::kBatchedStore:  // a batch needs a run of two stores
      b.dsod.push_back(buf_store(fifo, param(data_pos, IntType::kU64),
                                 c(0x5a, IntType::kU8), "st0"));
      b.dsod.push_back(buf_store(fifo, index, c(0xab, IntType::kU8), "st"));
      break;
    case BufShape::kPlainStore:
      b.dsod.push_back(assign_local(1, c(0xcd, IntType::kU8)));
      b.dsod.push_back(
          buf_store(fifo, index, local(1, IntType::kU8), "st"));
      break;
    case BufShape::kLoad:
      b.dsod.push_back(
          assign(data_len, buf_load(fifo, index, IntType::kU8), "ld"));
      break;
  }
  cfg.blocks[0] = std::move(b);
  cfg.entry_dispatch[IoKey{IoSpace::kPio, 0, true}] = 0;
  return cfg;
}

bool has_op(const BytecodeProgram& p, Op op) {
  return std::ranges::any_of(p.code, [&](const Insn& i) {
    return i.op == static_cast<uint8_t>(op);
  });
}

void expect_same_incidents(const IncidentLog& a, const IncidentLog& b,
                           const std::string& ctx) {
  ASSERT_EQ(a.size(), b.size()) << ctx;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << ctx;
    EXPECT_EQ(a[i].field, b[i].field) << ctx;
    EXPECT_EQ(a[i].detail, b[i].detail) << ctx;
    EXPECT_EQ(a[i].note, b[i].note) << ctx;
  }
}

class BufFastPath : public ::testing::TestWithParam<BufShape> {};

INSTANTIATE_TEST_SUITE_P(Shapes, BufFastPath,
                         ::testing::Values(BufShape::kBatchedStore,
                                           BufShape::kPlainStore,
                                           BufShape::kLoad),
                         [](const auto& info) -> std::string {
                           switch (info.param) {
                             case BufShape::kBatchedStore:
                               return "BatchedStore";
                             case BufShape::kPlainStore:
                               return "PlainStore";
                             case BufShape::kLoad:
                               return "Load";
                           }
                           return "?";
                         });

TEST_P(BufFastPath, MatchesArenaInAndOutOfBounds) {
  auto wl = guest::make_workload("fdc");
  Device& device = wl->device();
  const StateLayout& layout = device.program().layout();
  const FieldDesc& fifo = layout.field(*layout.find("fifo"));
  const spec::EsCfg es = buffer_spec(device, GetParam());

  CheckerConfig icfg;
  icfg.engine = EngineKind::kInterpreter;
  CheckerConfig bcfg;
  bcfg.engine = EngineKind::kBytecode;
  StateArena ishadow(&layout);
  StateArena bshadow(&layout);
  IncidentLog iincidents;
  IncidentLog bincidents;
  ishadow.set_incident_fn([&](const Incident& i) { iincidents.push_back(i); });
  bshadow.set_incident_fn([&](const Incident& i) { bincidents.push_back(i); });
  const auto ie = make_engine(&es, &device, &ishadow, &icfg);
  BytecodeEngine be(&es, &device, &bshadow, &bcfg);
  switch (GetParam()) {
    case BufShape::kBatchedStore:
      ASSERT_TRUE(has_op(be.program(), Op::kBoundsBatch));
      break;
    case BufShape::kPlainStore:
      ASSERT_FALSE(has_op(be.program(), Op::kBoundsBatch));
      ASSERT_TRUE(has_op(be.program(), Op::kBufStore));
      break;
    case BufShape::kLoad:
      ASSERT_TRUE(has_op(be.program(), Op::kBufLoad));
      break;
  }

  const uint64_t count = fifo.count;
  struct Case {
    uint64_t index;
    bool in_bounds;
  };
  const Case cases[] = {
      {0, true},
      {count - 1, true},
      {count, false},                  // first byte past the end: data_pos
      {~uint64_t{0}, false},           // -1: the last byte of irq_fn
      {count + 5, false},              // further in the arena: data_len
      {uint64_t{1} << 40, false},      // outside the structure
  };
  for (const Case& k : cases) {
    const std::string ctx = "index " + std::to_string(k.index);
    // Distinct, recognizable bytes everywhere, so a store that lands
    // anywhere shows up in the comparison.
    for (size_t i = 0; i < layout.arena_size(); ++i) {
      ishadow.store_scalar(static_cast<uint32_t>(i), 1, 0x11 + i);
    }
    bshadow.copy_from(ishadow);
    iincidents.clear();
    bincidents.clear();
    IoAccess io;
    io.space = IoSpace::kPio;
    io.addr = 0;
    io.size = 1;
    io.is_write = true;
    io.value = k.index;
    ishadow.clear_locals();
    bshadow.clear_locals();
    const checker::CheckResult ir = ie->check(io, RoundOptions{});
    const checker::CheckResult br = be.check(io, RoundOptions{});

    ASSERT_EQ(ir.steps, br.steps) << ctx;
    ASSERT_EQ(ir.violations.size(), br.violations.size()) << ctx;
    for (size_t i = 0; i < ir.violations.size(); ++i) {
      EXPECT_EQ(ir.violations[i].strategy, br.violations[i].strategy) << ctx;
      EXPECT_EQ(ir.violations[i].site, br.violations[i].site) << ctx;
      EXPECT_EQ(ir.violations[i].detail, br.violations[i].detail) << ctx;
    }
    expect_same_incidents(iincidents, bincidents, ctx);
    ASSERT_TRUE(std::ranges::equal(ishadow.bytes(), bshadow.bytes()))
        << ctx << ": shadow bytes differ";

    // And the oracle itself did what the case is meant to cover.
    EXPECT_EQ(br.violations.empty(), k.in_bounds) << ctx;
    EXPECT_EQ(bincidents.empty(), k.in_bounds) << ctx;
    if (GetParam() != BufShape::kLoad && !k.in_bounds) {
      const int64_t at = static_cast<int64_t>(fifo.offset) +
                         static_cast<int64_t>(k.index);
      const bool in_arena =
          at >= 0 && at < static_cast<int64_t>(layout.arena_size());
      ASSERT_EQ(bincidents.front().kind, in_arena ? IncidentKind::kOobWrite
                                                  : IncidentKind::kStructEscape)
          << ctx;
      if (in_arena) {  // the adjacent field took the store
        EXPECT_EQ(bshadow.bytes()[static_cast<size_t>(at)],
                  GetParam() == BufShape::kBatchedStore ? 0xab : 0xcd)
            << ctx;
      }
    }
  }
}

}  // namespace
}  // namespace sedspec
