// Unit tests for the common substrate: byte serialization, deterministic
// RNG, the virtual clock, and the leveled logger.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/vclock.h"

namespace sedspec {
namespace {

TEST(Log, ParseLevelAcceptsNamesDigitsAndCase) {
  EXPECT_EQ(parse_log_level("debug", LogLevel::kOff), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO", LogLevel::kOff), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn", LogLevel::kOff), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning", LogLevel::kOff), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error", LogLevel::kOff), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off", LogLevel::kDebug), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("silent", LogLevel::kDebug), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("0", LogLevel::kOff), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("4", LogLevel::kDebug), LogLevel::kOff);
  // Unrecognized input falls back instead of guessing.
  EXPECT_EQ(parse_log_level("", LogLevel::kWarn), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("loud", LogLevel::kError), LogLevel::kError);
  EXPECT_EQ(parse_log_level("5", LogLevel::kInfo), LogLevel::kInfo);
}

// Counts how often a log line formats it.
struct FormatCounter {
  int* formatted;
};
std::ostream& operator<<(std::ostream& os, const FormatCounter& c) {
  ++*c.formatted;
  return os << "counted";
}

TEST(Log, LinesBelowTheLevelFormatNothing) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  int formatted = 0;
  log_debug("test") << FormatCounter{&formatted};
  log_info("test") << FormatCounter{&formatted};
  log_warn("test") << FormatCounter{&formatted} << 42;
  EXPECT_EQ(formatted, 0);
  log_error("test") << FormatCounter{&formatted};
  EXPECT_EQ(formatted, 1);
  set_log_level(saved);
}

TEST(Log, MonotonicTimebaseNeverGoesBackwards) {
  const uint64_t a = monotonic_ns();
  const uint64_t b = monotonic_ns();
  EXPECT_LE(a, b);
}

TEST(Bytes, WriterReaderRoundTrip) {
  ByteWriter w;
  w.u8(0x12);
  w.u16(0x3456);
  w.u32(0x789abcde);
  w.u64(0x1122334455667788ULL);
  w.i64(-42);
  w.str("hello");
  w.varbytes(std::vector<uint8_t>{1, 2, 3});
  const auto bytes = w.take();

  ByteReader r(bytes);
  EXPECT_EQ(r.u8(), 0x12);
  EXPECT_EQ(r.u16(), 0x3456);
  EXPECT_EQ(r.u32(), 0x789abcdeu);
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.varbytes(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.done());
}

TEST(Bytes, ReaderFailsFastPastEnd) {
  std::vector<uint8_t> two = {1, 2};
  ByteReader r(two);
  EXPECT_EQ(r.u16(), 0x0201);
  EXPECT_THROW((void)r.u8(), sedspec::DecodeError);
}

TEST(Bytes, VarbytesLengthValidated) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes, provides none
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_THROW((void)r.varbytes(), sedspec::DecodeError);
}

TEST(Bytes, HexFormat) {
  const std::vector<uint8_t> data = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(to_hex(data), "deadbeef");
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  Rng c(8);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, BelowAndRangeRespectBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
    const uint64_t v = rng.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedFollowsWeights) {
  Rng rng(5);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) {
    counts[rng.weighted({1.0, 0.0, 3.0})]++;
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 2);
}

TEST(VClock, AdvancesAndConverts) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.advance_seconds(3600.0);
  EXPECT_DOUBLE_EQ(clock.hours(), 1.0);
  clock.advance(VirtualClock::kMicrosPerHour / 2);
  EXPECT_DOUBLE_EQ(clock.hours(), 1.5);
  clock.reset();
  EXPECT_EQ(clock.now(), 0u);
}

}  // namespace
}  // namespace sedspec
