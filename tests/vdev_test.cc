// Unit tests for the virtualization substrate: guest memory, DMA, IRQ
// lines, the I/O bus (dispatch, proxy veto, halted devices), and the
// instrumentation context's trace/observe plumbing.
#include <gtest/gtest.h>

#include <chrono>

#include "statelog/statelog.h"
#include "trace/encoder.h"
#include "vdev/bus.h"
#include "vdev/device.h"
#include "vdev/dma.h"
#include "vdev/memory.h"

namespace sedspec {
namespace {

TEST(GuestMemory, InBoundsRoundTrip) {
  GuestMemory mem(4096);
  mem.w32(100, 0xdeadbeef);
  EXPECT_EQ(mem.r32(100), 0xdeadbeefu);
  mem.w64(200, 0x1122334455667788ULL);
  EXPECT_EQ(mem.r64(200), 0x1122334455667788ULL);
}

TEST(GuestMemory, OutOfRangeIsSoft) {
  GuestMemory mem(64);
  EXPECT_EQ(mem.r32(62), 0u);  // crosses the end: zero-filled
  mem.w32(62, 0x41414141);     // crosses the end: dropped
  EXPECT_EQ(mem.r16(62), 0u);  // in bounds, but the write never landed
  EXPECT_EQ(mem.fault_count(), 2u);
}

TEST(Dma, TransfersAndCounts) {
  GuestMemory mem(4096);
  DmaEngine dma(&mem);
  std::vector<uint8_t> out = {1, 2, 3, 4};
  EXPECT_TRUE(dma.to_guest(64, out));
  std::vector<uint8_t> in(4);
  EXPECT_TRUE(dma.from_guest(64, in));
  EXPECT_EQ(in, out);
  EXPECT_EQ(dma.bytes_written(), 4u);
  EXPECT_EQ(dma.bytes_read(), 4u);
  EXPECT_EQ(dma.transfer_count(), 2u);
}

TEST(Irq, EdgeCountingAndSink) {
  IrqLine irq;
  int pulses = 0;
  irq.set_sink([&](bool level) { pulses += level ? 1 : 0; });
  irq.pulse();
  irq.pulse();
  irq.raise();
  irq.raise();  // already high: no new edge, but the sink still fires
  EXPECT_EQ(irq.raise_count(), 3u);
  EXPECT_EQ(pulses, 4);
  EXPECT_TRUE(irq.level());
  irq.lower();
  EXPECT_FALSE(irq.level());
}

// A trivial device: one register that counts accesses.
struct CounterDevice final : Device {
  static std::unique_ptr<DeviceProgram> make_program() {
    StateLayout layout("Counter");
    auto reg = layout.add_scalar("reg", FieldKind::kRegister, IntType::kU32);
    auto program =
        std::make_unique<DeviceProgram>("counter", std::move(layout), 0x9000);
    site_touch = program->add_plain(
        "touch", {sb::assign(reg, eb::io_value(IntType::kU32))});
    param_reg = reg;
    return program;
  }

  CounterDevice() : CounterDevice(make_program()) {}
  explicit CounterDevice(std::unique_ptr<DeviceProgram> p)
      : Device(p.get()), program_storage(std::move(p)) {
    reset();
  }
  void reset_device() override {}
  uint64_t io_read(const IoAccess& io) override {
    IoRound round(ictx(), io);
    ++reads;
    return state().get(param_reg);
  }
  void io_write(const IoAccess& io) override {
    IoRound round(ictx(), io);
    ictx().block(site_touch);
    ++writes;
  }

  static inline SiteId site_touch = 0;
  static inline ParamId param_reg = 0;
  std::unique_ptr<DeviceProgram> program_storage;
  int reads = 0;
  int writes = 0;
};

TEST(IoBus, DispatchAndUnmapped) {
  CounterDevice dev;
  IoBus bus;
  bus.map(IoSpace::kPio, 0x100, 8, &dev);
  bus.write(IoSpace::kPio, 0x104, 4, 55);
  EXPECT_EQ(bus.read(IoSpace::kPio, 0x104, 4), 55u);
  EXPECT_EQ(dev.writes, 1);
  // Unmapped: float high, no dispatch.
  EXPECT_EQ(bus.read(IoSpace::kPio, 0x900, 2), 0xffffu);
  bus.write(IoSpace::kMmio, 0x100, 4, 1);  // wrong space: ignored
  EXPECT_EQ(dev.writes, 1);
}

TEST(IoBus, OverlappingMappingRejected) {
  CounterDevice a;
  CounterDevice b;
  IoBus bus;
  bus.map(IoSpace::kPio, 0x100, 8, &a);
  EXPECT_THROW(bus.map(IoSpace::kPio, 0x104, 8, &b), std::logic_error);
}

struct VetoProxy final : IoProxy {
  bool allow = true;
  int before = 0;
  int after = 0;
  bool before_access(Device&, const IoAccess&) override {
    ++before;
    return allow;
  }
  void after_access(Device&, const IoAccess&) override { ++after; }
};

TEST(IoBus, ProxyVetoBlocksAccess) {
  CounterDevice dev;
  IoBus bus;
  bus.map(IoSpace::kPio, 0x100, 8, &dev);
  VetoProxy proxy;
  bus.set_proxy(&proxy);
  bus.write(IoSpace::kPio, 0x100, 4, 7);
  EXPECT_EQ(dev.writes, 1);
  EXPECT_EQ(proxy.after, 1);
  proxy.allow = false;
  bus.write(IoSpace::kPio, 0x100, 4, 9);
  EXPECT_EQ(dev.writes, 1);  // vetoed
  EXPECT_EQ(bus.blocked_count(), 1u);
  EXPECT_EQ(proxy.after, 1);  // no after_access for vetoed rounds
}

TEST(IoBus, HaltedDeviceRefusesAccess) {
  CounterDevice dev;
  IoBus bus;
  bus.map(IoSpace::kPio, 0x100, 8, &dev);
  dev.set_halted(true);
  EXPECT_EQ(bus.read(IoSpace::kPio, 0x100, 4), 0u);
  EXPECT_EQ(dev.reads, 0);
  EXPECT_EQ(bus.blocked_count(), 1u);
}

TEST(Instrumentation, TraceAndObserveStreams) {
  CounterDevice dev;
  trace::PacketEncoder enc;
  statelog::LogRecorder rec;
  dev.ictx().set_trace_sink(&enc);
  dev.ictx().set_observer(&rec);
  IoAccess io;
  io.addr = 0x100;
  io.value = 3;
  io.is_write = true;
  dev.io_write(io);
  dev.ictx().set_trace_sink(nullptr);
  dev.ictx().set_observer(nullptr);

  const auto events = trace::decode(enc.finish());
  ASSERT_GE(events.size(), 3u);  // PGE, TIP, PGD
  EXPECT_EQ(events.front().kind, trace::EventKind::kPge);
  EXPECT_EQ(events.back().kind, trace::EventKind::kPgd);

  const auto log = rec.take();
  EXPECT_EQ(log.round_count(), 1u);
  bool saw_param_change = false;
  for (const auto& e : log.entries()) {
    if (e.kind == statelog::EntryKind::kParamChange) {
      saw_param_change = true;
      EXPECT_EQ(e.new_value, 3u);
    }
  }
  EXPECT_TRUE(saw_param_change);
}

// A device whose every write runs one site: the fixture for observer diff
// edge cases. Layout: a 4-byte buffer directly followed by a u32 scalar
// (so element 4 of the buffer is the scalar's low byte), then a u16.
struct DiffDevice final : Device {
  static std::unique_ptr<DeviceProgram> make_program(
      const std::function<StmtList(ParamId buf, ParamId wide, ParamId tail)>&
          dsod) {
    StateLayout layout("Diff");
    const ParamId buf = layout.add_buffer("buf", 1, 4);
    const ParamId wide = layout.add_scalar("wide", FieldKind::kOther,
                                           IntType::kU32);
    const ParamId tail = layout.add_scalar("tail", FieldKind::kOther,
                                           IntType::kU16);
    auto program =
        std::make_unique<DeviceProgram>("diff", std::move(layout), 0xa000);
    program->add_plain("run", dsod(buf, wide, tail));
    return program;
  }

  explicit DiffDevice(std::unique_ptr<DeviceProgram> p)
      : Device(p.get()), program_storage(std::move(p)) {
    reset();
  }
  void reset_device() override {}
  uint64_t io_read(const IoAccess&) override { return 0; }
  void io_write(const IoAccess& io) override {
    IoRound round(ictx(), io);
    ictx().block(0);
  }

  /// Runs one observed write round; returns its param-change entries.
  std::vector<statelog::LogEntry> observe_write() {
    statelog::LogRecorder rec;
    ictx().set_observer(&rec);
    IoAccess io;
    io.is_write = true;
    io_write(io);
    ictx().set_observer(nullptr);
    std::vector<statelog::LogEntry> changes;
    for (const auto& e : rec.log().entries()) {
      if (e.kind == statelog::EntryKind::kParamChange) {
        changes.push_back(e);
      }
    }
    return changes;
  }

  std::unique_ptr<DeviceProgram> program_storage;
};

TEST(Instrumentation, OutOfBoundsStoreReportsCorruptedNeighbor) {
  ParamId wide = kInvalidParam;
  DiffDevice dev(DiffDevice::make_program([&](ParamId buf, ParamId w,
                                              ParamId) {
    wide = w;
    return StmtList{sb::buf_store(buf, eb::c(4), eb::c(0x41, IntType::kU8))};
  }));
  const auto changes = dev.observe_write();
  EXPECT_TRUE(dev.has_incident(IncidentKind::kOobWrite));
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].param, wide);
  EXPECT_EQ(changes[0].old_value, 0u);
  EXPECT_EQ(changes[0].new_value, 0x41u);
}

TEST(Instrumentation, PartialByteChangeReportsWholeFieldValues) {
  ParamId wide = kInvalidParam;
  ParamId tail = kInvalidParam;
  DiffDevice dev(DiffDevice::make_program([&](ParamId, ParamId w, ParamId t) {
    wide = w;
    tail = t;
    // Only the third byte of `wide` and the high byte of `tail` change.
    return StmtList{sb::assign(w, eb::c(0x11993344, IntType::kU32)),
                    sb::assign(t, eb::c(0x9922, IntType::kU16))};
  }));
  dev.state().set(wide, 0x11223344);
  dev.state().set(tail, 0x1122);
  const auto changes = dev.observe_write();
  ASSERT_EQ(changes.size(), 2u);  // one DSOD, emitted in field order
  EXPECT_EQ(changes[0].param, wide);
  EXPECT_EQ(changes[0].old_value, 0x11223344u);
  EXPECT_EQ(changes[0].new_value, 0x11993344u);
  EXPECT_EQ(changes[1].param, tail);
  EXPECT_EQ(changes[1].old_value, 0x1122u);
  EXPECT_EQ(changes[1].new_value, 0x9922u);
  // An unchanged rerun of the same DSOD reports nothing.
  EXPECT_TRUE(dev.observe_write().empty());
}

TEST(Instrumentation, NestedRoundRejected) {
  CounterDevice dev;
  IoAccess io;
  dev.ictx().begin_round(io);
  EXPECT_THROW(dev.ictx().begin_round(io), std::logic_error);
  dev.ictx().end_round();
}

TEST(Instrumentation, WatchdogRecordsIncident) {
  CounterDevice dev;
  IoAccess io;
  IoRound round(dev.ictx(), io);
  uint32_t counter = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(dev.ictx().watchdog(counter, 5, "test loop"));
  }
  EXPECT_TRUE(dev.ictx().watchdog(counter, 5, "test loop"));
  EXPECT_TRUE(dev.has_incident(IncidentKind::kRunawayLoop));
}


TEST(LatencyModel, BusAndBackendWaitsAreMeasurable) {
  CounterDevice dev;
  IoBus bus;
  bus.map(IoSpace::kPio, 0x100, 8, &dev);
  bus.set_access_latency_ns(200'000);  // 0.2 ms per access
  const auto start = std::chrono::steady_clock::now();
  (void)bus.read(IoSpace::kPio, 0x100, 4);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(secs, 0.0002);
  // Zero latency (the default) must not wait at all.
  spin_wait_ns(0);
}

}  // namespace
}  // namespace sedspec
