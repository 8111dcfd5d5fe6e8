// Workloads, seeded op streams and device rigs for the end-to-end benchmark.
//
// A Rig is one copy of a workload's devices (each a guest::DeviceWorkload
// with its own bus, guest memory and driver model). The benchmark builds
// several rigs from the same specs — an unprotected replica and one or more
// protected copies — and drives every rig with the same seeded op stream,
// one op at a time, on one thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checker/checker.h"
#include "guest/workload.h"

namespace sedbench {

struct WorkloadDef {
  std::string name;
  std::vector<std::string> devices;
  sedspec::checker::Mode mode = sedspec::checker::Mode::kProtection;
  /// Bytes per bulk_write / bulk_read op (0: the workload has no bulk ops).
  size_t bulk_bytes = 0;
  /// Ops per requested second of measurement. Fixes the op count from
  /// --seconds, so the same seed and --seconds give the same op stream and
  /// the same counts on any host; calibrated so one measured run takes
  /// about --seconds on a 4-core x86-64 VM.
  double ops_per_second = 0;
};

/// The benchmark's workloads, by name; nullptr for an unknown name.
[[nodiscard]] const WorkloadDef* find_workload(const std::string& name);
[[nodiscard]] std::string workload_names();

struct Op {
  enum class Type : uint8_t { kWrite, kRead, kCommon, kRare };
  Type type = Type::kCommon;
  uint8_t device = 0;  // index into the rig's devices
  uint32_t block = 0;  // first 512-byte block of a bulk op
  uint64_t seed = 0;   // data pattern (bulk) or op-internal rng (common/rare)
};

/// `count` ops derived from `seed` alone. Every kRead follows the kWrite of
/// the same device and block range, so a read's expected bytes are known.
[[nodiscard]] std::vector<Op> make_ops(const WorkloadDef& def, uint64_t seed,
                                       size_t count);

/// FNV-1a over the op stream (the determinism test compares it per seed).
[[nodiscard]] uint64_t digest(const std::vector<Op>& ops);

/// Fills `out` with the bulk pattern of `seed`.
void fill_pattern(uint64_t seed, std::vector<uint8_t>& out);

struct Rig {
  std::vector<std::unique_ptr<sedspec::guest::DeviceWorkload>> devices;
  /// One checker per device on protected rigs; empty on replicas.
  std::vector<std::unique_ptr<sedspec::checker::EsChecker>> checkers;
  /// Bulk data buffer (written from, or read into, by bulk ops).
  std::vector<uint8_t> buf;
};

/// Fresh devices for `def`, brought into the state a trained-and-reset
/// device is in: the training mix is run once and every device is reset,
/// exactly as pipeline::build_spec leaves the device it trains on.
[[nodiscard]] Rig make_replica(const WorkloadDef& def);

/// Runs one op on `rig`. Bulk reads land in rig.buf.
void run_op(Rig& rig, const Op& op);

/// Sum of a rig's counters that one op can move.
struct Counters {
  uint64_t accesses = 0;
  uint64_t dma_bytes = 0;
  uint64_t violations = 0;
  uint64_t blocked = 0;   // accesses the bus refused (vetoed or halted)
  uint64_t faults = 0;    // contained checker faults + bus proxy faults
  uint64_t degraded = 0;  // rounds served unprotected (fail-open)
};
[[nodiscard]] Counters counters(const Rig& rig);

/// True when every device's control structure holds the same bytes in
/// both rigs.
[[nodiscard]] bool same_state(const Rig& a, const Rig& b);

}  // namespace sedbench
