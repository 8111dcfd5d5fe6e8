#include "rig.h"

#include <algorithm>

#include "common/rng.h"
#include "vdev/dma.h"

namespace sedbench {

using sedspec::Rng;
using sedspec::guest::InteractionMode;

namespace {

const std::vector<WorkloadDef>& workloads() {
  using sedspec::checker::Mode;
  static const std::vector<WorkloadDef> kDefs = {
      {"pio_storage", {"fdc", "sdhci"}, Mode::kProtection, 4096, 280},
      {"dma_io", {"scsi-esp", "usb-ehci", "pcnet"}, Mode::kProtection, 65536,
       2000},
      {"hostile_mix", {"fdc", "sdhci", "pcnet", "usb-ehci", "scsi-esp"},
       Mode::kEnhancement, 0, 6400},
  };
  return kDefs;
}

uint32_t bulk_blocks(const WorkloadDef& def) {
  return static_cast<uint32_t>(def.bulk_bytes / 512);
}

/// Highest first block of a bulk op that stays on the medium (the FDC
/// driver wraps block numbers at its 80x2x36 geometry, so it is capped
/// there, not at its byte capacity).
uint32_t last_start_block(const std::string& device, uint32_t blocks) {
  const auto workload = sedspec::guest::make_workload(device);
  uint64_t total = workload->storage_capacity() / 512;
  if (device == "fdc") {
    total = std::min<uint64_t>(total, 80 * 72);
  }
  return static_cast<uint32_t>(total - blocks);
}

}  // namespace

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& def : workloads()) {
    if (def.name == name) {
      return &def;
    }
  }
  return nullptr;
}

std::string workload_names() {
  std::string out;
  for (const WorkloadDef& def : workloads()) {
    out += (out.empty() ? "" : ", ") + def.name;
  }
  return out;
}

std::vector<Op> make_ops(const WorkloadDef& def, uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(count + 8);
  std::vector<uint32_t> last_block;
  for (const std::string& d : def.devices) {
    last_block.push_back(def.bulk_bytes == 0
                             ? 0
                             : last_start_block(d, bulk_blocks(def)));
  }
  auto bulk_pair = [&](uint8_t device) {
    Op write;
    write.type = Op::Type::kWrite;
    write.device = device;
    write.block = static_cast<uint32_t>(rng.below(last_block[device] + 1));
    write.seed = rng.next_u64();
    Op read = write;
    read.type = Op::Type::kRead;
    ops.push_back(write);
    ops.push_back(read);
  };
  auto single = [&](Op::Type type, uint8_t device) {
    Op op;
    op.type = type;
    op.device = device;
    op.seed = rng.next_u64();
    ops.push_back(op);
  };
  // Devices take turns in a fixed cycle, so every seed gives each device
  // the same share of the ops; the seed picks blocks, data and op content.
  for (uint64_t k = 0; ops.size() < count; ++k) {
    if (def.name == "pio_storage") {
      // 4 KiB write then read-back of the same blocks: FDC, FDC, SDHCI.
      bulk_pair(k % 3 == 2 ? 1 : 0);
    } else if (def.name == "dma_io") {
      // 64 KiB write + read-back on SCSI-ESP, then on USB-EHCI, then three
      // random PCNet ops (3 of 7 ops, so the median op is a USB-EHCI one
      // rather than a boundary between two kinds of op).
      if (k % 3 < 2) {
        bulk_pair(static_cast<uint8_t>(k % 3));
      } else {
        for (int j = 0; j < 3; ++j) {
          single(Op::Type::kCommon, 2);
        }
      }
    } else {
      // Eight ops round-robin over the five devices, one of them (at a
      // seeded position) a rare-but-legal op.
      const uint64_t rare_at = rng.below(8);
      for (uint64_t j = 0; j < 8; ++j) {
        single(j == rare_at ? Op::Type::kRare : Op::Type::kCommon,
               static_cast<uint8_t>(ops.size() % 5));
      }
    }
  }
  ops.resize(count);
  return ops;
}

uint64_t digest(const std::vector<Op>& ops) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  for (const Op& op : ops) {
    mix(static_cast<uint64_t>(op.type));
    mix(op.device);
    mix(op.block);
    mix(op.seed);
  }
  return h;
}

void fill_pattern(uint64_t seed, std::vector<uint8_t>& out) {
  Rng rng(seed);
  for (size_t i = 0; i < out.size(); i += 8) {
    const uint64_t v = rng.next_u64();
    for (size_t j = 0; j < 8 && i + j < out.size(); ++j) {
      out[i + j] = static_cast<uint8_t>(v >> (8 * j));
    }
  }
}

Rig make_replica(const WorkloadDef& def) {
  Rig rig;
  for (const std::string& name : def.devices) {
    auto workload = sedspec::guest::make_workload(name);
    workload->device().reset();
    workload->training();
    workload->device().reset();
    rig.devices.push_back(std::move(workload));
  }
  rig.buf.resize(def.bulk_bytes);
  return rig;
}

void run_op(Rig& rig, const Op& op) {
  sedspec::guest::DeviceWorkload& wl = *rig.devices[op.device];
  switch (op.type) {
    case Op::Type::kWrite:
      fill_pattern(op.seed, rig.buf);
      wl.bulk_write(op.block, rig.buf);
      break;
    case Op::Type::kRead:
      wl.bulk_read(op.block, rig.buf);
      break;
    case Op::Type::kCommon: {
      Rng rng(op.seed);
      wl.common_operation(InteractionMode::kRandom, rng);
      break;
    }
    case Op::Type::kRare: {
      Rng rng(op.seed);
      wl.rare_operation(rng);
      break;
    }
  }
}

Counters counters(const Rig& rig) {
  Counters c;
  for (const auto& wl : rig.devices) {
    c.accesses += wl->bus().access_count();
    c.blocked += wl->bus().blocked_count();
    c.faults += wl->bus().proxy_fault_count();
    if (const sedspec::DmaEngine* dma = wl->device().dma_engine()) {
      c.dma_bytes += dma->bytes_read() + dma->bytes_written();
    }
  }
  for (const auto& ck : rig.checkers) {
    const sedspec::checker::CheckerStats& s = ck->stats();
    for (uint64_t v : s.violations_by_strategy) {
      c.violations += v;
    }
    c.faults += s.contained_faults;
    c.degraded += s.degraded_rounds;
  }
  return c;
}

bool same_state(const Rig& a, const Rig& b) {
  for (size_t i = 0; i < a.devices.size(); ++i) {
    const auto x = a.devices[i]->device().state().bytes();
    const auto y = b.devices[i]->device().state().bytes();
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) {
      return false;
    }
  }
  return true;
}

}  // namespace sedbench
