// Outside-in tracer for the benchmark's traced run.
//
// Spans are recorded from the benchmark's side of the program's public
// interfaces only: the benchmark opens an `op` span around each call into a
// guest driver model, and a TimingProxy installed as the bus proxy opens an
// `access` span per guest access with three children — `checker.before`
// (the wrapped EsChecker::before_access), `device` (from before_access
// returning to after_access being entered: the device model plus the bus's
// own bookkeeping) and `checker.after`. Nothing inside the program is
// instrumented, and the untraced run installs no TimingProxy at all.
//
// Every span's self time (duration minus the part covered by child spans) is
// added, as it closes, to its op's per-kind self times and to per-(rig, kind)
// totals; the first `capacity` spans are also kept in memory and written out
// at exit.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "vdev/bus.h"

namespace sedbench {

// Every time the benchmark takes is on the program's own monotonic clock.
using sedspec::obs::now_ns;

enum class SpanKind : uint8_t { kOp, kAccess, kBefore, kDevice, kAfter };
inline constexpr int kSpanKinds = 5;
inline constexpr int kMaxRigs = 4;

[[nodiscard]] const char* span_name(SpanKind kind);

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0: root
  SpanKind kind = SpanKind::kOp;
  uint8_t rig = 0;
};

class SpanLog {
 public:
  explicit SpanLog(size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Opens the op span that the next accesses attach to.
  void begin_op(uint8_t rig);
  void end_op();

  /// One guest access seen by a TimingProxy: `before` covers [t0, t1],
  /// `device` [t1, t2], `after` [t2, t3]. `checked` is false on a replica's
  /// proxy, which has no checker to time; `executed` is false for a vetoed
  /// access, which has no device or after span.
  void access(uint8_t rig, bool checked, bool executed, uint64_t t0,
              uint64_t t1, uint64_t t2, uint64_t t3);

  /// Self time of each span kind inside one op span (kOp: the op's own).
  struct OpSelf {
    uint64_t ns[kSpanKinds] = {};
  };
  /// One entry per closed op span of `rig`, in the order they closed.
  [[nodiscard]] const std::vector<OpSelf>& op_self(uint8_t rig) const {
    return op_self_[rig];
  }
  [[nodiscard]] uint64_t recorded() const { return spans_.size(); }
  [[nodiscard]] uint64_t dropped() const { return dropped_; }

  /// Writes the kept spans as TSV (id, parent, rig, name, start, end).
  [[nodiscard]] bool write_tsv(const std::string& path) const;

  /// Prints count, mean duration and mean self time per rig and span kind.
  void print_self_times(std::FILE* out,
                        const std::vector<std::string>& rig_names) const;

 private:
  struct Total {
    uint64_t count = 0;
    uint64_t dur_ns = 0;
    uint64_t self_ns = 0;
  };

  void put(uint32_t id, SpanKind kind, uint8_t rig, uint32_t parent,
           uint64_t start, uint64_t end, uint64_t child_ns);

  size_t capacity_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  uint32_t next_id_ = 1;
  Total totals_[kMaxRigs][kSpanKinds] = {};
  std::vector<OpSelf> op_self_[kMaxRigs];
  // The open op span.
  uint32_t op_id_ = 0;
  uint8_t op_rig_ = 0;
  uint64_t op_start_ = 0;
  uint64_t op_child_ns_ = 0;
  OpSelf op_open_;
};

/// Bus proxy that times a wrapped proxy (or nothing, on a replica) and
/// optionally keeps the first `stream_cap` accesses it sees.
class TimingProxy final : public sedspec::IoProxy {
 public:
  TimingProxy(SpanLog* log, uint8_t rig, sedspec::IoProxy* inner,
              size_t stream_cap)
      : log_(log), rig_(rig), inner_(inner), stream_cap_(stream_cap) {}

  bool before_access(sedspec::Device& device,
                     const sedspec::IoAccess& io) override;
  void after_access(sedspec::Device& device,
                    const sedspec::IoAccess& io) override;

  [[nodiscard]] const std::vector<sedspec::IoAccess>& stream() const {
    return stream_;
  }

 private:
  SpanLog* log_;
  uint8_t rig_;
  sedspec::IoProxy* inner_;
  size_t stream_cap_;
  std::vector<sedspec::IoAccess> stream_;
  uint64_t t0_ = 0;
  uint64_t t1_ = 0;
};

}  // namespace sedbench
