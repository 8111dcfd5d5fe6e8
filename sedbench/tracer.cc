#include "tracer.h"

#include <cstdio>

namespace sedbench {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp:
      return "op";
    case SpanKind::kAccess:
      return "access";
    case SpanKind::kBefore:
      return "checker.before";
    case SpanKind::kDevice:
      return "device";
    case SpanKind::kAfter:
      return "checker.after";
  }
  return "?";
}

void SpanLog::put(uint32_t id, SpanKind kind, uint8_t rig, uint32_t parent,
                  uint64_t start, uint64_t end, uint64_t child_ns) {
  Total& t = totals_[rig][static_cast<int>(kind)];
  ++t.count;
  t.dur_ns += end - start;
  t.self_ns += end - start - child_ns;
  op_open_.ns[static_cast<int>(kind)] += end - start - child_ns;
  if (spans_.size() < capacity_) {
    spans_.push_back(Span{start, end, id, parent, kind, rig});
  } else {
    ++dropped_;
  }
}

void SpanLog::begin_op(uint8_t rig) {
  // The op's id is fixed up front so its accesses can name it as parent;
  // the span itself is added when it closes.
  op_id_ = next_id_++;
  op_rig_ = rig;
  op_child_ns_ = 0;
  op_open_ = {};
  op_start_ = now_ns();
}

void SpanLog::end_op() {
  put(op_id_, SpanKind::kOp, op_rig_, 0, op_start_, now_ns(), op_child_ns_);
  op_self_[op_rig_].push_back(op_open_);
  op_id_ = 0;
}

void SpanLog::access(uint8_t rig, bool checked, bool executed, uint64_t t0,
                     uint64_t t1, uint64_t t2, uint64_t t3) {
  uint64_t child_ns = t2 - t1;
  if (checked) {
    child_ns += (t1 - t0) + (t3 - t2);
  }
  const uint32_t id = next_id_++;
  put(id, SpanKind::kAccess, rig, op_id_, t0, t3, child_ns);
  op_child_ns_ += t3 - t0;
  if (checked) {
    put(next_id_++, SpanKind::kBefore, rig, id, t0, t1, 0);
  }
  if (executed) {
    put(next_id_++, SpanKind::kDevice, rig, id, t1, t2, 0);
    if (checked) {
      put(next_id_++, SpanKind::kAfter, rig, id, t2, t3, 0);
    }
  }
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "id\tparent\trig\tname\tstart_ns\tend_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%u\t%u\t%u\t%s\t%llu\t%llu\n", s.id, s.parent,
                 static_cast<unsigned>(s.rig), span_name(s.kind),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void SpanLog::print_self_times(
    std::FILE* out, const std::vector<std::string>& rig_names) const {
  std::fprintf(out, "%-10s %-15s %12s %12s %12s\n", "rig", "span", "count",
               "mean_ns", "self_ns");
  for (size_t rig = 0; rig < rig_names.size() && rig < kMaxRigs; ++rig) {
    for (int k = 0; k < kSpanKinds; ++k) {
      const Total& t = totals_[rig][k];
      if (t.count == 0) {
        continue;
      }
      const auto n = static_cast<double>(t.count);
      std::fprintf(out, "%-10s %-15s %12llu %12.1f %12.1f\n",
                   rig_names[rig].c_str(), span_name(static_cast<SpanKind>(k)),
                   static_cast<unsigned long long>(t.count),
                   static_cast<double>(t.dur_ns) / n,
                   static_cast<double>(t.self_ns) / n);
    }
  }
}

bool TimingProxy::before_access(sedspec::Device& device,
                                const sedspec::IoAccess& io) {
  if (stream_.size() < stream_cap_) {
    stream_.push_back(io);
  }
  t0_ = now_ns();
  const bool allowed =
      inner_ == nullptr || inner_->before_access(device, io);
  t1_ = now_ns();
  if (!allowed) {
    log_->access(rig_, inner_ != nullptr, false, t0_, t1_, t1_, t1_);
  }
  return allowed;
}

void TimingProxy::after_access(sedspec::Device& device,
                               const sedspec::IoAccess& io) {
  const uint64_t t2 = now_ns();
  if (inner_ != nullptr) {
    inner_->after_access(device, io);
  }
  const uint64_t t3 = now_ns();
  log_->access(rig_, inner_ != nullptr, true, t0_, t1_, t2, t3);
}

}  // namespace sedbench
