// sedbench — end-to-end SEDSpec benchmark (driven by run.py).
//
//   sedbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-dir <dir>]
//
// Every number compares a protected device with an unprotected replica of
// it in the same process: both are built from the same device models, reach
// the same trained-and-reset state, and run the same seeded op stream,
// interleaved op by op on one thread (the order alternates per op), so host
// speed drift hits both sides alike. The VM-exit model is never spun:
// guest-visible time is modeled as (guest accesses x benchsim::kVmExitNs) +
// the measured host time of the op.
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from
// a separate traced run (README.md has the glossary). The last stdout line
// is one JSON object; a run whose correctness gate fails reports
// "correct": false and exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "benchsim/perf.h"
#include "checker/engine/engine.h"
#include "common/log.h"
#include "guest/exploits.h"
#include "obs/metrics.h"
#include "rig.h"
#include "sedspec/pipeline.h"
#include "tracer.h"

namespace sedbench {
namespace {

using sedspec::checker::CheckerConfig;
using sedspec::checker::EngineKind;

constexpr int kSetupReps = 31;
constexpr size_t kMinOps = 1000;         // p99 keeps >= 10 samples above it
constexpr size_t kSpanCapacity = 1 << 18;
constexpr size_t kStreamCap = 100'000;   // recorded accesses per device
constexpr size_t kReplayChunk = 1000;    // checks per timed replay chunk
constexpr int kBestOf = 9;  // repetitions of each micro-measurement

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 0);
    } else if (key == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (key == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

double fastest(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

template <typename T>
T sum(const std::vector<T>& v) {
  return std::accumulate(v.begin(), v.end(), T{});
}

double ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double per(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Collects correctness-gate failures; any one fails the run.
struct Gate {
  std::vector<std::string> errors;
  void fail(const std::string& what) {
    if (errors.size() < 8) {
      std::fprintf(stderr, "sedbench: GATE: %s\n", what.c_str());
    }
    errors.push_back(what);
  }
  [[nodiscard]] bool ok() const { return errors.empty(); }
};

// --- set-up: phases 1-3 of the pipeline, per device -------------------------

CheckerConfig checker_config(const WorkloadDef& def) {
  CheckerConfig config;
  config.mode = def.mode;
  return config;
}

/// Set-up times: training, spec build and deploy of every device of the
/// workload, calling pipeline::collect, construct and deploy separately so
/// each phase has its own time. The first repetition's specs are the ones
/// the run deploys; later repetitions (spread over the op loop, so they
/// sample the host over the whole run) are timed and dropped. Reported
/// times are the fastest repetition: noise from other tenants of a shared
/// host only ever adds time.
struct Setup {
  std::vector<std::unique_ptr<sedspec::spec::EsCfg>> specs;
  std::vector<double> total_s;
  std::vector<double> collect_ms;
  std::vector<double> construct_ms;
  std::vector<double> deploy_ms;
  uint64_t trace_bytes = 0;
  uint64_t spec_blocks = 0;

  void run_once(const WorkloadDef& def);
};

void Setup::run_once(const WorkloadDef& def) {
  const bool keep = specs.empty();
  uint64_t collect_ns = 0;
  uint64_t construct_ns = 0;
  uint64_t deploy_ns = 0;
  const uint64_t start = now_ns();
  for (const std::string& name : def.devices) {
    auto wl = sedspec::guest::make_workload(name);
    const uint64_t t0 = now_ns();
    const sedspec::pipeline::CollectionResult collection =
        sedspec::pipeline::collect(wl->device(), [&] { wl->training(); });
    const uint64_t t1 = now_ns();
    auto cfg = std::make_unique<sedspec::spec::EsCfg>(
        sedspec::pipeline::construct(wl->device(), collection));
    wl->device().reset();
    const uint64_t t2 = now_ns();
    const auto checker = sedspec::pipeline::deploy(
        *cfg, wl->device(), wl->bus(), checker_config(def));
    const uint64_t t3 = now_ns();
    collect_ns += t1 - t0;
    construct_ns += t2 - t1;
    deploy_ns += t3 - t2;
    if (keep) {
      trace_bytes += collection.trace_bytes;
      spec_blocks += cfg->blocks.size();
      specs.push_back(std::move(cfg));
    }
  }
  total_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  collect_ms.push_back(ms(collect_ns));
  construct_ms.push_back(ms(construct_ns));
  deploy_ms.push_back(ms(deploy_ns));
}

Rig make_protected(const WorkloadDef& def, const Setup& setup) {
  Rig rig = make_replica(def);
  for (size_t i = 0; i < rig.devices.size(); ++i) {
    rig.checkers.push_back(sedspec::pipeline::deploy(
        *setup.specs[i], rig.devices[i]->device(), rig.devices[i]->bus(),
        checker_config(def)));
  }
  return rig;
}

// --- the CVE matrix (paper Table III, protection mode) ---------------------

struct CveResult {
  uint64_t blocked = 0;
  double wall_ms = 0;
};

CveResult run_cve_matrix(Gate& gate) {
  CveResult out;
  const uint64_t t0 = now_ns();
  for (const auto& scenario : sedspec::guest::exploit_scenarios()) {
    const auto& info = scenario.info();
    const sedspec::guest::RunResult r =
        scenario.run(sedspec::guest::RunMode::kAllStrategies);
    const bool detected =
        r.violations[0] + r.violations[1] + r.violations[2] > 0;
    out.blocked += r.blocked ? 1 : 0;
    if (detected != info.expect_detected || r.blocked != info.expect_detected ||
        r.compromised == info.expect_damage_prevented) {
      gate.fail(info.cve + ": protection-mode result differs from Table III");
    }
  }
  out.wall_ms = ms(now_ns() - t0);
  return out;
}

// --- the interleaved op loop --------------------------------------------

/// Per-rig, per-op samples of one interleaved run.
struct Samples {
  std::vector<std::vector<uint64_t>> host_ns;   // [rig][op]
  std::vector<uint64_t> accesses;               // [op], equal on every rig
  uint64_t dma_bytes = 0;                       // first protected rig
  uint64_t ok = 0;                              // ops with expected verdict
  uint64_t flagged = 0;                         // ops the checker flagged
};

/// Drives every rig with `ops`, rotating which rig goes first each op, and
/// checks each op: equal access counts and control structures on every rig,
/// read-back bytes equal to what was written, nothing blocked, no contained
/// fault or degraded round, and the expected verdict (rare ops flagged,
/// every other op clean). `log` (optional) gets an op span per rig in
/// `traced`. `between(i)` runs after op i, outside every timed region.
Samples drive(std::vector<Rig*>& rigs, const std::vector<Op>& ops,
              SpanLog* log, const std::vector<bool>& traced,
              const std::function<void(size_t)>& between, Gate& gate) {
  const size_t n_rigs = rigs.size();
  Samples s;
  s.host_ns.assign(n_rigs, std::vector<uint64_t>(ops.size()));
  s.accesses.resize(ops.size());
  std::vector<Counters> prev;
  for (Rig* rig : rigs) {
    prev.push_back(counters(*rig));
  }
  std::vector<uint8_t> expected;
  const uint64_t loop_start = now_ns();
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    for (size_t k = 0; k < n_rigs; ++k) {
      const size_t r = (i + k) % n_rigs;
      const bool span = log != nullptr && traced[r];
      if (span) {
        log->begin_op(static_cast<uint8_t>(r));
      }
      const uint64_t t0 = now_ns();
      run_op(*rigs[r], op);
      const uint64_t t1 = now_ns();
      if (span) {
        log->end_op();
      }
      s.host_ns[r][i] = t1 - t0;
    }

    const std::string where = "op " + std::to_string(i);
    int flagged = -1;  // verdict of the protected rigs (-1: none yet)
    for (size_t r = 0; r < n_rigs; ++r) {
      const Counters c = counters(*rigs[r]);
      const uint64_t accesses = c.accesses - prev[r].accesses;
      if (r == 0) {
        s.accesses[i] = accesses;
      } else if (accesses != s.accesses[i]) {
        gate.fail(where + ": access counts diverge between rigs");
      }
      if (c.blocked != prev[r].blocked) {
        gate.fail(where + ": access blocked");
      }
      if (c.faults != prev[r].faults || c.degraded != prev[r].degraded) {
        gate.fail(where + ": contained fault, proxy fault or degraded round");
      }
      if (!rigs[r]->checkers.empty()) {
        const int f = c.violations != prev[r].violations ? 1 : 0;
        if (flagged < 0) {
          flagged = f;
          s.dma_bytes += c.dma_bytes - prev[r].dma_bytes;
        } else if (f != flagged) {
          gate.fail(where + ": protected rigs disagree on the verdict");
        }
      }
      prev[r] = c;
      if (r > 0 && !same_state(*rigs[0], *rigs[r])) {
        gate.fail(where + ": device control structures diverge");
      }
    }
    if (op.type == Op::Type::kRead) {
      expected.resize(rigs[0]->buf.size());
      fill_pattern(op.seed, expected);
      for (Rig* rig : rigs) {
        if (rig->buf != expected) {
          gate.fail(where + ": read-back bytes differ from the written data");
        }
      }
    }
    const bool rare = op.type == Op::Type::kRare;
    if (flagged == 1) {
      ++s.flagged;
      if (!rare) {
        gate.fail(where + ": benign op flagged");
      }
    }
    // A rare-but-legal op is expected to be flagged (the paper's Table II
    // false-positive source); an unflagged one counts as failed.
    if ((flagged == 1) == rare) {
      ++s.ok;
    }
    between(i);
  }
  std::fprintf(stderr, "sedbench: %zu ops x %zu rigs in %.2f s\n", ops.size(),
               n_rigs, static_cast<double>(now_ns() - loop_start) / 1e9);
  return s;
}

/// Total of a per-op time with other tenants' noise filtered out. Ops are
/// grouped into classes of identical work (device, op kind, guest access
/// count); per class, the 1st-percentile value stands for every op of the
/// class. Noise on a shared host only ever adds time, and it does not slow
/// the protected and the unprotected side by the same factor, so ratios of
/// raw sums move with it from run to run; ratios of quiet totals do not.
double quiet_total(const std::vector<Op>& ops,
                   const std::vector<uint64_t>& accesses,
                   const std::vector<uint64_t>& values) {
  using Class = std::tuple<uint8_t, Op::Type, uint64_t>;
  std::map<Class, std::vector<double>> classes;
  for (size_t i = 0; i < ops.size(); ++i) {
    classes[{ops[i].device, ops[i].type, accesses[i]}].push_back(
        static_cast<double>(values[i]));
  }
  double total = 0;
  for (const auto& [cls, v] : classes) {
    total += static_cast<double>(v.size()) * percentile(v, 1);
  }
  return total;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- traced-run extras ----------------------------------------------------

struct EngineReplay {
  double ns_per_check = 0;
  uint64_t checks = 0;  // one pass over every stream
  uint64_t steps = 0;
  uint64_t violations = 0;
};

/// Replays each device's recorded stream against a bare engine of `kind`,
/// from the shadow state the device had when recording started, kBestOf
/// times. The stream is timed in chunks of kReplayChunk checks; each chunk
/// counts with its fastest repetition (noise only adds time), the same
/// principle as quiet_total.
EngineReplay replay(const Setup& setup, Rig& rig,
                    const std::vector<sedspec::StateArena>& start,
                    const std::vector<const std::vector<sedspec::IoAccess>*>&
                        streams,
                    EngineKind kind) {
  CheckerConfig config;
  config.engine = kind;
  const sedspec::checker::engine::RoundOptions opts;
  std::vector<sedspec::StateArena> shadows;
  std::vector<std::unique_ptr<sedspec::checker::engine::CheckEngine>> engines;
  for (size_t d = 0; d < streams.size(); ++d) {
    sedspec::Device& device = rig.devices[d]->device();
    shadows.emplace_back(&device.program().layout());
  }
  for (size_t d = 0; d < streams.size(); ++d) {
    engines.push_back(sedspec::checker::engine::make_engine(
        setup.specs[d].get(), &rig.devices[d]->device(), &shadows[d],
        &config));
  }
  EngineReplay out;
  std::vector<uint64_t> best;  // per chunk, over all streams in order
  for (int rep = 0; rep < kBestOf; ++rep) {
    size_t chunk = 0;
    for (size_t d = 0; d < streams.size(); ++d) {
      const std::vector<sedspec::IoAccess>& stream = *streams[d];
      shadows[d].copy_from(start[d]);
      engines[d]->set_active_command(std::nullopt);
      for (size_t lo = 0; lo < stream.size(); lo += kReplayChunk, ++chunk) {
        const size_t hi = std::min(stream.size(), lo + kReplayChunk);
        const uint64_t t0 = now_ns();
        for (size_t i = lo; i < hi; ++i) {
          shadows[d].clear_locals();
          const auto r = engines[d]->check(stream[i], opts);
          if (rep == 0) {
            out.steps += r.steps;
            out.violations += r.violations.size();
          }
        }
        const uint64_t ns = now_ns() - t0;
        if (rep == 0) {
          best.push_back(ns);
          out.checks += hi - lo;
        } else {
          best[chunk] = std::min(best[chunk], ns);
        }
      }
    }
  }
  out.ns_per_check = per(sum(best), out.checks);
  return out;
}

/// One obs::now_ns() pair plus one histogram record, per probe (best of
/// kBestOf repetitions).
double probe_ns() {
  sedspec::obs::Histogram& hist =
      sedspec::obs::metrics().histogram("sedbench_probe_ns");
  constexpr int kProbes = 200'000;
  std::vector<double> reps;
  for (int rep = 0; rep < kBestOf; ++rep) {
    const uint64_t t0 = now_ns();
    for (int i = 0; i < kProbes; ++i) {
      const uint64_t a = sedspec::obs::now_ns();
      const uint64_t b = sedspec::obs::now_ns();
      hist.record(b - a);
    }
    reps.push_back(static_cast<double>(now_ns() - t0) / kProbes);
  }
  return fastest(reps);
}

/// Direct EsChecker::resync() calls on every checker of `rig` (best of
/// kBestOf repetitions).
double resync_ns(Rig& rig) {
  constexpr int kCalls = 20'000;
  std::vector<double> reps;
  for (int rep = 0; rep < kBestOf; ++rep) {
    const uint64_t t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) {
      for (auto& checker : rig.checkers) {
        checker->resync();
      }
    }
    reps.push_back(static_cast<double>(now_ns() - t0) /
                   (kCalls * static_cast<double>(rig.checkers.size())));
  }
  return fastest(reps);
}

double checker_stat(const Rig& rig,
                    uint64_t sedspec::checker::CheckerStats::*field) {
  uint64_t t = 0;
  for (const auto& c : rig.checkers) {
    t += c->stats().*field;
  }
  return static_cast<double>(t);
}

// --- the two runs -----------------------------------------------------------

/// Runs the set-up repetitions after the first one, evenly spaced over the
/// op loop.
std::function<void(size_t)> setup_sampler(const WorkloadDef& def,
                                          Setup& setup, size_t n_ops) {
  const size_t every = std::max<size_t>(1, n_ops / kSetupReps);
  return [&def, &setup, every](size_t i) {
    if ((i + 1) % every == 0 && setup.total_s.size() < kSetupReps) {
      setup.run_once(def);
    }
  };
}

std::vector<Metric> measured_run(const WorkloadDef& def, Setup& setup,
                                 const std::vector<Op>& ops,
                                 const CveResult& cves, Gate& gate,
                                 uint64_t& ok) {
  Rig replica = make_replica(def);
  Rig prot = make_protected(def, setup);
  std::vector<Rig*> rigs = {&replica, &prot};
  const Samples s = drive(rigs, ops, nullptr, {false, false},
                          setup_sampler(def, setup, ops.size()), gate);
  ok = s.ok;

  // Modeled guest time of each protected op: exits x kVmExitNs + host time.
  std::vector<double> op_us(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const uint64_t ns =
        s.accesses[i] * sedspec::benchsim::kVmExitNs + s.host_ns[1][i];
    op_us[i] = static_cast<double>(ns) / 1e3;
  }
  const double quiet_prot = quiet_total(ops, s.accesses, s.host_ns[1]);
  const double quiet_base = quiet_total(ops, s.accesses, s.host_ns[0]);
  const auto exits_ns =
      static_cast<double>(sum(s.accesses) * sedspec::benchsim::kVmExitNs);
  const double n = static_cast<double>(ops.size());
  return {
      {"guest_ops_per_s", n / (sum(op_us) / 1e6), "1/s"},
      {"guest_op_us_p50", percentile(op_us, 50), "us"},
      {"guest_op_us_p99", percentile(op_us, 99), "us"},
      {"norm_throughput", (exits_ns + quiet_base) / (exits_ns + quiet_prot),
       "ratio"},
      {"slowdown", quiet_prot / quiet_base, "ratio"},
      {"ok_op_ratio", static_cast<double>(s.ok) / n, "ratio"},
      {"setup_s", fastest(setup.total_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"cves_blocked", static_cast<double>(cves.blocked), "count"},
  };
}

std::vector<Metric> traced_run(const WorkloadDef& def, Setup& setup,
                               const std::vector<Op>& ops,
                               const CveResult& cves, const Args& args,
                               Gate& gate, uint64_t& ok) {
  // Rig 0: bare replica. Rig 1: replica behind a timing proxy with nothing
  // inside. Rig 2: protected, untraced. Rig 3: protected, each checker
  // wrapped in a timing proxy.
  Rig base = make_replica(def);
  Rig probed = make_replica(def);
  Rig prot = make_protected(def, setup);
  Rig traced = make_protected(def, setup);
  SpanLog log(kSpanCapacity);
  std::vector<std::unique_ptr<TimingProxy>> proxies;
  std::vector<sedspec::StateArena> start;
  std::vector<const std::vector<sedspec::IoAccess>*> streams;
  for (size_t d = 0; d < def.devices.size(); ++d) {
    proxies.push_back(std::make_unique<TimingProxy>(&log, 1, nullptr, 0));
    probed.devices[d]->bus().set_proxy(proxies.back().get());
    proxies.push_back(std::make_unique<TimingProxy>(
        &log, 3, traced.checkers[d].get(), kStreamCap));
    traced.devices[d]->bus().set_proxy(proxies.back().get());
    streams.push_back(&proxies.back()->stream());
    sedspec::Device& device = traced.devices[d]->device();
    start.emplace_back(&device.program().layout());
    start.back().copy_from(device.state());
  }
  std::vector<Rig*> rigs = {&base, &probed, &prot, &traced};
  const Samples s = drive(rigs, ops, &log, {false, true, false, true},
                          setup_sampler(def, setup, ops.size()), gate);
  ok = s.ok;
  const uint64_t accesses = sum(s.accesses);
  const double n = static_cast<double>(ops.size());

  const EngineReplay interp =
      replay(setup, traced, start, streams, EngineKind::kInterpreter);
  const EngineReplay bytecode =
      replay(setup, traced, start, streams, EngineKind::kBytecode);
  if (interp.steps != bytecode.steps ||
      interp.violations != bytecode.violations) {
    gate.fail("engines disagree on the recorded stream: interpreter " +
              std::to_string(interp.steps) + " steps/" +
              std::to_string(interp.violations) + " violations, bytecode " +
              std::to_string(bytecode.steps) + " steps/" +
              std::to_string(bytecode.violations) + " violations");
  }
  const EngineKind deployed = prot.checkers.front()->engine_kind();
  const double engine_ns = deployed == EngineKind::kInterpreter
                               ? interp.ns_per_check
                               : bytecode.ns_per_check;

  // Layer times per access, each a quiet total (see quiet_total) over the
  // per-op self times of one span kind.
  const auto n_access = static_cast<double>(accesses);
  auto quiet = [&](const std::vector<uint64_t>& per_op) {
    return quiet_total(ops, s.accesses, per_op);
  };
  auto layer_ns = [&](uint8_t rig, SpanKind kind) {
    std::vector<uint64_t> per_op;
    for (const SpanLog::OpSelf& o : log.op_self(rig)) {
      per_op.push_back(o.ns[static_cast<int>(kind)]);
    }
    return quiet(per_op) / n_access;
  };
  const double before_ns = layer_ns(3, SpanKind::kBefore);
  const double flagged_per_kop = 1000.0 * static_cast<double>(s.flagged) / n;

  log.print_self_times(stderr, {"replica", "probed", "protected", "traced"});
  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + def.name + "-" +
                             std::to_string(args.seed) + ".spans.tsv";
    if (!log.write_tsv(path)) {
      std::fprintf(stderr, "sedbench: cannot write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "sedbench: %" PRIu64 " spans written to %s (%" PRIu64
                   " beyond capacity folded into totals only)\n",
                   log.recorded(), path.c_str(), log.dropped());
    }
  }
  using Stats = sedspec::checker::CheckerStats;
  return {
      {"vdev.accesses_per_op", per(accesses, ops.size()), "count"},
      {"vdev.dma_bytes_per_op", per(s.dma_bytes, ops.size()), "B"},
      {"vdev.residual_ns_per_access", layer_ns(3, SpanKind::kOp), "ns"},
      {"devices.ns_per_access", layer_ns(1, SpanKind::kDevice), "ns"},
      {"checker.before_ns", before_ns, "ns"},
      {"checker.after_ns", layer_ns(3, SpanKind::kAfter), "ns"},
      {"checker.wrapper_ns", before_ns - engine_ns, "ns"},
      {"checker.resync_ns", resync_ns(prot), "ns"},
      {"checker.flagged_per_kop", flagged_per_kop, "count"},
      {"checker.blocked", checker_stat(prot, &Stats::blocked), "count"},
      {"checker.degraded_rounds", checker_stat(prot, &Stats::degraded_rounds),
       "count"},
      {"engine.check_ns.bytecode", bytecode.ns_per_check, "ns"},
      {"engine.check_ns.interpreter", interp.ns_per_check, "ns"},
      {"engine.steps_per_check", per(bytecode.steps, bytecode.checks),
       "count"},
      {"obs.probe_ns", probe_ns(), "ns"},
      {"pipeline.collect_ms", fastest(setup.collect_ms), "ms"},
      {"pipeline.construct_ms", fastest(setup.construct_ms), "ms"},
      {"pipeline.deploy_ms", fastest(setup.deploy_ms), "ms"},
      {"pipeline.trace_bytes", static_cast<double>(setup.trace_bytes), "B"},
      {"spec.blocks", static_cast<double>(setup.spec_blocks), "count"},
      {"host.access_ns", quiet(s.host_ns[2]) / n_access, "ns"},
      {"host.base_access_ns", quiet(s.host_ns[0]) / n_access, "ns"},
      {"trace.overhead_ratio", quiet(s.host_ns[3]) / quiet(s.host_ns[2]),
       "ratio"},
      {"exploits.matrix_ms", cves.wall_ms, "ms"},
  };
}

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace sedbench

int main(int argc, char** argv) {
  using namespace sedbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: sedbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>]\n");
    return 2;
  }
  const WorkloadDef* def = find_workload(args.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "sedbench: unknown workload '%s' (have: %s)\n",
                 args.workload.c_str(), workload_names().c_str());
    return 2;
  }
  // Warnings on flagged rounds still format their detail (that cost stays
  // in the measurement); only the stderr write is suppressed.
  sedspec::set_log_level(sedspec::LogLevel::kError);

  // The traced run drives four rigs instead of two, with tracing on; half
  // the ops keep it about as long as the measured run.
  const double share = args.trace ? 0.5 : 1.0;
  const size_t n_ops = std::max<size_t>(
      kMinOps,
      static_cast<size_t>(def->ops_per_second * args.seconds * share));
  const std::vector<Op> ops = make_ops(*def, args.seed, n_ops);
  std::fprintf(stderr, "sedbench: workload=%s seed=%" PRIu64
               " ops=%zu op_stream_digest=%016" PRIx64 "\n",
               def->name.c_str(), args.seed, ops.size(), digest(ops));

  Gate gate;
  Setup setup;
  setup.run_once(*def);
  const CveResult cves = run_cve_matrix(gate);
  uint64_t ok = 0;
  const std::vector<Metric> metrics =
      args.trace ? traced_run(*def, setup, ops, cves, args, gate, ok)
                 : measured_run(*def, setup, ops, cves, gate, ok);
  if (!gate.ok()) {
    std::fprintf(stderr, "sedbench: correctness gate failed (%zu findings)\n",
                 gate.errors.size());
  }
  print_result(gate.ok(), ops.size(), ops.size() - ok, metrics);
  return gate.ok() ? 0 : 1;
}
