// bench_compiled_checker — interpreter vs. compiled bytecode engine, measured
// as bare per-check latency on a recorded I/O stream (paper §VII setup, but
// isolating the *engine* from the EsChecker wrapper).
//
// Methodology: run each device's random workload once with a live checker and
// record the exact IoAccess stream the checker saw. Then, per engine, replay
// that stream against a bare CheckEngine (public make_engine API) over a
// shadow arena seeded from the device state. Each measured repetition loops
// the stream until a minimum check count is reached (so short streams —
// pcnet's ~500 accesses — still produce stable numbers), timing the whole
// pass with two clock reads total. Best-of-N repetitions is reported, which
// discards scheduler noise rather than averaging it in.
//
// The replay is validated differentially as it runs: both engines must
// produce the same violation and traversal-step totals, or the bench fails.
// The step total per check is also exported (steps_per_check_<device>):
// unlike the timings it is exact, so the baseline gate pins it.
//
// Usage: bench_compiled_checker [--smoke]
//   full mode additionally enforces the acceptance bars (every speedup
//   > 1.0, overall bytecode mean < 100 ns); --smoke shrinks the workload
//   and repetition counts for the seconds-long ctest fixture and skips the
//   perf bars (a loaded CI machine must not flake the suite on noise).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "checker/checker.h"
#include "checker/engine/engine.h"
#include "guest/workload.h"
#include "report.h"
#include "sedspec/pipeline.h"
#include "spec/es_cfg.h"

using namespace sedspec;
using Clock = std::chrono::steady_clock;

namespace {

constexpr uint64_t kSeed = 777;

struct Params {
  int guest_ops = 300;       // workload operations recorded per device
  int reps = 9;              // best-of-N repetitions
  uint64_t min_checks = 120000;  // checks per repetition (stream looped)
  bool enforce_bars = true;
};

struct Recorder final : public IoProxy {
  checker::EsChecker* inner = nullptr;
  std::vector<IoAccess> log;
  bool before_access(Device& d, const IoAccess& io) override {
    log.push_back(io);
    return inner->before_access(d, io);
  }
  void after_access(Device& d, const IoAccess& io) override {
    inner->after_access(d, io);
  }
};

struct EngineRun {
  double best_ns = 0;    // best-of-reps ns per check
  uint64_t violations = 0;  // per stream pass (identical across reps)
  uint64_t steps = 0;
};

EngineRun replay(const spec::EsCfg& es, Device& device,
                 const std::vector<IoAccess>& stream,
                 checker::EngineKind kind, const Params& prm) {
  checker::CheckerConfig ecfg;
  ecfg.engine = kind;
  StateArena shadow(&device.program().layout());
  shadow.copy_from(device.state());
  const auto eng =
      checker::engine::make_engine(&es, &device, &shadow, &ecfg);
  const checker::engine::RoundOptions opts;

  const uint64_t passes =
      (prm.min_checks + stream.size() - 1) / stream.size();
  EngineRun out;
  out.best_ns = 1e18;
  for (int rep = 0; rep < prm.reps; ++rep) {
    uint64_t viols = 0;
    uint64_t steps = 0;
    const auto t0 = Clock::now();
    for (uint64_t pass = 0; pass < passes; ++pass) {
      // Each pass re-seeds the shadow exactly like a deploy-time resync.
      shadow.copy_from(device.state());
      eng->set_active_command(std::nullopt);
      for (const IoAccess& io : stream) {
        shadow.clear_locals();
        const checker::CheckResult r = eng->check(io, opts);
        viols += r.violations.size();
        steps += r.steps;
      }
    }
    const auto t1 = Clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        (static_cast<double>(passes) * static_cast<double>(stream.size()));
    if (ns < out.best_ns) {
      out.best_ns = ns;
    }
    out.violations = viols / passes;
    out.steps = steps / passes;
  }
  return out;
}

std::string sanitize(std::string name) {
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

}  // namespace

int main(int argc, char** argv) {
  Params prm;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      prm.guest_ops = 40;
      prm.reps = 3;
      prm.min_checks = 6000;
      prm.enforce_bars = false;
    }
  }

  bench_report::MetricSink sink("compiled_checker");
  bool ok = true;
  double sum_interp = 0;
  double sum_byte = 0;
  int devices = 0;

  std::printf("%-10s %12s %12s %8s %10s %8s\n", "device", "interp_ns",
              "bytecode_ns", "speedup", "accesses", "diff");
  for (const std::string& dev : guest::workload_names()) {
    // Record the stream a live checked run actually sees.
    auto wl = guest::make_workload(dev);
    const spec::EsCfg es =
        pipeline::build_spec(wl->device(), [&] { wl->training(); });
    checker::CheckerConfig cfg;
    checker::EsChecker ck(&es, &wl->device(), cfg);
    Recorder rec;
    rec.inner = &ck;
    wl->bus().set_proxy(&rec);
    Rng rng(kSeed);
    for (int i = 0; i < prm.guest_ops; ++i) {
      wl->common_operation(guest::InteractionMode::kRandom, rng);
    }
    wl->bus().set_proxy(nullptr);
    if (rec.log.empty()) {
      std::fprintf(stderr, "FAIL: %s recorded no accesses\n", dev.c_str());
      return 1;
    }

    const EngineRun ir = replay(es, wl->device(), rec.log,
                                checker::EngineKind::kInterpreter, prm);
    const EngineRun br = replay(es, wl->device(), rec.log,
                                checker::EngineKind::kBytecode, prm);
    const bool same =
        ir.violations == br.violations && ir.steps == br.steps;
    const double speedup = ir.best_ns / br.best_ns;
    std::printf("%-10s %12.1f %12.1f %7.2fx %10zu %8s\n", dev.c_str(),
                ir.best_ns, br.best_ns, speedup, rec.log.size(),
                same ? "ok" : "MISMATCH");
    if (!same) {
      std::fprintf(stderr,
                   "FAIL: %s engines diverged (interp %llu viols/%llu steps, "
                   "bytecode %llu viols/%llu steps)\n",
                   dev.c_str(),
                   static_cast<unsigned long long>(ir.violations),
                   static_cast<unsigned long long>(ir.steps),
                   static_cast<unsigned long long>(br.violations),
                   static_cast<unsigned long long>(br.steps));
      ok = false;
    }
    const std::string tag = sanitize(dev);
    sink.put("check_ns_interpreter_" + tag, ir.best_ns);
    sink.put("check_ns_bytecode_" + tag, br.best_ns);
    sink.put("speedup_" + tag, speedup);
    // ES-CFG blocks walked per check: a deterministic work count (same
    // spec, same recorded stream), gated exactly where the timings above
    // need wide tolerances.
    sink.put("steps_per_check_" + tag,
             static_cast<double>(br.steps) /
                 static_cast<double>(rec.log.size()));
    sum_interp += ir.best_ns;
    sum_byte += br.best_ns;
    ++devices;
    if (prm.enforce_bars && speedup <= 1.0) {
      std::fprintf(stderr, "FAIL: %s speedup %.3f <= 1.0\n", dev.c_str(),
                   speedup);
      ok = false;
    }
  }

  const double overall_interp = sum_interp / devices;
  const double overall_byte = sum_byte / devices;
  sink.put("overall_check_ns_interpreter", overall_interp);
  sink.put("overall_check_ns_bytecode", overall_byte);
  sink.put("overall_speedup", overall_interp / overall_byte);
  std::printf("%-10s %12.1f %12.1f %7.2fx\n", "overall", overall_interp,
              overall_byte, overall_interp / overall_byte);
  if (prm.enforce_bars && overall_byte >= 100.0) {
    std::fprintf(stderr, "FAIL: overall bytecode %.1f ns >= 100 ns bar\n",
                 overall_byte);
    ok = false;
  }
  sink.write_json();
  return ok ? 0 : 1;
}
