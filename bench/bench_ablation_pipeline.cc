// Ablation B: offline pipeline costs and the effect of control-flow
// reduction (DESIGN.md design choice #3/#5).
//
// - trace decode throughput (IPT-style packet stream -> event stream)
// - ITC-CFG construction throughput
// - data collection (trace pass + ITC-CFG + observation pass) per device,
//   on the device's real training mix
// - ES-CFG construction (Algorithm 1 + reduction) per device, over the log
//   that collection produced
// - reduction statistics: blocks before/after, merged conditionals,
//   spliced blocks, serialized spec size
#include <benchmark/benchmark.h>

#include <cstdio>

#include "cfg/itc_cfg.h"
#include "gbench_json.h"
#include "guest/workload.h"
#include "sedspec/pipeline.h"
#include "spec/builder.h"
#include "spec/serial.h"
#include "trace/encoder.h"

namespace {

using namespace sedspec;

std::vector<uint8_t> synthetic_packets(size_t rounds) {
  trace::PacketEncoder encoder;
  Rng rng(5);
  for (size_t r = 0; r < rounds; ++r) {
    encoder.pge(0x400000);
    const int blocks = static_cast<int>(rng.range(3, 12));
    for (int b = 0; b < blocks; ++b) {
      encoder.tip(0x400000 + 16 * rng.below(64));
      if (rng.chance(0.5)) {
        encoder.tnt(rng.chance(0.5));
      }
    }
    encoder.pgd();
  }
  return encoder.finish();
}

void BM_TraceDecode(benchmark::State& state) {
  const auto packets = synthetic_packets(1000);
  for (auto _ : state) {
    auto events = trace::decode(packets);
    benchmark::DoNotOptimize(events);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_TraceDecode)->Unit(benchmark::kMicrosecond)->MinTime(0.05);

void BM_ItcCfgBuild(benchmark::State& state) {
  const auto events = trace::decode(synthetic_packets(1000));
  for (auto _ : state) {
    cfg::ItcCfgBuilder builder;
    builder.feed_all(events);
    auto graph = builder.take();
    benchmark::DoNotOptimize(graph);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_ItcCfgBuild)->Unit(benchmark::kMicrosecond)->MinTime(0.05);

void BM_Collect(benchmark::State& state, const std::string& device) {
  auto wl = guest::make_workload(device);
  size_t rounds = 0;
  for (auto _ : state) {
    pipeline::CollectionResult collected =
        pipeline::collect(wl->device(), [&] { wl->training(); });
    rounds = collected.log.round_count();
    benchmark::DoNotOptimize(collected);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rounds));
}

void BM_EsCfgConstruction(benchmark::State& state,
                          const std::string& device) {
  auto wl = guest::make_workload(device);
  const pipeline::CollectionResult collected =
      pipeline::collect(wl->device(), [&] { wl->training(); });
  for (auto _ : state) {
    spec::EsCfg cfg = pipeline::construct(wl->device(), collected);
    benchmark::DoNotOptimize(cfg);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(collected.log.round_count()));
}

void print_reduction_stats(bench_report::MetricSink& sink) {
  std::printf(
      "\nControl-flow reduction / spec size per device.\n"
      "Reduction part 1 (paper §IV-A/§V-C) happens at collection time: only\n"
      "observation-plan sites enter the log, so 'sites' -> 'blocks' is the\n"
      "filtering reduction; 'merged'/'spliced' count the part-2 rewrites.\n");
  std::printf("%-10s %8s %8s %8s %8s %8s %10s %8s\n", "device", "sites",
              "blocks", "filtered", "merged", "spliced", "specbytes",
              "rounds");
  for (const std::string& device : guest::workload_names()) {
    auto wl = guest::make_workload(device);
    spec::EsCfg cfg =
        pipeline::build_spec(wl->device(), [&] { wl->training(); });
    const size_t sites = wl->device().program().site_count();
    const size_t spec_bytes = spec::serialize(cfg).size();
    std::printf("%-10s %8zu %8zu %8zu %8llu %8llu %10zu %8llu\n",
                device.c_str(), sites, cfg.blocks.size(),
                sites - cfg.blocks.size(),
                (unsigned long long)cfg.merged_conditionals,
                (unsigned long long)cfg.spliced_blocks, spec_bytes,
                (unsigned long long)cfg.trained_rounds);
    sink.put("reduction/" + device + "/blocks",
             static_cast<double>(cfg.blocks.size()));
    sink.put("reduction/" + device + "/filtered",
             static_cast<double>(sites - cfg.blocks.size()));
    sink.put("reduction/" + device + "/spec_bytes",
             static_cast<double>(spec_bytes));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (const std::string& device : guest::workload_names()) {
    benchmark::RegisterBenchmark(("BM_Collect/" + device).c_str(),
                                 [device](benchmark::State& state) {
                                   BM_Collect(state, device);
                                 })
        ->Unit(benchmark::kMicrosecond)
        ->MinTime(0.05);
    benchmark::RegisterBenchmark(("BM_EsCfgConstruction/" + device).c_str(),
                                 [device](benchmark::State& state) {
                                   BM_EsCfgConstruction(state, device);
                                 })
        ->Unit(benchmark::kMicrosecond)
        ->MinTime(0.05);
  }
  bench_report::MetricSink sink("ablation_pipeline");
  const bool format_overridden =
      bench_report::format_flag_present(argc, argv);
  benchmark::Initialize(&argc, argv);
  bench_report::run_with_capture(format_overridden, &sink);
  print_reduction_stats(sink);
  benchmark::Shutdown();
  sink.write_json();
  return 0;
}
