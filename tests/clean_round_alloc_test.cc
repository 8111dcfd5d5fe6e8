// The hot check path does not allocate (ROADMAP aim 4): a clean round
// through EsChecker::before_access/after_access makes no heap allocation,
// under either engine. A counting global operator new, switched on only
// inside the two checker hooks, measures it; device emulation and the
// workload driver between the hooks are not counted.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "checker/checker.h"
#include "common/rng.h"
#include "guest/workload.h"
#include "sedspec/pipeline.h"

namespace {

thread_local bool g_counting = false;
thread_local uint64_t g_allocations = 0;

}  // namespace

// Test-binary-wide replacements: plain malloc/free plus a counter that is
// live only while g_counting is set on the allocating thread. (GCC flags
// free() inside a replacement operator delete as a new/free mismatch; here
// operator new is malloc, so the pairing is right.)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_counting) {
    ++g_allocations;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace sedspec {
namespace {

struct CountingProxy final : public IoProxy {
  checker::EsChecker* inner = nullptr;
  uint64_t rounds = 0;
  bool before_access(Device& d, const IoAccess& io) override {
    g_counting = true;
    const bool allow = inner->before_access(d, io);
    g_counting = false;
    ++rounds;
    return allow;
  }
  void after_access(Device& d, const IoAccess& io) override {
    g_counting = true;
    inner->after_access(d, io);
    g_counting = false;
  }
};

TEST(CleanRoundAllocations, CounterSeesAllocations) {
  // The hook must actually observe allocations, or a zero proves nothing.
  g_allocations = 0;
  g_counting = true;
  void* p = ::operator new(64);  // a direct call cannot be elided
  g_counting = false;
  ::operator delete(p);
  EXPECT_EQ(g_allocations, 1u);
}

TEST(CleanRoundAllocations, BenignRoundsAllocateNothing) {
  constexpr uint64_t kMinRounds = 10000;
  for (const char* dev : {"fdc", "sdhci"}) {
    for (const checker::EngineKind kind :
         {checker::EngineKind::kInterpreter, checker::EngineKind::kBytecode}) {
      const std::string ctx =
          std::string(dev) + "/" +
          std::string(checker::engine_kind_name(kind));
      auto wl = guest::make_workload(dev);
      const spec::EsCfg es =
          pipeline::build_spec(wl->device(), [&] { wl->training(); });
      checker::CheckerConfig cfg;
      cfg.engine = kind;
      checker::EsChecker ck(&es, &wl->device(), cfg);
      CountingProxy proxy;
      proxy.inner = &ck;
      wl->bus().set_proxy(&proxy);
      g_allocations = 0;
      Rng rng(0xa110c);
      while (proxy.rounds < kMinRounds) {
        wl->common_operation(guest::InteractionMode::kRandom, rng);
      }
      wl->bus().set_proxy(nullptr);
      EXPECT_EQ(g_allocations, 0u) << ctx << " over " << proxy.rounds
                                   << " rounds";
      // Every counted round was a clean one.
      EXPECT_EQ(ck.stats().rounds, proxy.rounds) << ctx;
      EXPECT_EQ(ck.stats().clean_rounds, proxy.rounds) << ctx;
    }
  }
}

}  // namespace
}  // namespace sedspec
