// Golden output of the offline pipeline: collect + construct on each
// evaluation device's training workload must reproduce these exact bytes.
// The CRC32s pin DeviceStateLog::serialize() and spec::serialize(); any
// change to data collection or ES-CFG construction that is meant to be a
// pure speed-up must leave them untouched. A change that alters the log or
// the spec on purpose must say so and update the table.
#include <gtest/gtest.h>

#include "common/crc32.h"
#include "guest/workload.h"
#include "sedspec/pipeline.h"
#include "spec/serial.h"

namespace sedspec {
namespace {

struct Golden {
  const char* device;
  uint32_t spec_crc;
  uint32_t log_crc;

  friend void PrintTo(const Golden& g, std::ostream* os) { *os << g.device; }
};

class PipelineGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(PipelineGolden, SpecAndLogBytesMatchReference) {
  const Golden& g = GetParam();
  auto wl = guest::make_workload(g.device);
  const pipeline::CollectionResult collection =
      pipeline::collect(wl->device(), [&] { wl->training(); });
  const spec::EsCfg cfg = pipeline::construct(wl->device(), collection);
  EXPECT_EQ(crc32(collection.log.serialize()), g.log_crc);
  EXPECT_EQ(crc32(spec::serialize(cfg)), g.spec_crc);
  EXPECT_EQ(collection.log.round_count(), collection.log.rounds().size());
}

INSTANTIATE_TEST_SUITE_P(
    AllDevices, PipelineGolden,
    ::testing::Values(Golden{"fdc", 0x9d00afd3u, 0xed323b78u},
                      Golden{"sdhci", 0xe3d8d59fu, 0x1ceafdedu},
                      Golden{"pcnet", 0x7ab7c23fu, 0x141e40afu},
                      Golden{"usb-ehci", 0xf3caeed2u, 0xd7d3d3adu},
                      Golden{"scsi-esp", 0xd3ac948cu, 0xac234248u}),
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string name = info.param.device;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace sedspec
