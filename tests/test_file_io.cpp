// util/file_io: the one path-token expander behind cadenced snapshot
// names (checkpoint "{round}", service "{decisions}").
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "fl_fixtures.h"
#include "svc/frame.h"
#include "svc/service.h"
#include "util/file_io.h"

namespace helcfl {
namespace {

TEST(ExpandPathToken, ReplacesEveryOccurrence) {
  EXPECT_EQ(util::expand_path_token("ck_r{round}.bin", "{round}", 12), "ck_r12.bin");
  EXPECT_EQ(util::expand_path_token("{round}/ck_{round}_{round}", "{round}", 3),
            "3/ck_3_3");
  EXPECT_EQ(util::expand_path_token("plain.bin", "{round}", 7), "plain.bin");
  // A value that itself looks like the token is not expanded again.
  EXPECT_EQ(util::expand_path_token("{r}{r}", "{r}", 0), "00");
}

TEST(ExpandPathToken, ServiceSnapshotPathWithTheTokenTwice) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "helcfl_path_token";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  svc::ServiceOptions options;
  options.fraction = 0.5;
  options.snapshot_every = 1;
  options.snapshot_path = (dir / "svc_{decisions}_of_{decisions}.bin").string();
  svc::SchedulerService service(
      testing::users_with_delays({{1.0, 0.5}, {2.0, 0.5}, {3.0, 0.5}, {4.0, 0.5}}),
      options);
  for (std::uint64_t seq = 1; seq <= 2; ++seq) {
    service.ingest(svc::encode_frame(svc::encode(svc::DecisionRequest{seq, seq})), seq);
    service.poll(seq);
  }
  EXPECT_EQ(service.stats().snapshots_written, 2u);
  EXPECT_TRUE(std::filesystem::exists(dir / "svc_1_of_1.bin"));
  EXPECT_TRUE(std::filesystem::exists(dir / "svc_2_of_2.bin"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace helcfl
