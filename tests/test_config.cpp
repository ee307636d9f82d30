#include "sim/config.h"

#include <gtest/gtest.h>

#include <limits>

namespace helcfl::sim {
namespace {

TEST(Config, PaperConfigIsValid) {
  EXPECT_NO_THROW(paper_config().validate());
}

TEST(Config, PaperConstants) {
  const ExperimentConfig c = paper_config();
  EXPECT_EQ(c.n_users, 100u);
  EXPECT_DOUBLE_EQ(c.fraction, 0.1);
  EXPECT_DOUBLE_EQ(c.f_min_hz, 0.3e9);
  EXPECT_DOUBLE_EQ(c.f_max_high_hz, 2.0e9);
  EXPECT_DOUBLE_EQ(c.switched_capacitance, 2e-28);
  EXPECT_DOUBLE_EQ(c.cycles_per_sample, 1e7);
  EXPECT_DOUBLE_EQ(c.bandwidth_hz, 2e6);
  EXPECT_DOUBLE_EQ(c.tx_power_w, 0.2);
  EXPECT_EQ(c.trainer.max_rounds, 300u);
  EXPECT_EQ(c.shards_per_user, 4u);
}

TEST(Config, SchemeParseRoundTrip) {
  for (const auto scheme : {Scheme::kHelcfl, Scheme::kHelcflNoDvfs, Scheme::kClassicFl,
                            Scheme::kFedCs, Scheme::kFedl, Scheme::kSl}) {
    const std::string name = scheme_name(scheme);
    EXPECT_FALSE(name.empty());
  }
  EXPECT_EQ(parse_scheme("helcfl"), Scheme::kHelcfl);
  EXPECT_EQ(parse_scheme("helcfl_nodvfs"), Scheme::kHelcflNoDvfs);
  EXPECT_EQ(parse_scheme("classic"), Scheme::kClassicFl);
  EXPECT_EQ(parse_scheme("fedcs"), Scheme::kFedCs);
  EXPECT_EQ(parse_scheme("fedl"), Scheme::kFedl);
  EXPECT_EQ(parse_scheme("sl"), Scheme::kSl);
  EXPECT_THROW(parse_scheme("sgd"), std::invalid_argument);
}

TEST(Config, ValidateRejectsZeroUsers) {
  ExperimentConfig c = paper_config();
  c.n_users = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, ValidateRejectsBadFraction) {
  ExperimentConfig c = paper_config();
  c.fraction = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.fraction = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, ValidateRejectsBadEta) {
  ExperimentConfig c = paper_config();
  c.eta = 1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c.eta = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, ValidateRejectsBadFrequencyRange) {
  ExperimentConfig c = paper_config();
  c.f_max_low_hz = 0.1e9;  // below f_min
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = paper_config();
  c.f_max_high_hz = c.f_max_low_hz / 2.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, ValidateRejectsBadRadio) {
  ExperimentConfig c = paper_config();
  c.bandwidth_hz = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = paper_config();
  c.gain_sq_high = c.gain_sq_low / 10.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, ValidateRejectsTooFewSamples) {
  ExperimentConfig c = paper_config();
  c.dataset.train_samples = 50;  // < 100 users
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, ValidateRejectsZeroRounds) {
  ExperimentConfig c = paper_config();
  c.trainer.max_rounds = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, ValidateRejectsNonIidWithoutShards) {
  ExperimentConfig c = paper_config();
  c.noniid = true;
  c.shards_per_user = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, ValidateRejectsNan) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  ExperimentConfig c = paper_config();
  c.fraction = kNan;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = paper_config();
  c.eta = kNan;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = paper_config();
  c.bandwidth_hz = kNan;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace helcfl::sim
