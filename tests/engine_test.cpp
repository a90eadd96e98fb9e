// Tests for the offline serving engine.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "hw/paper_clusters.h"
#include "model/registry.h"
#include "runtime/engine.h"

namespace sq::runtime {
namespace {

using sq::hw::Bitwidth;

sq::sim::ExecutionPlan plan_for(const sq::model::LlmSpec& m, int stages, Bitwidth b) {
  sq::sim::ExecutionPlan p;
  const int per = m.n_layers / stages;
  for (int s = 0; s < stages; ++s) {
    p.stages.push_back({{s}, s * per, s + 1 == stages ? m.n_layers : (s + 1) * per});
  }
  p.layer_bits.assign(static_cast<std::size_t>(m.n_layers), b);
  p.prefill_microbatch = 4;
  p.decode_microbatch = 16;
  return p;
}

class EngineFixture : public ::testing::Test {
 protected:
  EngineFixture()
      : m_(sq::model::spec(sq::model::ModelId::kOpt13B)),
        c_(sq::hw::paper_cluster(9)) {}
  sq::model::LlmSpec m_;
  sq::hw::Cluster c_;
};

TEST_F(EngineFixture, ServesBatchesAndAggregates) {
  const OfflineEngine eng(c_, m_, plan_for(m_, 4, Bitwidth::kInt8));
  std::vector<sq::sim::BatchWorkload> batches = {{16, 512, 32, 2048},
                                                 {16, 256, 16, 2048}};
  const ServeStats s = eng.serve(batches).serve;
  ASSERT_TRUE(s.feasible) << s.failure;
  EXPECT_EQ(s.batches, 2u);
  EXPECT_GE(s.waves, 2u);
  EXPECT_NEAR(s.output_tokens, 16.0 * 32 + 16.0 * 16, 1e-9);
  EXPECT_GT(s.throughput_tok_s, 0.0);
  EXPECT_GT(s.total_seconds, 0.0);
}

TEST_F(EngineFixture, RejectsInvalidPlan) {
  auto p = plan_for(m_, 4, Bitwidth::kInt8);
  p.stages[1].layer_begin += 1;  // break contiguity
  const OfflineEngine eng(c_, m_, p);
  const ServeStats s = eng.serve({{8, 256, 16, 2048}}).serve;
  EXPECT_FALSE(s.feasible);
  EXPECT_NE(s.failure.find("invalid plan"), std::string::npos);
}

TEST_F(EngineFixture, ReportsHardOom) {
  const auto big = sq::model::spec(sq::model::ModelId::kOpt66B);
  sq::sim::ExecutionPlan p;
  p.stages.push_back({{0}, 0, big.n_layers});
  p.layer_bits.assign(static_cast<std::size_t>(big.n_layers), Bitwidth::kFp16);
  const OfflineEngine eng(sq::hw::paper_cluster(1), big, p);
  const ServeStats s = eng.serve({{8, 256, 16, 2048}}).serve;
  EXPECT_FALSE(s.feasible);
  EXPECT_NE(s.failure.find("OOM"), std::string::npos);
}

TEST_F(EngineFixture, ConcurrencyCapSplitsIntoWaves) {
  const OfflineEngine eng(c_, m_, plan_for(m_, 4, Bitwidth::kFp16));
  const ServeStats s = eng.serve({{256, 1500, 64, 2048}}).serve;
  ASSERT_TRUE(s.feasible) << s.failure;
  EXPECT_EQ(s.batches, 1u);
  EXPECT_GT(s.waves, 1u);
  EXPECT_EQ(s.capped_batches, 1u);
}

TEST_F(EngineFixture, CustomBackendIsSlower) {
  const auto plan = plan_for(m_, 4, Bitwidth::kInt8);
  const OfflineEngine vllm(c_, m_, plan, Backend::kVllmStyle);
  const OfflineEngine custom(c_, m_, plan, Backend::kCustom);
  EXPECT_LT(custom.backend_efficiency(), vllm.backend_efficiency());
  const std::vector<sq::sim::BatchWorkload> b = {{16, 512, 32, 2048}};
  EXPECT_LT(custom.serve(b).serve.throughput_tok_s,
            vllm.serve(b).serve.throughput_tok_s);
}

TEST_F(EngineFixture, ServeRequestsEndToEnd) {
  const OfflineEngine eng(c_, m_, plan_for(m_, 4, Bitwidth::kInt8));
  const auto reqs = sq::workload::sample(sq::workload::Dataset::kCnnDailyMail, 64, 5);
  const ServeStats s = eng.serve_requests(reqs, 32).serve;
  ASSERT_TRUE(s.feasible) << s.failure;
  EXPECT_EQ(s.batches, 2u);
  EXPECT_GT(s.output_tokens, 0.0);
}

TEST_F(EngineFixture, DeterministicServing) {
  const OfflineEngine eng(c_, m_, plan_for(m_, 4, Bitwidth::kInt8));
  const std::vector<sq::sim::BatchWorkload> b = {{16, 512, 32, 2048}};
  EXPECT_EQ(eng.serve(b).serve.total_seconds, eng.serve(b).serve.total_seconds);
}

/// Bit-exact rendering of every ServeStats field (hexfloat doubles).
std::string fingerprint(const ServeStats& s) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "feasible=%d batches=%llu waves=%llu capped=%llu sec=%a "
                "tok=%a tput=%a bubble=%a",
                s.feasible, static_cast<unsigned long long>(s.batches),
                static_cast<unsigned long long>(s.waves),
                static_cast<unsigned long long>(s.capped_batches),
                s.total_seconds, s.output_tokens, s.throughput_tok_s,
                s.mean_bubble);
  return buf + (s.failure.empty() ? "" : " failure=" + s.failure);
}

// The fault-free wave loop is pinned to goldens captured before fault
// tolerance was folded into it: an empty fault schedule must leave every
// bit of the result where the plain engine put it.
TEST_F(EngineFixture, FaultFreeServeMatchesPinnedGoldens) {
  const auto i8 = plan_for(m_, 4, Bitwidth::kInt8);
  const auto reqs = sq::workload::sample(sq::workload::Dataset::kCnnDailyMail, 64, 5);
  EXPECT_EQ(fingerprint(OfflineEngine(c_, m_, i8)
                            .serve({{16, 512, 32, 2048}, {16, 256, 16, 2048}})
                            .serve),
            "feasible=1 batches=2 waves=2 capped=0 sec=0x1.05d539185936ep+3 "
            "tok=0x1.8p+9 tput=0x1.7772100c4d26bp+6 bubble=0x1.023049872d112p-1");
  EXPECT_EQ(fingerprint(OfflineEngine(c_, m_, plan_for(m_, 4, Bitwidth::kFp16))
                            .serve({{256, 1500, 64, 2048}})
                            .serve),
            "feasible=1 batches=1 waves=4 capped=1 sec=0x1.d7e93172f9b53p+5 "
            "tok=0x1p+14 tput=0x1.15bf51a5f39d5p+8 bubble=0x1.eda88c6d5b3fp-4");
  EXPECT_EQ(fingerprint(OfflineEngine(c_, m_, i8, Backend::kVllmStyle)
                            .serve({{16, 512, 32, 2048}})
                            .serve),
            "feasible=1 batches=1 waves=1 capped=0 sec=0x1.46d184105dd4dp+2 "
            "tok=0x1p+9 tput=0x1.910df3ff2fe37p+6 bubble=0x1.068cf8996358bp-1");
  EXPECT_EQ(fingerprint(OfflineEngine(c_, m_, i8, Backend::kCustom)
                            .serve({{16, 512, 32, 2048}})
                            .serve),
            "feasible=1 batches=1 waves=1 capped=0 sec=0x1.c5e38d5d0b88p+2 "
            "tok=0x1p+9 tput=0x1.20c68909b547ep+6 bubble=0x1.06895e9ca8392p-1");
  EXPECT_EQ(fingerprint(OfflineEngine(c_, m_, i8).serve_requests(reqs, 32).serve),
            "feasible=1 batches=2 waves=2 capped=0 sec=0x1.a9ad3c3dc3a28p+5 "
            "tok=0x1.1b8p+14 tput=0x1.54fdbde9aa2fcp+8 bubble=0x1.98e60ea9130eep-2");
}

}  // namespace
}  // namespace sq::runtime
