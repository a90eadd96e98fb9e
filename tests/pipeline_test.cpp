// Tests for the discrete-event pipeline simulator: schedule invariants,
// micro-batching effects, straggler behaviour, OOM propagation.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "hw/paper_clusters.h"
#include "model/registry.h"
#include "sim/pipeline.h"

namespace sq::sim {
namespace {

using sq::hw::Bitwidth;

ExecutionPlan even_plan(const sq::model::LlmSpec& m, int stages, Bitwidth b,
                        std::uint64_t eta, std::uint64_t xi) {
  ExecutionPlan p;
  const int per = m.n_layers / stages;
  for (int s = 0; s < stages; ++s) {
    p.stages.push_back({{s}, s * per, s + 1 == stages ? m.n_layers : (s + 1) * per});
  }
  p.layer_bits.assign(static_cast<std::size_t>(m.n_layers), b);
  p.prefill_microbatch = eta;
  p.decode_microbatch = xi;
  return p;
}

class PipelineFixture : public ::testing::Test {
 protected:
  PipelineFixture()
      : m_(sq::model::spec(sq::model::ModelId::kOpt13B)),
        c_(sq::hw::paper_cluster(9)) {}
  sq::model::LlmSpec m_;
  sq::hw::Cluster c_;
};

TEST_F(PipelineFixture, BasicInvariants) {
  const auto p = even_plan(m_, 4, Bitwidth::kInt8, 4, 8);
  BatchWorkload w{16, 512, 32, 2048};
  const SimResult r = simulate_batch(c_, m_, p, w);
  EXPECT_FALSE(r.oom);
  EXPECT_GT(r.prefill_us, 0.0);
  EXPECT_GT(r.decode_us, 0.0);
  EXPECT_NEAR(r.total_us, r.prefill_us + r.decode_us, 1.0);
  EXPECT_GT(r.throughput_tok_s, 0.0);
  EXPECT_GE(r.bubble_fraction, 0.0);
  EXPECT_LE(r.bubble_fraction, 1.0);
  ASSERT_EQ(r.stage_prefill_us.size(), 4u);
  ASSERT_EQ(r.stage_decode_us.size(), 4u);
}

TEST_F(PipelineFixture, ThroughputMatchesTokensOverTime) {
  const auto p = even_plan(m_, 4, Bitwidth::kInt8, 4, 8);
  BatchWorkload w{16, 512, 32, 2048};
  const SimResult r = simulate_batch(c_, m_, p, w);
  EXPECT_NEAR(r.throughput_tok_s, 16.0 * 32.0 / (r.total_us * 1e-6), 1e-6);
}

TEST_F(PipelineFixture, OomShortCircuits) {
  const auto big = sq::model::spec(sq::model::ModelId::kOpt66B);
  const auto p = even_plan(big, 4, Bitwidth::kFp16, 4, 8);
  BatchWorkload w{64, 1024, 64, 2048};
  const SimResult r = simulate_batch(c_, big, p, w);
  EXPECT_TRUE(r.oom);
  EXPECT_GE(r.oom_device, 0);
  EXPECT_EQ(r.throughput_tok_s, 0.0);
}

TEST_F(PipelineFixture, MicrobatchingPipelinesPrefill) {
  // With more micro-batches the pipeline overlaps stage work: total time
  // should drop versus one giant micro-batch (bubbles permitting).
  BatchWorkload w{32, 1024, 8, 2048};
  const auto serial = even_plan(m_, 4, Bitwidth::kInt8, 32, 32);
  const auto piped = even_plan(m_, 4, Bitwidth::kInt8, 4, 32);
  const double t_serial = simulate_batch(c_, m_, serial, w).prefill_us;
  const double t_piped = simulate_batch(c_, m_, piped, w).prefill_us;
  EXPECT_LT(t_piped, t_serial);
}

TEST_F(PipelineFixture, StragglerDominatesPipeline) {
  // Heterogeneous cluster: putting most layers on the P100s slows the
  // whole pipeline versus loading the V100.
  const auto het = sq::hw::paper_cluster(6);  // 3x P100 + 1x V100
  const auto m = sq::model::spec(sq::model::ModelId::kOpt13B);
  BatchWorkload w{8, 512, 16, 2048};

  ExecutionPlan p100_heavy;
  p100_heavy.stages.push_back({{0}, 0, 12});
  p100_heavy.stages.push_back({{1}, 12, 24});
  p100_heavy.stages.push_back({{2}, 24, 36});
  p100_heavy.stages.push_back({{3}, 36, 40});  // V100 nearly idle
  p100_heavy.layer_bits.assign(40, Bitwidth::kInt4);
  p100_heavy.prefill_microbatch = 4;
  p100_heavy.decode_microbatch = 8;

  ExecutionPlan v100_heavy = p100_heavy;
  v100_heavy.stages[0].layer_end = 4;
  v100_heavy.stages[1] = {{1}, 4, 8};
  v100_heavy.stages[2] = {{2}, 8, 12};
  v100_heavy.stages[3] = {{3}, 12, 40};  // V100 takes the bulk

  const double t_bad = simulate_batch(het, m, p100_heavy, w).total_us;
  const double t_good = simulate_batch(het, m, v100_heavy, w).total_us;
  EXPECT_LT(t_good, t_bad * 0.6);
}

TEST_F(PipelineFixture, QuantizedWeightsSpeedUpDecodeHeavyWorkloads) {
  BatchWorkload w{8, 128, 128, 2048};  // decode-dominated
  const auto fp16 = even_plan(m_, 4, Bitwidth::kFp16, 4, 8);
  const auto int4 = even_plan(m_, 4, Bitwidth::kInt4, 4, 8);
  const double t16 = simulate_batch(c_, m_, fp16, w).decode_us;
  const double t4 = simulate_batch(c_, m_, int4, w).decode_us;
  EXPECT_LT(t4, t16);
}

TEST_F(PipelineFixture, SlowInterconnectHurts) {
  // Same devices, slower Ethernet between stages (cluster 6 link is 100G).
  const auto fast = sq::hw::paper_cluster(5);  // T4s + V100, 800G
  const auto m = sq::model::spec(sq::model::ModelId::kOpt13B);
  ExecutionPlan p;
  p.stages.push_back({{0}, 0, 20});
  p.stages.push_back({{3}, 20, 40});  // crosses T4-node -> V100-node link
  p.layer_bits.assign(40, Bitwidth::kInt8);
  p.prefill_microbatch = 2;
  p.decode_microbatch = 8;
  BatchWorkload w{16, 1024, 16, 2048};
  const double t800 = simulate_batch(fast, m, p, w).total_us;

  // Rebuild cluster 5 with 100 Gbit Ethernet.
  auto nodes = fast.nodes();
  const sq::hw::Cluster slow("slow", {nodes[0], nodes[1]}, 100.0);
  const double t100 = simulate_batch(slow, m, p, w).total_us;
  EXPECT_GT(t100, t800);
}

TEST_F(PipelineFixture, StageHelpersMatchPlanBits) {
  const auto p = even_plan(m_, 4, Bitwidth::kInt8, 4, 8);
  BatchWorkload w{16, 512, 32, 2048};
  const KernelModel km;
  const double t0 = stage_prefill_time_us(c_, m_, p, 0, 4, w, km);
  EXPECT_GT(t0, 0.0);
  const double d0 = stage_decode_time_us(c_, m_, p, 0, 8, 512, km);
  EXPECT_GT(d0, 0.0);
  // Custom-backend discount inflates both.
  EXPECT_GT(stage_prefill_time_us(c_, m_, p, 0, 4, w, km, 0.7), t0);
}

TEST_F(PipelineFixture, DeterministicAcrossRuns) {
  const auto p = even_plan(m_, 4, Bitwidth::kInt8, 4, 8);
  BatchWorkload w{16, 512, 32, 2048};
  const SimResult a = simulate_batch(c_, m_, p, w);
  const SimResult b = simulate_batch(c_, m_, p, w);
  EXPECT_EQ(a.total_us, b.total_us);
}

TEST_F(PipelineFixture, StageTimeMemoizationIsBitExact) {
  const auto p = even_plan(m_, 4, Bitwidth::kInt4, 4, 8);
  BatchWorkload w{16, 512, 32, 2048};
  PipelineOptions cached;
  cached.kernel.ground_truth = true;
  PipelineOptions uncached = cached;
  uncached.memoize = false;

  stage_cache_clear();
  const SimResult a = simulate_batch(c_, m_, p, w, uncached);
  const SimResult b = simulate_batch(c_, m_, p, w, cached);   // fills cache
  const SimResult c = simulate_batch(c_, m_, p, w, cached);   // pure hits
  EXPECT_EQ(stage_cache_stats().misses, stage_cache_stats().entries);
  EXPECT_GT(stage_cache_stats().hits, 0u);

  for (const SimResult* r : {&b, &c}) {
    EXPECT_EQ(a.prefill_us, r->prefill_us);
    EXPECT_EQ(a.decode_us, r->decode_us);
    EXPECT_EQ(a.total_us, r->total_us);
    EXPECT_EQ(a.throughput_tok_s, r->throughput_tok_s);
    EXPECT_EQ(a.stage_prefill_us, r->stage_prefill_us);
    EXPECT_EQ(a.stage_decode_us, r->stage_decode_us);
  }
}

TEST_F(PipelineFixture, StageCacheDistinguishesBitwidthAndShape) {
  BatchWorkload w{16, 512, 32, 2048};
  stage_cache_clear();
  const SimResult a =
      simulate_batch(c_, m_, even_plan(m_, 4, Bitwidth::kInt4, 4, 8), w);
  const SimResult b =
      simulate_batch(c_, m_, even_plan(m_, 4, Bitwidth::kInt8, 4, 8), w);
  EXPECT_NE(a.total_us, b.total_us);
  BatchWorkload w2{16, 768, 32, 2048};
  const SimResult c =
      simulate_batch(c_, m_, even_plan(m_, 4, Bitwidth::kInt4, 4, 8), w2);
  EXPECT_NE(a.total_us, c.total_us);
}

/// Frozen oracle for stage_prefill_time_us / stage_decode_time_us: one
/// kernel-model call per layer, summed in layer order.
double per_layer_sum(const sq::hw::Cluster& c, const sq::model::LlmSpec& m,
                     const ExecutionPlan& p, std::size_t stage, Phase phase,
                     std::uint64_t v, std::uint64_t len, std::uint64_t chunks,
                     const KernelModel& km, double eff) {
  const auto& st = p.stages[stage];
  const auto& spec = c.spec(st.devices.front());
  const double tp_link =
      c.nodes()[static_cast<std::size_t>(c.device(st.devices.front()).node)]
          .intra_gbps;
  double total = 0.0;
  for (int l = st.layer_begin; l < st.layer_end; ++l) {
    const Bitwidth b = p.layer_bits[static_cast<std::size_t>(l)];
    const double t = km.layer_time_us(spec, m, phase, v, len, b, p.kv_bits,
                                      st.tp(), tp_link);
    if (phase == Phase::kPrefill) {
      total += t * static_cast<double>(chunks);
    } else {
      total += t;
    }
  }
  return total / eff;
}

// Stage times reuse one kernel-model value per run of equal-bitwidth
// layers; the result must be bit-identical to the per-layer sum, with the
// bitwidths interleaved inside a stage, a tensor-parallel stage and a
// multi-chunk prefill.
TEST_F(PipelineFixture, StageTimesMatchFrozenPerLayerSumBitForBit) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt1_3B);  // 24 layers
  ExecutionPlan p;
  p.stages.push_back({{0, 1}, 0, 5});  // tp = 2
  p.stages.push_back({{2}, 5, 14});
  p.stages.push_back({{3}, 14, 24});
  const Bitwidth pattern[] = {Bitwidth::kInt4, Bitwidth::kInt4, Bitwidth::kInt8,
                              Bitwidth::kInt4, Bitwidth::kFp16, Bitwidth::kInt3,
                              Bitwidth::kInt8};
  for (int l = 0; l < m.n_layers; ++l) p.layer_bits.push_back(pattern[l % 7]);
  p.prefill_microbatch = 2;
  p.decode_microbatch = 8;
  ASSERT_TRUE(p.validate(m, c_).empty()) << p.validate(m, c_);
  const auto bits_of = [](double x) { return std::bit_cast<std::uint64_t>(x); };

  for (const bool truth : {false, true}) {
    const KernelModel km({.ground_truth = truth, .seed = 11});
    for (const double eff : {1.0, 0.7}) {
      for (std::size_t s = 0; s < p.stages.size(); ++s) {
        for (const std::uint64_t v : {1u, 3u, 16u}) {
          // Multi-chunk prefill: 5000 tokens in 2048-token chunks -> 3.
          const BatchWorkload multi{v, 5000, 8, 2048};
          const BatchWorkload single{v, 700, 8, 2048};
          for (const BatchWorkload& w : {multi, single}) {
            EXPECT_EQ(bits_of(stage_prefill_time_us(c_, m, p, s, v, w, km, eff)),
                      bits_of(per_layer_sum(c_, m, p, s, Phase::kPrefill, v,
                                            w.chunk_len(), w.chunks(), km, eff)))
                << "prefill stage " << s << " v " << v << " chunks "
                << w.chunks();
          }
          for (const std::uint64_t ctx : {1u, 513u, 1900u}) {
            EXPECT_EQ(bits_of(stage_decode_time_us(c_, m, p, s, v, ctx, km, eff)),
                      bits_of(per_layer_sum(c_, m, p, s, Phase::kDecode, v, ctx,
                                            1, km, eff)))
                << "decode stage " << s << " v " << v << " ctx " << ctx;
          }
        }
      }
    }
  }
  EXPECT_EQ(BatchWorkload({1, 5000, 8, 2048}).chunks(), 3u);
}

}  // namespace
}  // namespace sq::sim
