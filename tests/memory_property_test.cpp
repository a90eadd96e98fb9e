// Property: the closed-form concurrency cap (runtime::max_concurrency)
// equals the frozen binary search over sim::plan_memory on seeded random
// plans — registry models, paper clusters 1-10, pipelines of TP-1 and TP-2
// stages with random layer splits and per-layer bits, every KV precision,
// batches 0..2047, random prompts, generations, chunks and micro-batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "hw/paper_clusters.h"
#include "model/registry.h"
#include "oracles/max_concurrency_reference.h"
#include "runtime/scheduler.h"
#include "tensor/rng.h"

namespace sq::runtime {
namespace {

using sq::hw::Bitwidth;

Bitwidth random_bit(sq::tensor::Rng& rng) {
  return sq::hw::kAllBitwidths[rng.below(std::size(sq::hw::kAllBitwidths))];
}

/// A pipeline over the first devices of `c`: stages of `tp` consecutive
/// devices, each owning at least one layer, split at random cut points.
sq::sim::ExecutionPlan random_plan(const sq::model::LlmSpec& m, const sq::hw::Cluster& c,
                                   int tp, sq::tensor::Rng& rng) {
  const int stages = std::max(
      1, std::min<int>(c.device_count() / tp, static_cast<int>(1 + rng.below(4))));
  std::vector<int> cuts = {0, m.n_layers};
  while (static_cast<int>(cuts.size()) < stages + 1) {
    const int cut = static_cast<int>(1 + rng.below(static_cast<std::uint64_t>(m.n_layers - 1)));
    if (std::find(cuts.begin(), cuts.end(), cut) == cuts.end()) cuts.push_back(cut);
  }
  std::sort(cuts.begin(), cuts.end());
  sq::sim::ExecutionPlan p;
  for (int s = 0; s < stages; ++s) {
    std::vector<int> devices;
    for (int d = s * tp; d < (s + 1) * tp && d < c.device_count(); ++d) devices.push_back(d);
    p.stages.push_back({devices, cuts[static_cast<std::size_t>(s)],
                        cuts[static_cast<std::size_t>(s) + 1]});
  }
  p.layer_bits.resize(static_cast<std::size_t>(m.n_layers));
  for (auto& b : p.layer_bits) b = random_bit(rng);
  p.kv_bits = random_bit(rng);
  p.prefill_microbatch = rng.below(33);
  p.decode_microbatch = rng.below(65);
  return p;
}

TEST(MaxConcurrencyProperty, ClosedFormMatchesBinarySearch) {
  const auto models = sq::model::all_models();
  sq::tensor::Rng rng(29);
  int zero = 0, capped = 0, whole = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto m = sq::model::spec(models[rng.below(models.size())]);
    const auto c = sq::hw::paper_cluster(static_cast<int>(1 + rng.below(10)));
    const int tp = 1 + static_cast<int>(rng.below(2));
    const auto plan = random_plan(m, c, tp, rng);
    sq::sim::BatchWorkload w;
    w.batch_size = i % 10 == 0 ? 0 : rng.below(2048);  // 0: the 1-request trap
    w.prompt_len = 1 + rng.below(2048);
    w.gen_tokens = 1 + rng.below(512);
    w.chunk_tokens = rng.below(3) * 1024;
    const std::uint64_t want = oracle::max_concurrency_reference(c, m, plan, w);
    const std::uint64_t got = max_concurrency(c, m, plan, w);
    ASSERT_EQ(got, want) << "case " << i << ": " << m.name << " on " << c.name()
                         << " tp " << tp << " batch " << w.batch_size << " prompt "
                         << w.prompt_len << " gen " << w.gen_tokens;
    if (want == 0) {
      ++zero;
    } else if (want < std::max<std::uint64_t>(1, w.batch_size)) {
      ++capped;
    } else {
      ++whole;
    }
  }
  // Every branch of the cap is exercised, the KV-bound one most of all.
  EXPECT_GT(zero, 1000);
  EXPECT_GT(capped, 1000);
  EXPECT_GT(whole, 1000);
}

}  // namespace
}  // namespace sq::runtime
