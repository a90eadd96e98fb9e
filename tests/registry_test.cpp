// Tests for the model registry (Sec. VI-A model lineup).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>

#include "model/registry.h"

namespace sq::model {
namespace {

TEST(Registry, AllModelsResolve) {
  for (const ModelId id : all_models()) {
    const LlmSpec m = spec(id);
    EXPECT_FALSE(m.name.empty());
    EXPECT_GT(m.h1, 0u);
    EXPECT_GT(m.h2, 0u);
    EXPECT_GT(m.n_layers, 0);
    EXPECT_GT(m.vocab_s, 0u);
    EXPECT_EQ(m.h1 % static_cast<std::uint64_t>(m.n_heads), 0u) << m.name;
  }
}

// gtest prints a parameter without operator<< as its raw bytes, and
// gtest_discover_tests names each case by that print. The four bytes after
// `id` are therefore an explicit zero member rather than padding, whose
// contents are unspecified and would give the cases a different name in every
// build.
struct SizeCase {
  SizeCase(ModelId model, double size_billions, double tol)
      : id(model), billions(size_billions), tolerance(tol) {}

  ModelId id;
  std::int32_t zero = 0;
  double billions;
  double tolerance;
};
static_assert(sizeof(SizeCase) == sizeof(ModelId) + sizeof(std::int32_t) +
                                      2 * sizeof(double),
              "SizeCase must have no padding: its bytes name the test cases");

class ParamCount : public ::testing::TestWithParam<SizeCase> {};

TEST_P(ParamCount, MatchesPublishedSize) {
  const SizeCase& c = GetParam();
  const LlmSpec m = spec(c.id);
  EXPECT_NEAR(static_cast<double>(m.total_params()) / 1e9, c.billions,
              c.tolerance)
      << m.name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperModels, ParamCount,
    ::testing::Values(SizeCase{ModelId::kOpt1_3B, 1.3, 0.2},
                      SizeCase{ModelId::kOpt13B, 13.0, 1.0},
                      SizeCase{ModelId::kOpt30B, 30.0, 1.5},
                      SizeCase{ModelId::kOpt66B, 66.0, 3.0},
                      SizeCase{ModelId::kBloom560M, 0.56, 0.3},
                      SizeCase{ModelId::kBloom1B7, 1.7, 0.6},
                      SizeCase{ModelId::kBloom3B, 3.0, 1.0},
                      SizeCase{ModelId::kQwen25_7B, 7.6, 1.0},
                      SizeCase{ModelId::kQwen25_14B, 14.7, 1.5},
                      SizeCase{ModelId::kQwen25_32B, 32.5, 3.0},
                      SizeCase{ModelId::kLlama33_70B, 70.0, 4.0}));

TEST(Registry, LookupByNameNormalizes) {
  EXPECT_EQ(spec_by_name("OPT-30B").name, "OPT-30B");
  EXPECT_EQ(spec_by_name("opt30b").name, "OPT-30B");
  EXPECT_EQ(spec_by_name("qwen2.5-14b-instruct").name, "Qwen2.5-14B-Instruct");
  EXPECT_THROW(spec_by_name("gpt-5"), std::invalid_argument);
}

TEST(Registry, EveryNameResolvesToItsOwnModel) {
  // '.' is part of a size: "OPT-13B" once resolved to OPT-1.3B.
  for (const ModelId id : all_models()) {
    const std::string name = spec(id).name;
    std::string lower = name;
    for (char& c : lower) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    EXPECT_EQ(spec_by_name(name).name, name);
    EXPECT_EQ(spec_by_name(lower).name, name) << lower;
  }
  EXPECT_EQ(spec_by_name("OPT-13B").n_layers, 40);
  EXPECT_EQ(spec_by_name("OPT-1.3B").n_layers, 24);
}

TEST(Registry, FamiliesAreConsistent) {
  EXPECT_EQ(spec(ModelId::kOpt66B).family, "opt");
  EXPECT_EQ(spec(ModelId::kBloom3B).family, "bloom");
  EXPECT_EQ(spec(ModelId::kQwen25_32B).family, "qwen2.5");
  EXPECT_EQ(spec(ModelId::kLlama33_70B).family, "llama3");
}

TEST(Registry, ContextLimitsMatchFamilies) {
  EXPECT_EQ(spec(ModelId::kOpt30B).pos_s, 2048u);
  EXPECT_EQ(spec(ModelId::kQwen25_7B).pos_s, 32768u);
  EXPECT_EQ(spec(ModelId::kLlama33_70B).pos_s, 131072u);
}

TEST(Registry, ModernFamiliesUseGqaAndGatedMlp) {
  for (const ModelId id : {ModelId::kQwen25_7B, ModelId::kLlama33_70B}) {
    const LlmSpec m = spec(id);
    EXPECT_TRUE(m.mlp_gated) << m.name;
    EXPECT_GT(m.kv_dim, 0u);
    EXPECT_LT(m.kv_dim, m.h1);
  }
  EXPECT_FALSE(spec(ModelId::kOpt30B).mlp_gated);
}

}  // namespace
}  // namespace sq::model
