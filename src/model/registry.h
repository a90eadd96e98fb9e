// Registry of the model architectures the paper evaluates (Sec. VI-A):
// Qwen2.5-7B/14B/32B-Instruct, OPT-30B/66B, Llama-3.3-70B-Instruct, plus
// the smaller OPT/BLOOM variants used in the motivation and cost-model
// fidelity studies.  Dimensions follow the published configurations.
#pragma once

#include <string_view>
#include <vector>

#include "model/llm.h"

namespace sq::model {

/// Identifier for every architecture used anywhere in the paper.
enum class ModelId {
  kOpt1_3B,
  kOpt13B,
  kOpt30B,
  kOpt66B,
  kBloom560M,
  kBloom1B7,
  kBloom3B,
  kQwen25_7B,
  kQwen25_14B,
  kQwen25_32B,
  kLlama33_70B,
};

/// Architecture spec for `id`.
LlmSpec spec(ModelId id);

/// Spec by canonical name (e.g. "OPT-30B"), ignoring case and '-', '_' and
/// ' ' separators ("opt30b"); '.' must match.  Throws std::invalid_argument
/// for unknown names.
LlmSpec spec_by_name(std::string_view name);

/// All registered model ids.
std::vector<ModelId> all_models();

}  // namespace sq::model
