#include "model/registry.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace sq::model {

namespace {

LlmSpec make_opt(std::string name, std::uint64_t h1, std::uint64_t h2, int layers,
                 int heads) {
  LlmSpec m;
  m.name = std::move(name);
  m.family = "opt";
  m.h1 = h1;
  m.h2 = h2;
  m.n_layers = layers;
  m.n_heads = heads;
  m.d_t = h1;
  m.vocab_s = 50272;
  m.pos_s = 2048;
  m.kv_dim = 0;  // Full multi-head attention.
  m.learned_pos_emb = true;
  m.mlp_gated = false;
  return m;
}

LlmSpec make_bloom(std::string name, std::uint64_t h1, int layers, int heads) {
  LlmSpec m;
  m.name = std::move(name);
  m.family = "bloom";
  m.h1 = h1;
  m.h2 = 4 * h1;
  m.n_layers = layers;
  m.n_heads = heads;
  m.d_t = h1;
  m.vocab_s = 250880;
  m.pos_s = 2048;
  m.kv_dim = 0;
  m.learned_pos_emb = false;  // ALiBi: no position table.
  m.mlp_gated = false;
  return m;
}

LlmSpec make_qwen(std::string name, std::uint64_t h1, std::uint64_t h2, int layers,
                  int heads, int kv_heads) {
  LlmSpec m;
  m.name = std::move(name);
  m.family = "qwen2.5";
  m.h1 = h1;
  m.h2 = h2;
  m.n_layers = layers;
  m.n_heads = heads;
  m.d_t = h1;
  m.vocab_s = 152064;
  m.pos_s = 32768;
  m.kv_dim = h1 / static_cast<std::uint64_t>(heads) * static_cast<std::uint64_t>(kv_heads);
  m.learned_pos_emb = false;  // RoPE.
  m.mlp_gated = true;
  return m;
}

}  // namespace

LlmSpec spec(ModelId id) {
  switch (id) {
    case ModelId::kOpt1_3B:
      return make_opt("OPT-1.3B", 2048, 8192, 24, 32);
    case ModelId::kOpt13B:
      return make_opt("OPT-13B", 5120, 20480, 40, 40);
    case ModelId::kOpt30B:
      return make_opt("OPT-30B", 7168, 28672, 48, 56);
    case ModelId::kOpt66B:
      return make_opt("OPT-66B", 9216, 36864, 64, 72);
    case ModelId::kBloom560M:
      return make_bloom("BLOOM-560M", 1024, 24, 16);
    case ModelId::kBloom1B7:
      return make_bloom("BLOOM-1B7", 2048, 24, 16);
    case ModelId::kBloom3B:
      return make_bloom("BLOOM-3B", 2560, 30, 32);
    case ModelId::kQwen25_7B:
      return make_qwen("Qwen2.5-7B-Instruct", 3584, 18944, 28, 28, 4);
    case ModelId::kQwen25_14B:
      return make_qwen("Qwen2.5-14B-Instruct", 5120, 13824, 48, 40, 8);
    case ModelId::kQwen25_32B:
      return make_qwen("Qwen2.5-32B-Instruct", 5120, 27648, 64, 40, 8);
    case ModelId::kLlama33_70B: {
      LlmSpec m;
      m.name = "Llama-3.3-70B-Instruct";
      m.family = "llama3";
      m.h1 = 8192;
      m.h2 = 28672;
      m.n_layers = 80;
      m.n_heads = 64;
      m.d_t = 8192;
      m.vocab_s = 128256;
      m.pos_s = 131072;
      m.kv_dim = 8192 / 64 * 8;  // 8 KV heads (GQA).
      m.learned_pos_emb = false;
      m.mlp_gated = true;
      return m;
    }
  }
  throw std::invalid_argument("spec: unknown ModelId");
}

LlmSpec spec_by_name(std::string_view name) {
  // Separators and case are ignored; '.' is kept, because it is part of a
  // size ("OPT-1.3B" and "OPT-13B" are different models).
  auto norm = [](std::string_view s) {
    std::string out;
    for (char c : s) {
      if (c == '-' || c == '_' || c == ' ') continue;
      out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    return out;
  };
  const std::string key = norm(name);
  for (ModelId id : all_models()) {
    const LlmSpec m = spec(id);
    if (norm(m.name) == key) return m;
  }
  throw std::invalid_argument("spec_by_name: unknown model '" + std::string(name) + "'");
}

std::vector<ModelId> all_models() {
  return {ModelId::kOpt1_3B,   ModelId::kOpt13B,     ModelId::kOpt30B,
          ModelId::kOpt66B,    ModelId::kBloom560M,  ModelId::kBloom1B7,
          ModelId::kBloom3B,   ModelId::kQwen25_7B,  ModelId::kQwen25_14B,
          ModelId::kQwen25_32B, ModelId::kLlama33_70B};
}

}  // namespace sq::model
