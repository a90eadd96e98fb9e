#include "core/context.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sq::core {

std::vector<std::pair<int, int>> make_groups(int n_layers, int group_size) {
  if (group_size <= 0) {
    group_size = 1;
    while ((n_layers + group_size - 1) / group_size > 16) group_size *= 2;
  }
  std::vector<std::pair<int, int>> groups;
  for (int begin = 0; begin < n_layers; begin += group_size) {
    groups.emplace_back(begin, std::min(n_layers, begin + group_size));
  }
  return groups;
}

PlanContext::PlanContext(const PlanInputs& in, Topology topo, std::uint64_t eta,
                         std::uint64_t xi, int group_size)
    : in_(&in), topo_(std::move(topo)), eta_(eta), xi_(xi) {
  const auto& m = *in.model;
  const auto& cluster = *in.cluster;
  const auto& lat = *in.latency;
  const auto& w = in.workload;

  groups_ = make_groups(m.n_layers, group_size);
  const int G = num_groups(), J = num_stages(), B = num_bits();

  // Micro-batch multipliers of objective (4) (generalized pipeline form).
  const double mu_pre =
      std::ceil(static_cast<double>(w.batch_size) / static_cast<double>(eta_));
  const double mu_dec =
      std::ceil(static_cast<double>(w.batch_size) / static_cast<double>(xi_));
  const double n_tok = static_cast<double>(w.gen_tokens);
  t_pre_coeff_ = std::max(0.0, mu_pre - 1.0);
  t_dec_coeff_ = std::max(0.0, mu_dec * std::max(0.0, n_tok - 1.0) - 1.0);

  // Decode cost is priced at mid-generation context (the paper's n/2 rule).
  const std::uint64_t ctx_mid = w.prompt_len + std::max<std::uint64_t>(1, w.gen_tokens / 2);

  l_pre_.assign(static_cast<std::size_t>(G) * J * B, 0.0);
  l_dec_.assign(l_pre_.size(), 0.0);
  mem_.assign(l_pre_.size(), 0.0);

  for (int j = 0; j < J; ++j) {
    const auto& grp = topo_.groups[static_cast<std::size_t>(j)];
    const auto type = cluster.spec(grp.devices.front()).type;
    const int tp = static_cast<int>(grp.devices.size());
    for (int bi = 0; bi < B; ++bi) {
      const Bitwidth bit = in.bits[static_cast<std::size_t>(bi)];
      const auto& fits = lat.fits(type, bit, tp);
      const double per_layer_pre =
          fits.predict_us(sq::model::Phase::kPrefill, eta_, w.chunk_len()) *
          static_cast<double>(w.chunks()) * 1e-6;
      const double per_layer_dec =
          fits.predict_us(sq::model::Phase::kDecode, xi_, ctx_mid) * 1e-6;
      const double per_layer_mem =
          static_cast<double>(m.layer_weight_bytes(bit)) +
          static_cast<double>(w.batch_size) *
              static_cast<double>(m.layer_kv_bytes(w.max_context(), in.kv_bits));
      for (int g = 0; g < G; ++g) {
        const auto [first, last] = groups_[static_cast<std::size_t>(g)];
        const double layers = static_cast<double>(last - first);
        l_pre_[idx(g, j, bi)] = layers * per_layer_pre;
        l_dec_[idx(g, j, bi)] = layers * per_layer_dec;
        mem_[idx(g, j, bi)] = layers * per_layer_mem;
      }
    }
  }

  // Quality indicator per group (sum of its layers), PPL units.
  omega_.assign(static_cast<std::size_t>(G), std::vector<double>(static_cast<std::size_t>(B), 0.0));
  for (int g = 0; g < G; ++g) {
    const auto [first, last] = groups_[static_cast<std::size_t>(g)];
    for (int bi = 0; bi < B; ++bi) {
      double acc = 0.0;
      for (int l = first; l < last; ++l) {
        acc += in.omega_ppl[static_cast<std::size_t>(l)][static_cast<std::size_t>(bi)];
      }
      omega_[static_cast<std::size_t>(g)][static_cast<std::size_t>(bi)] = acc;
    }
  }

  // Stage memory budgets, master constants, communication bounds.
  m_eff_.assign(static_cast<std::size_t>(J), 0.0);
  c_pre_.assign(static_cast<std::size_t>(J), 0.0);
  c_dec_.assign(static_cast<std::size_t>(J), 0.0);
  comm_pre_.assign(static_cast<std::size_t>(J), 0.0);
  comm_dec_.assign(static_cast<std::size_t>(J), 0.0);

  const std::uint64_t act_stage =
      std::max(m.layer_peak_activation_bytes(eta_, w.chunk_len()),
               m.layer_peak_activation_bytes(xi_, 1));
  const sq::sim::KernelModel km;  // Planner-side analytic constants.

  for (int j = 0; j < J; ++j) {
    const auto& grp = topo_.groups[static_cast<std::size_t>(j)];
    const auto& spec = cluster.spec(grp.devices.front());
    const double tp = static_cast<double>(grp.devices.size());
    double budget = static_cast<double>(spec.usable_memory_bytes());
    if (j == 0) budget -= static_cast<double>(m.embedding_bytes());
    m_eff_[static_cast<std::size_t>(j)] =
        std::max(0.0, budget * tp - static_cast<double>(act_stage));

    if (j == 0) {
      // Master engine: token embedding before stage 0, logits after the
      // pipeline (both on the master device, paper Fig. 6).
      c_pre_[0] = (km.embed_time_us(spec, m, eta_ * w.prompt_len) +
                   km.lm_head_time_us(spec, m, eta_)) *
                  1e-6;
      c_dec_[0] = (km.embed_time_us(spec, m, xi_) + km.lm_head_time_us(spec, m, xi_)) *
                  1e-6;
    }
    if (j + 1 < J) {
      const double gbps = cluster.link_gbps(
          grp.devices.back(), topo_.groups[static_cast<std::size_t>(j + 1)].devices.front());
      const double pre_bytes = 2.0 * static_cast<double>(eta_) *
                               static_cast<double>(w.prompt_len) *
                               static_cast<double>(m.h1);
      const double dec_bytes =
          2.0 * static_cast<double>(xi_) * static_cast<double>(m.h1);
      comm_pre_[static_cast<std::size_t>(j)] = km.comm_time_us(pre_bytes, gbps) * 1e-6;
      comm_dec_[static_cast<std::size_t>(j)] = km.comm_time_us(dec_bytes, gbps) * 1e-6;
    }
  }
}

AssignmentEval PlanContext::evaluate(std::span<const int> group_stage,
                                     std::span<const int> group_bit) const {
  AssignmentEval ev;
  const int G = num_groups(), J = num_stages();
  assert(group_stage.size() == static_cast<std::size_t>(G));
  assert(group_bit.size() == static_cast<std::size_t>(G));

  // Structure: monotone stages, anchor on stage 0.
  if (G > 0 && group_stage[0] != 0) return ev;
  for (int g = 1; g < G; ++g) {
    if (group_stage[static_cast<std::size_t>(g)] <
        group_stage[static_cast<std::size_t>(g - 1)]) {
      return ev;
    }
  }

  std::vector<double> t_pre(static_cast<std::size_t>(J), 0.0);
  std::vector<double> t_dec(static_cast<std::size_t>(J), 0.0);
  std::vector<double> used(static_cast<std::size_t>(J), 0.0);
  double omega = 0.0;
  for (int g = 0; g < G; ++g) {
    const int j = group_stage[static_cast<std::size_t>(g)];
    const int bi = group_bit[static_cast<std::size_t>(g)];
    if (j < 0 || j >= J || bi < 0 || bi >= num_bits()) return ev;
    t_pre[static_cast<std::size_t>(j)] += l_pre(g, j, bi);
    t_dec[static_cast<std::size_t>(j)] += l_dec(g, j, bi);
    used[static_cast<std::size_t>(j)] += mem(g, j, bi);
    omega += this->omega(g, bi);
  }
  for (int j = 0; j < J; ++j) {
    if (used[static_cast<std::size_t>(j)] > mem_budget(j) + 1.0) return ev;
  }
  if (in_->omega_budget >= 0.0 && omega > in_->omega_budget * (1.0 + 1e-9)) return ev;

  double tpm = 0.0, tdm = 0.0, tps = 0.0, tds = 0.0;
  for (int j = 0; j < J; ++j) {
    const double tp = t_pre[static_cast<std::size_t>(j)] + const_pre(j);
    const double td = t_dec[static_cast<std::size_t>(j)] + const_dec(j);
    // Stages with zero layers still contribute their comm bound only if
    // they sit between used stages; skipping is free.
    const bool stage_used = t_pre[static_cast<std::size_t>(j)] > 0.0 || j == 0;
    if (stage_used) {
      tpm = std::max({tpm, tp, comm_pre(j)});
      tdm = std::max({tdm, td, comm_dec(j)});
      tps += tp;
      tds += td;
    }
  }
  ev.feasible = true;
  ev.omega = omega;
  ev.t_pre_max = tpm;
  ev.t_dec_max = tdm;
  ev.latency_s = t_pre_coeff() * tpm + tps + t_dec_coeff() * tdm + tds;
  ev.objective = ev.latency_s + in_->theta * omega;
  return ev;
}

sq::sim::ExecutionPlan PlanContext::to_plan(std::span<const int> group_stage,
                                            std::span<const int> group_bit,
                                            const std::string& scheme) const {
  sq::sim::ExecutionPlan plan;
  plan.scheme = scheme;
  plan.prefill_microbatch = eta_;
  plan.decode_microbatch = xi_;
  plan.kv_bits = in_->kv_bits;
  plan.layer_bits.assign(static_cast<std::size_t>(in_->model->n_layers),
                         Bitwidth::kFp16);

  const int G = num_groups();
  int g = 0;
  while (g < G) {
    const int j = group_stage[static_cast<std::size_t>(g)];
    sq::sim::StageSpec stage;
    stage.devices = topo_.groups[static_cast<std::size_t>(j)].devices;
    stage.layer_begin = groups_[static_cast<std::size_t>(g)].first;
    int end = g;
    while (end < G && group_stage[static_cast<std::size_t>(end)] == j) {
      const auto [first, last] = groups_[static_cast<std::size_t>(end)];
      const Bitwidth bit =
          in_->bits[static_cast<std::size_t>(group_bit[static_cast<std::size_t>(end)])];
      for (int l = first; l < last; ++l) {
        plan.layer_bits[static_cast<std::size_t>(l)] = bit;
      }
      stage.layer_end = last;
      ++end;
    }
    plan.stages.push_back(std::move(stage));
    g = end;
  }
  return plan;
}

}  // namespace sq::core
