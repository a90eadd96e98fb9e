// Shared fixture plumbing for the core (assigner) tests: builds the
// latency/quality models once per model+cluster combination.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "core/context.h"
#include "core/planner.h"
#include "core/topology.h"
#include "cost/latency_model.h"
#include "hw/paper_clusters.h"
#include "model/registry.h"
#include "quality/quality_model.h"
#include "sim/plan_io.h"

namespace sq::core::testutil {

/// Everything a PlanContext needs, owned together so pointers stay valid.
struct Harness {
  sq::model::LlmSpec model;
  sq::hw::Cluster cluster;
  sq::cost::LatencyCostModel latency;
  sq::quality::QualityModel quality;
  PlanInputs inputs;
  Topology natural;  ///< The natural topology (no TP) contexts are built over.

  Harness(sq::model::ModelId id, int cluster_id, sq::sim::BatchWorkload w,
          double theta = 1.0)
      : model(sq::model::spec(id)),
        cluster(sq::hw::paper_cluster(cluster_id)),
        latency(model),
        quality(model, sq::hw::kAllBitwidths),
        natural(natural_topologies(cluster, false).front()) {
    Planner::profile_all(latency, cluster, sq::hw::kAllBitwidths);
    inputs.model = &model;
    inputs.cluster = &cluster;
    inputs.latency = &latency;
    inputs.workload = w;
    inputs.bits.assign(std::begin(sq::hw::kAllBitwidths),
                       std::end(sq::hw::kAllBitwidths));
    inputs.theta = theta;
    const double k = quality.ppl_per_omega();
    inputs.omega_ppl.assign(static_cast<std::size_t>(model.n_layers),
                            std::vector<double>(inputs.bits.size(), 0.0));
    for (int l = 0; l < model.n_layers; ++l) {
      for (std::size_t bi = 0; bi < inputs.bits.size(); ++bi) {
        inputs.omega_ppl[static_cast<std::size_t>(l)][bi] =
            k * quality.indicators().at(static_cast<std::size_t>(l), inputs.bits[bi]);
      }
    }
  }

  /// A context over the natural topology at the given micro-batch sizes.
  PlanContext context(std::uint64_t eta, std::uint64_t xi, int group_size = 4) const {
    return PlanContext(inputs, natural, eta, xi, group_size);
  }
};

/// Every deterministic field of a PlanResult (solve_seconds is wall time
/// and deliberately excluded), doubles as hexfloats.
inline std::string fingerprint(const PlanResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "feasible=%d batch=%llu lat=%a tput=%a omega=%a ppl=%a acc=%a "
                "solves=%d topologies=%d pairs=%d\n",
                r.feasible ? 1 : 0,
                static_cast<unsigned long long>(r.planned_batch),
                r.predicted_latency_s, r.predicted_throughput, r.total_omega,
                r.est_ppl, r.est_accuracy, r.ilp_solves, r.topologies_tried,
                r.pairs_tried);
  std::string s = buf + r.failure + "\n" + r.topology + "\n";
  if (r.feasible) s += sq::sim::plan_to_string(r.plan);
  return s;
}

}  // namespace sq::core::testutil
