// One planning set-up: a model on a cluster under a planning workload,
// with the latency cost model profiled for that cluster, the quality model
// and the assigner built over them (LatencyCostModel ->
// Planner::profile_all -> QualityModel -> Planner, owned together).
//
// The Planner and every replanner keep references into the deployment, so
// it is neither copyable nor movable: it stays where it was built and must
// outlive every replanner it hands out.
#pragma once

#include "core/planner.h"
#include "cost/latency_model.h"
#include "hw/cluster.h"
#include "model/llm.h"
#include "quality/quality_model.h"
#include "runtime/engine.h"
#include "sim/plan.h"

namespace sq::core {

class Deployment {
 public:
  /// Profiles every device type of `cluster` over hw::kAllBitwidths and
  /// builds the quality model over the same list.
  Deployment(sq::model::LlmSpec model, sq::hw::Cluster cluster,
             sq::sim::BatchWorkload planning);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const sq::model::LlmSpec& model() const { return model_; }
  const sq::hw::Cluster& cluster() const { return cluster_; }
  /// The planning workload as given (the planner may cap its own copy's
  /// batch to fit memory; see Planner::workload).
  const sq::sim::BatchWorkload& planning() const { return planning_; }
  const sq::cost::LatencyCostModel& latency() const { return latency_; }
  const sq::quality::QualityModel& quality() const { return quality_; }
  const Planner& planner() const { return planner_; }

  /// make_replanner over this deployment's models and planning workload.
  /// Device types a changed cluster adds are profiled into the
  /// deployment's cost model on demand.
  sq::runtime::Replanner replanner(const PlannerConfig& cfg);

 private:
  sq::model::LlmSpec model_;
  sq::hw::Cluster cluster_;
  sq::sim::BatchWorkload planning_;
  sq::cost::LatencyCostModel latency_;
  sq::quality::QualityModel quality_;
  Planner planner_;
};

}  // namespace sq::core
