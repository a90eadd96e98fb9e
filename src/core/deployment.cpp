#include "core/deployment.h"

#include <utility>

#include "core/repair.h"

namespace sq::core {

Deployment::Deployment(sq::model::LlmSpec model, sq::hw::Cluster cluster,
                       sq::sim::BatchWorkload planning)
    : model_(std::move(model)),
      cluster_(std::move(cluster)),
      planning_(planning),
      latency_(model_),
      quality_(model_, sq::hw::kAllBitwidths),
      planner_(model_, cluster_, planning_, latency_, quality_) {
  Planner::profile_all(latency_, cluster_, sq::hw::kAllBitwidths);
}

sq::runtime::Replanner Deployment::replanner(const PlannerConfig& cfg) {
  return make_replanner(model_, latency_, quality_, planning_, cfg);
}

}  // namespace sq::core
