// Replica-group cluster sharding: partition one heterogeneous fleet into K
// disjoint sub-clusters, plan each with the SplitQuant assigner, and pick
// the partition that maximizes aggregate predicted throughput.
//
// Offline multi-job serving wants replication, not ever-deeper pipelines:
// past the memory floor, adding devices to one pipeline mostly adds
// communication hops and bubbles, while K independent replicas serve K
// jobs concurrently.  The sharded planner searches that trade-off
// explicitly:
//
//   1. Enumerate candidate partitions of the fleet into K disjoint,
//      covering groups.  The unit of assignment is a whole node when the
//      fleet has at least K nodes (keeping NVLink islands intact, exactly
//      like the planner's own topology enumeration prefers) and a single
//      device otherwise.  Units are walked in a few deterministic orders
//      (natural, memory-descending, compute-descending) and dealt with a
//      few deterministic patterns (round-robin, greedy min-memory,
//      contiguous split); duplicates are folded by canonical key and the
//      list is capped at `max_partitions`.
//   2. Plan every group of every candidate with the parallel planner
//      under the caller's PlannerConfig — the per-group memory and
//      quality constraints are exactly the planner's own (a group that
//      cannot hold the model, or cannot meet `max_ppl_delta`, makes its
//      partition infeasible).
//   3. Score a feasible partition by the sum of its groups' predicted
//      throughput; the winner is the highest score, tie-broken on the
//      lowest enumeration index.  Everything is enumeration-ordered, so
//      the result is deterministic at every planner thread count.
//
// The winning groups come back as sq::runtime::ReplicaGroup values (plans
// stamped with shard_index / num_shards provenance) ready to hand to the
// FleetEngine.
#pragma once

#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/planner.h"
#include "hw/cluster.h"
#include "runtime/fleet.h"
#include "sim/plan.h"

namespace sq::core {

/// One candidate partition: `groups[g]` lists the fleet flat device
/// indices of replica group g (disjoint, covering, every group non-empty).
struct Partition {
  std::vector<std::vector<int>> groups;
  std::string desc;  ///< Human-readable provenance ("nodes, mem-desc, rr").
};

/// Enumerate candidate partitions of `cluster` into `k` groups (see file
/// comment for the scheme).  Deterministic; returns an empty list when the
/// cluster cannot be split k ways (fewer units than groups) or k < 1.
std::vector<Partition> enumerate_partitions(const sq::hw::Cluster& cluster,
                                            int k, int max_partitions);

/// Sharded-planner knobs.
struct ShardingConfig {
  int num_shards = 2;       ///< K: replica groups to carve the fleet into.
  PlannerConfig planner;    ///< Per-group planning configuration.
  int max_partitions = 8;   ///< Cap on candidate partitions planned.
};

/// Sharded-planner output.
struct ShardPlanResult {
  bool feasible = false;
  std::string failure;  ///< Reason when infeasible (no valid partition).
  /// The K winning replica groups, in group order: sub-cluster, index map
  /// back to the fleet, stamped plan and predicted rate — ready for
  /// FleetEngine.
  std::vector<sq::runtime::ReplicaGroup> groups;
  std::vector<PlanResult> group_results;  ///< Planner output per group.
  std::string partition;                  ///< Winning partition description.
  double total_predicted_tok_s = 0.0;     ///< Winning aggregate score.
  int partitions_enumerated = 0;
  int partitions_feasible = 0;
  double solve_seconds = 0.0;             ///< Total planning wall time.
};

/// Partition the deployment's cluster into `cfg.num_shards` replica groups
/// and plan each over the deployment's model, planning workload and models
/// (see file comment).  Every group holds only device types of that
/// cluster, so the deployment's cost model already covers them.
ShardPlanResult plan_sharded(const Deployment& deployment,
                             const ShardingConfig& cfg);

}  // namespace sq::core
