#include "core/sharding.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <set>
#include <string>

namespace sq::core {

namespace {

/// One assignable unit: a whole node or a single device.
struct Unit {
  std::vector<int> devices;     ///< Fleet flat indices, ascending.
  std::uint64_t memory = 0;     ///< Sum of usable device memory.
  double tflops = 0.0;          ///< Sum of peak FP16 compute.
};

std::vector<Unit> make_units(const sq::hw::Cluster& cluster, bool by_node) {
  std::vector<Unit> units;
  if (by_node) {
    units.resize(cluster.nodes().size());
    for (int d = 0; d < cluster.device_count(); ++d) {
      units[static_cast<std::size_t>(cluster.device(d).node)].devices.push_back(d);
    }
  } else {
    units.resize(static_cast<std::size_t>(cluster.device_count()));
    for (int d = 0; d < cluster.device_count(); ++d) {
      units[static_cast<std::size_t>(d)].devices.push_back(d);
    }
  }
  for (Unit& u : units) {
    for (const int d : u.devices) {
      u.memory += cluster.spec(d).usable_memory_bytes();
      u.tflops += cluster.spec(d).fp16_tflops;
    }
  }
  return units;
}

/// Canonical dedup key: groups sorted internally and by first device.
std::string canonical_key(const std::vector<std::vector<int>>& groups) {
  std::vector<std::vector<int>> sorted = groups;
  for (auto& g : sorted) std::sort(g.begin(), g.end());
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  for (const auto& g : sorted) {
    for (const int d : g) key += std::to_string(d) + ",";
    key += ";";
  }
  return key;
}

/// Deal the ordered units into k groups with one pattern; returns the
/// device lists per group (may contain an empty group — callers filter).
std::vector<std::vector<int>> deal(const std::vector<Unit>& units,
                                   const std::vector<std::size_t>& order,
                                   int k, int pattern) {
  const std::size_t m = order.size();
  std::vector<std::vector<int>> groups(static_cast<std::size_t>(k));
  if (pattern == 0) {
    // Round-robin.
    for (std::size_t i = 0; i < m; ++i) {
      for (const int d : units[order[i]].devices) {
        groups[i % static_cast<std::size_t>(k)].push_back(d);
      }
    }
  } else if (pattern == 1) {
    // Greedy min-memory balance: each unit goes to the lightest group so
    // far (stable: ties break on the lowest group index).
    std::vector<std::uint64_t> load(static_cast<std::size_t>(k), 0);
    for (std::size_t i = 0; i < m; ++i) {
      std::size_t best = 0;
      for (std::size_t g = 1; g < load.size(); ++g) {
        if (load[g] < load[best]) best = g;
      }
      for (const int d : units[order[i]].devices) groups[best].push_back(d);
      load[best] += units[order[i]].memory;
    }
  } else {
    // Contiguous split: k chunks of near-equal unit count, remainder to
    // the front chunks.
    const std::size_t base = m / static_cast<std::size_t>(k);
    const std::size_t extra = m % static_cast<std::size_t>(k);
    std::size_t i = 0;
    for (std::size_t g = 0; g < static_cast<std::size_t>(k); ++g) {
      const std::size_t take = base + (g < extra ? 1 : 0);
      for (std::size_t t = 0; t < take && i < m; ++t, ++i) {
        for (const int d : units[order[i]].devices) groups[g].push_back(d);
      }
    }
  }
  for (auto& g : groups) std::sort(g.begin(), g.end());
  return groups;
}

}  // namespace

std::vector<Partition> enumerate_partitions(const sq::hw::Cluster& cluster,
                                            int k, int max_partitions) {
  std::vector<Partition> out;
  if (k < 1 || cluster.device_count() < k || max_partitions < 1) return out;

  const bool by_node = static_cast<int>(cluster.nodes().size()) >= k;
  const std::vector<Unit> units = make_units(cluster, by_node);
  if (static_cast<int>(units.size()) < k) return out;

  // Unit orderings: natural, memory-descending, compute-descending (all
  // stable on the unit index so equal keys keep a fixed order).
  std::vector<std::size_t> natural(units.size());
  std::iota(natural.begin(), natural.end(), 0);
  std::vector<std::size_t> by_mem = natural;
  std::stable_sort(by_mem.begin(), by_mem.end(),
                   [&](std::size_t a, std::size_t b) {
                     return units[a].memory > units[b].memory;
                   });
  std::vector<std::size_t> by_compute = natural;
  std::stable_sort(by_compute.begin(), by_compute.end(),
                   [&](std::size_t a, std::size_t b) {
                     return units[a].tflops > units[b].tflops;
                   });
  const struct {
    const std::vector<std::size_t>* order;
    const char* name;
  } orders[] = {{&by_mem, "mem-desc"},
                {&by_compute, "compute-desc"},
                {&natural, "natural"}};
  const char* patterns[] = {"round-robin", "greedy-balance", "contiguous"};

  std::set<std::string> seen;
  for (const auto& ord : orders) {
    for (int pat = 0; pat < 3; ++pat) {
      if (static_cast<int>(out.size()) >= max_partitions) return out;
      std::vector<std::vector<int>> groups = deal(units, *ord.order, k, pat);
      const bool all_nonempty =
          std::all_of(groups.begin(), groups.end(),
                      [](const std::vector<int>& g) { return !g.empty(); });
      if (!all_nonempty) continue;
      if (!seen.insert(canonical_key(groups)).second) continue;
      Partition p;
      p.groups = std::move(groups);
      p.desc = std::string(by_node ? "nodes" : "devices") + ", " + ord.name +
               ", " + patterns[pat];
      out.push_back(std::move(p));
    }
  }
  return out;
}

ShardPlanResult plan_sharded(const Deployment& deployment,
                             const ShardingConfig& cfg) {
  const sq::hw::Cluster& cluster = deployment.cluster();
  const auto t0 = std::chrono::steady_clock::now();
  ShardPlanResult res;
  if (cfg.num_shards < 1) {
    res.failure = "num_shards must be >= 1";
    return res;
  }

  const std::vector<Partition> partitions =
      enumerate_partitions(cluster, cfg.num_shards, cfg.max_partitions);
  res.partitions_enumerated = static_cast<int>(partitions.size());
  if (partitions.empty()) {
    res.failure = "cluster '" + cluster.name() + "' (" +
                  std::to_string(cluster.device_count()) +
                  " devices) cannot be split into " +
                  std::to_string(cfg.num_shards) + " replica groups";
    return res;
  }

  double best_score = -1.0;
  std::string last_failure;
  for (const Partition& part : partitions) {
    // Plan every group of this candidate; any infeasible group kills it.
    std::vector<sq::runtime::ReplicaGroup> groups;
    std::vector<PlanResult> results;
    double score = 0.0;
    bool ok = true;
    for (std::size_t g = 0; g < part.groups.size(); ++g) {
      std::vector<int> excluded;
      for (int d = 0; d < cluster.device_count(); ++d) {
        if (!std::binary_search(part.groups[g].begin(), part.groups[g].end(), d)) {
          excluded.push_back(d);
        }
      }
      const sq::hw::DegradedCluster sub =
          sq::hw::degrade_cluster(cluster, excluded);
      const Planner planner(deployment.model(), sub.cluster, deployment.planning(),
                            deployment.latency(), deployment.quality());
      PlanResult r = planner.plan(cfg.planner);
      if (!r.feasible) {
        last_failure = "partition [" + part.desc + "] group " +
                       std::to_string(g) + ": " + r.failure;
        ok = false;
        break;
      }
      score += r.predicted_throughput;
      sq::runtime::ReplicaGroup rg;
      rg.cluster = sub.cluster;
      rg.to_original = sub.to_original;
      rg.plan = r.plan;
      rg.predicted_tok_s = r.predicted_throughput;
      groups.push_back(std::move(rg));
      results.push_back(std::move(r));
    }
    if (!ok) continue;
    ++res.partitions_feasible;
    // Strictly-greater keeps the earliest enumerated partition on ties.
    if (score > best_score) {
      best_score = score;
      res.groups = std::move(groups);
      res.group_results = std::move(results);
      res.partition = part.desc;
      res.total_predicted_tok_s = score;
    }
  }

  if (res.partitions_feasible == 0) {
    res.failure = last_failure.empty()
                      ? "no feasible partition"
                      : "no feasible partition (last: " + last_failure + ")";
  } else {
    res.feasible = true;
    for (std::size_t g = 0; g < res.groups.size(); ++g) {
      res.groups[g].plan.shard_index = static_cast<int>(g);
      res.groups[g].plan.num_shards = static_cast<int>(res.groups.size());
    }
  }
  res.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

}  // namespace sq::core
