#include "oracles/max_concurrency_reference.h"

#include "sim/memory.h"

namespace sq::runtime::oracle {

std::uint64_t max_concurrency_reference(const sq::hw::Cluster& cluster,
                                        const sq::model::LlmSpec& m,
                                        const sq::sim::ExecutionPlan& plan,
                                        const sq::sim::BatchWorkload& w) {
  // Binary search the largest batch size whose memory report is OOM-free.
  sq::sim::BatchWorkload probe = w;
  probe.batch_size = 1;
  if (sq::sim::plan_memory(cluster, m, plan, probe).oom) return 0;
  std::uint64_t lo = 1, hi = w.batch_size;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    probe.batch_size = mid;
    if (sq::sim::plan_memory(cluster, m, plan, probe).oom) {
      hi = mid - 1;
    } else {
      lo = mid;
    }
  }
  return lo;
}

}  // namespace sq::runtime::oracle
