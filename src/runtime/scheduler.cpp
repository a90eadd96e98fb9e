#include "runtime/scheduler.h"

#include <algorithm>

#include "obs/metrics.h"
#include "sim/memory.h"

namespace sq::runtime {

std::uint64_t max_concurrency(const sq::hw::Cluster& cluster,
                              const sq::model::LlmSpec& m,
                              const sq::sim::ExecutionPlan& plan,
                              const sq::sim::BatchWorkload& w) {
  // B requests hold fixed + floor(B * K / tp) bytes on a device of a stage
  // whose requests take K paged KV bytes each, so the device fits
  // B <= ((usable - fixed + 1) * tp - 1) / K.
  std::uint64_t cap = std::max<std::uint64_t>(1, w.batch_size);
  for (std::size_t s = 0; s < plan.stages.size(); ++s) {
    const auto& stage = plan.stages[s];
    const auto tp = static_cast<std::uint64_t>(stage.tp());
    const std::uint64_t kv =
        sq::sim::paged_kv_bytes(m, w.max_context(), plan.kv_bits, stage.layer_count());
    for (std::size_t di = 0; di < stage.devices.size(); ++di) {
      const sq::sim::DeviceMemory fixed =
          sq::sim::device_fixed_memory(m, plan, s, di, plan.prefill_microbatch,
                                       plan.decode_microbatch, w.chunk_len());
      const std::uint64_t need = fixed.total();
      const std::uint64_t usable = cluster.spec(fixed.device).usable_memory_bytes();
      if (need + kv / tp > usable) return 0;  // Not even one request fits.
      if (kv > 0) cap = std::min(cap, ((usable - need + 1) * tp - 1) / kv);
    }
  }
  return cap;
}

BatchSchedule schedule_batch(const sq::hw::Cluster& cluster,
                             const sq::model::LlmSpec& m,
                             const sq::sim::ExecutionPlan& plan,
                             const sq::sim::BatchWorkload& w) {
  BatchSchedule s;
  const std::uint64_t cap = max_concurrency(cluster, m, plan, w);
  // Order-independent counters only: schedule_batch runs concurrently under
  // the planner's validation fan-out, so no ordered spans here.
  if (sq::obs::enabled()) {
    sq::obs::counter("scheduler.schedules").add();
    if (cap == 0) sq::obs::counter("scheduler.weights_oom").add();
    if (cap > 0 && cap < w.batch_size) {
      sq::obs::counter("scheduler.capped").add();
    }
  }
  if (cap == 0) {
    s.weights_fit = false;
    return s;
  }
  // Balance the batch across the minimum number of waves (a tiny remainder
  // wave would pay a full decode pass for a handful of requests).
  const std::uint64_t n_waves = (w.batch_size + cap - 1) / cap;
  const std::uint64_t base = w.batch_size / n_waves;
  const std::uint64_t extra = w.batch_size % n_waves;
  for (std::uint64_t i = 0; i < n_waves; ++i) {
    s.waves.push_back(base + (i < extra ? 1 : 0));
  }
  // Micro-batch sizes are clamped per wave by the engine; report the
  // nominal values here.
  s.eta = std::max<std::uint64_t>(1, plan.prefill_microbatch);
  s.xi = std::max<std::uint64_t>(1, plan.decode_microbatch);
  return s;
}

}  // namespace sq::runtime
