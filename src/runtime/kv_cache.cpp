#include "runtime/kv_cache.h"

#include "sim/memory.h"

namespace sq::runtime {

using sq::sim::kKvBlockTokens;

KvCacheAllocator::KvCacheAllocator(const sq::model::LlmSpec& m,
                                   std::uint64_t budget_bytes, int layers,
                                   sq::hw::Bitwidth kv_bits)
    : block_bytes_(sq::sim::paged_kv_bytes(m, kKvBlockTokens, kv_bits,
                                           layers > 0 ? layers : 0)) {
  total_blocks_ = block_bytes_ > 0 ? budget_bytes / block_bytes_ : 0;
}

bool KvCacheAllocator::reserve(std::uint64_t req, std::uint64_t context_tokens) {
  const std::uint64_t need = (context_tokens + kKvBlockTokens - 1) / kKvBlockTokens;
  const std::uint64_t have = blocks_of(req);
  if (need <= have) return true;
  const std::uint64_t grow = need - have;
  if (grow > free_blocks()) {
    if (metrics_ != nullptr) metrics_->reserve_denied->add();
    return false;
  }
  used_blocks_ += grow;
  if (req >= held_.size()) held_.resize(req + 1, 0);
  held_[req] = need;
  if (metrics_ != nullptr) metrics_->occupancy_hwm->set(utilization());
  return true;
}

void KvCacheAllocator::release(std::uint64_t req) {
  if (req >= held_.size()) return;
  used_blocks_ -= held_[req];
  held_[req] = 0;
}

std::uint64_t KvCacheAllocator::blocks_of(std::uint64_t req) const {
  return req < held_.size() ? held_[req] : 0;
}

double KvCacheAllocator::utilization() const {
  return total_blocks_ > 0
             ? static_cast<double>(used_blocks_) / static_cast<double>(total_blocks_)
             : 1.0;
}

}  // namespace sq::runtime
