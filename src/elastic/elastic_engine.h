// Elastic fleet serving: continuous-batching under dynamic device
// membership, with price-aware autoscaling and live plan migration.
//
// The ElasticFleetEngine layers on FleetEngine / OfflineEngine:
//
//   * With an EMPTY membership timeline it delegates verbatim to
//     FleetEngine — FleetStats are byte-identical to the non-elastic
//     engine (property-tested), so turning the subsystem on costs nothing
//     until a timeline is supplied.
//   * With a timeline, jobs (all continuous) are served LPT-sequentially
//     on ONE elastic replica group through a segmented event loop: serve
//     to the next membership event (RequestScheduler's stop horizon),
//     apply the event, re-plan incrementally on the changed cluster (the
//     same graceful-degradation ladder as plan repair,
//     runtime::replan_ladder, reusing the profiled latency fits and the
//     content-addressed QuantCache so only layers that change bits
//     re-quantize via WeightPrep::reprepare), and resume with per-request
//     progress.  Segment outcomes merge through runtime::merge_segment.
//     The group's state is one runtime::ReplicaGroup whose device map
//     names every device by a stable base id; a permanent device failure
//     is repaired by the engines' shared step (runtime::repair_group).
//     Base ids: the initial devices keep their ids, and the devices of
//     each accepted join take fresh ids after every initial id, in join
//     order (on an n-device start, the first joined device is id n).
//     Fault schedules speak base ids, so a schedule can name a joined
//     device and fails it like any other.
//   * In-flight requests cross a plan switch by LIVE MIGRATION (KV state
//     re-transferred over the inter-node fabric, charged through the
//     kernel model's link-time), by DRAINING (finish on the old plan
//     first, delaying the switch), or by RESTART (progress lost).  A
//     permanent device *failure* always restarts the in-flight work — its
//     KV is gone — which is exactly the gap between fault recovery and a
//     cooperative `leave`.
//   * The AUTOSCALER decides whether offered capacity is worth holding:
//     joins are accepted under backlog pressure or when predicted
//     tokens-per-dollar improves by a margin, price events can trigger a
//     scale-down of previously joined capacity, and hysteresis (cooldown)
//     keeps decisions from flapping.
//
// Determinism contract: ElasticStats (including the embedded FleetStats /
// RequestStats) are bit-identical across 1..N fleet threads and repeated
// runs for fixed inputs.  Only the empty-timeline delegation reads the
// thread count (FleetEngine); the elastic event loop runs on the calling
// thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "elastic/cost_model.h"
#include "elastic/membership.h"
#include "hw/cluster.h"
#include "model/llm.h"
#include "runtime/fleet.h"
#include "sim/kernel_model.h"
#include "sim/plan.h"

namespace sq::elastic {

/// What happens to in-flight requests when the plan switches.
enum class MigrationPolicy {
  kAuto,     ///< Migrate KV when prefill finished, restart otherwise.
  kMigrate,  ///< Force migration (same rule as kAuto today).
  kDrain,    ///< Finish in-flight on the old plan, then switch.
  kRestart,  ///< Drop all progress (spot-preemption baseline).
};

const char* to_string(MigrationPolicy p);

/// Parses "auto" | "migrate" | "drain" | "restart"; false on anything
/// else (`*out` untouched).
bool migration_policy_from_string(const std::string& s, MigrationPolicy* out);

/// Autoscaler policy knobs (hysteresis thresholds).
struct AutoscalerOptions {
  /// Off: joins are accepted unconditionally and price events only
  /// reprice — the membership timeline alone drives the fleet (benches
  /// compare migration policies this way).
  bool enabled = true;
  /// Minimum backlog (unfinished requests of the running job) for a join
  /// to be worth considering at all.
  std::uint64_t join_backlog = 1;
  /// Predicted tokens-per-dollar must improve by this fraction for a
  /// price-motivated accept or scale-down (e.g. 0.05 = 5%).
  double price_margin = 0.05;
  /// Backlog at which a join is accepted regardless of price (latency
  /// pressure trumps cost).
  std::uint64_t pressure_backlog = 32;
  /// Simulated seconds after an accepted scale action during which
  /// further scale actions are rejected (flap damping).
  double cooldown_s = 30.0;
};

/// Elastic serving knobs.
struct ElasticOptions {
  const MembershipTimeline* timeline = nullptr;  ///< Null/empty = delegate.
  /// Replans membership changes (the outcome's predicted_tok_s is the
  /// autoscaler's accept/reject signal); required when the timeline
  /// changes membership.
  sq::runtime::Replanner replan;
  MigrationPolicy migration = MigrationPolicy::kAuto;
  AutoscalerOptions autoscale;
  CostModel cost;                    ///< $/device-hour book.
  /// Baseline fleet knobs: fault schedule (base ids) + fault replanner +
  /// thread count.  The empty-timeline path forwards this verbatim to
  /// FleetEngine (byte-identity); the elastic path reads the schedule and
  /// the replanner from it
  /// (a null `replan` loses the requests a permanent failure strands, as
  /// in FleetEngine).  Every plan switch charges
  /// runtime::kReplanPenaltyS on top of per-request migration transfers,
  /// and each replan ladder is runtime::kMaxReplanAttempts long.
  sq::runtime::FleetOptions fleet;
};

/// Aggregate results of an elastic run.
struct ElasticStats {
  bool feasible = true;
  std::string failure;
  /// The serving outcome (jobs, tokens, makespan) — byte-identical to
  /// FleetEngine::serve when the timeline is empty.
  sq::runtime::FleetStats fleet;

  std::uint64_t events_applied = 0;  ///< Membership events that fired.
  std::uint64_t joins_offered = 0;
  std::uint64_t joins_accepted = 0;
  std::uint64_t joins_rejected = 0;  ///< Autoscaler declined the capacity.
  std::uint64_t leaves = 0;
  std::uint64_t price_events = 0;
  std::uint64_t scale_downs = 0;     ///< Price-motivated releases.
  std::uint64_t replans = 0;         ///< Successful plan switches.
  std::uint64_t migrations = 0;      ///< Requests whose KV moved live.
  std::uint64_t drains = 0;          ///< Requests finished on the old plan.
  std::uint64_t restarts = 0;        ///< Requests that lost their progress.
  double migrated_kv_bytes = 0.0;
  double migration_s = 0.0;          ///< Simulated KV-transfer time.
  double device_seconds = 0.0;       ///< Sum over held devices of held time.
  double dollars = 0.0;              ///< CostModel charge for device_seconds.
  double tokens_per_dollar = 0.0;    ///< fleet.output_tokens / dollars.
  /// Deterministic elastic event log (membership decisions, migrations).
  std::vector<std::string> events;
};

/// The elastic engine: binds (model, replica groups, backend) like
/// FleetEngine and serves continuous jobs under a membership timeline.
class ElasticFleetEngine {
 public:
  ElasticFleetEngine(sq::model::LlmSpec model,
                     std::vector<sq::runtime::ReplicaGroup> groups,
                     sq::runtime::Backend backend =
                         sq::runtime::Backend::kVllmStyle,
                     sq::sim::KernelModelOptions kernel = {.ground_truth = true,
                                                           .seed = 11});

  /// Serve `jobs`.  Empty timeline: exact FleetEngine delegation over all
  /// groups.  Non-empty timeline: requires exactly one replica group and
  /// all-continuous jobs (structural error otherwise).  Deterministic at
  /// every `opts.fleet.num_threads`.
  ElasticStats serve(const std::vector<sq::runtime::FleetJob>& jobs,
                     const ElasticOptions& opts = {}) const;

  /// Record elastic.* metrics and migration spans into the global obs
  /// registry during serve (plus the delegated engines' fleet.* stream).
  /// Off by default; recording never changes ElasticStats.
  void set_observe(bool on) { observe_ = on; }
  bool observe() const { return observe_; }

  /// Attach a weight-preparation hook: initial plans prepare in full,
  /// every accepted membership replan re-prepares only the layers whose
  /// bits changed (WeightPrep::reprepare over the shared QuantCache).
  void set_weight_prep(std::shared_ptr<const sq::runtime::WeightPrep> prep) {
    prep_ = std::move(prep);
  }

  const std::vector<sq::runtime::ReplicaGroup>& groups() const {
    return groups_;
  }

 private:
  sq::model::LlmSpec model_;
  std::vector<sq::runtime::ReplicaGroup> groups_;
  sq::runtime::Backend backend_;
  sq::sim::KernelModelOptions kernel_;
  bool observe_ = false;
  std::shared_ptr<const sq::runtime::WeightPrep> prep_;
};

}  // namespace sq::elastic
