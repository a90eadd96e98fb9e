// Integration tests for the elastic fleet engine: membership-driven
// re-planning, live migration vs drain vs restart of in-flight requests,
// the price-aware autoscaler, fault composition, the cost ledger and the
// bit-determinism contract across scheduler thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "elastic/elastic_engine.h"
#include "elastic/membership.h"
#include "hw/cluster.h"
#include "model/registry.h"
#include "runtime/fleet.h"
#include "serving_digest.h"
#include "sim/faults.h"
#include "workload/arrivals.h"

namespace sq::elastic {
namespace {

using sq::hw::Bitwidth;
using sq::runtime::FleetJob;
using sq::runtime::ReplicaGroup;
using sq::workload::TimedRequest;

/// One node of two V100s: big enough for OPT-13B at INT8 split in two.
sq::hw::Cluster base_cluster() {
  sq::hw::Node n;
  n.name = "node-v100-0";
  n.gpu_type = sq::hw::GpuType::kV100;
  n.gpu_count = 2;
  n.intra_gbps = 300.0;
  return sq::hw::Cluster("elastic-base", {n}, 800.0);
}

/// Even pipeline over the first `stages` devices at one bitwidth.
sq::sim::ExecutionPlan plan_over(const sq::model::LlmSpec& m, int stages,
                                 Bitwidth b) {
  sq::sim::ExecutionPlan p;
  const int per = m.n_layers / stages;
  for (int s = 0; s < stages; ++s) {
    p.stages.push_back(
        {{s}, s * per, s + 1 == stages ? m.n_layers : (s + 1) * per});
  }
  p.layer_bits.assign(static_cast<std::size_t>(m.n_layers), b);
  p.prefill_microbatch = 4;
  p.decode_microbatch = 16;
  return p;
}

/// Deterministic synthetic replanner: an even pipeline over up to two
/// devices of whatever cluster membership produced, predicting throughput
/// proportional to the devices it can actually use.  Keeps the tests
/// independent of the real planner's runtime.
sq::runtime::Replanner test_replanner(const sq::model::LlmSpec& m) {
  return [&m](const sq::hw::Cluster& c, int) {
    sq::runtime::ReplanOutcome o;
    if (c.device_count() < 1) {
      o.failure = "no devices";
      return o;
    }
    const int stages = std::min(2, c.device_count());
    o.plan = plan_over(m, stages, Bitwidth::kInt8);
    o.predicted_tok_s = 100.0 * stages;
    o.feasible = true;
    return o;
  };
}

/// `n` identical requests at t=0 (plus a tail that keeps serving busy
/// long enough for mid-run membership events to land in-flight).
std::vector<TimedRequest> burst(int n, std::uint64_t prompt = 512,
                                std::uint64_t output = 96) {
  std::vector<TimedRequest> t;
  for (int i = 0; i < n; ++i) {
    TimedRequest tr;
    tr.arrive_s = 0.0;
    tr.request.prompt_tokens = prompt;
    tr.request.output_tokens = output;
    t.push_back(tr);
  }
  return t;
}

class ElasticFixture : public ::testing::Test {
 protected:
  ElasticFixture() : model_(sq::model::spec(sq::model::ModelId::kOpt13B)) {
    ReplicaGroup rg;
    rg.cluster = base_cluster();
    rg.plan = plan_over(model_, 2, Bitwidth::kInt8);
    rg.predicted_tok_s = 200.0;
    groups_.push_back(std::move(rg));
  }

  ElasticFleetEngine engine() const {
    return ElasticFleetEngine(model_, groups_);
  }

  ElasticOptions options(const MembershipTimeline* t,
                         MigrationPolicy policy = MigrationPolicy::kAuto,
                         bool autoscale = false) const {
    ElasticOptions o;
    o.timeline = t;
    o.replan = test_replanner(model_);
    o.migration = policy;
    o.autoscale.enabled = autoscale;
    return o;
  }

  static std::vector<FleetJob> one_job(std::vector<TimedRequest> arrivals) {
    FleetJob job;
    job.name = "job-0";
    job.arrivals = std::move(arrivals);
    return {std::move(job)};
  }

  sq::model::LlmSpec model_;
  std::vector<ReplicaGroup> groups_;
};

TEST(ElasticPolicy, MigrationPolicyStringsRoundTrip) {
  for (const auto p : {MigrationPolicy::kAuto, MigrationPolicy::kMigrate,
                       MigrationPolicy::kDrain, MigrationPolicy::kRestart}) {
    MigrationPolicy back = MigrationPolicy::kAuto;
    ASSERT_TRUE(migration_policy_from_string(to_string(p), &back));
    EXPECT_EQ(back, p);
  }
  MigrationPolicy out = MigrationPolicy::kDrain;
  EXPECT_FALSE(migration_policy_from_string("teleport", &out));
  EXPECT_EQ(out, MigrationPolicy::kDrain);  // untouched on failure
}

TEST_F(ElasticFixture, EmptyTimelineDelegatesToFleetEngine) {
  const ElasticStats es = engine().serve(one_job(burst(8)), options(nullptr));
  ASSERT_TRUE(es.feasible) << es.failure;
  const sq::runtime::FleetEngine fleet(model_, groups_);
  const sq::runtime::FleetStats fs = fleet.serve(one_job(burst(8)), {});
  ASSERT_TRUE(fs.feasible) << fs.failure;
  EXPECT_EQ(es.fleet.output_tokens, fs.output_tokens);
  EXPECT_EQ(es.fleet.makespan_s, fs.makespan_s);
  EXPECT_EQ(es.fleet.aggregate_tok_s, fs.aggregate_tok_s);
  EXPECT_EQ(es.fleet.events, fs.events);
  EXPECT_EQ(es.events_applied, 0u);
  EXPECT_EQ(es.replans, 0u);
  // The cost ledger still runs: devices were held for the makespan.
  EXPECT_GT(es.dollars, 0.0);
  EXPECT_GT(es.tokens_per_dollar, 0.0);
}

TEST_F(ElasticFixture, NonContinuousJobIsAStructuralError) {
  const MembershipTimeline t =
      parse_membership_spec("join:1xV100@1").timeline;
  FleetJob batch_job;
  batch_job.name = "batch";
  batch_job.batches = {{8, 512, 32, 2048}};
  const ElasticStats es = engine().serve({batch_job}, options(&t));
  EXPECT_FALSE(es.feasible);
  EXPECT_NE(es.failure.find("continuous"), std::string::npos) << es.failure;
}

TEST_F(ElasticFixture, MultipleGroupsAreAStructuralError) {
  const MembershipTimeline t =
      parse_membership_spec("join:1xV100@1").timeline;
  auto two = groups_;
  two.push_back(groups_[0]);
  const ElasticFleetEngine eng(model_, two);
  const ElasticStats es = eng.serve(one_job(burst(4)), options(&t));
  EXPECT_FALSE(es.feasible);
  EXPECT_NE(es.failure.find("replica group"), std::string::npos) << es.failure;
}

TEST_F(ElasticFixture, JoinIsAcceptedAndTriggersAReplan) {
  const MembershipTimeline t =
      parse_membership_spec("join:2xV100@2").timeline;
  const ElasticStats es = engine().serve(one_job(burst(48)), options(&t));
  ASSERT_TRUE(es.feasible) << es.failure;
  EXPECT_EQ(es.events_applied, 1u);
  EXPECT_EQ(es.joins_offered, 1u);
  EXPECT_EQ(es.joins_accepted, 1u);  // autoscaler off: unconditional
  EXPECT_EQ(es.replans, 1u);
  EXPECT_EQ(es.fleet.jobs_completed, 1u);
  const auto& rs = es.fleet.jobs[0].continuous;
  EXPECT_EQ(rs.completed, 48u);
  EXPECT_EQ(rs.lost, 0u);
}

TEST_F(ElasticFixture, LeaveMigratesInFlightRequestsLive) {
  const MembershipTimeline t = parse_membership_spec("leave:1@2").timeline;
  const ElasticStats es = engine().serve(one_job(burst(48)),
                                         options(&t, MigrationPolicy::kAuto));
  ASSERT_TRUE(es.feasible) << es.failure;
  EXPECT_EQ(es.leaves, 1u);
  EXPECT_EQ(es.replans, 1u);
  EXPECT_GT(es.migrations, 0u);
  EXPECT_GT(es.migrated_kv_bytes, 0.0);
  EXPECT_GT(es.migration_s, 0.0);
  EXPECT_EQ(es.restarts, 0u);
  EXPECT_EQ(es.drains, 0u);
  const auto& rs = es.fleet.jobs[0].continuous;
  EXPECT_EQ(rs.completed, 48u);
  EXPECT_EQ(rs.lost, 0u);
}

TEST_F(ElasticFixture, RestartPolicyLosesProgressAndIsSlower) {
  const MembershipTimeline t = parse_membership_spec("leave:1@2").timeline;
  const ElasticStats mig = engine().serve(one_job(burst(48)),
                                          options(&t, MigrationPolicy::kAuto));
  const ElasticStats rst = engine().serve(
      one_job(burst(48)), options(&t, MigrationPolicy::kRestart));
  ASSERT_TRUE(mig.feasible) << mig.failure;
  ASSERT_TRUE(rst.feasible) << rst.failure;
  EXPECT_EQ(rst.migrations, 0u);
  EXPECT_GT(rst.restarts, 0u);
  // Restarted prefill+decode work is redone: same tokens, more time.
  EXPECT_EQ(rst.fleet.output_tokens, mig.fleet.output_tokens);
  EXPECT_GT(rst.fleet.makespan_s, mig.fleet.makespan_s);
  EXPECT_LT(rst.fleet.aggregate_tok_s, mig.fleet.aggregate_tok_s);
}

TEST_F(ElasticFixture, DrainFinishesInFlightOnTheOldPlan) {
  const MembershipTimeline t = parse_membership_spec("leave:1@2").timeline;
  const ElasticStats es = engine().serve(one_job(burst(48)),
                                         options(&t, MigrationPolicy::kDrain));
  ASSERT_TRUE(es.feasible) << es.failure;
  EXPECT_GT(es.drains, 0u);
  EXPECT_EQ(es.migrations, 0u);
  EXPECT_EQ(es.restarts, 0u);
  EXPECT_EQ(es.replans, 1u);
  const auto& rs = es.fleet.jobs[0].continuous;
  EXPECT_EQ(rs.completed, 48u);
  EXPECT_EQ(rs.lost, 0u);
}

TEST_F(ElasticFixture, LeaveEmptyingTheClusterFailsWithTypedError) {
  const MembershipTimeline t =
      parse_membership_spec("leave:node0@2").timeline;
  const ElasticStats es = engine().serve(one_job(burst(48)), options(&t));
  // Structural feasibility holds; the JOB fails with the degrade_cluster
  // diagnostic, every unfinished request is lost.
  ASSERT_TRUE(es.feasible) << es.failure;
  EXPECT_EQ(es.fleet.jobs_completed, 0u);
  EXPECT_FALSE(es.fleet.jobs[0].completed);
  EXPECT_NE(es.fleet.jobs[0].failure.find("excludes every device"),
            std::string::npos)
      << es.fleet.jobs[0].failure;
  const auto& rs = es.fleet.jobs[0].continuous;
  EXPECT_EQ(rs.completed + rs.lost, rs.submitted);
  EXPECT_GT(rs.lost, 0u);
}

TEST_F(ElasticFixture, LeaveOfUnknownDeviceIsIgnoredGracefully) {
  const MembershipTimeline t = parse_membership_spec("leave:17@2").timeline;
  const ElasticStats es = engine().serve(one_job(burst(16)), options(&t));
  ASSERT_TRUE(es.feasible) << es.failure;
  EXPECT_EQ(es.leaves, 1u);
  EXPECT_EQ(es.replans, 0u);
  EXPECT_EQ(es.fleet.jobs_completed, 1u);
  bool logged = false;
  for (const auto& e : es.events) {
    if (e.find("leave ignored") != std::string::npos) logged = true;
  }
  EXPECT_TRUE(logged);
}

TEST_F(ElasticFixture, AutoscalerRejectsJoinBelowBacklogThreshold) {
  const MembershipTimeline t =
      parse_membership_spec("join:2xV100@2").timeline;
  ElasticOptions o = options(&t, MigrationPolicy::kAuto, /*autoscale=*/true);
  o.autoscale.join_backlog = 100000;  // Never enough backlog.
  const ElasticStats es = engine().serve(one_job(burst(48)), o);
  ASSERT_TRUE(es.feasible) << es.failure;
  EXPECT_EQ(es.joins_offered, 1u);
  EXPECT_EQ(es.joins_accepted, 0u);
  EXPECT_EQ(es.joins_rejected, 1u);
  EXPECT_EQ(es.replans, 0u);
  EXPECT_EQ(es.fleet.jobs_completed, 1u);
}

TEST_F(ElasticFixture, AutoscalerCooldownDampsFlapping) {
  // Two joins 1s apart: the first is accepted under backlog pressure, the
  // second lands inside the 30s cooldown and must be rejected.
  const MembershipTimeline t =
      parse_membership_spec("join:1xV100@1,join:1xV100@2").timeline;
  ElasticOptions o = options(&t, MigrationPolicy::kAuto, /*autoscale=*/true);
  o.autoscale.join_backlog = 1;
  o.autoscale.pressure_backlog = 1;
  o.autoscale.cooldown_s = 30.0;
  const ElasticStats es = engine().serve(one_job(burst(48)), o);
  ASSERT_TRUE(es.feasible) << es.failure;
  EXPECT_EQ(es.joins_offered, 2u);
  EXPECT_EQ(es.joins_accepted, 1u);
  EXPECT_EQ(es.joins_rejected, 1u);
  bool cooldown_logged = false;
  for (const auto& e : es.events) {
    if (e.find("cooldown") != std::string::npos) cooldown_logged = true;
  }
  EXPECT_TRUE(cooldown_logged);
}

TEST_F(ElasticFixture, PriceEventTriggersScaleDownOfJoinedCapacity) {
  // The synthetic replanner caps useful stages at two devices, so joined
  // capacity adds cost but no predicted throughput: once the cooldown
  // allows it, a price event makes releasing the join strictly better in
  // tokens/$.
  const MembershipTimeline t =
      parse_membership_spec("join:1xV100@1,price:V100=2.5@3").timeline;
  ElasticOptions o = options(&t, MigrationPolicy::kAuto, /*autoscale=*/true);
  o.autoscale.join_backlog = 1;
  o.autoscale.pressure_backlog = 1;  // Join accepted on pressure.
  o.autoscale.cooldown_s = 0.0;      // No damping: scale-down allowed.
  o.autoscale.price_margin = 0.01;
  const ElasticStats es = engine().serve(one_job(burst(48)), o);
  ASSERT_TRUE(es.feasible) << es.failure;
  EXPECT_EQ(es.joins_accepted, 1u);
  EXPECT_EQ(es.price_events, 1u);
  EXPECT_EQ(es.scale_downs, 1u);
  EXPECT_EQ(es.replans, 2u);  // join + release
  EXPECT_EQ(es.fleet.jobs_completed, 1u);
}

TEST_F(ElasticFixture, PermanentFaultRestartsInFlightEvenUnderMigrate) {
  // A device FAILURE loses its KV: even with the migrate policy the
  // in-flight work restarts, unlike the graceful leave above.
  sq::sim::FaultSchedule faults;
  // 4s: past the chunked-prefill window of the burst, so some requests
  // hold decode-phase KV when the device dies (a 2s fault would land in
  // prefill, where a restart is a no-op and correctly not counted).
  faults.events.push_back({sq::sim::FaultKind::kDeviceFail, 1, 4e6});
  const MembershipTimeline t = parse_membership_spec("price:T4=0.3@90").timeline;
  ElasticOptions o = options(&t, MigrationPolicy::kMigrate);
  o.fleet.faults = &faults;
  o.fleet.replan = test_replanner(model_);
  const ElasticStats es = engine().serve(one_job(burst(48)), o);
  ASSERT_TRUE(es.feasible) << es.failure;
  EXPECT_EQ(es.migrations, 0u);
  EXPECT_GT(es.restarts, 0u);
  const auto& rs = es.fleet.jobs[0].continuous;
  EXPECT_GE(rs.faults_hit, 1u);
  EXPECT_EQ(rs.repairs_succeeded, 1u);
  EXPECT_EQ(rs.completed, 48u) << "repair should keep the job serving";
  EXPECT_EQ(es.fleet.jobs_completed, 1u);
}

TEST_F(ElasticFixture, PermanentFaultWithoutRepairLosesRemainingRequests) {
  // fleet.replan is the fault-repair callback; null means no repair, as in
  // FleetEngine — even though membership changes keep replanning.
  sq::sim::FaultSchedule faults;
  faults.events.push_back({sq::sim::FaultKind::kDeviceFail, 0, 4e6});
  const MembershipTimeline t = parse_membership_spec("join:1xV100@1").timeline;
  ElasticOptions o = options(&t, MigrationPolicy::kMigrate);
  o.fleet.faults = &faults;
  ASSERT_FALSE(o.fleet.replan);
  const ElasticStats es = engine().serve(one_job(burst(48)), o);
  ASSERT_TRUE(es.feasible) << es.failure;
  EXPECT_EQ(es.joins_accepted, 1u);
  EXPECT_GE(es.replans, 1u);  // the join still replanned
  const auto& rs = es.fleet.jobs[0].continuous;
  EXPECT_GE(rs.faults_hit, 1u);
  EXPECT_GT(rs.lost, 0u);
  EXPECT_EQ(rs.completed + rs.lost, 48u);
  EXPECT_EQ(rs.repairs_succeeded, 0u);
  EXPECT_EQ(es.fleet.jobs_completed, 0u);
}

TEST_F(ElasticFixture, FaultOnAJoinedDeviceIsRepairedOrLost) {
  // Joined devices take base ids after every initial id, in join order:
  // the first V100 joining the two-device group is base id 2, and a fault
  // schedule naming id 2 fails it once it serves.
  const sq::runtime::Replanner all_devices = [this](const sq::hw::Cluster& c,
                                                    int) {
    sq::runtime::ReplanOutcome o;
    if (c.device_count() < 1) {
      o.failure = "no devices";
      return o;
    }
    o.plan = plan_over(model_, c.device_count(), Bitwidth::kInt8);
    o.predicted_tok_s = 100.0 * c.device_count();
    o.feasible = true;
    return o;
  };
  sq::sim::FaultSchedule faults;
  faults.events.push_back({sq::sim::FaultKind::kDeviceFail, 2, 4e6});
  const MembershipTimeline t = parse_membership_spec("join:2xV100@1").timeline;
  ElasticOptions o = options(&t, MigrationPolicy::kMigrate);
  o.replan = all_devices;
  o.fleet.faults = &faults;
  const auto names_device_2 = [](const sq::runtime::RequestStats& rs) {
    return std::any_of(rs.events.begin(), rs.events.end(),
                       [](const std::string& e) {
                         return e.find("permanent failure on device 2") !=
                                std::string::npos;
                       });
  };

  o.fleet.replan = all_devices;
  const ElasticStats repaired = engine().serve(one_job(burst(48)), o);
  ASSERT_TRUE(repaired.feasible) << repaired.failure;
  EXPECT_EQ(repaired.joins_accepted, 1u);
  const auto& rs = repaired.fleet.jobs[0].continuous;
  EXPECT_TRUE(names_device_2(rs));
  EXPECT_EQ(rs.repairs_succeeded, 1u);
  EXPECT_EQ(rs.completed, 48u);
  EXPECT_EQ(rs.lost, 0u);

  o.fleet.replan = nullptr;  // --no-repair
  const ElasticStats unrepaired = engine().serve(one_job(burst(48)), o);
  ASSERT_TRUE(unrepaired.feasible) << unrepaired.failure;
  const auto& ls = unrepaired.fleet.jobs[0].continuous;
  EXPECT_TRUE(names_device_2(ls));
  EXPECT_EQ(ls.repairs_succeeded, 0u);
  EXPECT_GT(ls.lost, 0u);
  EXPECT_EQ(ls.completed + ls.lost, 48u);
}

TEST_F(ElasticFixture, CostLedgerChargesHeldDevices) {
  const MembershipTimeline t =
      parse_membership_spec("join:2xV100@2,leave:node1@6").timeline;
  const ElasticStats es = engine().serve(one_job(burst(48)), options(&t));
  ASSERT_TRUE(es.feasible) << es.failure;
  EXPECT_GT(es.device_seconds, 0.0);
  EXPECT_GT(es.dollars, 0.0);
  EXPECT_DOUBLE_EQ(es.tokens_per_dollar, es.fleet.output_tokens / es.dollars);
  // Held 2 devices at minimum over the makespan, more while joined.
  EXPECT_GE(es.device_seconds, 2.0 * es.fleet.makespan_s - 1e-9);
}

TEST_F(ElasticFixture, ElasticStatsAreBitIdenticalAcrossThreadCounts) {
  const MembershipTimeline t =
      parse_membership_spec("join:2xV100@1.5,leave:1@4,price:V100=1.5@5")
          .timeline;
  ElasticOptions base = options(&t, MigrationPolicy::kAuto);
  base.fleet.num_threads = 1;
  const ElasticStats ref = engine().serve(one_job(burst(48)), base);
  ASSERT_TRUE(ref.feasible) << ref.failure;
  for (const int threads : {2, 4, 8}) {
    ElasticOptions o = base;
    o.fleet.num_threads = threads;
    const ElasticStats es = engine().serve(one_job(burst(48)), o);
    ASSERT_TRUE(es.feasible) << threads;
    EXPECT_EQ(es.fleet.output_tokens, ref.fleet.output_tokens) << threads;
    EXPECT_EQ(es.fleet.makespan_s, ref.fleet.makespan_s) << threads;
    EXPECT_EQ(es.fleet.aggregate_tok_s, ref.fleet.aggregate_tok_s) << threads;
    EXPECT_EQ(es.migrated_kv_bytes, ref.migrated_kv_bytes) << threads;
    EXPECT_EQ(es.migration_s, ref.migration_s) << threads;
    EXPECT_EQ(es.dollars, ref.dollars) << threads;
    EXPECT_EQ(es.events, ref.events) << threads;
    EXPECT_EQ(es.fleet.events, ref.fleet.events) << threads;
    const auto& a = es.fleet.jobs[0].continuous;
    const auto& b = ref.fleet.jobs[0].continuous;
    EXPECT_EQ(a.events, b.events) << threads;
    EXPECT_EQ(a.goodput_tok_s, b.goodput_tok_s) << threads;
    EXPECT_EQ(a.mean_latency_s, b.mean_latency_s) << threads;
  }
}

TEST_F(ElasticFixture, PermanentFaultAfterJoinMatchesPinnedGolden) {
  // The group's devices carry base ids {4, 7}; the accepted join appends
  // base ids {8, 9}.  Base device 4 (flat 0) then fails and repair must
  // find it by base id and keep every survivor's id.
  auto groups = groups_;
  groups[0].to_original = {4, 7};
  const MembershipTimeline t = parse_membership_spec("join:2xV100@1").timeline;
  sq::sim::FaultSchedule faults;
  faults.events.push_back({sq::sim::FaultKind::kDeviceFail, 4, 3e6});
  ElasticOptions o = options(&t, MigrationPolicy::kMigrate);
  o.fleet.faults = &faults;
  o.fleet.replan = test_replanner(model_);
  const ElasticStats es = ElasticFleetEngine(model_, groups).serve(one_job(burst(48)), o);
  ASSERT_TRUE(es.feasible) << es.failure;
  const std::string text = sq::testutil::render(es);
  EXPECT_EQ(sq::testutil::digest(text), "532e3de51d950456") << text;
}

TEST_F(ElasticFixture, PermanentFaultRacingADrainMatchesPinnedGolden) {
  // Base ids {4, 7} plus a joined pair {8, 9}; base 9 leaves under the
  // drain policy and base device 4 fails while the in-flight requests
  // drain on the old plan, so the staged cluster is repaired too, and the
  // repair logs its "repaired after device 4 failed" line as the fault
  // branch does.
  auto groups = groups_;
  groups[0].to_original = {4, 7};
  const MembershipTimeline t =
      parse_membership_spec("join:2xV100@1,leave:2@3").timeline;
  sq::sim::FaultSchedule faults;
  faults.events.push_back({sq::sim::FaultKind::kDeviceFail, 4, 3.5e6});
  ElasticOptions o = options(&t, MigrationPolicy::kDrain);
  o.fleet.faults = &faults;
  o.fleet.replan = test_replanner(model_);
  const ElasticStats es = ElasticFleetEngine(model_, groups).serve(one_job(burst(48)), o);
  ASSERT_TRUE(es.feasible) << es.failure;
  const std::string text = sq::testutil::render(es);
  EXPECT_NE(text.find("repaired after device 4 failed"), std::string::npos)
      << text;
  EXPECT_EQ(sq::testutil::digest(text), "d85cd91ddaf0ad81") << text;
}

}  // namespace
}  // namespace sq::elastic
