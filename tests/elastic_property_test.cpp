// Property tests for the elastic subsystem:
//
//   1. parse ∘ to_spec = id over seeded random membership timelines, with
//      EXACT field equality (times and prices are doubles — the grammar
//      and generators are built so no ulp is lost in the round trip).
//   2. With an EMPTY timeline the ElasticFleetEngine is byte-identical to
//      FleetEngine: every FleetStats field, every per-request outcome,
//      every event string.
//   3. With a NON-EMPTY timeline the whole ElasticStats are bit-identical
//      across 1, 2, 4 and 8 scheduler threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "elastic/elastic_engine.h"
#include "elastic/membership.h"
#include "hw/cluster.h"
#include "model/registry.h"
#include "runtime/fleet.h"
#include "sim/faults.h"
#include "workload/arrivals.h"

namespace sq::elastic {
namespace {

using sq::hw::Bitwidth;
using sq::runtime::FleetJob;
using sq::runtime::ReplicaGroup;
using sq::runtime::RequestStats;
using sq::workload::TimedRequest;

// ---------------------------------------------------------- round trip

TEST(ElasticProperty, MembershipRoundTripIsIdentity) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const double horizon = 30.0 + static_cast<double>(seed % 7) * 60.0;
    const MembershipTimeline t =
        random_membership(seed, horizon, 1 + static_cast<int>(seed % 8));
    const MembershipParse p = parse_membership_spec(t.to_spec());
    ASSERT_TRUE(p.ok) << "seed " << seed << ": " << p.error;
    ASSERT_EQ(p.timeline.events.size(), t.events.size()) << "seed " << seed;
    for (std::size_t i = 0; i < t.events.size(); ++i) {
      const MembershipEvent& a = t.events[i];
      const MembershipEvent& b = p.timeline.events[i];
      EXPECT_EQ(a.kind, b.kind) << "seed " << seed << " event " << i;
      EXPECT_EQ(a.at_us, b.at_us) << "seed " << seed << " event " << i;
      EXPECT_EQ(a.count, b.count) << "seed " << seed << " event " << i;
      EXPECT_EQ(a.gpu, b.gpu) << "seed " << seed << " event " << i;
      EXPECT_EQ(a.whole_node, b.whole_node) << "seed " << seed << " event " << i;
      EXPECT_EQ(a.index, b.index) << "seed " << seed << " event " << i;
      EXPECT_EQ(a.price, b.price) << "seed " << seed << " event " << i;
    }
    // And the render itself is a fixed point.
    EXPECT_EQ(p.timeline.to_spec(), t.to_spec()) << "seed " << seed;
  }
}

// ------------------------------------------------------- shared fixtures

sq::hw::Cluster base_cluster() {
  sq::hw::Node n;
  n.name = "node-v100-0";
  n.gpu_type = sq::hw::GpuType::kV100;
  n.gpu_count = 2;
  n.intra_gbps = 300.0;
  return sq::hw::Cluster("elastic-prop", {n}, 800.0);
}

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

sq::runtime::Replanner synthetic_replanner(const sq::model::LlmSpec& m) {
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

std::vector<FleetJob> jobs_of(int n_requests) {
  std::vector<TimedRequest> arr;
  for (int i = 0; i < n_requests; ++i) {
    TimedRequest tr;
    tr.arrive_s = 0.05 * i;
    tr.request.prompt_tokens = 256 + 64 * (i % 5);
    tr.request.output_tokens = 48 + 16 * (i % 3);
    arr.push_back(tr);
  }
  FleetJob job;
  job.name = "prop-job";
  job.arrivals = std::move(arr);
  return {std::move(job)};
}

void expect_requests_eq(const RequestStats& a, const RequestStats& b,
                        const std::string& tag) {
  EXPECT_EQ(a.feasible, b.feasible) << tag;
  EXPECT_EQ(a.failure, b.failure) << tag;
  EXPECT_EQ(a.submitted, b.submitted) << tag;
  EXPECT_EQ(a.completed, b.completed) << tag;
  EXPECT_EQ(a.lost, b.lost) << tag;
  EXPECT_EQ(a.preemptions, b.preemptions) << tag;
  EXPECT_EQ(a.admission_blocked, b.admission_blocked) << tag;
  EXPECT_EQ(a.iterations, b.iterations) << tag;
  EXPECT_EQ(a.output_tokens, b.output_tokens) << tag;
  EXPECT_EQ(a.total_seconds, b.total_seconds) << tag;
  EXPECT_EQ(a.goodput_tok_s, b.goodput_tok_s) << tag;
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s) << tag;
  EXPECT_EQ(a.p50_latency_s, b.p50_latency_s) << tag;
  EXPECT_EQ(a.p95_latency_s, b.p95_latency_s) << tag;
  EXPECT_EQ(a.mean_queue_s, b.mean_queue_s) << tag;
  EXPECT_EQ(a.kv_peak_utilization, b.kv_peak_utilization) << tag;
  EXPECT_EQ(a.faults_hit, b.faults_hit) << tag;
  EXPECT_EQ(a.retries, b.retries) << tag;
  EXPECT_EQ(a.fault_permanent, b.fault_permanent) << tag;
  EXPECT_EQ(a.fault_device, b.fault_device) << tag;
  EXPECT_EQ(a.fault_s, b.fault_s) << tag;
  EXPECT_EQ(a.stopped, b.stopped) << tag;
  EXPECT_EQ(a.stop_s, b.stop_s) << tag;
  EXPECT_EQ(a.events, b.events) << tag;
  EXPECT_EQ(a.repairs_attempted, b.repairs_attempted) << tag;
  EXPECT_EQ(a.repairs_succeeded, b.repairs_succeeded) << tag;
  EXPECT_EQ(a.final_generation, b.final_generation) << tag;
  EXPECT_EQ(a.final_plan.layer_bits, b.final_plan.layer_bits) << tag;
  ASSERT_EQ(a.requests.size(), b.requests.size()) << tag;
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const auto& x = a.requests[i];
    const auto& y = b.requests[i];
    EXPECT_EQ(x.id, y.id) << tag << " req " << i;
    EXPECT_EQ(x.completed, y.completed) << tag << " req " << i;
    EXPECT_EQ(x.lost, y.lost) << tag << " req " << i;
    EXPECT_EQ(x.arrive_s, y.arrive_s) << tag << " req " << i;
    EXPECT_EQ(x.admit_s, y.admit_s) << tag << " req " << i;
    EXPECT_EQ(x.finish_s, y.finish_s) << tag << " req " << i;
    EXPECT_EQ(x.output_tokens, y.output_tokens) << tag << " req " << i;
    EXPECT_EQ(x.preemptions, y.preemptions) << tag << " req " << i;
    EXPECT_EQ(x.in_flight, y.in_flight) << tag << " req " << i;
    EXPECT_EQ(x.prefill_done, y.prefill_done) << tag << " req " << i;
    EXPECT_EQ(x.progress_tokens, y.progress_tokens) << tag << " req " << i;
  }
}

void expect_fleet_eq(const sq::runtime::FleetStats& a,
                     const sq::runtime::FleetStats& b, const std::string& tag) {
  EXPECT_EQ(a.feasible, b.feasible) << tag;
  EXPECT_EQ(a.failure, b.failure) << tag;
  EXPECT_EQ(a.jobs_completed, b.jobs_completed) << tag;
  EXPECT_EQ(a.jobs_rejected, b.jobs_rejected) << tag;
  EXPECT_EQ(a.jobs_reassigned, b.jobs_reassigned) << tag;
  EXPECT_EQ(a.groups_retired, b.groups_retired) << tag;
  EXPECT_EQ(a.group_busy_s, b.group_busy_s) << tag;
  EXPECT_EQ(a.group_jobs, b.group_jobs) << tag;
  EXPECT_EQ(a.output_tokens, b.output_tokens) << tag;
  EXPECT_EQ(a.makespan_s, b.makespan_s) << tag;
  EXPECT_EQ(a.aggregate_tok_s, b.aggregate_tok_s) << tag;
  EXPECT_EQ(a.faults_hit, b.faults_hit) << tag;
  EXPECT_EQ(a.retries, b.retries) << tag;
  EXPECT_EQ(a.repairs, b.repairs) << tag;
  EXPECT_EQ(a.events, b.events) << tag;
  ASSERT_EQ(a.jobs.size(), b.jobs.size()) << tag;
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    EXPECT_EQ(a.jobs[j].job, b.jobs[j].job) << tag << " job " << j;
    EXPECT_EQ(a.jobs[j].group, b.jobs[j].group) << tag << " job " << j;
    EXPECT_EQ(a.jobs[j].completed, b.jobs[j].completed) << tag << " job " << j;
    EXPECT_EQ(a.jobs[j].failure, b.jobs[j].failure) << tag << " job " << j;
    EXPECT_EQ(a.jobs[j].start_s, b.jobs[j].start_s) << tag << " job " << j;
    EXPECT_EQ(a.jobs[j].end_s, b.jobs[j].end_s) << tag << " job " << j;
    expect_requests_eq(a.jobs[j].continuous, b.jobs[j].continuous,
                       tag + " job " + std::to_string(j));
  }
}

// ------------------------------------------- empty-timeline equivalence

TEST(ElasticProperty, EmptyTimelineIsByteIdenticalToFleetEngine) {
  const auto model = sq::model::spec(sq::model::ModelId::kOpt13B);
  ReplicaGroup rg;
  rg.cluster = base_cluster();
  rg.plan = plan_over(model, 2, Bitwidth::kInt8);
  rg.predicted_tok_s = 200.0;

  // Once plain, once with a fault schedule: the forwarding must be exact
  // in both regimes.
  sq::sim::FaultSchedule faults;
  sq::sim::FaultEvent slow;
  slow.kind = sq::sim::FaultKind::kSlowdown;
  slow.device = 0;
  slow.start_us = 1e6;
  slow.duration_us = 2e6;
  slow.factor = 2.0;
  faults.events.push_back(slow);
  for (const bool with_faults : {false, true}) {
    sq::runtime::FleetOptions fopts;
    fopts.num_threads = 2;
    if (with_faults) fopts.faults = &faults;

    const sq::runtime::FleetEngine fleet(model, {rg});
    const sq::runtime::FleetStats want = fleet.serve(jobs_of(24), fopts);

    const ElasticFleetEngine elastic(model, {rg});
    const MembershipParse empty = parse_membership_spec("");
    ASSERT_TRUE(empty.ok);
    for (const MembershipTimeline* timeline :
         {static_cast<const MembershipTimeline*>(nullptr), &empty.timeline}) {
      ElasticOptions eopts;
      eopts.timeline = timeline;
      eopts.replan = synthetic_replanner(model);
      eopts.fleet = fopts;
      const ElasticStats got = elastic.serve(jobs_of(24), eopts);
      expect_fleet_eq(got.fleet, want,
                      with_faults ? "faults" : "plain");
      EXPECT_EQ(got.events_applied, 0u);
      EXPECT_EQ(got.replans, 0u);
      EXPECT_TRUE(got.events.empty());
    }
  }
}

// --------------------------------------------------- thread determinism

void expect_elastic_eq(const ElasticStats& a, const ElasticStats& b,
                       const std::string& tag) {
  EXPECT_EQ(a.feasible, b.feasible) << tag;
  EXPECT_EQ(a.failure, b.failure) << tag;
  EXPECT_EQ(a.events_applied, b.events_applied) << tag;
  EXPECT_EQ(a.joins_offered, b.joins_offered) << tag;
  EXPECT_EQ(a.joins_accepted, b.joins_accepted) << tag;
  EXPECT_EQ(a.joins_rejected, b.joins_rejected) << tag;
  EXPECT_EQ(a.leaves, b.leaves) << tag;
  EXPECT_EQ(a.price_events, b.price_events) << tag;
  EXPECT_EQ(a.scale_downs, b.scale_downs) << tag;
  EXPECT_EQ(a.replans, b.replans) << tag;
  EXPECT_EQ(a.migrations, b.migrations) << tag;
  EXPECT_EQ(a.drains, b.drains) << tag;
  EXPECT_EQ(a.restarts, b.restarts) << tag;
  EXPECT_EQ(a.migrated_kv_bytes, b.migrated_kv_bytes) << tag;
  EXPECT_EQ(a.migration_s, b.migration_s) << tag;
  EXPECT_EQ(a.device_seconds, b.device_seconds) << tag;
  EXPECT_EQ(a.dollars, b.dollars) << tag;
  EXPECT_EQ(a.tokens_per_dollar, b.tokens_per_dollar) << tag;
  EXPECT_EQ(a.events, b.events) << tag;
  expect_fleet_eq(a.fleet, b.fleet, tag);
}

TEST(ElasticProperty, ElasticServingIsThreadBitIdentical) {
  const auto model = sq::model::spec(sq::model::ModelId::kOpt13B);
  ReplicaGroup rg;
  rg.cluster = base_cluster();
  rg.plan = plan_over(model, 2, Bitwidth::kInt8);
  rg.predicted_tok_s = 200.0;
  const ElasticFleetEngine elastic(model, {rg});

  for (const std::uint64_t seed : {3u, 11u}) {
    // Seeded non-empty timelines over the serving window, plus a fixed
    // handcrafted one that is guaranteed to fire mid-serving.
    const MembershipTimeline t =
        seed == 3u
            ? parse_membership_spec("join:2xV100@1.25,leave:1@3,price:V100=1.4@4")
                  .timeline
            : random_membership(seed, 12.0, 5);
    ASSERT_FALSE(t.empty());

    ElasticOptions base;
    base.timeline = &t;
    base.replan = synthetic_replanner(model);
    base.fleet.num_threads = 1;
    const ElasticStats ref = elastic.serve(jobs_of(32), base);

    for (const int threads : {2, 4, 8}) {
      ElasticOptions o = base;
      o.fleet.num_threads = threads;
      const ElasticStats got = elastic.serve(jobs_of(32), o);
      expect_elastic_eq(got, ref,
                        "seed " + std::to_string(seed) + " threads " +
                            std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace sq::elastic
