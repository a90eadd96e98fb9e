// Conservation properties of every continuous serving path: the engine
// with and without faults / repair, the fleet, and the elastic engine under
// join / leave / fail timelines with every migration policy.  Whatever
// faults, repairs, membership changes and thread counts do:
//
//   * every submitted request ends as exactly one of completed, lost or in
//     flight, and the per-request flags add up to the aggregate counters;
//   * the per-request preemption counts add up to RequestStats::preemptions
//     and the completed requests' tokens to RequestStats::output_tokens;
//   * every admitted request knows its prompt length, and no request is
//     admitted before it arrives or finishes before it is admitted.
//
// Inputs are seeded (arrivals, fault schedules, membership timelines) and
// every case runs at 1 and 4 scheduler threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "elastic/elastic_engine.h"
#include "elastic/membership.h"
#include "hw/cluster.h"
#include "model/registry.h"
#include "runtime/engine.h"
#include "runtime/fleet.h"
#include "sim/faults.h"
#include "workload/arrivals.h"

namespace sq::runtime {
namespace {

using sq::elastic::MigrationPolicy;
using sq::hw::Bitwidth;

/// One node of `n` V100s.
sq::hw::Cluster v100_node(int n, const std::string& name = "node-v100-0") {
  sq::hw::Node node;
  node.name = name;
  node.gpu_type = sq::hw::GpuType::kV100;
  node.gpu_count = n;
  node.intra_gbps = 300.0;
  return sq::hw::Cluster("conservation-" + name, {node}, 800.0);
}

/// Even INT8 pipeline over the first `stages` devices.
sq::sim::ExecutionPlan even_plan(const sq::model::LlmSpec& m, int stages) {
  sq::sim::ExecutionPlan p;
  const int per = m.n_layers / stages;
  for (int s = 0; s < stages; ++s) {
    p.stages.push_back(
        {{s}, s * per, s + 1 == stages ? m.n_layers : (s + 1) * per});
  }
  p.layer_bits.assign(static_cast<std::size_t>(m.n_layers), Bitwidth::kInt8);
  p.prefill_microbatch = 4;
  p.decode_microbatch = 16;
  return p;
}

/// Synthetic replanner: an even pipeline over up to two devices of whatever
/// cluster it is handed, predicting throughput from the devices it uses.
Replanner even_replanner(const sq::model::LlmSpec& m) {
  return [&m](const sq::hw::Cluster& c, int) {
    ReplanOutcome o;
    if (c.device_count() < 1) {
      o.failure = "no devices";
      return o;
    }
    const int stages = std::min(2, c.device_count());
    o.plan = even_plan(m, stages);
    o.predicted_tok_s = 100.0 * stages;
    o.feasible = o.plan.validate(m, c).empty();
    return o;
  };
}

/// A burst plus a Poisson tail, lengths drawn from the CNN/DailyMail mix.
/// At 32+ requests OPT-13B overflows a V100 pair's KV pool, so admission
/// stalls and preemptions happen before and after the faults and
/// membership events below (which land 10-45 s into a ~40-140 s run).
std::vector<sq::workload::TimedRequest> seeded_arrivals(std::uint64_t seed,
                                                        std::uint64_t n) {
  using sq::workload::ArrivalSegment;
  sq::workload::ArrivalSpec spec;
  spec.segments.push_back({ArrivalSegment::Kind::kBurst, n / 2, 0.0, 0.0});
  spec.segments.push_back(
      {ArrivalSegment::Kind::kPoisson, n - n / 2, 0.0, 8.0});
  return sq::workload::generate_arrivals(
      spec, sq::workload::Dataset::kCnnDailyMail, seed);
}

/// Seeded faults over `devices` devices, plus one permanent failure of
/// device `fail` mid-run so every seed exercises a repair.
sq::sim::FaultSchedule seeded_faults(std::uint64_t seed, int devices,
                                     int fail) {
  sq::sim::FaultSchedule f =
      sq::sim::random_fault_schedule(seed, devices, 60.0, 3);
  f.events.push_back({sq::sim::FaultKind::kDeviceFail, fail, 30e6});
  f.normalize();
  return f;
}

void expect_conserved(const RequestStats& s, const std::string& tag) {
  ASSERT_EQ(s.requests.size(), s.submitted) << tag;
  std::uint64_t completed = 0, lost = 0, in_flight = 0, preemptions = 0;
  double tokens = 0.0;
  for (const RequestOutcome& o : s.requests) {
    const std::string who = tag + " request " + std::to_string(o.id);
    EXPECT_EQ(int{o.completed} + int{o.lost} + int{o.in_flight}, 1) << who;
    completed += o.completed;
    lost += o.lost;
    in_flight += o.in_flight;
    preemptions += o.preemptions;
    if (o.admit_s >= 0.0) {
      EXPECT_GT(o.prompt_tokens, 0u) << who;
      EXPECT_GE(o.admit_s, o.arrive_s) << who;
    }
    if (o.completed) {
      EXPECT_GE(o.admit_s, 0.0) << who;
      EXPECT_LE(o.admit_s, o.finish_s) << who;
      tokens += static_cast<double>(o.output_tokens);
    }
  }
  EXPECT_EQ(completed + lost + in_flight, s.submitted) << tag;
  EXPECT_EQ(completed, s.completed) << tag;
  EXPECT_EQ(lost, s.lost) << tag;
  EXPECT_EQ(preemptions, s.preemptions) << tag;
  EXPECT_EQ(tokens, s.output_tokens) << tag;
  EXPECT_LE(s.repairs_succeeded, s.repairs_attempted) << tag;
}

std::string tag_of(const char* path, std::uint64_t seed, int threads,
                   const std::string& variant) {
  return std::string(path) + " seed " + std::to_string(seed) + " threads " +
         std::to_string(threads) + " " + variant;
}

TEST(Conservation, EngineWithAndWithoutFaultsAndRepair) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt13B);
  const OfflineEngine eng(v100_node(4), m, even_plan(m, 2));
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto arrivals = seeded_arrivals(seed, 64);
    const sq::sim::FaultSchedule faults = seeded_faults(seed, 4, 1);
    for (const int threads : {1, 4}) {
      ContinuousOptions copts;
      copts.num_threads = threads;
      expect_conserved(eng.serve_continuous(arrivals, copts),
                       tag_of("engine", seed, threads, "fault-free"));
      RecoveryOptions ropts;
      ropts.faults = &faults;
      const RequestStats unrepaired = eng.serve_continuous(arrivals, copts, ropts);
      expect_conserved(unrepaired, tag_of("engine", seed, threads, "no repair"));
      ropts.replan = even_replanner(m);
      const RequestStats repaired = eng.serve_continuous(arrivals, copts, ropts);
      expect_conserved(repaired, tag_of("engine", seed, threads, "repair"));
      EXPECT_GE(repaired.completed, unrepaired.completed);
    }
  }
}

TEST(Conservation, FleetEngine) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt13B);
  std::vector<ReplicaGroup> groups;
  for (const int g : {0, 1}) {
    ReplicaGroup rg;
    rg.cluster = v100_node(2, "node-v100-" + std::to_string(g));
    rg.to_original = {2 * g, 2 * g + 1};
    rg.plan = even_plan(m, 2);
    groups.push_back(std::move(rg));
  }
  const FleetEngine fleet(m, groups);
  for (const std::uint64_t seed : {1u, 2u}) {
    std::vector<FleetJob> jobs;
    for (std::uint64_t j = 0; j < 3; ++j) {
      FleetJob job;
      job.name = "job-" + std::to_string(j);
      job.arrivals = seeded_arrivals(seed * 10 + j, 12 + 4 * j);
      jobs.push_back(std::move(job));
    }
    const sq::sim::FaultSchedule faults = seeded_faults(seed, 4, 1);
    for (const int threads : {1, 4}) {
      for (const bool repair : {false, true}) {
        FleetOptions o;
        o.num_threads = threads;
        o.faults = &faults;
        if (repair) o.replan = even_replanner(m);
        const FleetStats fs = fleet.serve(jobs, o);
        ASSERT_TRUE(fs.feasible) << fs.failure;
        for (const JobOutcome& jo : fs.jobs) {
          expect_conserved(jo.continuous,
                           tag_of("fleet", seed, threads,
                                  jo.job + (repair ? " repair" : " no repair")));
        }
      }
    }
  }
}

TEST(Conservation, ElasticEngineAcrossTimelinesAndPolicies) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt13B);
  ReplicaGroup rg;
  rg.cluster = v100_node(2);
  rg.plan = even_plan(m, 2);
  rg.predicted_tok_s = 200.0;
  const sq::elastic::ElasticFleetEngine engine(m, {rg});

  struct Case {
    std::string timeline;  ///< Membership spec; "" = seeded random.
    std::string faults;    ///< Fault spec over base device ids.
  };
  const std::vector<Case> cases = {
      {"join:1xV100@40", ""},
      {"leave:1@50", ""},
      {"join:2xV100@30,leave:node1@60", "fail:0@80"},
      {"join:1xV100@40", "fail:1@70"},
      {"", "fail:0@90"},
  };
  for (const std::uint64_t seed : {5u, 6u}) {
    const std::vector<FleetJob> jobs = [&] {
      FleetJob job;
      job.name = "job-0";
      job.arrivals = seeded_arrivals(seed, 64);
      return std::vector<FleetJob>{std::move(job)};
    }();
    for (const Case& c : cases) {
      const sq::elastic::MembershipTimeline timeline =
          c.timeline.empty()
              ? sq::elastic::random_membership(seed, 100.0, 3)
              : sq::elastic::parse_membership_spec(c.timeline).timeline;
      ASSERT_FALSE(timeline.empty()) << c.timeline;
      const sq::sim::FaultParse fp = sq::sim::parse_fault_spec(c.faults);
      ASSERT_TRUE(fp.ok) << fp.error;
      for (const MigrationPolicy policy :
           {MigrationPolicy::kMigrate, MigrationPolicy::kDrain,
            MigrationPolicy::kRestart}) {
        for (const int threads : {1, 4}) {
          for (const bool repair : {false, true}) {
            sq::elastic::ElasticOptions o;
            o.timeline = &timeline;
            o.replan = even_replanner(m);
            o.migration = policy;
            o.autoscale.enabled = false;
            o.fleet.num_threads = threads;
            if (!fp.schedule.empty()) o.fleet.faults = &fp.schedule;
            if (repair) o.fleet.replan = even_replanner(m);
            const sq::elastic::ElasticStats es = engine.serve(jobs, o);
            ASSERT_TRUE(es.feasible) << es.failure;
            expect_conserved(
                es.fleet.jobs[0].continuous,
                tag_of("elastic", seed, threads,
                       timeline.to_spec() + " / " + c.faults + " / " +
                           sq::elastic::to_string(policy) +
                           (repair ? " repair" : " no repair")));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace sq::runtime
