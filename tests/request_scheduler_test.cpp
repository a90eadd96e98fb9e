// Tests for the continuous-batching request scheduler: admission control,
// preemption, fault behavior and the bit-determinism contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "hw/cluster.h"
#include "hw/paper_clusters.h"
#include "model/registry.h"
#include "runtime/engine.h"
#include "runtime/request_scheduler.h"
#include "workload/arrivals.h"

namespace sq::runtime {
namespace {

using sq::hw::Bitwidth;
using sq::workload::TimedRequest;

sq::sim::ExecutionPlan plan_for(const sq::model::LlmSpec& m, int stages,
                                Bitwidth b, std::uint64_t eta = 4,
                                std::uint64_t xi = 16) {
  sq::sim::ExecutionPlan p;
  const int per = m.n_layers / stages;
  for (int s = 0; s < stages; ++s) {
    p.stages.push_back(
        {{s}, s * per, s + 1 == stages ? m.n_layers : (s + 1) * per});
  }
  p.layer_bits.assign(static_cast<std::size_t>(m.n_layers), b);
  p.prefill_microbatch = eta;
  p.decode_microbatch = xi;
  return p;
}

sq::hw::Cluster two_v100() {
  return sq::hw::Cluster("test", {{"n0", sq::hw::GpuType::kV100, 2, 300.0, "", 0}},
                         800.0);
}

sq::hw::Cluster two_t4() {
  return sq::hw::Cluster("test", {{"n0", sq::hw::GpuType::kT4, 2, 32.0, "", 0}},
                         800.0);
}

/// Deterministic arrival trace without going through a dataset: fixed
/// lengths, explicit instants.
std::vector<TimedRequest> trace_of(
    const std::vector<std::array<double, 3>>& rows) {
  std::vector<TimedRequest> t;
  for (const auto& r : rows) {
    TimedRequest tr;
    tr.arrive_s = r[0];
    tr.request.prompt_tokens = static_cast<std::uint64_t>(r[1]);
    tr.request.output_tokens = static_cast<std::uint64_t>(r[2]);
    t.push_back(tr);
  }
  return t;
}

std::vector<TimedRequest> burst_trace(int n) {
  sq::workload::ArrivalSpec spec;
  spec.segments.push_back({sq::workload::ArrivalSegment::Kind::kBurst,
                           static_cast<std::uint64_t>(n), 0.0, 0.0});
  return sq::workload::generate_arrivals(spec, sq::workload::Dataset::kCnnDailyMail,
                                         17);
}

/// Field-exact comparison — the determinism contract is bit-identity.
::testing::AssertionResult identical(const RequestStats& a,
                                     const RequestStats& b) {
#define SQ_CHECK(field)                                                  \
  if (!(a.field == b.field)) {                                           \
    return ::testing::AssertionFailure() << "RequestStats::" #field      \
                                         << " differs";                  \
  }
  SQ_CHECK(feasible);
  SQ_CHECK(failure);
  SQ_CHECK(submitted);
  SQ_CHECK(completed);
  SQ_CHECK(lost);
  SQ_CHECK(preemptions);
  SQ_CHECK(admission_blocked);
  SQ_CHECK(iterations);
  SQ_CHECK(output_tokens);
  SQ_CHECK(total_seconds);
  SQ_CHECK(goodput_tok_s);
  SQ_CHECK(mean_latency_s);
  SQ_CHECK(p50_latency_s);
  SQ_CHECK(p95_latency_s);
  SQ_CHECK(mean_queue_s);
  SQ_CHECK(kv_peak_utilization);
  SQ_CHECK(faults_hit);
  SQ_CHECK(retries);
  SQ_CHECK(fault_permanent);
  SQ_CHECK(fault_device);
  SQ_CHECK(fault_s);
  SQ_CHECK(events);
  SQ_CHECK(repairs_attempted);
  SQ_CHECK(repairs_succeeded);
  SQ_CHECK(final_generation);
#undef SQ_CHECK
  if (a.requests.size() != b.requests.size()) {
    return ::testing::AssertionFailure() << "requests.size differs";
  }
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const RequestOutcome& x = a.requests[i];
    const RequestOutcome& y = b.requests[i];
    if (x.id != y.id || x.completed != y.completed || x.lost != y.lost ||
        x.arrive_s != y.arrive_s || x.admit_s != y.admit_s ||
        x.finish_s != y.finish_s || x.prompt_tokens != y.prompt_tokens ||
        x.output_tokens != y.output_tokens ||
        x.preemptions != y.preemptions) {
      return ::testing::AssertionFailure() << "requests[" << i << "] differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(RequestScheduler, CompletesBurstAndAccountsOutcomes) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt1_3B);
  const RequestScheduler sched(two_v100(), m, plan_for(m, 2, Bitwidth::kInt8));
  const auto arrivals = burst_trace(24);
  const RequestStats s = sched.serve(arrivals);
  ASSERT_TRUE(s.feasible) << s.failure;
  EXPECT_EQ(s.submitted, 24u);
  EXPECT_EQ(s.completed, 24u);
  EXPECT_EQ(s.lost, 0u);
  EXPECT_GT(s.iterations, 0u);
  EXPECT_GT(s.output_tokens, 0.0);
  EXPECT_GT(s.goodput_tok_s, 0.0);
  EXPECT_GT(s.total_seconds, 0.0);
  EXPECT_GE(s.p95_latency_s, s.p50_latency_s);
  for (const RequestOutcome& out : s.requests) {
    EXPECT_TRUE(out.completed);
    EXPECT_FALSE(out.lost);
    EXPECT_GE(out.admit_s, out.arrive_s);
    EXPECT_GT(out.finish_s, out.admit_s);
    EXPECT_GT(out.output_tokens, 0u);
  }
}

TEST(RequestScheduler, BitIdenticalAcrossThreadCounts) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt1_3B);
  const RequestScheduler sched(two_v100(), m, plan_for(m, 2, Bitwidth::kInt8));
  const auto arrivals = burst_trace(32);
  ContinuousOptions opts;
  opts.num_threads = 1;
  const RequestStats base = sched.serve(arrivals, opts);
  ASSERT_TRUE(base.feasible) << base.failure;
  for (const int nt : {2, 4, 8}) {
    opts.num_threads = nt;
    EXPECT_TRUE(identical(base, sched.serve(arrivals, opts)))
        << "threads=" << nt;
  }
}

TEST(RequestScheduler, RepeatedRunsIdentical) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt1_3B);
  const RequestScheduler sched(two_v100(), m, plan_for(m, 2, Bitwidth::kInt4));
  const auto arrivals = burst_trace(16);
  EXPECT_TRUE(identical(sched.serve(arrivals), sched.serve(arrivals)));
}

TEST(RequestScheduler, MemoizationNeverChangesResults) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt1_3B);
  const auto plan = plan_for(m, 2, Bitwidth::kInt8);
  const RequestScheduler memo(two_v100(), m, plan, 1.0,
                              {.ground_truth = true, .seed = 11}, true);
  const RequestScheduler raw(two_v100(), m, plan, 1.0,
                             {.ground_truth = true, .seed = 11}, false);
  const auto arrivals = burst_trace(16);
  EXPECT_TRUE(identical(memo.serve(arrivals), raw.serve(arrivals)));
}

TEST(RequestScheduler, EngineForwardMatchesDirectScheduler) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt1_3B);
  const auto plan = plan_for(m, 2, Bitwidth::kInt8);
  const OfflineEngine eng(two_v100(), m, plan);
  const RequestScheduler sched(two_v100(), m, plan, eng.backend_efficiency());
  const auto arrivals = burst_trace(16);
  EXPECT_TRUE(identical(eng.serve_continuous(arrivals), sched.serve(arrivals)));
}

TEST(RequestScheduler, LateArrivalsWaitForTheirInstant) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt1_3B);
  const RequestScheduler sched(two_v100(), m, plan_for(m, 2, Bitwidth::kInt8));
  const auto arrivals =
      trace_of({{0.0, 256, 32}, {30.0, 256, 32}, {60.0, 256, 32}});
  const RequestStats s = sched.serve(arrivals);
  ASSERT_TRUE(s.feasible) << s.failure;
  EXPECT_EQ(s.completed, 3u);
  EXPECT_GE(s.requests[1].admit_s, 30.0);
  EXPECT_GE(s.requests[2].admit_s, 60.0);
  EXPECT_GE(s.total_seconds, 60.0);
}

TEST(RequestScheduler, StartInstantShiftsTheClock) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt1_3B);
  const RequestScheduler sched(two_v100(), m, plan_for(m, 2, Bitwidth::kInt8));
  const auto arrivals = trace_of({{0.0, 256, 32}, {1.0, 256, 32}});
  ContinuousOptions opts;
  opts.start_us = 5e6;
  const RequestStats s = sched.serve(arrivals, opts);
  ASSERT_TRUE(s.feasible) << s.failure;
  EXPECT_EQ(s.completed, 2u);
  for (const RequestOutcome& out : s.requests) {
    EXPECT_GE(out.admit_s, 5.0);
  }
  EXPECT_GE(s.total_seconds, 5.0);
}

TEST(RequestScheduler, ChunkedPrefillCompletesWithMoreIterations) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt1_3B);
  const RequestScheduler sched(two_v100(), m, plan_for(m, 2, Bitwidth::kInt8));
  const auto arrivals = trace_of(
      {{0.0, 1500, 16}, {0.0, 1400, 16}, {0.0, 1300, 16}, {0.0, 1200, 16}});
  ContinuousOptions coarse;
  coarse.chunk_tokens = 2048;
  ContinuousOptions fine;
  fine.chunk_tokens = 128;
  const RequestStats a = sched.serve(arrivals, coarse);
  const RequestStats b = sched.serve(arrivals, fine);
  ASSERT_TRUE(a.feasible) << a.failure;
  ASSERT_TRUE(b.feasible) << b.failure;
  EXPECT_EQ(a.completed, 4u);
  EXPECT_EQ(b.completed, 4u);
  EXPECT_GT(b.iterations, a.iterations);
}

TEST(RequestScheduler, MaxRunningCapsConcurrency) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt1_3B);
  const RequestScheduler sched(two_v100(), m, plan_for(m, 2, Bitwidth::kInt8));
  const auto arrivals = burst_trace(8);
  ContinuousOptions capped;
  capped.max_running = 1;
  const RequestStats c = sched.serve(arrivals, capped);
  const RequestStats u = sched.serve(arrivals);
  ASSERT_TRUE(c.feasible) << c.failure;
  EXPECT_EQ(c.completed, 8u);
  // Serial admission can never finish faster than continuous batching.
  EXPECT_GE(c.total_seconds, u.total_seconds);
  EXPECT_GE(c.mean_queue_s, u.mean_queue_s);
}

// A KV pool too small for the full burst forces evictions (recompute
// preemption) and admission stalls, yet every request still completes.
TEST(RequestScheduler, TightKvPreemptsAndStillCompletes) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt13B);
  const auto plan = plan_for(m, 2, Bitwidth::kInt8, 2, 8);
  const RequestScheduler sched(two_t4(), m, plan);
  std::vector<std::array<double, 3>> rows;
  for (int i = 0; i < 16; ++i) {
    rows.push_back({0.0, static_cast<double>(1500 + 20 * i), 200.0});
  }
  const auto arrivals = trace_of(rows);
  const RequestStats s = sched.serve(arrivals);
  ASSERT_TRUE(s.feasible) << s.failure;
  EXPECT_EQ(s.completed, 16u);
  EXPECT_EQ(s.lost, 0u);
  EXPECT_GT(s.preemptions + s.admission_blocked, 0u);
  EXPECT_GT(s.kv_peak_utilization, 0.5);
}

// Tight-KV schedules exercise the eviction path; the determinism contract
// must hold there too.
TEST(RequestScheduler, TightKvBitIdenticalAcrossThreads) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt13B);
  const auto plan = plan_for(m, 2, Bitwidth::kInt8, 2, 8);
  const RequestScheduler sched(two_t4(), m, plan);
  std::vector<std::array<double, 3>> rows;
  for (int i = 0; i < 12; ++i) {
    rows.push_back({0.25 * (i % 3), static_cast<double>(1500 + 25 * i), 200.0});
  }
  const auto arrivals = trace_of(rows);
  ContinuousOptions opts;
  opts.num_threads = 1;
  const RequestStats base = sched.serve(arrivals, opts);
  for (const int nt : {2, 8}) {
    opts.num_threads = nt;
    EXPECT_TRUE(identical(base, sched.serve(arrivals, opts)))
        << "threads=" << nt;
  }
}

// A request whose full context can never reserve on the tightest stage is
// terminally lost; smaller requests around it still complete.
TEST(RequestScheduler, OversizedRequestIsLostOthersComplete) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt13B);
  const auto plan = plan_for(m, 2, Bitwidth::kFp16, 2, 8);
  const RequestScheduler sched(two_t4(), m, plan);
  const auto arrivals =
      trace_of({{0.0, 128, 16}, {0.0, 1900, 100}, {0.0, 128, 16}});
  const RequestStats s = sched.serve(arrivals);
  ASSERT_TRUE(s.feasible) << s.failure;
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.lost, 1u);
  EXPECT_TRUE(s.requests[1].lost);
  EXPECT_FALSE(s.requests[1].completed);
  EXPECT_TRUE(s.requests[0].completed);
  EXPECT_TRUE(s.requests[2].completed);
}

TEST(RequestScheduler, ReportsWeightOom) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt30B);
  const RequestScheduler sched(two_t4(), m, plan_for(m, 2, Bitwidth::kFp16));
  const RequestStats s = sched.serve(trace_of({{0.0, 256, 32}}));
  EXPECT_FALSE(s.feasible);
  EXPECT_NE(s.failure.find("OOM"), std::string::npos);
}

TEST(RequestScheduler, RejectsInvalidPlan) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt1_3B);
  auto plan = plan_for(m, 2, Bitwidth::kInt8);
  plan.stages[1].layer_begin += 1;  // break contiguity
  const RequestScheduler sched(two_v100(), m, plan);
  const RequestStats s = sched.serve(trace_of({{0.0, 256, 32}}));
  EXPECT_FALSE(s.feasible);
  EXPECT_NE(s.failure.find("invalid plan"), std::string::npos);
}

TEST(RequestScheduler, TransientFaultIsWaitedOutAndRetried) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt1_3B);
  const RequestScheduler sched(two_v100(), m, plan_for(m, 2, Bitwidth::kInt8));
  const auto arrivals = burst_trace(16);
  const sq::sim::FaultParse fp = sq::sim::parse_fault_spec("fail:1@2+3");
  ASSERT_TRUE(fp.ok) << fp.error;
  ContinuousOptions opts;
  opts.faults = &fp.schedule;
  const RequestStats s = sched.serve(arrivals, opts);
  ASSERT_TRUE(s.feasible) << s.failure;
  EXPECT_EQ(s.completed, 16u);
  EXPECT_FALSE(s.fault_permanent);
  EXPECT_GE(s.faults_hit, 1u);
  EXPECT_GE(s.retries, 1u);
  // The fault-free run must be strictly faster.
  const RequestStats clean = sched.serve(arrivals);
  EXPECT_GT(s.total_seconds, clean.total_seconds);
  // Determinism holds under faults too.
  ContinuousOptions opts8 = opts;
  opts8.num_threads = 8;
  EXPECT_TRUE(identical(s, sched.serve(arrivals, opts8)));
}

TEST(RequestScheduler, PermanentFaultStopsWithTypedOutcome) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt1_3B);
  const RequestScheduler sched(two_v100(), m, plan_for(m, 2, Bitwidth::kInt8));
  const auto arrivals = burst_trace(24);
  const sq::sim::FaultParse fp = sq::sim::parse_fault_spec("fail:1@3");
  ASSERT_TRUE(fp.ok) << fp.error;
  ContinuousOptions opts;
  opts.faults = &fp.schedule;
  const RequestStats s = sched.serve(arrivals, opts);
  ASSERT_TRUE(s.feasible) << s.failure;  // typed stop, not a structural error
  EXPECT_TRUE(s.fault_permanent);
  EXPECT_EQ(s.fault_device, 1);
  EXPECT_GE(s.fault_s, 0.0);
  EXPECT_LT(s.completed, 24u);
  EXPECT_GE(s.total_seconds, s.fault_s);
  std::uint64_t incomplete = 0;
  for (const RequestOutcome& out : s.requests) {
    if (!out.completed) ++incomplete;
  }
  EXPECT_EQ(incomplete + s.completed, 24u);
}

/// Handcrafted replanner: a single-stage int8 plan on whatever devices
/// remain (enough for OPT-1.3B on one V100).
Replanner single_stage_replanner(const sq::model::LlmSpec& m) {
  return [m](const sq::hw::Cluster& degraded, int) {
    ReplanOutcome out;
    sq::sim::ExecutionPlan p;
    std::vector<int> devs;
    for (int d = 0; d < degraded.device_count(); ++d) devs.push_back(d);
    p.stages.push_back({devs, 0, m.n_layers});
    p.layer_bits.assign(static_cast<std::size_t>(m.n_layers), Bitwidth::kInt8);
    p.prefill_microbatch = 4;
    p.decode_microbatch = 16;
    out.feasible = p.validate(m, degraded).empty();
    out.plan = p;
    return out;
  };
}

TEST(RequestScheduler, ServeContinuousRepairsAndResumes) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt1_3B);
  const OfflineEngine eng(two_v100(), m, plan_for(m, 2, Bitwidth::kInt8));
  const auto arrivals = burst_trace(24);
  const sq::sim::FaultParse fp = sq::sim::parse_fault_spec("fail:1@3");
  ASSERT_TRUE(fp.ok) << fp.error;
  RecoveryOptions ropts;
  ropts.faults = &fp.schedule;
  ropts.replan = single_stage_replanner(m);
  const RequestStats s = eng.serve_continuous(arrivals, {}, ropts);
  ASSERT_TRUE(s.feasible) << s.failure;
  EXPECT_FALSE(s.fault_permanent);
  EXPECT_EQ(s.completed, 24u);
  EXPECT_EQ(s.lost, 0u);
  EXPECT_EQ(s.final_generation, 1);
  EXPECT_EQ(s.repairs_succeeded, 1u);
  EXPECT_GE(s.faults_hit, 1u);
  bool saw_repair = false;
  for (const std::string& e : s.events) {
    if (e.find("repair: generation 1") != std::string::npos) saw_repair = true;
  }
  EXPECT_TRUE(saw_repair);
  EXPECT_EQ(s.final_plan.repair_generation, 1);
  ASSERT_EQ(s.final_plan.excluded_devices.size(), 1u);
  EXPECT_EQ(s.final_plan.excluded_devices[0], 1);
  // Every outcome is accounted for, and the repair run is deterministic.
  for (const RequestOutcome& out : s.requests) EXPECT_TRUE(out.completed);
  ContinuousOptions copts;
  copts.num_threads = 8;
  EXPECT_TRUE(identical(s, eng.serve_continuous(arrivals, copts, ropts)));
}

TEST(RequestScheduler, ServeContinuousWithoutRepairLosesRemaining) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt1_3B);
  const OfflineEngine eng(two_v100(), m, plan_for(m, 2, Bitwidth::kInt8));
  const auto arrivals = burst_trace(24);
  const sq::sim::FaultParse fp = sq::sim::parse_fault_spec("fail:1@3");
  ASSERT_TRUE(fp.ok) << fp.error;
  RecoveryOptions ropts;
  ropts.faults = &fp.schedule;  // no replanner
  const RequestStats s = eng.serve_continuous(arrivals, {}, ropts);
  ASSERT_TRUE(s.feasible);
  EXPECT_TRUE(s.fault_permanent);
  EXPECT_EQ(s.fault_device, 1);
  EXPECT_EQ(s.completed + s.lost, 24u);
  EXPECT_GT(s.lost, 0u);
  EXPECT_NE(s.failure.find("repair disabled"), std::string::npos);
  for (const RequestOutcome& out : s.requests) {
    EXPECT_TRUE(out.completed || out.lost);
  }
}

TEST(RequestScheduler, FaultFreeServeContinuousMatchesPlainScheduler) {
  const auto m = sq::model::spec(sq::model::ModelId::kOpt1_3B);
  const auto plan = plan_for(m, 2, Bitwidth::kInt8);
  const OfflineEngine eng(two_v100(), m, plan);
  const RequestScheduler sched(two_v100(), m, plan, eng.backend_efficiency());
  const auto arrivals = burst_trace(16);
  // The recovery loop with an empty schedule (and a replanner it never
  // needs) is the plain scheduler, bit for bit.
  const sq::sim::FaultSchedule none;
  RecoveryOptions ropts;
  ropts.faults = &none;
  ropts.replan = single_stage_replanner(m);
  EXPECT_TRUE(identical(eng.serve_continuous(arrivals, {}, ropts),
                        sched.serve(arrivals)));
}

}  // namespace
}  // namespace sq::runtime
