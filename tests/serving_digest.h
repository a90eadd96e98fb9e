// Golden renderings of serving outcomes: every deterministic field of a
// RecoveryStats / RequestStats / FleetStats / ElasticStats as text, doubles
// as hexfloats, so a golden pins an outcome bit for bit.  Real planner wall
// time (replan_wall_s) is left out: it is the one field that is not
// deterministic.  `digest` folds a rendering into a 64-bit FNV-1a value
// that a test can pin next to a few readable fields.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "elastic/elastic_engine.h"
#include "runtime/engine.h"
#include "runtime/fleet.h"
#include "sim/plan_io.h"

namespace sq::testutil {

inline std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

inline std::string render(const sq::runtime::RecoveryStats& r) {
  const sq::runtime::ServeStats& s = r.serve;
  std::string out = "feasible=" + std::to_string(s.feasible) +
                    " failure=" + s.failure +
                    " batches=" + std::to_string(s.batches) +
                    " waves=" + std::to_string(s.waves) +
                    " capped=" + std::to_string(s.capped_batches) +
                    " sec=" + hex(s.total_seconds) +
                    " tok=" + hex(s.output_tokens) +
                    " tput=" + hex(s.throughput_tok_s) +
                    " bubble=" + hex(s.mean_bubble) +
                    " faults=" + std::to_string(r.faults_hit) +
                    " retries=" + std::to_string(r.retries) +
                    " repairs=" + std::to_string(r.repairs_attempted) + "/" +
                    std::to_string(r.repairs_succeeded) +
                    " gen=" + std::to_string(r.final_generation) +
                    " lost=" + std::to_string(r.lost_requests) +
                    " lost_us=" + hex(r.lost_us) +
                    " backoff_us=" + hex(r.backoff_us) +
                    " replan_us=" + hex(r.replan_us) +
                    " goodput=" + hex(r.goodput_tok_s) +
                    " wall=" + hex(r.wall_seconds) + "\n";
  for (const std::string& e : r.events) out += "  " + e + "\n";
  return out + sq::sim::plan_to_string(r.final_plan);
}

inline std::string render(const sq::runtime::RequestStats& r) {
  std::string out = "feasible=" + std::to_string(r.feasible) +
                    " failure=" + r.failure +
                    " submitted=" + std::to_string(r.submitted) +
                    " completed=" + std::to_string(r.completed) +
                    " lost=" + std::to_string(r.lost) +
                    " preemptions=" + std::to_string(r.preemptions) +
                    " blocked=" + std::to_string(r.admission_blocked) +
                    " iterations=" + std::to_string(r.iterations) +
                    " tok=" + hex(r.output_tokens) +
                    " sec=" + hex(r.total_seconds) +
                    " goodput=" + hex(r.goodput_tok_s) +
                    " latency=" + hex(r.mean_latency_s) + "/" +
                    hex(r.p50_latency_s) + "/" + hex(r.p95_latency_s) +
                    " queue=" + hex(r.mean_queue_s) +
                    " kv=" + hex(r.kv_peak_utilization) +
                    " faults=" + std::to_string(r.faults_hit) +
                    " retries=" + std::to_string(r.retries) +
                    " permanent=" + std::to_string(r.fault_permanent) +
                    " device=" + std::to_string(r.fault_device) +
                    " fault_s=" + hex(r.fault_s) +
                    " stopped=" + std::to_string(r.stopped) +
                    " stop_s=" + hex(r.stop_s) +
                    " repairs=" + std::to_string(r.repairs_attempted) + "/" +
                    std::to_string(r.repairs_succeeded) +
                    " gen=" + std::to_string(r.final_generation) + "\n";
  for (const std::string& e : r.events) out += "  " + e + "\n";
  for (const sq::runtime::RequestOutcome& o : r.requests) {
    out += "  req " + std::to_string(o.id) + " " +
           std::to_string(o.completed) + std::to_string(o.lost) +
           std::to_string(o.in_flight) + std::to_string(o.prefill_done) +
           " " + hex(o.arrive_s) + " " + hex(o.admit_s) + " " +
           hex(o.finish_s) + " " + std::to_string(o.prompt_tokens) + " " +
           std::to_string(o.output_tokens) + " " +
           std::to_string(o.preemptions) + " " +
           std::to_string(o.progress_tokens) + "\n";
  }
  return out + sq::sim::plan_to_string(r.final_plan);
}

inline std::string render(const sq::runtime::FleetStats& f) {
  std::string out = "feasible=" + std::to_string(f.feasible) +
                    " failure=" + f.failure +
                    " completed=" + std::to_string(f.jobs_completed) +
                    " rejected=" + std::to_string(f.jobs_rejected) +
                    " reassigned=" + std::to_string(f.jobs_reassigned) +
                    " retired=" + std::to_string(f.groups_retired) +
                    " tok=" + hex(f.output_tokens) +
                    " makespan=" + hex(f.makespan_s) +
                    " aggregate=" + hex(f.aggregate_tok_s) +
                    " faults=" + std::to_string(f.faults_hit) +
                    " retries=" + std::to_string(f.retries) +
                    " repairs=" + std::to_string(f.repairs) + "\n";
  for (std::size_t g = 0; g < f.group_busy_s.size(); ++g) {
    out += "group " + std::to_string(g) + " busy=" + hex(f.group_busy_s[g]) +
           " jobs=" + std::to_string(f.group_jobs[g]) + "\n";
  }
  for (const std::string& e : f.events) out += e + "\n";
  for (const sq::runtime::JobOutcome& j : f.jobs) {
    out += "job " + j.job + " group=" + std::to_string(j.group) +
           " completed=" + std::to_string(j.completed) +
           " failure=" + j.failure + " [" + hex(j.start_s) + " .. " +
           hex(j.end_s) + "]\n" + render(j.recovery) + render(j.continuous);
  }
  return out;
}

inline std::string render(const sq::elastic::ElasticStats& e) {
  std::string out = "feasible=" + std::to_string(e.feasible) +
                    " failure=" + e.failure +
                    " events=" + std::to_string(e.events_applied) +
                    " joins=" + std::to_string(e.joins_offered) + "/" +
                    std::to_string(e.joins_accepted) + "/" +
                    std::to_string(e.joins_rejected) +
                    " leaves=" + std::to_string(e.leaves) +
                    " prices=" + std::to_string(e.price_events) +
                    " scale_downs=" + std::to_string(e.scale_downs) +
                    " replans=" + std::to_string(e.replans) +
                    " migrations=" + std::to_string(e.migrations) +
                    " drains=" + std::to_string(e.drains) +
                    " restarts=" + std::to_string(e.restarts) +
                    " kv=" + hex(e.migrated_kv_bytes) +
                    " migration_s=" + hex(e.migration_s) +
                    " device_s=" + hex(e.device_seconds) +
                    " dollars=" + hex(e.dollars) +
                    " tpd=" + hex(e.tokens_per_dollar) + "\n";
  for (const std::string& ev : e.events) out += ev + "\n";
  return out + render(e.fleet);
}

/// 64-bit FNV-1a over `text`, as 16 hex digits.
inline std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace sq::testutil
