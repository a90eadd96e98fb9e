// Deterministic fault injection for the pipeline simulator.
//
// A FaultSchedule is a seeded, fully explicit timeline of adverse events —
// device failures (permanent or transient), straggler slowdowns and
// link-bandwidth degradations — stamped on the *global simulated serving
// clock*.  The discrete-event simulator consumes the schedule through a
// FaultView: kernels on slowed devices stretch, communication over degraded
// links stalls, and work that touches a failed device surfaces as a typed
// abort in SimResult instead of a crash.  Everything is a pure function of
// the schedule, so runs are bit-identical for a fixed seed at any thread
// count, and a null/empty view reproduces the fault-free schedule exactly.
//
// Spec grammar (the CLI's --faults flag; items separated by ','):
//   fail:<dev>@<t>            permanent failure of device <dev> at <t> s
//   fail:<dev>@<t>+<d>        transient failure for <d> s (retryable)
//   slow:<dev>@<t>x<f>        permanent straggler: compute stretched by <f>
//   slow:<dev>@<t>+<d>x<f>    transient straggler for <d> s
//   link:<dev>@<t>x<f>        links touching <dev> slowed by factor <f>
//   link:<dev>@<t>+<d>x<f>    ... for <d> s
// Times are simulated seconds (double); <dev> is the flat device index of
// the ORIGINAL cluster; factors are > 1 (2 = half speed / half bandwidth).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace sq::sim {

/// What went wrong.
enum class FaultKind {
  kDeviceFail,  ///< Device unavailable: in-flight work on it aborts.
  kSlowdown,    ///< Straggler: compute on the device runs `factor`x slower.
  kLinkDegrade, ///< Links touching the device carry `factor`x less bandwidth.
};

/// Printable kind name ("fail", "slow", "link").
const char* to_string(FaultKind k);

/// One adverse event on the global simulated clock (microseconds).
struct FaultEvent {
  FaultKind kind = FaultKind::kDeviceFail;
  int device = 0;          ///< Flat device index of the ORIGINAL cluster.
  double start_us = 0.0;   ///< Window start on the global simulated clock.
  /// Window length; infinity = permanent (the default for failures).
  double duration_us = std::numeric_limits<double>::infinity();
  double factor = 1.0;     ///< Slowdown / bandwidth-division factor (> 1).

  double end_us() const { return start_us + duration_us; }
  bool permanent() const { return !(duration_us < std::numeric_limits<double>::infinity()); }
  /// A permanent straggler: plan repair re-rates the device's spec by
  /// `factor` instead of replaying the window.
  bool permanent_slowdown() const {
    return kind == FaultKind::kSlowdown && permanent() && factor > 1.0;
  }

  /// Spec-grammar rendering of this event ("fail:2@1.5").
  std::string to_spec() const;
};

/// A deterministic timeline of fault events.
struct FaultSchedule {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  /// Sort events into the canonical (start, device, kind) order so equal
  /// schedules compare equal and iteration order never depends on how the
  /// schedule was built.
  void normalize();

  /// Spec-grammar rendering of the whole schedule (round-trips through
  /// parse_fault_spec).
  std::string to_spec() const;
};

/// The schedule as seen from local time `t0_us`: event times are re-based
/// so the returned schedule's clock 0 corresponds to `t0_us` on the input
/// clock.  Windows that ended at or before `t0_us` are dropped, windows
/// straddling it are clamped to start at 0 with their remaining duration
/// (permanent windows stay permanent), and future windows shift left by
/// `t0_us`.  Used by the fleet engine to serve consecutive jobs on one
/// group timeline through engines whose serving clocks restart at 0;
/// `schedule_from(s, 0)` equals `s` up to normalization.
FaultSchedule schedule_from(const FaultSchedule& s, double t0_us);

/// Outcome of parsing a --faults spec string.
struct FaultParse {
  bool ok = false;
  std::string error;  ///< Diagnostic when !ok.
  FaultSchedule schedule;
};

/// Parse the spec grammar above.  An empty string parses to an empty
/// schedule.
FaultParse parse_fault_spec(const std::string& spec);

/// Seeded random schedule for fault sweeps: `n_events` events over
/// `device_count` devices within [0, horizon_s] — a mix of permanent
/// failures, transient stragglers and link degradations drawn from
/// SplitMix64, so the timeline is identical for a fixed seed on every
/// machine.  At most one permanent failure is drawn (the repaired cluster
/// must retain enough capacity for the sweep to stay comparable).
FaultSchedule random_fault_schedule(std::uint64_t seed, int device_count,
                                    double horizon_s, int n_events);

/// Read-only view the simulator consumes: the schedule, the batch's offset
/// on the global clock, and (after a plan repair) the mapping from the
/// *current* cluster's flat indices back to the ORIGINAL indices the
/// schedule speaks.  All query times are on the batch-local clock
/// (local 0 == global base_us).
///
/// Every query is written so that an empty schedule — or one whose windows
/// do not overlap the queried interval — returns bit-identical results to
/// the fault-free arithmetic (`advance` returns exactly start + duration).
struct FaultView {
  const FaultSchedule* schedule = nullptr;
  double base_us = 0.0;
  /// Current flat index -> original flat index; null = identity.
  const std::vector<int>* to_original = nullptr;

  /// Original-cluster index of current device `dev`.
  int original_of(int dev) const;

  /// Finish time of compute occupying `devs` from `start` for `dur`
  /// microseconds, stretched by any slowdown windows active on any of the
  /// devices (overlapping windows compose by taking the max factor).
  double advance(std::span<const int> devs, double start, double dur) const;

  /// Earliest local time >= `t0` at which a failure window is active on any
  /// of `devs`; +infinity when none ever is.
  double next_failure(std::span<const int> devs, double t0) const;

  /// The failure event active on `dev` at local time `t` (nullptr if none);
  /// used by the engine to distinguish transient from permanent faults.
  const FaultEvent* failure_at(int dev, double t) const;

  /// Combined bandwidth-division factor of the link (a, b) at local time
  /// `t` (1.0 when no degradation is active on either endpoint).
  double link_factor(int a, int b, double t) const;
};

}  // namespace sq::sim
