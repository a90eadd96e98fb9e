#include "sim/faults.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/spec_util.h"
#include "tensor/rng.h"

namespace sq::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Render a time/factor with enough digits to round-trip the spec grammar
/// for the values the generators produce (milliseconds / small factors).
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Window [start, end) clipped to the local clock of `base_us`; returns
/// false when the window never intersects [t0, +inf) locally.
struct LocalWindow {
  double begin = 0.0;
  double end = 0.0;
};

bool local_window(const FaultEvent& e, double base_us, LocalWindow* out) {
  out->begin = e.start_us - base_us;
  out->end = e.permanent() ? kInf : e.end_us() - base_us;
  return out->end > 0.0 || e.permanent();
}

}  // namespace

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kDeviceFail: return "fail";
    case FaultKind::kSlowdown: return "slow";
    case FaultKind::kLinkDegrade: return "link";
  }
  return "?";
}

std::string FaultEvent::to_spec() const {
  // Appended piece by piece: gcc 12 at -O3 raises -Wrestrict false
  // positives on "lit" + std::string chains.
  std::string s(to_string(kind));
  s += ':';
  s += std::to_string(device);
  s += '@';
  s += num(start_us * 1e-6);
  if (!permanent()) {
    s += '+';
    s += num(duration_us * 1e-6);
  }
  if (kind != FaultKind::kDeviceFail) {
    s += 'x';
    s += num(factor);
  }
  return s;
}

void FaultSchedule::normalize() {
  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              if (a.device != b.device) return a.device < b.device;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
}

FaultSchedule schedule_from(const FaultSchedule& s, double t0_us) {
  FaultSchedule out;
  for (const FaultEvent& e : s.events) {
    if (!e.permanent() && e.end_us() <= t0_us) continue;  // window over.
    FaultEvent shifted = e;
    if (e.start_us <= t0_us) {
      shifted.start_us = 0.0;
      if (!e.permanent()) shifted.duration_us = e.end_us() - t0_us;
    } else {
      shifted.start_us = e.start_us - t0_us;
    }
    out.events.push_back(shifted);
  }
  out.normalize();
  return out;
}

std::string FaultSchedule::to_spec() const {
  std::string s;
  for (const auto& e : events) {
    if (!s.empty()) s += ",";
    s += e.to_spec();
  }
  return s;
}

FaultParse parse_fault_spec(const std::string& spec) {
  FaultParse out;
  for (const std::string& item : sq::common::split_spec_items(spec)) {
    FaultEvent e;
    const auto colon = item.find(':');
    const auto at = item.find('@');
    if (colon == std::string::npos || at == std::string::npos || at < colon) {
      out.error = "bad fault item '" + item + "' (want kind:dev@t...)";
      return out;
    }
    const std::string kind = item.substr(0, colon);
    if (kind == "fail") e.kind = FaultKind::kDeviceFail;
    else if (kind == "slow") e.kind = FaultKind::kSlowdown;
    else if (kind == "link") e.kind = FaultKind::kLinkDegrade;
    else {
      out.error = "unknown fault kind '" + kind + "' (want fail|slow|link)";
      return out;
    }
    // Strict field parses (common/spec_util.h): whitespace inside an item
    // and trailing junk ("1 extra") are rejected uniformly across the spec
    // grammars.
    const auto bad_number = [&] {
      out.error = "bad number in fault item '" + item + "'";
      return out;
    };
    long long dev = 0;
    if (!sq::common::parse_spec_uint(item.substr(colon + 1, at - colon - 1),
                                     &dev)) {
      return bad_number();
    }
    e.device = static_cast<int>(dev);
    std::string rest = item.substr(at + 1);
    // <t>[+<d>][x<f>] — split off the factor first, then the duration.
    const auto x = rest.find('x');
    if (x != std::string::npos) {
      if (e.kind == FaultKind::kDeviceFail) {
        out.error = "factor not allowed on 'fail' in '" + item + "'";
        return out;
      }
      if (!sq::common::parse_spec_double(rest.substr(x + 1), &e.factor)) {
        return bad_number();
      }
      rest = rest.substr(0, x);
    }
    const auto plus = rest.find('+');
    if (plus != std::string::npos) {
      double dur_s = 0.0;
      if (!sq::common::parse_spec_double(rest.substr(plus + 1), &dur_s)) {
        return bad_number();
      }
      e.duration_us = dur_s * 1e6;
      rest = rest.substr(0, plus);
    }
    double start_s = 0.0;
    if (!sq::common::parse_spec_double(rest, &start_s)) return bad_number();
    e.start_us = start_s * 1e6;
    if (e.start_us < 0.0 || e.duration_us <= 0.0) {
      out.error = "non-positive time in '" + item + "'";
      return out;
    }
    if (e.kind != FaultKind::kDeviceFail && e.factor <= 1.0) {
      out.error = "factor must be > 1 in '" + item + "'";
      return out;
    }
    out.schedule.events.push_back(e);
  }
  out.schedule.normalize();
  out.ok = true;
  return out;
}

FaultSchedule random_fault_schedule(std::uint64_t seed, int device_count,
                                    double horizon_s, int n_events) {
  FaultSchedule s;
  if (device_count <= 0 || n_events <= 0) return s;
  sq::tensor::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  bool failed_one = false;
  for (int i = 0; i < n_events; ++i) {
    FaultEvent e;
    e.device = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(device_count)));
    e.start_us = rng.next_double() * horizon_s * 1e6;
    const std::uint64_t roll = rng.next_below(3);
    if (roll == 0 && !failed_one) {
      e.kind = FaultKind::kDeviceFail;  // permanent by default
      failed_one = true;
    } else if (roll <= 1) {
      e.kind = FaultKind::kSlowdown;
      e.factor = 1.5 + rng.next_double() * 2.5;               // 1.5x .. 4x
      e.duration_us = (0.1 + rng.next_double()) * horizon_s * 1e6 * 0.25;
    } else {
      e.kind = FaultKind::kLinkDegrade;
      e.factor = 2.0 + rng.next_double() * 6.0;               // 2x .. 8x
      e.duration_us = (0.1 + rng.next_double()) * horizon_s * 1e6 * 0.25;
    }
    s.events.push_back(e);
  }
  s.normalize();
  return s;
}

int FaultView::original_of(int dev) const {
  if (to_original == nullptr) return dev;
  return (*to_original)[static_cast<std::size_t>(dev)];
}

double FaultView::advance(std::span<const int> devs, double start, double dur) const {
  if (schedule == nullptr || schedule->events.empty() || dur <= 0.0) {
    return start + dur;
  }
  // Collect the slowdown windows touching any of the (original) devices.
  // Typical schedules hold a handful of events, so a linear scan per query
  // is cheaper than an index — and trivially deterministic.
  struct Win {
    double begin, end, factor;
  };
  Win wins[16];
  std::size_t n = 0;
  for (const auto& e : schedule->events) {
    if (e.kind != FaultKind::kSlowdown) continue;
    bool hits = false;
    for (const int d : devs) hits = hits || original_of(d) == e.device;
    if (!hits) continue;
    LocalWindow w;
    if (!local_window(e, base_us, &w)) continue;
    if (w.end <= start) continue;
    if (n < std::size(wins)) wins[n++] = {w.begin, w.end, e.factor};
  }
  if (n == 0) return start + dur;
  // Piecewise integration: progress runs at 1/max(active factors).  Event
  // boundaries partition time; walk them in order consuming `dur` units of
  // work.
  double t = start;
  double left = dur;
  while (left > 0.0) {
    double factor = 1.0;
    double next_edge = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      if (t >= wins[i].begin && t < wins[i].end) {
        factor = std::max(factor, wins[i].factor);
        next_edge = std::min(next_edge, wins[i].end);
      } else if (wins[i].begin > t) {
        next_edge = std::min(next_edge, wins[i].begin);
      }
    }
    if (next_edge == kInf) return t + left * factor;
    const double span = next_edge - t;
    if (left * factor <= span) return t + left * factor;
    left -= span / factor;
    t = next_edge;
  }
  return t;
}

double FaultView::next_failure(std::span<const int> devs, double t0) const {
  if (schedule == nullptr || schedule->events.empty()) return kInf;
  double best = kInf;
  for (const auto& e : schedule->events) {
    if (e.kind != FaultKind::kDeviceFail) continue;
    bool hits = false;
    for (const int d : devs) hits = hits || original_of(d) == e.device;
    if (!hits) continue;
    LocalWindow w;
    if (!local_window(e, base_us, &w)) continue;
    if (w.end <= t0) continue;  // window already over
    best = std::min(best, std::max(w.begin, t0));
  }
  return best;
}

const FaultEvent* FaultView::failure_at(int dev, double t) const {
  if (schedule == nullptr) return nullptr;
  const int orig = original_of(dev);
  const FaultEvent* found = nullptr;
  for (const auto& e : schedule->events) {
    if (e.kind != FaultKind::kDeviceFail || e.device != orig) continue;
    LocalWindow w;
    if (!local_window(e, base_us, &w)) continue;
    if (t >= w.begin && t < w.end) {
      // Prefer a permanent failure when windows overlap: the engine must
      // not retry into a dead device.
      if (found == nullptr || e.permanent()) found = &e;
    }
  }
  return found;
}

double FaultView::link_factor(int a, int b, double t) const {
  if (schedule == nullptr || schedule->events.empty()) return 1.0;
  const int oa = original_of(a);
  const int ob = original_of(b);
  double factor = 1.0;
  for (const auto& e : schedule->events) {
    if (e.kind != FaultKind::kLinkDegrade) continue;
    if (e.device != oa && e.device != ob) continue;
    LocalWindow w;
    if (!local_window(e, base_us, &w)) continue;
    if (t >= w.begin && t < w.end) factor = std::max(factor, e.factor);
  }
  return factor;
}

}  // namespace sq::sim
