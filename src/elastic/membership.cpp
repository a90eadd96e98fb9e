#include "elastic/membership.h"

#include <algorithm>
#include <cstdio>

#include "common/spec_util.h"
#include "tensor/rng.h"

namespace sq::elastic {

namespace {

/// Render a time/price with enough digits to round-trip the quantized
/// values the generators produce (millisecond times, cent prices).
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

constexpr sq::hw::GpuType kTypes[] = {
    sq::hw::GpuType::kT4, sq::hw::GpuType::kP100, sq::hw::GpuType::kV100,
    sq::hw::GpuType::kA100_40G};

}  // namespace

const char* to_string(MemberEventKind k) {
  switch (k) {
    case MemberEventKind::kJoin: return "join";
    case MemberEventKind::kLeave: return "leave";
    case MemberEventKind::kPrice: return "price";
  }
  return "?";
}

std::string MembershipEvent::to_spec() const {
  // Appended piece by piece: gcc 12 at -O3 raises -Wrestrict false
  // positives on "lit" + std::string chains.
  std::string s;
  switch (kind) {
    case MemberEventKind::kJoin:
      s = "join:";
      s += std::to_string(count);
      s += 'x';
      s += sq::hw::to_string(gpu);
      break;
    case MemberEventKind::kLeave:
      s = whole_node ? "leave:node" : "leave:";
      s += std::to_string(index);
      break;
    case MemberEventKind::kPrice:
      s = "price:";
      s += sq::hw::to_string(gpu);
      s += '=';
      s += num(price);
      break;
  }
  if (s.empty()) return "?";
  s += '@';
  // Divide (not multiply by 1e-6, which is inexact): the rendered seconds
  // value is then the correctly-rounded quotient, which %.9g prints
  // stably for the quantized times the generators emit.
  s += num(at_us / 1e6);
  return s;
}

void MembershipTimeline::normalize() {
  std::sort(events.begin(), events.end(),
            [](const MembershipEvent& a, const MembershipEvent& b) {
              if (a.at_us != b.at_us) return a.at_us < b.at_us;
              if (a.kind != b.kind) {
                return static_cast<int>(a.kind) < static_cast<int>(b.kind);
              }
              if (a.index != b.index) return a.index < b.index;
              if (a.gpu != b.gpu) {
                return static_cast<int>(a.gpu) < static_cast<int>(b.gpu);
              }
              if (a.count != b.count) return a.count < b.count;
              return a.price < b.price;
            });
}

std::string MembershipTimeline::to_spec() const {
  std::string s;
  for (const auto& e : events) {
    if (!s.empty()) s += ",";
    s += e.to_spec();
  }
  return s;
}

MembershipParse parse_membership_spec(const std::string& spec) {
  MembershipParse out;
  for (const std::string& item : sq::common::split_spec_items(spec)) {
    MembershipEvent e;
    const auto colon = item.find(':');
    const auto at = item.rfind('@');
    if (colon == std::string::npos || at == std::string::npos || at < colon) {
      out.error = "bad membership item '" + item + "' (want kind:...@t)";
      return out;
    }
    const auto bad = [&](const std::string& why) {
      out.error = "bad membership item '" + item + "': " + why;
      return out;
    };
    const std::string kind = item.substr(0, colon);
    const std::string body = item.substr(colon + 1, at - colon - 1);
    double at_s = 0.0;
    if (!sq::common::parse_spec_double(item.substr(at + 1), &at_s)) {
      return bad("bad time");
    }
    if (at_s < 0.0) return bad("negative time");
    e.at_us = at_s * 1e6;

    if (kind == "join") {
      // <n>x<type>
      e.kind = MemberEventKind::kJoin;
      const auto x = body.find('x');
      if (x == std::string::npos) return bad("want join:<n>x<type>@<t>");
      long long n = 0;
      if (!sq::common::parse_spec_uint(body.substr(0, x), &n)) {
        return bad("bad GPU count");
      }
      if (n < 1 || n > 64) return bad("GPU count must be in [1, 64]");
      e.count = static_cast<int>(n);
      if (!sq::hw::gpu_type_from_string(body.substr(x + 1), &e.gpu)) {
        return bad("unknown GPU type '" + body.substr(x + 1) + "'");
      }
    } else if (kind == "leave") {
      // node<k> | <dev>
      e.kind = MemberEventKind::kLeave;
      std::string target = body;
      if (target.rfind("node", 0) == 0) {
        e.whole_node = true;
        target = target.substr(4);
      }
      long long idx = 0;
      if (!sq::common::parse_spec_uint(target, &idx)) {
        return bad("want leave:node<k>@<t> or leave:<dev>@<t>");
      }
      e.index = static_cast<int>(idx);
    } else if (kind == "price") {
      // <type>=<p>
      e.kind = MemberEventKind::kPrice;
      const auto eq = body.find('=');
      if (eq == std::string::npos) return bad("want price:<type>=<p>@<t>");
      if (!sq::hw::gpu_type_from_string(body.substr(0, eq), &e.gpu)) {
        return bad("unknown GPU type '" + body.substr(0, eq) + "'");
      }
      if (!sq::common::parse_spec_double(body.substr(eq + 1), &e.price)) {
        return bad("bad price");
      }
      if (e.price <= 0.0) return bad("price must be > 0");
    } else {
      out.error = "unknown membership kind '" + kind +
                  "' (want join|leave|price)";
      return out;
    }
    out.timeline.events.push_back(e);
  }
  out.timeline.normalize();
  out.ok = true;
  return out;
}

MembershipTimeline random_membership(std::uint64_t seed, double horizon_s,
                                     int n_events) {
  MembershipTimeline t;
  if (n_events <= 0 || horizon_s <= 0.0) return t;
  sq::tensor::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  const auto horizon_ms =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(horizon_s * 1e3));
  bool left_one = false;
  for (int i = 0; i < n_events; ++i) {
    MembershipEvent e;
    // Millisecond-quantized instants: the spec grammar renders and
    // re-parses them exactly (round-trip property).
    e.at_us = static_cast<double>(rng.next_below(horizon_ms)) * 1e3;
    const std::uint64_t roll = rng.next_below(3);
    if (roll == 2 && !left_one) {
      e.kind = MemberEventKind::kLeave;
      e.whole_node = rng.next_below(2) == 1;
      e.index = static_cast<int>(rng.next_below(e.whole_node ? 2 : 4));
      left_one = true;
    } else if (roll == 1) {
      e.kind = MemberEventKind::kPrice;
      e.gpu = kTypes[rng.next_below(4)];
      // Cent-quantized prices in [0.20, 3.00], same round-trip rationale.
      e.price = static_cast<double>(20 + rng.next_below(281)) / 100.0;
    } else {
      e.kind = MemberEventKind::kJoin;
      e.count = static_cast<int>(1 + rng.next_below(2));
      e.gpu = kTypes[rng.next_below(4)];
    }
    t.events.push_back(e);
  }
  t.normalize();
  // Canonicalize through one render/parse cycle: every returned timeline
  // is then in the parser's image, so parse(to_spec(T)) == T holds with
  // EXACT double equality (the second render reproduces the first string,
  // and identical strings parse to identical doubles).
  return parse_membership_spec(t.to_spec()).timeline;
}

}  // namespace sq::elastic
