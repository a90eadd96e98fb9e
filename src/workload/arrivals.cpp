#include "workload/arrivals.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "tensor/rng.h"

namespace sq::workload {

namespace {

/// Per-segment request cap: a parse-time guard so a typo'd count produces
/// a diagnostic instead of an attempt to materialize gigabytes of trace.
constexpr std::uint64_t kMaxSegmentRequests = 1000000;

/// Render a time/rate with enough digits to round-trip the grammar for
/// the values the generators and CLI produce.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

const char* kind_name(ArrivalSegment::Kind k) {
  switch (k) {
    case ArrivalSegment::Kind::kBurst: return "burst";
    case ArrivalSegment::Kind::kUniform: return "uniform";
    case ArrivalSegment::Kind::kPoisson: return "poisson";
  }
  return "?";
}

}  // namespace

std::string ArrivalSegment::to_spec() const {
  // Appended piece by piece: gcc 12 at -O3 raises -Wrestrict false
  // positives on "lit" + std::string chains.
  std::string s(kind_name(kind));
  s += ':';
  s += std::to_string(count);
  s += '@';
  s += num(start_s);
  if (kind != Kind::kBurst) {
    s += 'x';
    s += num(rate_per_s);
  }
  return s;
}

std::uint64_t ArrivalSpec::total_requests() const {
  std::uint64_t n = 0;
  for (const auto& seg : segments) n += seg.count;
  return n;
}

std::string ArrivalSpec::to_spec() const {
  std::string s;
  for (const auto& seg : segments) {
    if (!s.empty()) s += ",";
    s += seg.to_spec();
  }
  return s;
}

ArrivalParse parse_arrival_spec(const std::string& spec) {
  ArrivalParse out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    ArrivalSegment seg;
    const auto colon = item.find(':');
    const auto at = item.find('@');
    if (colon == std::string::npos || at == std::string::npos || at < colon) {
      out.error = "bad arrival segment '" + item + "' (want kind:n@t...)";
      return out;
    }
    const std::string kind = item.substr(0, colon);
    if (kind == "burst") seg.kind = ArrivalSegment::Kind::kBurst;
    else if (kind == "uniform") seg.kind = ArrivalSegment::Kind::kUniform;
    else if (kind == "poisson") seg.kind = ArrivalSegment::Kind::kPoisson;
    else {
      out.error = "unknown arrival kind '" + kind +
                  "' (want burst|uniform|poisson)";
      return out;
    }
    std::string rest = item.substr(at + 1);
    const auto x = rest.find('x');
    const bool has_rate = x != std::string::npos;
    if (has_rate && seg.kind == ArrivalSegment::Kind::kBurst) {
      out.error = "burst takes no rate in '" + item + "'";
      return out;
    }
    if (!has_rate && seg.kind != ArrivalSegment::Kind::kBurst) {
      out.error = "missing rate (x<r>) in '" + item + "'";
      return out;
    }
    try {
      std::size_t used = 0;
      const std::string count_str = item.substr(colon + 1, at - colon - 1);
      const long long n = std::stoll(count_str, &used);
      if (used != count_str.size()) throw std::invalid_argument(count_str);
      if (n < 1) {
        out.error = "count must be >= 1 in '" + item + "'";
        return out;
      }
      seg.count = static_cast<std::uint64_t>(n);
      if (has_rate) {
        const std::string rate_str = rest.substr(x + 1);
        seg.rate_per_s = std::stod(rate_str, &used);
        if (used != rate_str.size()) throw std::invalid_argument(rate_str);
        rest = rest.substr(0, x);
      }
      seg.start_s = std::stod(rest, &used);
      if (used != rest.size()) throw std::invalid_argument(rest);
    } catch (const std::exception&) {
      out.error = "bad number in arrival segment '" + item + "'";
      return out;
    }
    if (!(seg.start_s >= 0.0) || !std::isfinite(seg.start_s)) {
      out.error = "start time must be >= 0 in '" + item + "'";
      return out;
    }
    if (seg.kind != ArrivalSegment::Kind::kBurst &&
        (!(seg.rate_per_s > 0.0) || !std::isfinite(seg.rate_per_s))) {
      out.error = "rate must be > 0 in '" + item + "'";
      return out;
    }
    if (seg.count > kMaxSegmentRequests) {
      out.error = "count exceeds " + std::to_string(kMaxSegmentRequests) +
                  " in '" + item + "'";
      return out;
    }
    out.spec.segments.push_back(seg);
  }
  out.ok = true;
  return out;
}

std::vector<TimedRequest> generate_arrivals(const ArrivalSpec& spec, Dataset d,
                                            std::uint64_t seed) {
  const std::uint64_t total = spec.total_requests();
  // One length stream for the whole trace: request i's lengths do not
  // depend on which segment carries it, only on (dataset, seed, i).
  const auto lengths = sample(d, static_cast<int>(total), seed);

  std::vector<TimedRequest> out;
  out.reserve(total);
  std::size_t next = 0;
  for (std::size_t si = 0; si < spec.segments.size(); ++si) {
    const auto& seg = spec.segments[si];
    // Each segment draws gaps from its own derived stream so inserting a
    // segment never perturbs the timing of the others.
    sq::tensor::SplitMix64 gaps(
        sq::tensor::derive_seed(seed, 0x5eedau + si));
    double t = seg.start_s;
    for (std::uint64_t i = 0; i < seg.count; ++i) {
      switch (seg.kind) {
        case ArrivalSegment::Kind::kBurst:
          break;  // all at start_s
        case ArrivalSegment::Kind::kUniform:
          t = seg.start_s + static_cast<double>(i) / seg.rate_per_s;
          break;
        case ArrivalSegment::Kind::kPoisson: {
          // Exponential gap of mean 1/rate; 1-u keeps log's argument in
          // (0, 1] so the gap is always finite and positive.
          const double u = gaps.next_double();
          t += -std::log(1.0 - u) / seg.rate_per_s;
          break;
        }
      }
      out.push_back({t, lengths[next++]});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TimedRequest& a, const TimedRequest& b) {
                     return a.arrive_s < b.arrive_s;
                   });
  return out;
}

}  // namespace sq::workload
