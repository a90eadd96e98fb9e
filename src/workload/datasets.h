// Synthetic request-length generators matching the paper's workloads.
//
// SplitQuant targets *offline* serving where length distributions are
// known in advance (Sec. II-C).  The paper samples prompts from CNN
// DailyMail (summarization: medium prompts, long outputs — avg 299
// generated tokens), LooGLE (long-context understanding: very long
// prompts, short outputs — avg 63 tokens), and motivates with ShareGPT's
// bucket distribution (Sec. II-A).  We reproduce the distributions with
// seeded log-normal / bucket mixtures anchored to the statistics the paper
// reports in Fig. 7 and Sec. II-A.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sq::workload {

/// One inference request's length profile.
struct Request {
  std::uint64_t prompt_tokens = 0;
  std::uint64_t output_tokens = 0;
};

/// `r` clamped to a model's context limit of `pos_s` tokens: the prompt to
/// [1, pos_s - 1], the output to [1, pos_s - prompt].  The serving engines
/// run every request at these lengths.
Request clamp_to_context(Request r, std::uint64_t pos_s);

/// Workloads evaluated in the paper.
enum class Dataset {
  kCnnDailyMail,  ///< Summarization (Fig. 9a).
  kLoogle,        ///< Long-context understanding (Fig. 9b).
  kShareGpt,      ///< Conversation (Sec. II-A motivation).
};

/// Display name.
const char* to_string(Dataset d);

/// Sample `count` requests from `d`, deterministic in `seed`.
std::vector<Request> sample(Dataset d, int count, std::uint64_t seed);

/// Histogram of lengths with the paper's Sec. II-A bucket edges
/// (<=128, 129-512, 513-1024, 1025-2048, >2048).
struct LengthBuckets {
  std::vector<std::string> labels;
  std::vector<double> fractions;  ///< Sums to 1 over non-empty input.
};

/// Bucket a set of lengths.
LengthBuckets bucketize(const std::vector<std::uint64_t>& lengths);

/// Mean of prompt (first) and output (second) lengths.
std::pair<double, double> mean_lengths(const std::vector<Request>& reqs);

}  // namespace sq::workload
