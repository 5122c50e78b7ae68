// Fairness timeline: per-user share samples taken at fixed virtual-time
// intervals by the DES (sim/des.cc) and exported per policy, so the paper's
// share-over-time figures (Figs. 5-7) and any new fairness plot come from
// one mechanism instead of per-experiment ad-hoc sampling.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tsf::telemetry {

// One user's shares at one virtual instant. Only users with running or
// pending tasks are sampled (finished jobs would emit all-zero rows).
struct FairnessSample {
  double time = 0.0;          // virtual seconds
  std::uint32_t user = 0;     // scheduler user id (== arrival order)
  std::uint32_t running = 0;  // tasks currently placed
  std::uint32_t pending = 0;  // tasks still queued
  double dominant_share = 0.0;  // running x max normalized demand component
  double task_share = 0.0;      // running / (h_i * w_i), the TSF quantity
};

// One JSON object per line, tagged with the policy name.
bool WriteFairnessJsonl(const std::string& path, std::string_view policy,
                        const std::vector<FairnessSample>& samples);

}  // namespace tsf::telemetry
