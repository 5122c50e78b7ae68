#include "telemetry/timeline.h"

#include <cstdio>

#include "telemetry/metrics.h"  // AppendJsonEscaped

namespace tsf::telemetry {

bool WriteFairnessJsonl(const std::string& path, std::string_view policy,
                        const std::vector<FairnessSample>& samples) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::string escaped_policy;
  AppendJsonEscaped(escaped_policy, policy);
  for (const FairnessSample& s : samples)
    std::fprintf(file,
                 "{\"policy\":\"%s\",\"time\":%.6f,\"user\":%u,"
                 "\"running\":%u,\"pending\":%u,\"dominant_share\":%.9g,"
                 "\"task_share\":%.9g}\n",
                 escaped_policy.c_str(), s.time, s.user, s.running, s.pending,
                 s.dominant_share, s.task_share);
  return std::fclose(file) == 0;
}

}  // namespace tsf::telemetry
