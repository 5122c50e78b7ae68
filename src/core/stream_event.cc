#include "core/stream_event.h"

#include <cstdio>
#include <iterator>

#include "util/check.h"

namespace tsf {
namespace {

constexpr const char* kKindNames[] = {
    "arrive", "place",   "finish",     "kill",       "fail",
    "crash",  "restart", "disconnect", "reregister",
};

}  // namespace

std::string ToString(StreamEvent::Kind kind) {
  const auto index = static_cast<std::size_t>(kind);
  TSF_CHECK_LT(index, std::size(kKindNames));
  return kKindNames[index];
}

std::string FormatStreamEvent(const StreamEvent& event) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                "t=%.17g %s user=%u task=%u machine=%u", event.time,
                ToString(event.kind).c_str(), event.user, event.task,
                event.machine);
  return buffer;
}

std::uint64_t HashStream(const std::vector<StreamEvent>& stream) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&hash](const char* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= static_cast<unsigned char>(data[i]);
      hash *= 1099511628211ull;  // FNV prime
    }
  };
  for (const StreamEvent& event : stream) {
    const std::string line = FormatStreamEvent(event);
    mix(line.data(), line.size());
    mix("\n", 1);
  }
  return hash;
}

}  // namespace tsf
