#pragma once

// The header fields every committed bench JSON starts with, so a result
// file says which commit, core count, build type and repetition count it
// came from (numbers from different boxes are never compared).

#include <cstdio>
#include <string>
#include <thread>

namespace smartflux::bench {

/// `git describe --always --dirty` of the source tree the bench was built
/// from, or "unknown" outside a git checkout.
inline std::string git_rev() {
  std::string out;
  if (FILE* pipe = ::popen("git -C \"" SMARTFLUX_SOURCE_DIR
                           "\" describe --always --dirty --abbrev=12 2>/dev/null",
                           "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

/// Prints `"bench"`, `"git_rev"`, `"hardware_threads"`, `"build_type"` and
/// `"reps"` as the first members of a JSON object (after its `{` line),
/// each line ending in a comma.
inline void print_json_header(const char* bench, int reps) {
  const char* build_type = SMARTFLUX_BUILD_TYPE;
  std::printf("  \"bench\": \"%s\",\n", bench);
  std::printf("  \"git_rev\": \"%s\",\n", git_rev().c_str());
  std::printf("  \"hardware_threads\": %u,\n", std::thread::hardware_concurrency());
  std::printf("  \"build_type\": \"%s\",\n", build_type[0] != '\0' ? build_type : "default");
  std::printf("  \"reps\": %d,\n", reps);
}

}  // namespace smartflux::bench
