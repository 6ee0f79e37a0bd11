#include "meta.h"

#include <unistd.h>

#include <cstdio>
#include <string>

namespace pwbench {
namespace {

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// HEAD of the repo the benchmark was built from; "unknown" outside git.
std::string GitSha() {
  const std::string cmd = "git -C '" + std::string(PWBENCH_REPO_ROOT) +
                          "' rev-parse HEAD 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {};
  const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
  const int status = pclose(pipe);
  std::string sha = got && status == 0 ? buf : "";
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

}  // namespace

std::string MetaJson(const std::string& workload, std::uint64_t seed,
                     bool smoke) {
  static const std::string sha = GitSha();
  return "{\"workload\": \"" + workload + "\", \"seed\": " +
         std::to_string(seed) + ", \"smoke\": " + (smoke ? "true" : "false") +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"compiler\": \"" + Compiler() + "\", \"build_type\": \"" +
         PWBENCH_BUILD_TYPE + "\", \"git_sha\": \"" + sha + "\"}";
}

}  // namespace pwbench
