// Host and build metadata recorded with every pwbench result and trace.
#pragma once

#include <cstdint>
#include <string>

namespace pwbench {

// JSON object: workload, seed, smoke, nproc, compiler, build type, git SHA.
std::string MetaJson(const std::string& workload, std::uint64_t seed,
                     bool smoke);

}  // namespace pwbench
