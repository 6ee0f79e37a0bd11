#include "sim/future.h"

#include <memory>

namespace pw::sim {

SimFuture<Unit> WhenAll(Simulator* sim, const std::vector<SimFuture<Unit>>& futures) {
  auto latch = std::make_shared<CountdownLatch>(sim, static_cast<int>(futures.size()));
  for (const auto& f : futures) {
    f.Then([latch](const Unit&) { latch->CountDown(); });
  }
  return latch->done();
}

}  // namespace pw::sim
