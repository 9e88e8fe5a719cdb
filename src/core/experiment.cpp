#include "core/experiment.hpp"

namespace v6t::core {

std::array<std::unique_ptr<telescope::Telescope>, 4> makeTelescopes(
    const ExperimentConfig& config) {
  std::array<std::unique_ptr<telescope::Telescope>, 4> telescopes;
  telescopes[T1] = std::make_unique<telescope::Telescope>(
      telescope::TelescopeConfig{"T1",
                                 {config.t1Base},
                                 telescope::Mode::Passive,
                                 std::nullopt,
                                 std::nullopt});
  telescopes[T2] = std::make_unique<telescope::Telescope>(
      telescope::TelescopeConfig{"T2",
                                 {config.t2Prefix},
                                 telescope::Mode::Traceable,
                                 config.t2Productive,
                                 config.t2Attractor});
  telescopes[T3] = std::make_unique<telescope::Telescope>(
      telescope::TelescopeConfig{"T3",
                                 {config.t3Prefix},
                                 telescope::Mode::Passive,
                                 std::nullopt,
                                 std::nullopt});
  telescopes[T4] = std::make_unique<telescope::Telescope>(
      telescope::TelescopeConfig{"T4",
                                 {config.t4Prefix},
                                 telescope::Mode::Active,
                                 std::nullopt,
                                 std::nullopt});
  return telescopes;
}

} // namespace v6t::core
