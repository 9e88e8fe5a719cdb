// v6t::core — experiment configuration files.
//
// A small key = value format (with '#' comments) so deployments can be
// described declaratively and run by the v6t_run tool:
//
//     # my-deployment.conf
//     seed          = 42
//     source_scale  = 0.25
//     volume_scale  = 0.02
//     baseline_weeks = 12
//     splits        = 16
//     t1_base       = 3fff:100::/32
//     t2_prefix     = 3fff:2::/48
//
// Unknown keys are reported as errors (typos must not silently become
// defaults). All keys are optional; defaults reproduce the paper.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace v6t::core {

struct ConfigParseResult {
  ExperimentConfig config;
  std::vector<std::string> errors; // empty on success

  [[nodiscard]] bool ok() const { return errors.empty(); }
};

/// Parse a configuration stream. Returns the config plus any errors
/// (line-tagged); on error the config holds the values parsed so far.
[[nodiscard]] ConfigParseResult parseExperimentConfig(std::istream& in);

/// Parse from a string (convenience for tests).
[[nodiscard]] ConfigParseResult parseExperimentConfig(
    const std::string& text);

/// The config file of a command-line tool: the defaults for an empty
/// path, else the parsed file. A file that cannot be opened or parsed is
/// reported on std::cerr ("cannot open PATH", or one "PATH: error" line
/// per error) and yields nullopt.
[[nodiscard]] std::optional<ExperimentConfig> loadConfigFile(
    const std::string& path);

/// Serialize a config back to the file format (round-trips through the
/// parser).
[[nodiscard]] std::string formatExperimentConfig(const ExperimentConfig& c);

/// The checked number parsers behind every numeric config key and
/// command-line flag. The whole text must be the number: parseU64 takes
/// decimal digits only, parseDouble what std::stod takes with nothing left
/// over. Both return false on malformed input ("abc", "12x", "4x").
[[nodiscard]] bool parseU64(const std::string& text, std::uint64_t& out);
[[nodiscard]] bool parseDouble(const std::string& text, double& out);

/// Reads a numeric command-line flag's value with parseU64; a malformed
/// value or one outside [lo, hi] is reported on std::cerr and rejected.
[[nodiscard]] bool flagU64(const char* flag, const char* text,
                           std::uint64_t lo, std::uint64_t hi,
                           std::uint64_t& out);

} // namespace v6t::core
