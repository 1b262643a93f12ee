#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace sdfmap {

/// Minimal command-line flag parser for the example and benchmark binaries.
///
/// Accepts flags of the form `--name=value` or `--name value`; a flag with
/// neither (last on the line, or followed by another flag) reads as "true".
/// Anything else is collected as a positional argument. Unknown flags are kept (benchmark
/// binaries forward google-benchmark's own flags). The single short flag
/// `-j N` / `-jN` is recognized as an alias of `--jobs` (runtime parallelism
/// is exposed uniformly across all binaries).
class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  /// Value of --name, or `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool has(const std::string& name) const;
  /// True when --name was given without a value (and so reads as "true").
  [[nodiscard]] bool bare(const std::string& name) const;

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::set<std::string> bare_;
  std::vector<std::string> positional_;
};

}  // namespace sdfmap
