#include "src/support/cli.h"

#include "src/support/strings.h"

namespace sdfmap {

CliArgs::CliArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (starts_with(arg, "--")) {
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        flags_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        bare_.erase(arg.substr(2, eq - 2));
      } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
        flags_[arg.substr(2)] = argv[++i];
        bare_.erase(arg.substr(2));
      } else {
        flags_[arg.substr(2)] = "true";
        bare_.insert(arg.substr(2));
      }
    } else if (starts_with(arg, "-j") && arg != "-j") {
      flags_["jobs"] = arg.substr(2);  // -jN
    } else if (arg == "-j" && i + 1 < argc && !starts_with(argv[i + 1], "-")) {
      flags_["jobs"] = argv[++i];  // -j N
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

std::string CliArgs::get(const std::string& name, const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : parse_int(it->second);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : std::stod(it->second);
}

bool CliArgs::has(const std::string& name) const { return flags_.count(name) > 0; }

bool CliArgs::bare(const std::string& name) const { return bare_.count(name) > 0; }

}  // namespace sdfmap
