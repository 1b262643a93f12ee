#include "src/lint/driver.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <sstream>

#include "src/io/app_format.h"
#include "src/io/mapping_format.h"
#include "src/io/text_format.h"

namespace sdfmap {

namespace {

std::string extension_of(const std::string& path) {
  const auto dot = path.rfind('.');
  const auto slash = path.rfind('/');
  if (dot == std::string::npos) return {};
  if (slash != std::string::npos && dot < slash) return {};
  return path.substr(dot);
}

/// Directory prefix of `path` including the trailing '/', or "" for a bare
/// file name; used to resolve the files a mapping header references.
std::string directory_of(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

std::ifstream open_or_throw(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::invalid_argument("lint: cannot open '" + path + "'");
  return file;
}

/// The message part of a ParseError, with the "reader: line L, col C: "
/// prefix removed (the diagnostic's file:line:col prefix already says it).
std::string strip_location_prefix(const std::string& what, const SourceSpan& span) {
  if (!span.valid()) {
    const auto colon = what.rfind(": ");
    return colon == std::string::npos ? what : what.substr(colon + 2);
  }
  std::string needle = "line " + std::to_string(span.line);
  if (span.col > 0) needle += ", col " + std::to_string(span.col);
  needle += ": ";
  const auto pos = what.find(needle);
  return pos == std::string::npos ? what : what.substr(pos + needle.size());
}

Diagnostic parse_error_diagnostic(const std::string& file, const ParseError& e) {
  Diagnostic d;
  d.code = "SDF000";
  d.severity = Severity::kError;
  d.message = strip_location_prefix(e.what(), e.span());
  d.file = file;
  d.span = e.span();
  return d;
}

LintResult parse_failure(const std::string& file, const ParseError& e,
                         const LintOptions& options) {
  LintResult result;
  if (options.min_severity <= Severity::kError) {
    result.diagnostics.push_back(parse_error_diagnostic(file, e));
  }
  return result;
}

}  // namespace

AnalysisBudget lint_budget_from_ms(std::int64_t budget_ms) {
  if (budget_ms < 0) return {};
  return AnalysisBudget::expiring_in(std::chrono::milliseconds(budget_ms));
}

bool lintable_extension(const std::string& path) {
  const std::string ext = extension_of(path);
  return ext == ".sdf" || ext == ".sdfapp" || ext == ".sdfarch" || ext == ".sdfmapping";
}

bool lintable_text_extension(const std::string& path) {
  const std::string ext = extension_of(path);
  return ext == ".sdf" || ext == ".sdfapp" || ext == ".sdfarch";
}

LintResult lint_text(const std::string& path_hint, const std::string& text,
                     const LintOptions& options) {
  const std::string ext = extension_of(path_hint);
  const std::string& name = path_hint;  // diagnostics show the hint as given

  if (ext == ".sdf") {
    std::istringstream stream(text);
    GraphProvenance prov;
    prov.file = name;
    std::optional<Graph> g;
    try {
      g = read_graph(stream, &prov);
    } catch (const ParseError& e) {
      return parse_failure(name, e, options);
    }
    LintInput input;
    input.graph = &*g;
    input.graph_provenance = &prov;
    return run_lint(input, options);
  }

  if (ext == ".sdfapp") {
    std::istringstream stream(text);
    ApplicationProvenance prov;
    prov.file = name;
    std::optional<ApplicationGraph> app;
    try {
      app = read_application(stream, &prov);
    } catch (const ParseError& e) {
      return parse_failure(name, e, options);
    }
    LintInput input;
    input.app = &*app;
    input.app_provenance = &prov;
    return run_lint(input, options);
  }

  if (ext == ".sdfarch") {
    std::istringstream stream(text);
    ArchitectureProvenance prov;
    prov.file = name;
    std::optional<Architecture> arch;
    try {
      arch = read_architecture(stream, &prov);
    } catch (const ParseError& e) {
      return parse_failure(name, e, options);
    }
    LintInput input;
    input.platform = &*arch;
    input.platform_provenance = &prov;
    return run_lint(input, options);
  }

  throw std::invalid_argument("lint: unsupported extension on '" + path_hint +
                              "' for in-memory lint (expected .sdf, .sdfapp or .sdfarch)");
}

LintResult lint_pair(const std::string& app_path, const std::string& platform_path,
                     const LintOptions& options) {
  ApplicationProvenance app_prov;
  app_prov.file = app_path;
  std::optional<ApplicationGraph> app;
  {
    std::ifstream app_file = open_or_throw(app_path);
    try {
      app = read_application(app_file, &app_prov);
    } catch (const ParseError& e) {
      // A broken application still lets the platform half report: combine the
      // SDF000 with a platform-only run, as two lint_file calls would.
      LintResult result = parse_failure(app_path, e, options);
      LintResult platform = lint_file(platform_path, options);
      result.diagnostics.insert(result.diagnostics.end(),
                                std::make_move_iterator(platform.diagnostics.begin()),
                                std::make_move_iterator(platform.diagnostics.end()));
      std::stable_sort(result.diagnostics.begin(), result.diagnostics.end(),
                       diagnostic_order_less);
      return result;
    }
  }
  ArchitectureProvenance arch_prov;
  arch_prov.file = platform_path;
  std::optional<Architecture> arch;
  {
    std::ifstream arch_file = open_or_throw(platform_path);
    try {
      arch = read_architecture(arch_file, &arch_prov);
    } catch (const ParseError& e) {
      LintResult result = lint_file(app_path, options);
      LintResult broken = parse_failure(platform_path, e, options);
      result.diagnostics.insert(result.diagnostics.end(),
                                std::make_move_iterator(broken.diagnostics.begin()),
                                std::make_move_iterator(broken.diagnostics.end()));
      std::stable_sort(result.diagnostics.begin(), result.diagnostics.end(),
                       diagnostic_order_less);
      return result;
    }
  }
  LintInput input;
  input.app = &*app;
  input.platform = &*arch;
  input.app_provenance = &app_prov;
  input.platform_provenance = &arch_prov;
  return run_lint(input, options);
}

LintResult lint_file(const std::string& path, const LintOptions& options) {
  const std::string ext = extension_of(path);
  const std::string& name = path;  // diagnostics show the path as given

  if (ext == ".sdf") {
    std::ifstream file = open_or_throw(path);
    GraphProvenance prov;
    prov.file = name;
    std::optional<Graph> g;
    try {
      g = read_graph(file, &prov);
    } catch (const ParseError& e) {
      return parse_failure(name, e, options);
    }
    LintInput input;
    input.graph = &*g;
    input.graph_provenance = &prov;
    return run_lint(input, options);
  }

  if (ext == ".sdfapp") {
    std::ifstream file = open_or_throw(path);
    ApplicationProvenance prov;
    prov.file = name;
    std::optional<ApplicationGraph> app;
    try {
      app = read_application(file, &prov);
    } catch (const ParseError& e) {
      return parse_failure(name, e, options);
    }
    LintInput input;
    input.app = &*app;
    input.app_provenance = &prov;
    return run_lint(input, options);
  }

  if (ext == ".sdfarch") {
    std::ifstream file = open_or_throw(path);
    ArchitectureProvenance prov;
    prov.file = name;
    std::optional<Architecture> arch;
    try {
      arch = read_architecture(file, &prov);
    } catch (const ParseError& e) {
      return parse_failure(name, e, options);
    }
    LintInput input;
    input.platform = &*arch;
    input.platform_provenance = &prov;
    return run_lint(input, options);
  }

  if (ext == ".sdfmapping") {
    std::ifstream file = open_or_throw(path);
    MappingSpec spec;
    try {
      spec = read_mapping(file);
    } catch (const ParseError& e) {
      return parse_failure(name, e, options);
    }
    const std::string dir = directory_of(path);
    const std::string app_path = dir + spec.application_file;
    const std::string arch_path = dir + spec.platform_file;

    ApplicationProvenance app_prov;
    app_prov.file = spec.application_file;
    std::optional<ApplicationGraph> app;
    {
      std::ifstream app_file = open_or_throw(app_path);
      try {
        app = read_application(app_file, &app_prov);
      } catch (const ParseError& e) {
        return parse_failure(spec.application_file, e, options);
      }
    }
    ArchitectureProvenance arch_prov;
    arch_prov.file = spec.platform_file;
    std::optional<Architecture> arch;
    {
      std::ifstream arch_file = open_or_throw(arch_path);
      try {
        arch = read_architecture(arch_file, &arch_prov);
      } catch (const ParseError& e) {
        return parse_failure(spec.platform_file, e, options);
      }
    }

    ResolvedMapping resolved = resolve_mapping(spec, *app, *arch, name);
    LintInput input;
    input.app = &*app;
    input.platform = &*arch;
    input.binding = &resolved.binding;
    input.schedules = &resolved.schedules;
    input.slices = &resolved.slices;
    input.app_provenance = &app_prov;
    input.platform_provenance = &arch_prov;
    input.mapping_spans = &resolved.spans;
    LintResult result = run_lint(input, options);
    // Fold the SDF200 resolution diagnostics into the sorted result.
    for (Diagnostic& d : resolved.diagnostics) {
      if (d.severity >= options.min_severity) {
        result.diagnostics.push_back(std::move(d));
      }
    }
    std::stable_sort(result.diagnostics.begin(), result.diagnostics.end(),
                     diagnostic_order_less);
    return result;
  }

  throw std::invalid_argument("lint: unsupported file extension on '" + path +
                              "' (expected .sdf, .sdfapp, .sdfarch or .sdfmapping)");
}

}  // namespace sdfmap
