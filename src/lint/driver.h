#pragma once

#include <string>

#include "src/lint/lint.h"

namespace sdfmap {

/// File-level lint entry point shared by the CLIs: dispatches on the file
/// extension, parses with provenance, and runs the matching rule packs.
///
///   .sdf        -> read_graph, graph pack
///   .sdfapp     -> read_application, graph pack
///   .sdfarch    -> read_architecture, platform pack
///   .sdfmapping -> read_mapping (+ the application and platform files named
///                  in its header, resolved relative to the mapping file's
///                  directory), all three packs
///
/// Parse failures do not throw: every ParseError becomes one SDF000
/// diagnostic carrying the parser's exact line/column, so a lint run over a
/// corpus of broken files still yields a report per file. Unreadable files
/// and unknown extensions throw std::invalid_argument (usage errors, not
/// model defects).
[[nodiscard]] LintResult lint_file(const std::string& path, const LintOptions& options = {});

/// True when lint_file knows how to handle `path`'s extension.
[[nodiscard]] bool lintable_extension(const std::string& path);

/// Cross-analysis entry point for an (application, platform) pair: loads both
/// files and runs one combined lint pass, so the SDF3xx feasibility rules see
/// the tuple (a separate lint_file per artifact can only run the per-artifact
/// packs). Used by `flow_cli --lint`, mirroring the strategy's mandatory
/// gate. Parse failures become SDF000 diagnostics as in lint_file.
[[nodiscard]] LintResult lint_pair(const std::string& app_path,
                                   const std::string& platform_path,
                                   const LintOptions& options = {});

/// In-memory variant for callers that hold the document text instead of a
/// file (the sdfmapd lint handler): `path_hint`'s extension selects the rule
/// pack exactly like lint_file and appears as the file in every diagnostic.
/// Supports .sdf / .sdfapp / .sdfarch only — .sdfmapping references sibling
/// files on disk, which a text-only caller cannot resolve; passing one (or
/// any unknown extension) throws std::invalid_argument.
[[nodiscard]] LintResult lint_text(const std::string& path_hint, const std::string& text,
                                   const LintOptions& options = {});

/// True when lint_text can handle `path_hint`'s extension (the lintable
/// extensions minus .sdfmapping).
[[nodiscard]] bool lintable_text_extension(const std::string& path);

/// LintOptions::deep_budget from a resolved millisecond count: negative =
/// unlimited (deep rules run to completion), 0 = already expired (every deep
/// rule degrades to its advisory form, deterministically), positive = a
/// wall-clock deadline that many milliseconds out.
[[nodiscard]] AnalysisBudget lint_budget_from_ms(std::int64_t budget_ms);

}  // namespace sdfmap
