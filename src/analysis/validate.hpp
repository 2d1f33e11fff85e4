// Static validation of cfg-described networks.
//
// Runs shape inference symbolically over parsed cfg sections — no tensor is
// allocated, no layer is constructed — and reports structural errors and
// suspicious-but-legal constructs as diagnostics tagged with the offending
// cfg section index. parse_cfg() runs this before building a Network (errors
// throw, warnings are logged), tools/cfglint exposes it on the command line,
// and the expected-weight-byte computation lets callers reject a truncated
// or mismatched .weights file before any load is attempted.
//
// The rule catalogue is documented in docs/static_analysis.md.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/cfg_sections.hpp"

namespace dronet {

enum class Severity { kWarning, kError };

[[nodiscard]] std::string to_string(Severity s);

/// One validator finding, anchored to a cfg section.
struct Diagnostic {
    Severity severity = Severity::kError;
    int section = -1;           ///< cfg section index (0 = [net]); -1 = file level
    std::string section_name;   ///< e.g. "convolutional"; empty at file level
    std::string rule;           ///< stable rule id, e.g. "route-source-range"
    std::string message;

    /// "error [4:route] route-source-range: source 9 out of range [0, 3)"
    [[nodiscard]] std::string str() const;
};

struct ValidationReport {
    std::vector<Diagnostic> diagnostics;

    /// Exact byte count a matching darknet-format .weights file must have
    /// (header + every conv parameter block), or -1 when shape inference
    /// could not determine the layout.
    std::int64_t expected_weight_bytes = -1;

    /// Trainable parameter count, or -1 when unknown.
    std::int64_t param_count = -1;

    [[nodiscard]] bool ok() const noexcept;  ///< true when no errors (warnings allowed)
    [[nodiscard]] int errors() const noexcept;
    [[nodiscard]] int warnings() const noexcept;

    /// Human-readable multi-line report (one line per diagnostic + summary).
    [[nodiscard]] std::string str() const;
    /// Machine-readable report for cfglint --json.
    [[nodiscard]] std::string json() const;
};

/// Validates parsed cfg sections. Never throws on bad structure — every
/// problem becomes a diagnostic.
[[nodiscard]] ValidationReport validate_network(const std::vector<CfgSection>& sections);

/// Parses and validates cfg text; syntax errors become file-level diagnostics
/// instead of exceptions.
[[nodiscard]] ValidationReport validate_network(const std::string& cfg_text);

/// Compares `weights_path`'s size against report.expected_weight_bytes and
/// appends an error diagnostic on mismatch (or when the file is unreadable).
/// Returns true when the file exists and matches the expected layout.
bool check_weights_file(ValidationReport& report,
                        const std::filesystem::path& weights_path);

/// `s` escaped for use inside a JSON string literal: quote, backslash and
/// control characters become escape sequences.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Activation names the cfg dialect accepts; mirrored by nn/activation.cpp
/// (a unit test keeps the two in sync).
[[nodiscard]] const std::vector<std::string>& cfg_known_activations();

}  // namespace dronet
