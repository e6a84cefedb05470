//! Rendering diagnostics for humans and for machines.
//!
//! [`render_human`] produces the compiler-style text shown on a terminal —
//! message, location, the offending source line with a caret underline, and
//! the fix-it help.  [`JsonReport`] is the stable machine format the CLI
//! emits under `--json`; CI archives it as the policy-lint artifact, so its
//! shape is pinned by golden tests (`version` bumps on breaking change).

use crate::diagnostic::{Diagnostic, Severity};
use serde::Serialize;

/// Version of the JSON report shape.
pub const JSON_REPORT_VERSION: u32 = 1;

/// The machine-readable report: one entry per analyzed file plus a summary.
#[derive(Debug, Clone, Serialize)]
pub struct JsonReport {
    /// Shared machine-readable report format version
    /// ([`rgpdos_trace::SCHEMA_VERSION`]), stamped on every report the
    /// workspace emits (crashgrind, metrics, this one) so
    /// artifact consumers can detect format drift in one place.
    pub schema_version: u32,
    /// Report shape version ([`JSON_REPORT_VERSION`]).
    pub version: u32,
    /// Per-file results, in analysis order.
    pub files: Vec<JsonFile>,
    /// Totals across all files.
    pub summary: JsonSummary,
}

/// Diagnostics of one analyzed file.
#[derive(Debug, Clone, Serialize)]
pub struct JsonFile {
    /// The path as given on the command line (`<listing:1>` for built-ins).
    pub path: String,
    /// The diagnostics, sorted by position then code.
    pub diagnostics: Vec<JsonDiagnostic>,
}

/// One diagnostic in the JSON report.
#[derive(Debug, Clone, Serialize)]
pub struct JsonDiagnostic {
    /// Stable RG code.
    pub code: String,
    /// `"error"` or `"warning"`.
    pub severity: String,
    /// 1-based source line (0 when the AST was hand-built).
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
    /// Length of the offending token.
    pub len: usize,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub help: String,
}

/// Error/warning totals.
#[derive(Debug, Clone, Serialize)]
pub struct JsonSummary {
    /// Number of error-severity diagnostics.
    pub errors: usize,
    /// Number of warning-severity diagnostics.
    pub warnings: usize,
}

impl From<&Diagnostic> for JsonDiagnostic {
    fn from(d: &Diagnostic) -> Self {
        JsonDiagnostic {
            code: d.code.to_owned(),
            severity: d.severity.to_string(),
            line: d.span.line,
            col: d.span.col,
            len: d.span.len,
            message: d.message.clone(),
            help: d.help.clone(),
        }
    }
}

impl JsonReport {
    /// Builds a report from per-file diagnostic lists.
    pub fn new(files: Vec<JsonFile>) -> Self {
        let (errors, warnings) =
            files
                .iter()
                .flat_map(|f| f.diagnostics.iter())
                .fold((0, 0), |(e, w), d| {
                    if d.severity == "error" {
                        (e + 1, w)
                    } else {
                        (e, w + 1)
                    }
                });
        JsonReport {
            schema_version: rgpdos_trace::SCHEMA_VERSION,
            version: JSON_REPORT_VERSION,
            files,
            summary: JsonSummary { errors, warnings },
        }
    }
}

impl JsonFile {
    /// Builds one file entry from analyzer output.
    pub fn new(path: impl Into<String>, diagnostics: &[Diagnostic]) -> Self {
        JsonFile {
            path: path.into(),
            diagnostics: diagnostics.iter().map(JsonDiagnostic::from).collect(),
        }
    }
}

/// Renders diagnostics the way a compiler would: message, `--> file:line:col`
/// location, the source line with a caret underline, and the help text.
///
/// `source` is the text the diagnostics point into; pass `""` for hand-built
/// ASTs (the excerpt is then omitted).
pub fn render_human(path: &str, source: &str, diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diagnostics {
        out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
        if d.span.is_dummy() {
            out.push_str(&format!("  --> {path}\n"));
        } else {
            out.push_str(&format!("  --> {path}:{}:{}\n", d.span.line, d.span.col));
            if let Some(line) = source.lines().nth(d.span.line.saturating_sub(1)) {
                let gutter = d.span.line.to_string();
                out.push_str(&format!(" {gutter} | {line}\n"));
                let pad = " ".repeat(gutter.len() + d.span.col.saturating_sub(1) + 4);
                out.push_str(&format!("{pad}{}\n", "^".repeat(d.span.len.max(1))));
            }
        }
        out.push_str(&format!("  help: {}\n\n", d.help));
    }
    let errors = diagnostics.iter().filter(|d| d.is_error()).count();
    let warnings = diagnostics.len() - errors;
    if !diagnostics.is_empty() {
        out.push_str(&format!(
            "{path}: {errors} error(s), {warnings} warning(s)\n"
        ));
    }
    out
}

/// `true` when any diagnostic fails the gate: errors always do, warnings
/// only when `deny_warnings` is set.
pub fn gate_fails(diagnostics: &[Diagnostic], deny_warnings: bool) -> bool {
    diagnostics.iter().any(|d| {
        d.severity == Severity::Error || (deny_warnings && d.severity == Severity::Warning)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgpdos_dsl::Span;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic::new(
                "RG0101",
                Span::new(3, 18, 5),
                "unknown view `ghost`",
                "declare it",
            ),
            Diagnostic::new("RG0302", Span::new(1, 6, 1), "no retention", "add `age:`"),
        ]
    }

    #[test]
    fn human_rendering_underlines_the_span() {
        let source = "type t {\n    fields { a: string };\n    consent { p: ghost }\n}";
        let text = render_human("policy.rgpd", source, &sample());
        assert!(text.contains("error[RG0101]: unknown view `ghost`"));
        assert!(text.contains("--> policy.rgpd:3:18"));
        assert!(text.contains(" 3 |     consent { p: ghost }"));
        assert!(text.contains("^^^^^"));
        assert!(text.contains("help: declare it"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
        // The caret column lines up with the offending token.
        let caret_line = text
            .lines()
            .find(|l| l.trim_start().starts_with('^'))
            .unwrap();
        let excerpt_line = text.lines().find(|l| l.starts_with(" 3 |")).unwrap();
        assert_eq!(
            caret_line.find('^').unwrap(),
            excerpt_line.find("ghost").unwrap()
        );
    }

    #[test]
    fn dummy_spans_render_without_excerpt() {
        let d = vec![Diagnostic::new(
            "RG0501",
            Span::DUMMY,
            "bad purpose",
            "fix it",
        )];
        let text = render_human("<purpose>", "", &d);
        assert!(text.contains("--> <purpose>\n"));
        assert!(!text.contains('^'));
    }

    #[test]
    fn clean_files_render_nothing() {
        assert_eq!(render_human("p", "", &[]), "");
    }

    #[test]
    fn json_report_counts_and_serializes() {
        let report = JsonReport::new(vec![JsonFile::new("policy.rgpd", &sample())]);
        assert_eq!(report.summary.errors, 1);
        assert_eq!(report.summary.warnings, 1);
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"version\""));
        assert!(json.contains("\"RG0101\""));
        assert!(json.contains("\"policy.rgpd\""));
        // Stable shape: the three top-level keys are present.
        for key in ["\"files\"", "\"summary\"", "\"errors\"", "\"warnings\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn gate_semantics() {
        let warn_only = vec![Diagnostic::new("RG0302", Span::DUMMY, "w", "h")];
        assert!(!gate_fails(&warn_only, false));
        assert!(gate_fails(&warn_only, true));
        assert!(gate_fails(&sample(), false));
        assert!(!gate_fails(&[], true));
    }
}
