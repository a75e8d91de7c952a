//! Structured diagnostics and error types.
//!
//! Lilac reports compile-time errors such as
//!
//! ```text
//! error: signal available in [G+Add::#L, G+Add::#L+1] but required in [G, G+1]
//!   --> fpu.lilac:8:12
//! ```
//!
//! Diagnostics carry a primary message, an optional span, and any number of
//! notes (for example the counterexample parameter assignment produced by the
//! solver). [`ErrorReporter`] accumulates diagnostics during a compiler pass.

use std::fmt;

use crate::span::{SourceMap, Span};

/// Severity of a [`Diagnostic`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DiagnosticKind {
    /// A hard error; compilation cannot proceed to later phases.
    Error,
    /// A warning; compilation proceeds.
    Warning,
    /// An informational note attached by a pass.
    Note,
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagnosticKind::Error => f.write_str("error"),
            DiagnosticKind::Warning => f.write_str("warning"),
            DiagnosticKind::Note => f.write_str("note"),
        }
    }
}

/// A single compiler diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity.
    pub kind: DiagnosticKind,
    /// Primary, human-readable message (lowercase, no trailing period).
    pub message: String,
    /// Primary location, if known.
    pub span: Span,
    /// Secondary notes, e.g. a counterexample or a pointer to a declaration.
    pub notes: Vec<(String, Span)>,
}

impl Diagnostic {
    /// Creates an error diagnostic with a message and location.
    pub fn error(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic { kind: DiagnosticKind::Error, message: message.into(), span, notes: Vec::new() }
    }

    /// Creates a warning diagnostic with a message and location.
    pub fn warning(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic {
            kind: DiagnosticKind::Warning,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Attaches a note without a location.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push((note.into(), Span::dummy()));
        self
    }

    /// Attaches a note pointing at `span`.
    pub fn with_note_at(mut self, note: impl Into<String>, span: Span) -> Diagnostic {
        self.notes.push((note.into(), span));
        self
    }

    /// Renders the diagnostic against a source map, including the offending
    /// source line and a caret underline when the span is known.
    pub fn render(&self, map: &SourceMap) -> String {
        let mut out = format!("{}: {}", self.kind, self.message);
        if !self.span.is_dummy() {
            let file = map.file(self.span.file);
            let lc = file.line_col(self.span.start);
            out.push_str(&format!("\n  --> {}:{}", file.name, lc));
            let line = file.line_text(lc.line);
            out.push_str(&format!("\n   | {line}"));
            let caret_len = (self.span.len().max(1) as usize).min(line.len().max(1));
            let pad = " ".repeat((lc.col - 1) as usize);
            out.push_str(&format!("\n   | {pad}{}", "^".repeat(caret_len)));
        }
        for (note, span) in &self.notes {
            if span.is_dummy() {
                out.push_str(&format!("\n  note: {note}"));
            } else {
                out.push_str(&format!("\n  note: {note} ({})", map.describe(*span)));
            }
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)?;
        for (note, _) in &self.notes {
            write!(f, "\n  note: {note}")?;
        }
        Ok(())
    }
}

/// The error type returned by fallible Lilac passes.
///
/// A `LilacError` is a non-empty collection of error diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LilacError {
    diagnostics: Vec<Diagnostic>,
}

impl LilacError {
    /// Wraps a single diagnostic.
    pub fn new(diag: Diagnostic) -> LilacError {
        LilacError { diagnostics: vec![diag] }
    }

    /// Creates an error from a bare message with no location.
    pub fn msg(message: impl Into<String>) -> LilacError {
        LilacError::new(Diagnostic::error(message, Span::dummy()))
    }

    /// Wraps a list of diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if `diags` is empty: an error must explain itself.
    pub fn from_diagnostics(diags: Vec<Diagnostic>) -> LilacError {
        assert!(!diags.is_empty(), "LilacError requires at least one diagnostic");
        LilacError { diagnostics: diags }
    }

    /// All diagnostics carried by this error.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The first (primary) diagnostic.
    pub fn primary(&self) -> &Diagnostic {
        &self.diagnostics[0]
    }

    /// Renders every diagnostic against a source map.
    pub fn render(&self, map: &SourceMap) -> String {
        self.diagnostics.iter().map(|d| d.render(map)).collect::<Vec<_>>().join("\n")
    }
}

impl fmt::Display for LilacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for LilacError {}

impl From<Diagnostic> for LilacError {
    fn from(d: Diagnostic) -> Self {
        LilacError::new(d)
    }
}

/// Convenient result alias used throughout the workspace.
pub type Result<T, E = LilacError> = std::result::Result<T, E>;

/// How serious a [`CheckError`] is for the service that observed it.
///
/// Ordinary diagnostics ([`DiagnosticKind`]) describe the *program under
/// check*; severities describe the *checking infrastructure itself* — a
/// worker that panicked, a deadline that expired, a cache file that failed
/// its checksum. The two taxonomies are deliberately separate: a `Fatal`
/// infrastructure failure is reported through an ordinary error diagnostic
/// in the end, but `Transient` and `Recoverable` events never change a
/// verdict, only how (and how fast) it was reached.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Severity {
    /// The failure was absorbed where it happened (an injected fault, a
    /// timeout on the optimized path); a retry is expected to succeed.
    Transient,
    /// A verdict was produced, but only by falling back to a degraded
    /// (slower) path; the result is correct and complete.
    Recoverable,
    /// No verdict could be produced for the affected unit; it is reported
    /// as an error diagnostic.
    Fatal,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Transient => f.write_str("transient"),
            Severity::Recoverable => f.write_str("recoverable"),
            Severity::Fatal => f.write_str("fatal"),
        }
    }
}

/// What went wrong inside the checking infrastructure.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CheckErrorKind {
    /// A worker thread panicked while discharging obligations.
    WorkerPanic,
    /// A unit's wall-clock deadline expired before it finished.
    DeadlineExpired,
    /// A unit's solver query budget ran out.
    BudgetExhausted,
    /// A persisted cache image failed validation and was quarantined.
    CacheCorrupted,
    /// A unit's verdict was produced on the degraded fallback path.
    Degraded,
}

impl fmt::Display for CheckErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl CheckErrorKind {
    /// Short stable name (used in reports and fingerprints).
    pub fn name(self) -> &'static str {
        match self {
            CheckErrorKind::WorkerPanic => "worker-panic",
            CheckErrorKind::DeadlineExpired => "deadline-expired",
            CheckErrorKind::BudgetExhausted => "budget-exhausted",
            CheckErrorKind::CacheCorrupted => "cache-corrupted",
            CheckErrorKind::Degraded => "degraded",
        }
    }
}

/// A structured infrastructure failure observed while checking.
///
/// Carried alongside (not inside) the program's diagnostics: a degraded
/// component still reports the same [`Diagnostic`]s the healthy path would
/// have produced, plus one of these describing how the service got there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckError {
    /// What happened.
    pub kind: CheckErrorKind,
    /// How serious it was.
    pub severity: Severity,
    /// The component (or other unit) affected, when known.
    pub component: Option<String>,
    /// Human-readable description.
    pub detail: String,
    /// Which attempt on the degradation ladder observed it (0 = the
    /// optimized first attempt).
    pub attempt: u32,
}

impl CheckError {
    /// Creates a check error with no component attribution.
    pub fn new(kind: CheckErrorKind, severity: Severity, detail: impl Into<String>) -> CheckError {
        CheckError { kind, severity, component: None, detail: detail.into(), attempt: 0 }
    }

    /// Attributes the error to a named component.
    pub fn for_component(mut self, name: impl Into<String>) -> CheckError {
        self.component = Some(name.into());
        self
    }

    /// Records which ladder attempt observed the error.
    pub fn at_attempt(mut self, attempt: u32) -> CheckError {
        self.attempt = attempt;
        self
    }

    /// Renders the error as a warning [`Diagnostic`] (the verdict-neutral
    /// severities) or an error diagnostic (`Fatal`).
    pub fn to_diagnostic(&self) -> Diagnostic {
        let message = self.to_string();
        match self.severity {
            Severity::Fatal => Diagnostic::error(message, Span::dummy()),
            _ => Diagnostic::warning(message, Span::dummy()),
        }
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.kind.name(), self.severity)?;
        if let Some(c) = &self.component {
            write!(f, " in `{c}`")?;
        }
        if self.attempt > 0 {
            write!(f, " at attempt {}", self.attempt)?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Accumulates diagnostics emitted during a compiler pass.
///
/// Passes push errors and warnings as they are discovered and convert the
/// reporter into a [`Result`] at the end, so a single run can report many
/// independent problems (as the paper's type checker does).
///
/// # Example
///
/// ```
/// use lilac_util::diag::{Diagnostic, ErrorReporter};
/// use lilac_util::span::Span;
///
/// let mut reporter = ErrorReporter::new();
/// assert!(reporter.to_result(42).is_ok());
/// reporter.report(Diagnostic::error("port `o` driven twice", Span::dummy()));
/// assert!(reporter.to_result(42).is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct ErrorReporter {
    diagnostics: Vec<Diagnostic>,
}

impl ErrorReporter {
    /// Creates an empty reporter.
    pub fn new() -> ErrorReporter {
        ErrorReporter::default()
    }

    /// Records a diagnostic.
    pub fn report(&mut self, diag: Diagnostic) {
        self.diagnostics.push(diag);
    }

    /// Records an error with a message and location.
    pub fn error(&mut self, message: impl Into<String>, span: Span) {
        self.report(Diagnostic::error(message, span));
    }

    /// Records a warning with a message and location.
    pub fn warning(&mut self, message: impl Into<String>, span: Span) {
        self.report(Diagnostic::warning(message, span));
    }

    /// Returns true if any error-severity diagnostic has been recorded.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.kind == DiagnosticKind::Error)
    }

    /// All diagnostics recorded so far (including warnings).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of recorded diagnostics.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Returns true if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Converts the reporter into a result: `Ok(value)` when no errors were
    /// recorded, otherwise `Err` carrying every error diagnostic.
    pub fn to_result<T>(&self, value: T) -> Result<T> {
        if self.has_errors() {
            Err(LilacError::from_diagnostics(
                self.diagnostics
                    .iter()
                    .filter(|d| d.kind == DiagnosticKind::Error)
                    .cloned()
                    .collect(),
            ))
        } else {
            Ok(value)
        }
    }

    /// Consumes the reporter and returns all diagnostics.
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        self.diagnostics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SourceMap;

    #[test]
    fn diagnostic_display() {
        let d = Diagnostic::error("bad thing", Span::dummy()).with_note("try this");
        let s = d.to_string();
        assert!(s.contains("error: bad thing"));
        assert!(s.contains("note: try this"));
    }

    #[test]
    fn render_with_caret() {
        let mut map = SourceMap::new();
        let id = map.add_file("t.lilac", "comp FPU<G:1>() -> () {}");
        let span = Span::new(id, 5, 8);
        let d = Diagnostic::error("unknown component `FPU`", span);
        let rendered = d.render(&map);
        assert!(rendered.contains("t.lilac:1:6"));
        assert!(rendered.contains("^^^"));
        assert!(rendered.contains("comp FPU"));
    }

    #[test]
    fn render_note_with_span() {
        let mut map = SourceMap::new();
        let id = map.add_file("t.lilac", "comp A(){}\ncomp B(){}");
        let d = Diagnostic::error("duplicate component", Span::new(id, 11, 20))
            .with_note_at("first defined here", Span::new(id, 0, 9));
        let rendered = d.render(&map);
        assert!(rendered.contains("first defined here (t.lilac:1:1)"));
    }

    #[test]
    fn reporter_collects_errors() {
        let mut r = ErrorReporter::new();
        assert!(r.is_empty());
        r.warning("just a warning", Span::dummy());
        assert!(!r.has_errors());
        assert!(r.to_result(()).is_ok());
        r.error("real error", Span::dummy());
        r.error("second error", Span::dummy());
        assert!(r.has_errors());
        assert_eq!(r.len(), 3);
        let err = r.to_result(()).unwrap_err();
        assert_eq!(err.diagnostics().len(), 2);
        assert_eq!(err.primary().message, "real error");
    }

    #[test]
    #[should_panic(expected = "at least one diagnostic")]
    fn empty_error_panics() {
        let _ = LilacError::from_diagnostics(vec![]);
    }

    #[test]
    fn error_msg_constructor() {
        let e = LilacError::msg("elaboration cycle detected");
        assert_eq!(e.primary().message, "elaboration cycle detected");
        assert!(e.to_string().contains("elaboration cycle"));
    }

    #[test]
    fn check_error_renders_and_tags() {
        let e = CheckError::new(
            CheckErrorKind::DeadlineExpired,
            Severity::Recoverable,
            "deadline expired after 12 queries",
        )
        .for_component("FPU")
        .at_attempt(1);
        let s = e.to_string();
        assert!(s.contains("deadline-expired"), "{s}");
        assert!(s.contains("recoverable"), "{s}");
        assert!(s.contains("`FPU`"), "{s}");
        assert!(s.contains("attempt 1"), "{s}");
        assert_eq!(e.to_diagnostic().kind, DiagnosticKind::Warning);
        let fatal = CheckError::new(CheckErrorKind::WorkerPanic, Severity::Fatal, "gave up");
        assert_eq!(fatal.to_diagnostic().kind, DiagnosticKind::Error);
    }

    #[test]
    fn severity_orders_by_seriousness() {
        assert!(Severity::Transient < Severity::Recoverable);
        assert!(Severity::Recoverable < Severity::Fatal);
    }
}
