//! Structured diagnostics and their text/JSON renderers.

use std::fmt;

/// How bad a finding is. `Error` means the module is not a legal result
/// of allocation (the harness refuses to simulate it); `Warning` flags
/// suspicious but semantics-preserving output such as a dead spill store.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not unsound.
    Warning,
    /// The module violates a post-allocation invariant.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One checker finding, locating the offense down to the instruction
/// when possible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Function the finding is in (empty for module-level findings).
    pub function: String,
    /// Label of the offending block, when the finding is inside one.
    pub block: Option<String>,
    /// Index of the offending instruction within its block.
    pub instr: Option<usize>,
    /// Stable check identifier (e.g. `machine-vreg`, `ccm-bounds`).
    pub check: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// A new error-severity diagnostic with no location yet.
    pub fn error(check: &'static str, function: &str, message: String) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            function: function.to_string(),
            block: None,
            instr: None,
            check,
            message,
        }
    }

    /// A new warning-severity diagnostic with no location yet.
    pub fn warning(check: &'static str, function: &str, message: String) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(check, function, message)
        }
    }

    /// Attaches a block/instruction location.
    pub fn at(mut self, block: &str, instr: usize) -> Diagnostic {
        self.block = Some(block.to_string());
        self.instr = Some(instr);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.check)?;
        if !self.function.is_empty() {
            write!(f, " fn `{}`", self.function)?;
        }
        if let Some(b) = &self.block {
            write!(f, " block {b}")?;
        }
        if let Some(i) = self.instr {
            write!(f, " instr {i}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Renders diagnostics one per line, in the order produced.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// Renders diagnostics as a JSON array of objects with keys `severity`,
/// `function`, `block`, `instr`, `check`, and `message`. `block` and
/// `instr` are `null` for module- or function-level findings.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"severity\":");
        json_string(&d.severity.to_string(), &mut out);
        out.push_str(",\"function\":");
        json_string(&d.function, &mut out);
        out.push_str(",\"block\":");
        match &d.block {
            Some(b) => json_string(b, &mut out),
            None => out.push_str("null"),
        }
        out.push_str(",\"instr\":");
        match d.instr {
            Some(n) => out.push_str(&n.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"check\":");
        json_string(d.check, &mut out);
        out.push_str(",\"message\":");
        json_string(&d.message, &mut out);
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

/// Appends `s` as a JSON string literal, escaping per RFC 8259.
pub fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_site() {
        let d = Diagnostic::error("machine-vreg", "kern", "bad".to_string()).at(".L2", 7);
        assert_eq!(
            d.to_string(),
            "error[machine-vreg] fn `kern` block .L2 instr 7: bad"
        );
    }

    #[test]
    fn json_escapes_and_nulls() {
        let diags = vec![
            Diagnostic::error("structure", "f\"g", "line\none".to_string()),
            Diagnostic::warning("slot-dead-store", "h", "ok".to_string()).at("entry", 0),
        ];
        let j = render_json(&diags);
        assert!(j.contains("\"f\\\"g\""));
        assert!(j.contains("line\\none"));
        assert!(j.contains("\"block\":null"));
        assert!(j.contains("\"instr\":0"));
        assert!(j.starts_with('[') && j.trim_end().ends_with(']'));
    }
}
