//! The flag reader shared by the `repro`, `ccmc` and `probe` binaries.
//!
//! Each binary keeps its own `match` over its flags and asks [`Args`]
//! for the rest: a flag's operand (a missing or malformed one exits 2),
//! the `--jobs N` worker count, `--help` (usage on stdout, exit 0) and
//! the `unknown argument` error (message and usage on stderr, exit 2).
//! Settings come back as values; nothing here is process-wide state.

use std::fmt::Display;
use std::iter::Peekable;
use std::process::exit;
use std::str::FromStr;
use std::vec::IntoIter;

/// A binary's command-line arguments, read front to back.
pub struct Args {
    prog: &'static str,
    usage: &'static str,
    rest: Peekable<IntoIter<String>>,
}

impl Args {
    /// The arguments `args` of binary `prog`, whose usage string is
    /// `usage`.
    fn new(prog: &'static str, usage: &'static str, args: Vec<String>) -> Self {
        Args {
            prog,
            usage,
            rest: args.into_iter().peekable(),
        }
    }

    /// The process's own arguments, program name skipped.
    pub fn from_env(prog: &'static str, usage: &'static str) -> Self {
        Self::new(prog, usage, std::env::args().skip(1).collect())
    }

    /// The next argument, or `None` after the last. `--help` and `-h`
    /// print the usage on stdout and exit 0.
    pub fn next_arg(&mut self) -> Option<String> {
        let a = self.rest.next()?;
        if a == "--help" || a == "-h" {
            println!("{}", self.usage);
            exit(0);
        }
        Some(a)
    }

    /// The operand of `flag`; exits 2 if there is none.
    pub fn operand(&mut self, flag: &str) -> String {
        match self.rest.next() {
            Some(v) => v,
            None => self.usage_error(format!("{flag} needs a value")),
        }
    }

    /// The next argument if it is an operand rather than a flag, for
    /// flags whose operand may be omitted.
    pub fn optional_operand(&mut self) -> Option<String> {
        self.rest.next_if(|a| !a.starts_with('-'))
    }

    /// The operand of `flag` parsed as a `T`; exits 2 if it is missing
    /// or malformed.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T {
        let v = self.operand(flag);
        match v.parse() {
            Ok(t) => t,
            Err(_) => self.usage_error(format!("invalid {flag} `{v}`")),
        }
    }

    /// The operand of `flag` parsed as a number no smaller than `min`;
    /// exits 2 otherwise.
    pub fn at_least<T: FromStr + PartialOrd + Display>(&mut self, flag: &str, min: T) -> T {
        let n = self.value(flag);
        if n < min {
            self.usage_error(format!("{flag} must be at least {min}"));
        }
        n
    }

    /// The operand of `--jobs`: a worker count of at least 1.
    pub fn jobs(&mut self) -> usize {
        self.at_least("--jobs", 1)
    }

    /// Exits 2 naming `arg` as an argument the binary does not take.
    pub fn unknown(&self, arg: &str) -> ! {
        self.usage_error(format!("unknown argument `{arg}`"))
    }

    /// Prints `prog: msg` and the usage string on stderr and exits 2.
    pub fn usage_error(&self, msg: impl Display) -> ! {
        eprintln!("{}: {msg}", self.prog);
        eprintln!("{}", self.usage);
        exit(2)
    }
}

/// Prints `prog: msg` on stderr and exits 2, for failures that are not
/// usage errors (an unreadable input, a trapped run).
pub fn fail(prog: &str, msg: impl Display) -> ! {
    eprintln!("{prog}: {msg}");
    exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::new("t", "usage: t", v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn reads_flags_and_operands_in_order() {
        let mut a = args(&["--jobs", "4", "--csv", "--fuzz", "8", "--csv", "out"]);
        assert_eq!(a.next_arg().as_deref(), Some("--jobs"));
        assert_eq!(a.jobs(), 4);
        assert_eq!(a.next_arg().as_deref(), Some("--csv"));
        assert_eq!(a.optional_operand(), None);
        assert_eq!(a.next_arg().as_deref(), Some("--fuzz"));
        assert_eq!(a.at_least("--fuzz", 1usize), 8);
        assert_eq!(a.next_arg().as_deref(), Some("--csv"));
        assert_eq!(a.optional_operand().as_deref(), Some("out"));
        assert_eq!(a.next_arg(), None);
    }
}
