//! The worker's output: a flat JSON object, plus the process measurements
//! that go into it.

use std::fmt::Write;

/// A flat JSON object built in insertion order. Keys and string values are
/// fixed identifiers of this crate, so they need no escaping.
#[derive(Default)]
pub struct Json {
    body: String,
}

impl Json {
    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "\"{k}\": ");
    }

    /// Adds a string field.
    pub fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        let _ = write!(self.body, "\"{v}\"");
    }

    /// Adds an integer field.
    pub fn int(&mut self, k: &str, v: u64) {
        self.key(k);
        let _ = write!(self.body, "{v}");
    }

    /// Adds a number field with all its digits; a non-finite value becomes
    /// `null`, which `run.py` rejects as a failed run.
    pub fn num(&mut self, k: &str, v: f64) {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.body, "{v:?}");
        } else {
            self.body.push_str("null");
        }
    }

    /// The object's text.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// The process's peak resident set size in MiB (`VmHWM`), or NaN where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The nearest-rank `p`-th percentile of `samples` (0 when empty).
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 95.0), 19.0);
        assert_eq!(percentile(&mut v, 100.0), 20.0);
        assert_eq!(percentile(&mut [], 95.0), 0.0);
    }

    #[test]
    fn json_is_flat_and_nulls_non_finite_numbers() {
        let mut j = Json::default();
        j.str("a", "x");
        j.int("b", 3);
        j.num("c", f64::NAN);
        assert_eq!(j.finish(), r#"{"a": "x", "b": 3, "c": null}"#);
    }
}
