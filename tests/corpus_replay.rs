//! Replays every minimized fuzzer reproducer in `tests/corpus/` through
//! the full differential oracle. Each `.iloc` file in that directory is
//! a module that once exposed a bug (see its header comment for the
//! story); the fix landed, so every entry must now pass the oracle —
//! bit-identical checksums across all variants, a clean checker, and
//! `cycles <= baseline` — under both the default register file and the
//! squeezed `tiny(3)` configuration that reproduces spill pressure on
//! small modules. A failure here means the original bug (or a close
//! cousin) is back.

use regalloc::AllocConfig;

fn corpus_entries() -> Vec<std::path::PathBuf> {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "iloc"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus must not be empty");
    entries
}

#[test]
fn corpus_reproducers_pass_the_oracle() {
    for path in corpus_entries() {
        let text = std::fs::read_to_string(&path).unwrap();
        let m = iloc::parse_module(&text)
            .unwrap_or_else(|e| panic!("{}: parse failed: {e}", path.display()));
        m.verify()
            .unwrap_or_else(|e| panic!("{}: verify failed: {e:?}", path.display()));
        for alloc in [AllocConfig::default(), AllocConfig::tiny(3)] {
            let cfg = fuzz::OracleConfig {
                ccm_sizes: vec![16, 64, 256, 1024],
                alloc,
                ..Default::default()
            };
            if let Err(f) = fuzz::run_oracle(&m, &cfg) {
                panic!(
                    "{} (gpr_k={}): {} in {} at ccm {}: {}",
                    path.display(),
                    alloc.gpr_k,
                    f.kind.label(),
                    f.variant.short(),
                    f.ccm,
                    f.detail
                );
            }
        }
    }
}

/// The corpus entries must stay printable/parseable exactly — they are
/// the long-term archive format for fuzzer findings.
#[test]
fn corpus_reproducers_round_trip() {
    for path in corpus_entries() {
        let text = std::fs::read_to_string(&path).unwrap();
        let m = iloc::parse_module(&text).unwrap();
        let reparsed = iloc::parse_module(&m.to_string()).unwrap();
        assert_eq!(m, reparsed, "{} does not round-trip", path.display());
    }
}
