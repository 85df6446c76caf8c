//! Worker process of the pipeline benchmark; `pipebench/run.py` drives it.
//!
//! One invocation measures one workload once and prints one JSON object on
//! stdout. Every measurement gets a process of its own because the memo
//! caches in `harness::cache` are process-global and never cleared: a
//! second measurement in the same process would time cache hits.
//!
//! ```text
//! pipebench setup  <workload> [options]   set up, report the time, exit
//! pipebench timed  <workload> [options]   one untraced end-to-end call
//! pipebench traced <workload> [options]   per-layer replay of the same work
//!
//! options: --jobs N  --seed S  --wrong-reference
//! ```

mod report;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use report::Json;
use workload::{Options, Workload};

const USAGE: &str = "usage: pipebench <setup|timed|traced> \
     <table2-kernels|ccm-sweep|fuzz-oracle> [--jobs N] [--seed S] \
     [--wrong-reference]";

fn parse(args: &[String]) -> Result<(String, Workload, Options), String> {
    let [mode, name, rest @ ..] = args else {
        return Err("missing mode or workload".to_string());
    };
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let mut o = Options::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{flag}: {e}"))
        };
        match flag.as_str() {
            "--jobs" => o.jobs = usize::try_from(value()?.max(1)).map_err(|e| e.to_string())?,
            "--seed" => o.seed = value()?,
            "--wrong-reference" => o.wrong_reference = true,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok((mode.clone(), workload, o))
}

/// Wall-clock time as seconds since the epoch: `run.py` subtracts its
/// own spawn time from this to get the set-up time.
fn epoch_s() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = Json::default();
    out.str("workload", workload.name());
    out.int("jobs", opts.jobs as u64);
    out.str("engine", sim::MachineConfig::default().engine.name());
    // Set-up ends here: everything above is what a user of the pipeline
    // pays before the first call into it.
    out.num("first_call_epoch_s", epoch_s());
    match mode.as_str() {
        "setup" => {}
        "timed" => workload::timed(workload, &opts, &mut out),
        "traced" => trace::traced(workload, &opts, &mut out),
        _ => {
            eprintln!("pipebench: unknown mode `{mode}`\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    println!("{}", out.finish());
    ExitCode::SUCCESS
}
