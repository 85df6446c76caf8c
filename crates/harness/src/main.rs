#![warn(clippy::unwrap_used)]
//! `repro`: prints the paper's tables and figures from live runs.
//!
//! Flags select experiments (`--all` runs every experiment); `--jobs N`
//! sets the parallel engine's worker count (default: available
//! parallelism). Each stage prints a wall-clock timing line to stderr.
//! Unknown flags are an error: a misspelled `--tabel2` exits 2 with the
//! usage string instead of silently doing nothing.
//!
//! Failure is deferred, never fatal mid-run: a measurement that errors
//! drops its row and is recorded; every remaining experiment still
//! runs. At the end of the run the aggregated failure report is printed
//! to stderr (and as JSON on stdout with `--errors-json`), and only
//! then does the process exit nonzero. `--inject-sweep` fires each
//! registered fault point one at a time and asserts the pipeline
//! survives with the expected structured failure.

use harness::cli::Args;
use harness::{error, inject_sweep, report};

const USAGE: &str = "usage: repro [--table1] [--table2] [--table3] [--table4] \
     [--figure3] [--figure4] [--ablation] [--sweep] [--design] [--sched] [--multitask] \
     [--check[=json]] [--csv [DIR]] [--fuzz N [--seed S]] [--inject-sweep] \
     [--errors-json] [--jobs N] [--all]";

#[derive(Default)]
struct Opts {
    table1: bool,
    table2: bool,
    table3: bool,
    table4: bool,
    figure3: bool,
    figure4: bool,
    ablation: bool,
    sweep: bool,
    design: bool,
    sched: bool,
    multitask: bool,
    check: bool,
    check_json: bool,
    csv: Option<std::path::PathBuf>,
    fuzz: Option<usize>,
    fuzz_seed: Option<u64>,
    inject_sweep: bool,
    errors_json: bool,
    jobs: Option<usize>,
}

fn parse(mut args: Args) -> Opts {
    let mut o = Opts::default();
    let mut all = false;
    let mut any = false;
    while let Some(a) = args.next_arg() {
        any = true;
        match a.as_str() {
            "--table1" => o.table1 = true,
            "--table2" => o.table2 = true,
            "--table3" => o.table3 = true,
            "--table4" => o.table4 = true,
            "--figure3" => o.figure3 = true,
            "--figure4" => o.figure4 = true,
            "--ablation" => o.ablation = true,
            "--sweep" => o.sweep = true,
            "--design" => o.design = true,
            "--sched" => o.sched = true,
            "--multitask" => o.multitask = true,
            "--check" => o.check = true,
            "--check=json" => {
                o.check = true;
                o.check_json = true;
            }
            "--inject-sweep" => o.inject_sweep = true,
            "--errors-json" => o.errors_json = true,
            // Optional directory operand; defaults to `results`.
            "--csv" => o.csv = Some(args.optional_operand().unwrap_or("results".into()).into()),
            "--fuzz" => o.fuzz = Some(args.at_least("--fuzz", 1)),
            "--seed" => o.fuzz_seed = Some(args.value("--seed")),
            "--jobs" => o.jobs = Some(args.jobs()),
            "--all" => all = true,
            other => args.unknown(other),
        }
    }
    if !any {
        args.usage_error("no experiment selected");
    }
    if o.fuzz.is_none() && o.fuzz_seed.is_some() {
        args.usage_error("--seed only applies to --fuzz");
    }
    if all {
        o.table1 = true;
        o.table2 = true;
        o.table3 = true;
        o.table4 = true;
        o.figure3 = true;
        o.figure4 = true;
        o.ablation = true;
        o.sweep = true;
        o.design = true;
        o.sched = true;
        o.multitask = true;
        o.check = true;
    }
    o
}

fn main() {
    let o = parse(Args::from_env("repro", USAGE));
    let jobs = o.jobs.unwrap_or_else(exec::available);
    // Deferred failure: experiments record structured errors and keep
    // going; these track the extra failure sources (checker rows, fuzz
    // cases, sweep verdicts, csv IO) that aren't PipelineErrors.
    let mut deferred_failure = false;

    if o.table1 {
        let rows = exec::timed("repro", "table1", jobs, || harness::table1_jobs(jobs));
        println!("{}", report::render_table1(&rows));
    }
    if o.table2 {
        let rows = exec::timed("repro", "table2", jobs, || {
            harness::speedup_rows_jobs(512, jobs)
        });
        println!("{}", report::render_table2(&rows, 512));
    }
    if o.table3 || o.table4 {
        let (r512, r1024, improved) =
            exec::timed("repro", "table3", jobs, || harness::table3_jobs(jobs));
        if o.table3 {
            println!("{}", report::render_table3(&r512, &r1024, &improved));
        }
        if o.table4 {
            println!("{}", report::render_table4(&r512, &r1024));
        }
    }
    if o.figure3 {
        let rows = exec::timed("repro", "figure3", jobs, || harness::figure_jobs(512, jobs));
        println!("{}", report::render_figure(&rows, 512));
    }
    if o.figure4 {
        let rows = exec::timed("repro", "figure4", jobs, || {
            harness::figure_jobs(1024, jobs)
        });
        println!("{}", report::render_figure(&rows, 1024));
    }
    if o.ablation {
        let rows = exec::timed("repro", "ablation", jobs, || harness::ablation_jobs(jobs));
        println!("{}", report::render_ablation(&rows));
    }
    if o.sweep {
        let sizes = [64, 128, 256, 512, 1024, 2048, 4096];
        let pts = exec::timed("repro", "sweep", jobs, || {
            harness::ccm_sweep_jobs(&sizes, jobs)
        });
        println!("{}", harness::render_sweep(&pts));
    }
    if o.design {
        let rows = exec::timed("repro", "design", jobs, || harness::design_ablation(jobs));
        println!("{}", harness::render_design(&rows));
    }
    if o.sched {
        let rows = exec::timed("repro", "sched", jobs, || harness::scheduling_study(jobs));
        println!("{}", harness::render_sched(&rows));
    }
    if o.multitask {
        let rows = exec::timed("repro", "multitask", jobs, || {
            harness::multitask_study(jobs)
        });
        println!("{}", harness::render_multitask(&rows));
    }
    if o.check {
        let rows = exec::timed("repro", "check", jobs, || {
            harness::check_suite_jobs(&[512, 1024], jobs)
        });
        if o.check_json {
            print!("{}", report::render_check_json(&rows));
        } else {
            print!("{}", report::render_check_summary(&rows));
        }
        if rows.iter().any(|r| r.error_count() > 0) {
            deferred_failure = true;
        }
    }
    if let Some(n) = o.fuzz {
        let seed = o.fuzz_seed.unwrap_or(0);
        let cfg = fuzz::OracleConfig::default();
        let rep = exec::timed("repro", "fuzz", jobs, || {
            fuzz::campaign_report(n, seed, jobs, &cfg)
        });
        print!("{}", rep.text);
        if rep.failures > 0 {
            deferred_failure = true;
        }
    }
    if o.inject_sweep {
        let outcomes = exec::timed("repro", "inject-sweep", jobs, || {
            inject_sweep::run_sweep(jobs)
        });
        print!("{}", inject_sweep::render(&outcomes));
        if outcomes.iter().any(|v| !v.passed) {
            deferred_failure = true;
        }
    }
    if let Some(dir) = o.csv {
        match exec::timed("repro", "csv", jobs, || harness::export_all(&dir, jobs)) {
            Ok(files) => eprintln!("wrote {} CSV files to {}", files.len(), dir.display()),
            Err(e) => {
                eprintln!("csv export failed: {e}");
                deferred_failure = true;
            }
        }
    }

    // End-of-run aggregation: every structured failure the experiments
    // recorded, sorted (job-count-independent), then the one exit code.
    let errors = error::drain();
    if !errors.is_empty() {
        eprint!("{}", error::render_text(&errors));
    }
    if o.errors_json {
        print!("{}", error::render_json(&errors));
    }
    if deferred_failure || !errors.is_empty() {
        std::process::exit(1);
    }
}
