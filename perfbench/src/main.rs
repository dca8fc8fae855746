//! The Julienne benchmark: four seeded workloads, end-to-end metrics from
//! an untraced run, per-layer metrics from a separate traced run.
//!
//! ```text
//! julienne-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    --julienne <path to the julienne binary> --work <dir>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. The
//! line before it records provenance. See `README.md` for the workloads
//! and metrics.

mod bench;
mod child;
mod load;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Sample count behind each metric.
    pub samples: Vec<(String, usize)>,
    /// Percentile each `*_tail_*` metric reports.
    pub tail_pct: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks and other remarks, printed to standard error.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    julienne: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        julienne: PathBuf::new(),
        work: PathBuf::new(),
    };
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {k} {v:?}: {e}");
        match k.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = v == "1",
            "--julienne" => a.julienne = v.into(),
            "--work" => a.work = v.into(),
            _ => return Err(format!("unknown option {k}")),
        }
    }
    if a.julienne.as_os_str().is_empty() || a.work.as_os_str().is_empty() {
        return Err("--julienne and --work are required".into());
    }
    Ok(a)
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (expected one of {:?})",
            args.workload,
            workloads::ALL
        );
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if workloads::THREADS > nproc || workloads::CONNECTIONS > nproc {
        eprintln!(
            "perfbench: configured threads={} connections={} exceed nproc={nproc}; refusing to run",
            workloads::THREADS,
            workloads::CONNECTIONS
        );
        return ExitCode::from(2);
    }
    rayon::set_num_threads(workloads::THREADS);
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::from(1);
    }
    let outcome = workloads::generate(&spec, args.seed, &args.work).and_then(|input| {
        if args.trace {
            trace::run(
                &spec,
                &input,
                args.seed,
                args.seconds,
                &args.julienne,
                &args.work,
            )
        } else {
            bench::run(&spec, &input, args.seed, args.seconds, &args.julienne)
        }
    });
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", spec.id);
            return ExitCode::from(1);
        }
    };
    for n in &report.notes {
        eprintln!("perfbench: {}: {n}", spec.id);
    }

    let list = |xs: Vec<String>| xs.join(",");
    println!(
        "provenance: {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"threads\":{},\
         \"connections\":{},\"nproc\":{nproc},\"cpu\":\"{}\",\"commit\":\"{}\",\
         \"samples\":{{{}}},\"tail_percentile\":{{{}}}}}",
        spec.id,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::THREADS,
        workloads::CONNECTIONS,
        cpu_model().replace('"', "'"),
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        list(
            report
                .samples
                .iter()
                .map(|(k, n)| format!("\"{k}\":{n}"))
                .collect()
        ),
        list(
            report
                .tail_pct
                .iter()
                .map(|(k, p)| format!("\"{k}\":{p:.2}"))
                .collect()
        ),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        list(
            report
                .metrics
                .iter()
                .map(|(k, v, u)| format!(
                    "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                ))
                .collect()
        )
    );
    ExitCode::SUCCESS
}
