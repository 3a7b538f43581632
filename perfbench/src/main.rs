//! `caffeine-perfbench`: the repository's benchmark.
//!
//! ```text
//! caffeine-perfbench --workload fit-ota|predict|serve-jobs --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints one JSON record with provenance and every metric's spread, and
//! as the last line `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md` for what each workload and
//! metric means.

#![deny(unsafe_code)]

mod fit_ota;
mod http;
mod layers;
mod ota;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use serde_json::{json, Map, Value};

use crate::stats::Summary;
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FitOta,
    Predict,
    ServeJobs,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "fit-ota" => Some(Workload::FitOta),
            "predict" => Some(Workload::Predict),
            "serve-jobs" => Some(Workload::ServeJobs),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FitOta => "fit-ota",
            Workload::Predict => "predict",
            Workload::ServeJobs => "serve-jobs",
        }
    }

    /// What `primary_ms` and `secondary_ms` measure on this workload, by
    /// the names the README uses.
    fn aliases(self) -> [&'static str; 2] {
        match self {
            Workload::FitOta => ["fit_s", "paper_alf_s"],
            Workload::Predict => ["small_p50_us", "large_p50_us"],
            Workload::ServeJobs => ["job_p50_ms", "watch_predict_p50_us"],
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The samples' spread, for metrics that are a median.
    pub summary: Option<Summary>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: None,
        }
    }

    /// The median of `samples`, keeping their spread.
    pub fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let s = Summary::of(samples);
        Metric {
            name,
            unit,
            value: s.median,
            summary: Some(s),
        }
    }
}

/// What one workload's measurement window produced.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub attempted: u64,
    pub failed: u64,
    /// Median of the workload's main operation, ms.
    pub primary: Metric,
    /// Median of its second operation class, ms.
    pub secondary: Metric,
    /// Workload-specific detail (tails, rates, counts) for the record.
    pub detail: Value,
}

fn metrics_json(metrics: &[Metric], with_spread: bool) -> Value {
    let mut m = Map::new();
    for metric in metrics {
        let mut entry = json!({"value": metric.value, "unit": metric.unit});
        if with_spread {
            if let (Some(s), Value::Object(obj)) = (&metric.summary, &mut entry) {
                obj.insert("spread".to_string(), s.to_json());
            }
        }
        m.insert(metric.name.to_string(), entry);
    }
    Value::Object(m)
}

fn provenance(args: &Args) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    json!({
        "cpu": cpu,
        "nproc": nproc(),
        "rustc": env("PERFBENCH_RUSTC"),
        "commit": env("PERFBENCH_COMMIT"),
        "source_sha256": env("PERFBENCH_SOURCE_SHA256"),
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setups": SETUPS,
        "serve_version": caffeine_serve::VERSION,
    })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the end-to-end measurement: `SETUPS` set-ups (median is
/// `setup_s`), then one measurement window with tracing off.
fn run_e2e(args: &Args) -> Result<(Vec<Metric>, Measurement, Value), String> {
    let off = Tracer::new(false);
    let (setup_s, m) = match args.workload {
        Workload::FitOta => {
            let (secs, setup) = timed_setups(|| fit_ota::setup(&off))?;
            (secs, fit_ota::measure(&setup, args, &off)?)
        }
        Workload::Predict | Workload::ServeJobs => {
            let (secs, setup) = timed_setups(|| serve::setup(args.seed, &off))?;
            let m = serve::measure(&setup, args, &off);
            setup.daemon.stop()?;
            (secs, m?)
        }
    };
    let aliases = args.workload.aliases();
    let mut primary = m.primary.clone();
    let mut secondary = m.secondary.clone();
    primary.name = "primary_ms";
    secondary.name = "secondary_ms";
    let setup = Metric::median("setup_s", "s", &setup_s);
    let detail = json!({
        "aliases": {
            "primary_ms": aliases[0],
            "secondary_ms": aliases[1],
        },
        "workload": m.detail.clone(),
    });
    Ok((vec![setup, primary, secondary], m, detail))
}

/// Runs `setup` `SETUPS` times, keeping the last result and every
/// duration in seconds. Earlier results are dropped (daemons stop).
fn timed_setups<S>(mut setup: impl FnMut() -> Result<S, String>) -> Result<(Vec<f64>, S), String>
where
    S: Stoppable,
{
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last: Option<S> = None;
    for _ in 0..SETUPS {
        if let Some(prev) = last.take() {
            prev.stop()?;
        }
        let started = std::time::Instant::now();
        let s = setup()?;
        secs.push(started.elapsed().as_secs_f64());
        last = Some(s);
    }
    Ok((secs, last.expect("SETUPS > 0")))
}

/// A set-up that owns threads or sockets to release.
pub trait Stoppable {
    fn stop(self) -> Result<(), String>;
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: caffeine-perfbench --workload fit-ota|predict|serve-jobs --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        layers::run_traced(&args)
    } else {
        run_e2e(&args)
    };
    let (metrics, m, detail) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = m.failed == 0 && metrics.iter().all(|x| x.value.is_finite());
    let record = json!({
        "record": "caffeine-perfbench",
        "provenance": provenance(&args),
        "warmup": "first fit and first second of each client discarded",
        "attempted": m.attempted,
        "failed": m.failed,
        "correct": correct,
        "metrics": metrics_json(&metrics, true),
        "detail": detail,
    });
    println!(
        "{}",
        serde_json::to_string(&record).expect("record renders")
    );
    let last = json!({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics_json(&metrics, false),
    });
    println!("{}", serde_json::to_string(&last).expect("result renders"));
    // A failed correctness check is reported in the result line, which
    // the exit code must not hide from whoever parses it.
    ExitCode::SUCCESS
}
