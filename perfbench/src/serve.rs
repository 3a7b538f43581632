//! `predict` and `serve-jobs`: the daemon in-process, driven over
//! loopback by closed-loop clients that each wait for every reply.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use caffeine_circuit::ota::{OtaDesign, PerfId};
use caffeine_core::{CaffeineSettings, GrammarConfig, ModelArtifact};
use caffeine_doe::Dataset;
use caffeine_obs::{Level, LogFormat, Logger};
use caffeine_runtime::{IslandRunner, RuntimeConfig};
use caffeine_serve::{client, ServeConfig, Server, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;

use crate::http::{parse_predictions, predict_body, same_bits, Conn};
use crate::ota::{fit_front, sub_seed, var_names, OtaData};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{Args, Measurement, Metric, Stoppable, Workload};

/// Registry id of the front fitted in set-up.
pub const MODEL_ID: &str = "ota";
/// The performance that front models.
const SERVE_PERF: PerfId = PerfId::Fu;
/// Basis-generation budget of the set-up fit (~40 generations).
const SETUP_FIT_BUDGET: usize = 8_000;
/// Points in a `large` predict (`small` sends one).
pub const LARGE_POINTS: usize = 256;
/// Distinct request bodies per class.
const SMALL_BODIES: usize = 64;
const LARGE_BODIES: usize = 16;
/// Distinct job specs in `serve-jobs`; each is checked against one
/// in-process fit.
const JOB_SPECS: usize = 48;
/// Training rows per job (of the 243 simulated).
const JOB_ROWS: usize = 81;
/// The `serve-jobs` watcher sends at most one predict per interval, so
/// its load (client and daemon worker) takes about a third of a CPU and
/// the job's fit keeps a CPU of its own on a 2-CPU host. Back to back,
/// it kept two threads busy beside the fit: three threads on two CPUs,
/// and `job_p50` spread 37 % of its median over ten seeds.
const WATCH_INTERVAL: Duration = Duration::from_millis(1);
/// Samples taken in a client's first second are discarded.
const WARMUP: Duration = Duration::from_secs(1);

/// The daemon on an ephemeral loopback port.
#[derive(Debug)]
pub struct Daemon {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// In-memory registry, no checkpoints, default pool and limits;
    /// only errors are logged.
    pub fn start() -> Result<Daemon, String> {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            model_dir: None,
            logger: Logger::stderr(Level::Error, LogFormat::Text),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::Builder::new()
            .name("perfbench-daemon".into())
            .spawn(move || server.serve())
            .map_err(|e| e.to_string())?;
        Ok(Daemon {
            addr,
            handle,
            thread,
        })
    }

    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

#[derive(Debug)]
pub struct ServeSetup {
    pub data: OtaData,
    pub artifact: ModelArtifact,
    pub daemon: Daemon,
}

impl Stoppable for ServeSetup {
    fn stop(self) -> Result<(), String> {
        self.daemon.stop()
    }
}

/// Simulates the experiment, fits one front, starts the daemon and
/// publishes the front over HTTP.
pub fn setup(seed: u64, tr: &Tracer) -> Result<ServeSetup, String> {
    setup_with(OtaData::generate(tr, None)?, seed, tr)
}

/// [`setup`] on already simulated data.
pub fn setup_with(data: OtaData, seed: u64, tr: &Tracer) -> Result<ServeSetup, String> {
    let (train, test) = data.split(SERVE_PERF)?;
    let front = fit_front(
        &train,
        &test,
        sub_seed(seed, 100),
        1,
        SETUP_FIT_BUDGET,
        tr,
        None,
        0,
    )?;
    let daemon = Daemon::start()?;
    let (status, body) = Conn::new(daemon.addr)
        .request(
            "POST",
            &format!("/v1/models/{MODEL_ID}"),
            front.artifact.to_json().as_bytes(),
            false,
        )
        .map_err(|e| format!("publish: {e}"))?;
    if status != 201 {
        daemon.stop()?;
        return Err(format!(
            "publish answered {status}: {}",
            String::from_utf8_lossy(&body)
        ));
    }
    Ok(ServeSetup {
        data,
        artifact: front.artifact,
        daemon,
    })
}

/// Seeded design points inside the training cube (nominal ± 10 %).
pub fn design_points(rng: &mut StdRng, n: usize) -> Vec<Vec<f64>> {
    let nominal = OtaDesign::nominal().to_vec();
    (0..n)
        .map(|_| {
            nominal
                .iter()
                .map(|v| v * (1.0 + rng.gen_range(-0.1..0.1)))
                .collect()
        })
        .collect()
}

/// A request body with the predictions `ModelArtifact::predict` gives
/// for it in-process.
#[derive(Debug, Clone)]
pub struct PredictCase {
    pub points: Vec<Vec<f64>>,
    pub body: Vec<u8>,
    pub expected: Vec<f64>,
}

#[derive(Debug, Clone)]
pub struct PredictPool {
    pub small: Vec<PredictCase>,
    pub large: Vec<PredictCase>,
}

impl PredictPool {
    pub fn new(artifact: &ModelArtifact, seed: u64) -> Result<PredictPool, String> {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 200));
        let mut cases = |count: usize, points: usize| {
            (0..count)
                .map(|_| {
                    let pts = design_points(&mut rng, points);
                    let expected = artifact.predict(None, &pts).map_err(|e| e.to_string())?;
                    Ok(PredictCase {
                        body: predict_body(&pts),
                        points: pts,
                        expected,
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        };
        Ok(PredictPool {
            small: cases(SMALL_BODIES, 1)?,
            large: cases(LARGE_BODIES, LARGE_POINTS)?,
        })
    }
}

/// What one predict client saw after its warm-up second.
#[derive(Debug, Default)]
struct ClientLog {
    latency_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// A closed loop of predicts of one class until `deadline`, each body
/// drawn from `cases` by the seed and every reply checked bit for bit.
/// With `interval`, a request is sent at most once per interval.
fn predict_client(
    addr: SocketAddr,
    cases: &[PredictCase],
    seed: u64,
    interval: Option<Duration>,
    deadline: Instant,
    tr: &Tracer,
    client: u64,
) -> ClientLog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conn = Conn::new(addr);
    let path = format!("/v1/models/{MODEL_ID}/predict");
    let warm_until = Instant::now() + WARMUP;
    let mut log = ClientLog::default();
    let mut seq = 0u64;
    let mut next_send = Instant::now();
    while Instant::now() < deadline {
        if let Some(interval) = interval {
            std::thread::sleep(next_send.saturating_duration_since(Instant::now()));
            next_send = next_send.max(Instant::now() - interval) + interval;
        }
        let case = &cases[rng.gen_range(0..cases.len())];
        let request = client << 32 | seq;
        seq += 1;
        let started = Instant::now();
        let outcome = tr.span("bench.predict", None, request, |p| {
            let reply = tr.span("client.request", p, request, |_| {
                conn.request("POST", &path, &case.body, true)
            });
            let us = started.elapsed().as_secs_f64() * 1e6;
            let verdict = tr.span("client.verify", p, request, |_| match reply {
                Ok((200, body)) => match parse_predictions(&body) {
                    Ok(got) if same_bits(&got, &case.expected) => Ok(()),
                    Ok(_) => Err("predictions differ from in-process predict".to_string()),
                    Err(e) => Err(e),
                },
                Ok((status, body)) => Err(format!(
                    "status {status}: {}",
                    String::from_utf8_lossy(&body)
                )),
                Err(e) => Err(e.to_string()),
            });
            (us, verdict)
        });
        let (us, verdict) = outcome;
        log.attempted += 1;
        match verdict {
            Ok(()) if started >= warm_until => log.latency_us.push(us),
            Ok(()) => {}
            Err(e) => {
                log.failed += 1;
                if log.errors.len() < 5 {
                    log.errors.push(e);
                }
            }
        }
    }
    log
}

pub fn measure(setup: &ServeSetup, args: &Args, tr: &Tracer) -> Result<Measurement, String> {
    match args.workload {
        Workload::ServeJobs => measure_jobs(setup, args.seed, args.seconds, tr),
        _ => measure_predict(setup, args.seed, args.seconds, tr),
    }
}

fn ms(us: &[f64]) -> Vec<f64> {
    us.iter().map(|u| u / 1e3).collect()
}

/// Two closed-loop clients, one per class, so the mix of `small` and
/// `large` requests follows from their service times rather than from a
/// chosen share.
pub fn measure_predict(
    setup: &ServeSetup,
    seed: u64,
    seconds: f64,
    tr: &Tracer,
) -> Result<Measurement, String> {
    let pool = PredictPool::new(&setup.artifact, seed)?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let addr = setup.daemon.addr;
    let (small, large) = std::thread::scope(|scope| {
        let small = scope.spawn(|| {
            predict_client(addr, &pool.small, sub_seed(seed, 300), None, deadline, tr, 0)
        });
        let large = scope.spawn(|| {
            predict_client(addr, &pool.large, sub_seed(seed, 301), None, deadline, tr, 1)
        });
        (
            small.join().expect("small predict client panicked"),
            large.join().expect("large predict client panicked"),
        )
    });
    let window_s = started.elapsed().as_secs_f64() - WARMUP.as_secs_f64();
    let errors: Vec<&String> = small.errors.iter().chain(&large.errors).collect();
    if !errors.is_empty() {
        eprintln!("predict: failed requests, first errors: {errors:?}");
    }
    let (s, l) = (Summary::of(&small.latency_us), Summary::of(&large.latency_us));
    Ok(Measurement {
        attempted: small.attempted + large.attempted,
        failed: small.failed + large.failed,
        primary: Metric::median("small_p50_ms", "ms", &ms(&small.latency_us)),
        secondary: Metric::median("large_p50_ms", "ms", &ms(&large.latency_us)),
        detail: json!({
            "clients": 2,
            // Not gated: a closed loop's rate is one over its mean
            // latency, which its rare multi-millisecond stalls set.
            "predict_rps": (small.latency_us.len() + large.latency_us.len()) as f64 / window_s,
            "large_points": LARGE_POINTS,
            "small_rps": small.latency_us.len() as f64 / window_s,
            "large_rps": large.latency_us.len() as f64 / window_s,
            "small_us": s.to_json(),
            "large_us": l.to_json(),
        }),
    })
}

/// One `serve-jobs` submission: the body and the spec's parts needed to
/// fit it in-process.
#[derive(Debug, Clone)]
pub struct JobCase {
    pub name: String,
    pub body: Vec<u8>,
    pub data: Dataset,
    pub seed: u64,
}

/// Settings a job spec with the daemon's defaults (pop 60, 40
/// generations, 6 bases) runs under — `JobSpec`'s own mapping.
pub const JOB_POPULATION: usize = 60;
pub const JOB_GENERATIONS: usize = 40;
pub const JOB_MAX_BASES: usize = 6;

pub fn job_cases(data: &OtaData, seed: u64, count: usize) -> Result<Vec<JobCase>, String> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 400));
    let n = data.train_rows().len();
    (0..count)
        .map(|k| {
            let perf = PerfId::ALL[k % PerfId::ALL.len()];
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..JOB_ROWS.min(n) {
                let j = rng.gen_range(i..n);
                idx.swap(i, j);
            }
            idx.truncate(JOB_ROWS.min(n));
            let points: Vec<Vec<f64>> = idx.iter().map(|&i| data.train_rows()[i].clone()).collect();
            let targets: Vec<f64> = idx.iter().map(|&i| data.train_target(perf, i)).collect();
            let name = format!("bench-job-{k}");
            let job_seed = sub_seed(seed, 1000 + k as u64);
            let body = json!({
                "name": name.clone(),
                "var_names": var_names(),
                "points": points.clone(),
                "targets": targets.clone(),
                "population": JOB_POPULATION,
                "generations": JOB_GENERATIONS,
                "max_bases": JOB_MAX_BASES,
                "seed": job_seed,
                "threads": 1,
                "islands": 1,
                "grammar": "full",
                "checkpoint_every": 0,
            });
            Ok(JobCase {
                name,
                body: serde_json::to_string(&body)
                    .map_err(|e| e.to_string())?
                    .into_bytes(),
                data: Dataset::new(var_names(), points, targets).map_err(|e| e.to_string())?,
                seed: job_seed,
            })
        })
        .collect()
}

/// The in-process fit of a job spec: the artifact the daemon must
/// publish, and how long the fit took (ms).
pub fn fit_job_in_process(case: &JobCase) -> Result<(ModelArtifact, f64), String> {
    let started = Instant::now();
    let mut settings = CaffeineSettings::paper();
    settings.population = JOB_POPULATION;
    settings.generations = JOB_GENERATIONS;
    settings.max_bases = JOB_MAX_BASES;
    settings.seed = case.seed;
    settings.stats_every = (JOB_GENERATIONS / 10).max(1);
    let config = RuntimeConfig {
        threads: 1,
        islands: 1,
        checkpoint_every: 0,
        ..RuntimeConfig::default()
    };
    let grammar = GrammarConfig::paper_full(case.data.n_vars());
    let mut runner =
        IslandRunner::new(settings, grammar, config, &case.data).map_err(|e| e.to_string())?;
    let result = runner.run(&case.data).map_err(|e| e.to_string())?;
    let artifact = ModelArtifact::new(var_names(), result.models).map_err(|e| e.to_string())?;
    Ok((artifact, started.elapsed().as_secs_f64() * 1e3))
}

/// One job through the daemon: submit, watch the SSE stream to `done`,
/// fetch the published artifact.
#[derive(Debug, Clone)]
pub struct JobRun {
    pub case: usize,
    /// Submit to the `done` frame, ms.
    pub latency_ms: f64,
    /// Submit to the first frame showing the job running, ms.
    pub admit_ms: Option<f64>,
    pub frames: usize,
    /// Version the `done` frame reports and the fetched artifact's hash.
    pub version: String,
    pub fetched_hash: String,
}

pub fn run_job(
    conn: &mut Conn,
    addr: &str,
    case: &JobCase,
    index: usize,
    tr: &Tracer,
    request: u64,
) -> Result<JobRun, String> {
    tr.span("bench.job", None, request, |p| {
        let started = Instant::now();
        let (status, body) = tr
            .span("client.submit", p, request, |_| {
                conn.request("POST", "/v1/jobs", &case.body, false)
            })
            .map_err(|e| format!("submit: {e}"))?;
        if status != 201 {
            return Err(format!(
                "submit answered {status}: {}",
                String::from_utf8_lossy(&body)
            ));
        }
        let doc: serde_json::Value =
            serde_json::from_str(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string())?;
        let id = doc["id"].as_u64().ok_or("submit reply without an id")?;
        let mut frames = 0;
        let mut admit_ms = None;
        let mut done: Option<serde_json::Value> = None;
        tr.span("client.sse", p, request, |_| {
            client::sse_tail(
                addr,
                &format!("/v1/jobs/{id}/events"),
                Duration::from_secs(30),
                |ev| {
                    frames += 1;
                    let running = ev.event == "progress"
                        || (ev.event == "snapshot" && ev.data.contains("\"state\":\"running\""));
                    if running && admit_ms.is_none() {
                        admit_ms = Some(started.elapsed().as_secs_f64() * 1e3);
                    }
                    if ev.event == "done" {
                        done = serde_json::from_str(&ev.data).ok();
                        return false;
                    }
                    true
                },
            )
        })
        .map_err(|e| format!("events: {e}"))?;
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        let done = done.ok_or("stream ended without a `done` frame")?;
        let version = done["result"]["version"]
            .as_str()
            .ok_or_else(|| format!("job {id} did not publish: {done:?}"))?
            .to_string();
        let (status, body) = tr
            .span("client.fetch", p, request, |_| {
                conn.request(
                    "GET",
                    &format!("/v1/models/{}?version={version}", case.name),
                    &[],
                    true,
                )
            })
            .map_err(|e| format!("fetch: {e}"))?;
        if status != 200 {
            return Err(format!("fetch answered {status}"));
        }
        let fetched =
            ModelArtifact::from_json(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string())?;
        Ok(JobRun {
            case: index,
            latency_ms,
            admit_ms,
            frames,
            version,
            fetched_hash: fetched.content_hash(),
        })
    })
}

pub fn measure_jobs(
    setup: &ServeSetup,
    seed: u64,
    seconds: f64,
    tr: &Tracer,
) -> Result<Measurement, String> {
    let cases = job_cases(&setup.data, seed, JOB_SPECS)?;
    let pool = PredictPool::new(&setup.artifact, seed)?;
    let addr = setup.daemon.addr;
    let addr_text = addr.to_string();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let (job_results, watch) = std::thread::scope(|scope| {
        let pool = &pool;
        let watcher = scope
            .spawn(move || predict_client(
                addr,
                &pool.small,
                sub_seed(seed, 500),
                Some(WATCH_INTERVAL),
                deadline,
                tr,
                1,
            ));
        let mut conn = Conn::new(addr);
        let warm_until = started + WARMUP;
        let mut results = Vec::new();
        let mut k = 0usize;
        while Instant::now() < deadline {
            let index = k % cases.len();
            let submitted = Instant::now();
            let r = run_job(&mut conn, &addr_text, &cases[index], index, tr, k as u64);
            results.push((submitted >= warm_until, r));
            k += 1;
        }
        (results, watcher.join().expect("watch client panicked"))
    });
    let window_s = started.elapsed().as_secs_f64() - WARMUP.as_secs_f64();

    // Every spec that ran is fitted once in-process, after the window.
    let mut reference: Vec<Option<(String, f64)>> = vec![None; cases.len()];
    let mut failed = watch.failed;
    let mut errors: Vec<String> = watch.errors.clone();
    let mut runs = Vec::new();
    let mut latencies = Vec::new();
    for (measured, result) in job_results.iter() {
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                failed += 1;
                errors.push(e.clone());
                continue;
            }
        };
        if reference[run.case].is_none() {
            let (artifact, fit_ms) = fit_job_in_process(&cases[run.case])?;
            reference[run.case] = Some((artifact.content_hash(), fit_ms));
        }
        let expected = &reference[run.case].as_ref().expect("just fitted").0;
        if run.version != *expected || run.fetched_hash != *expected {
            failed += 1;
            errors.push(format!(
                "{}: published {} (fetched {}), in-process fit {expected}",
                cases[run.case].name, run.version, run.fetched_hash
            ));
            continue;
        }
        if *measured {
            latencies.push(run.latency_ms);
        }
        runs.push(run.clone());
    }
    if !errors.is_empty() {
        errors.truncate(5);
        eprintln!("serve-jobs: failures, first errors: {errors:?}");
    }
    let jobs = Summary::of(&latencies);
    let watch_s = Summary::of(&watch.latency_us);
    let frames: Vec<f64> = runs.iter().map(|r| r.frames as f64).collect();
    Ok(Measurement {
        attempted: job_results.len() as u64 + watch.attempted,
        failed,
        primary: Metric::median("job_p50_ms", "ms", &latencies),
        secondary: Metric::median("watch_predict_p50_ms", "ms", &ms(&watch.latency_us)),
        detail: json!({
            "jobs_per_s": latencies.len() as f64 / window_s,
            "watch_predict_rps": watch.latency_us.len() as f64 / window_s,
            "job_specs": cases.len(),
            "jobs": job_results.len(),
            "job_ms": jobs.to_json(),
            "watch_predict_us": watch_s.to_json(),
            "sse_frames_per_job": Summary::of(&frames).median,
        }),
    })
}
