//! The traced run (`--trace 1`): the workload's window once with
//! tracing off and once on (their difference is the tracing overhead),
//! then one timed probe per layer, each a span around calls into that
//! layer's public functions on the workload's own inputs.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use caffeine_circuit::ota::PerfId;
use caffeine_core::expr::{EvalContext, Tape, TapeVm};
use caffeine_core::gp::{GpOperators, Individual, OperatorSettings};
use caffeine_core::sag::{simplify_front, SagSettings};
use caffeine_core::{
    fit_linear_weights_cached, nsga2, phases, DatasetEvaluator, Evaluator, FitScratch,
    GrammarConfig,
};
use caffeine_runtime::ParallelEvaluator;
use caffeine_serve::http::{read_request_buffered, Response, DEFAULT_MAX_BODY_BYTES};
use caffeine_serve::{route, JobSpec, Metrics, ModelRegistry, WorkerPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Value};

use crate::http::Conn;
use crate::ota::{step_to_budget, sub_seed, table1_runner, table1_settings, OtaData, FIT_BUDGET};
use crate::serve::{self, fit_job_in_process, job_cases, run_job, PredictPool, MODEL_ID};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{fit_ota, nproc, Args, Measurement, Metric, Workload};

/// Jobs the layer probes run through the daemon; each spec is also fitted
/// in-process three times, and the fastest fit is subtracted from the
/// job's latency (a job is ~35 ms, its overhead ~3 ms).
const PROBE_JOBS: usize = 12;

fn median(xs: &[f64]) -> f64 {
    Summary::of(xs).median
}

/// The workload's window untraced then traced, then every layer probe.
pub fn run_traced(args: &Args) -> Result<(Vec<Metric>, Measurement, Value), String> {
    let tr = Tracer::new(true);
    let off = Tracer::new(false);
    let half = args.seconds / 2.0;
    let (data, untraced, traced) = match args.workload {
        Workload::FitOta => {
            let setup = fit_ota::setup(&tr)?;
            let a = fit_ota::measure_passes(&setup, args.seed, half, 1, &off)?;
            let b = fit_ota::measure_passes(&setup, args.seed, half, 1, &tr)?;
            (setup.data, a, b)
        }
        Workload::Predict | Workload::ServeJobs => {
            let setup = serve::setup(args.seed, &tr)?;
            let run = |t: &Tracer| match args.workload {
                Workload::Predict => serve::measure_predict(&setup, args.seed, half, t),
                _ => serve::measure_jobs(&setup, args.seed, half, t),
            };
            let (a, b) = (run(&off), run(&tr));
            setup.daemon.stop()?;
            (setup.data, a?, b?)
        }
    };
    let overhead_pct = (traced.primary.value / untraced.primary.value - 1.0) * 100.0;
    let mut probes = Probes {
        tr: &tr,
        seed: args.seed,
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    probes.circuit_doe(&data, &tr);
    probes.engine(&data)?;
    probes.serving(&data)?;
    probes.push("trace.overhead_pct", "%", overhead_pct);
    if !probes.errors.is_empty() {
        eprintln!("layer probes: failures: {:?}", probes.errors);
    }

    let detail = json!({
        "trace": {
            "spans": tr.span_count(),
            "requests": tr.request_count(),
            "self_ms_by_layer": tr.self_ms_by_layer(),
            "primary_untraced": untraced.primary.value,
            "primary_traced": traced.primary.value,
        },
        "workload_traced": traced.detail.clone(),
    });
    let measurement = Measurement {
        attempted: untraced.attempted + traced.attempted + probes.attempted,
        failed: untraced.failed + traced.failed + probes.failed,
        ..traced
    };
    Ok((probes.metrics, measurement, detail))
}

struct Probes<'a> {
    tr: &'a Tracer,
    seed: u64,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Probes<'_> {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric::new(name, unit, value));
    }

    /// Median of the per-call durations of spans named `span`, scaled
    /// from ns by `scale`.
    fn push_span(&mut self, name: &'static str, unit: &'static str, span: &str, scale: f64) {
        let value = median(&self.tr.per_call_ns(span)) / scale;
        self.push(name, unit, value);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// From the set-up's spans.
    fn circuit_doe(&mut self, data: &OtaData, tr: &Tracer) {
        self.push_span("circuit.simulate_us", "us", "circuit.simulate", 1e3);
        self.push("circuit.failures", "count", data.failures as f64);
        let plan = tr.per_call_ns("doe.plan");
        self.push("doe.plan_us", "us", median(&plan) / 1e3);
    }

    /// Engine layers on a late-generation population of a Table I fit.
    fn engine(&mut self, data: &OtaData) -> Result<(), String> {
        let tr = self.tr;
        let (train, test) = data.split(PerfId::ALL[0])?;
        let seed = sub_seed(self.seed, 0);
        let mut runner = table1_runner(&train, seed, 1)?;
        let gens = step_to_budget(&mut runner, &train, FIT_BUDGET, tr, None, 0)?;
        let k = 10.min(gens.len());
        self.push("runtime.gen_early_ms", "ms", median(&gens[..k]));
        self.push("runtime.gen_late_ms", "ms", median(&gens[gens.len() - k..]));
        let last = runner.last_phases().map_or(f64::NAN, |b| b.wall * 1e3);
        self.push("runtime.last_phases_wall_ms", "ms", last);

        let settings = table1_settings(seed);
        let grammar = GrammarConfig::paper_full(train.n_vars());
        let parents: Vec<Individual> = runner.islands()[0].population.clone();
        let objectives: Vec<Vec<f64>> = parents.iter().map(|i| i.objectives().to_vec()).collect();
        let ops = GpOperators::new(
            &grammar,
            OperatorSettings {
                param_mutation_weight: settings.param_mutation_weight,
                max_bases: settings.max_bases,
                ..OperatorSettings::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(sub_seed(self.seed, 600));
        let ranked = nsga2::rank_population(&objectives);
        let offspring: Vec<Individual> = (0..parents.len())
            .map(|i| {
                let p1 = &parents[ranked.tournament(&mut rng)];
                let p2 = &parents[ranked.tournament(&mut rng)];
                tr.span("gp.make_offspring", None, i as u64, |_| {
                    ops.make_offspring(&mut rng, p1, p2)
                })
            })
            .collect();
        self.push_span("gp.offspring_us", "us", "gp.make_offspring", 1e3);

        // Tape compile and evaluation, one individual's bases per span.
        let pm = train.point_matrix();
        let ctx = EvalContext::new(grammar.weights);
        let mut vm = TapeVm::new();
        let mut tapes: Vec<Tape> = Vec::new();
        for (i, ind) in offspring.iter().enumerate() {
            let n = ind.bases.len();
            tapes.resize_with(n, Tape::default);
            tr.span_n("expr.compile_into", None, i as u64, n as u32, |_| {
                for (tape, basis) in tapes.iter_mut().zip(&ind.bases) {
                    tape.compile_into(basis, &ctx);
                }
            });
            let points = (n * pm.n_points()) as u32;
            tr.span_n("expr.eval_point", None, i as u64, points, |_| {
                for tape in &tapes[..n] {
                    let column = vm.eval(tape, &pm);
                    vm.recycle(black_box(column));
                }
            });
        }
        self.push_span("expr.compile_ns", "ns", "expr.compile_into", 1.0);
        self.push_span("expr.eval_ns_per_point", "ns", "expr.eval_point", 1.0);

        // One generation's fits through one scratch, as the evaluator
        // does for a batch.
        let mut scratch = FitScratch::new();
        for (i, ind) in offspring.iter().enumerate() {
            tr.span("fit.fit_linear_weights_cached", None, i as u64, |_| {
                black_box(fit_linear_weights_cached(
                    &ind.bases,
                    &pm,
                    train.targets(),
                    &ctx,
                    &mut scratch,
                ))
            });
        }
        self.push_span("fit.solve_us", "us", "fit.fit_linear_weights_cached", 1e3);

        // The parallel evaluator over the whole offspring batch.
        let mut batch_ms = [Vec::new(), Vec::new()];
        let mut hit_ratio = [0.0; 2];
        let mut evaluated = offspring.clone();
        for (mode, threads) in [1, nproc()].into_iter().enumerate() {
            let mut inner =
                DatasetEvaluator::new(&settings, &grammar, &train).map_err(|e| e.to_string())?;
            let acc = Arc::new(phases::engine_accumulator());
            inner.set_phases(Arc::clone(&acc));
            let evaluator = ParallelEvaluator::new(inner, threads);
            let name = if mode == 0 {
                "runtime.evaluate_all_1t"
            } else {
                "runtime.evaluate_all_nt"
            };
            for rep in 0..7 {
                let mut batch = offspring.clone();
                let started = Instant::now();
                tr.span(name, None, rep, |_| evaluator.evaluate_all(&mut batch));
                batch_ms[mode].push(started.elapsed().as_secs_f64() * 1e3);
                evaluated = batch;
            }
            let (hits, misses) = (acc.get(phases::CACHE_HITS), acc.get(phases::CACHE_MISSES));
            hit_ratio[mode] = hits as f64 / (hits + misses).max(1) as f64;
        }
        let (b1, bn) = (median(&batch_ms[0]), median(&batch_ms[1]));
        self.push("fit.cache_hit_ratio_1t", "ratio", hit_ratio[0]);
        self.push("fit.cache_hit_ratio_nt", "ratio", hit_ratio[1]);
        self.push("runtime.eval_batch_1t_ms", "ms", b1);
        self.push("runtime.eval_batch_nt_ms", "ms", bn);
        self.push("runtime.par_speedup", "x", b1 / bn);

        // Environmental selection over parents and evaluated offspring.
        let mut combined = parents.clone();
        combined.extend(evaluated);
        let combined_objs: Vec<Vec<f64>> =
            combined.iter().map(|i| i.objectives().to_vec()).collect();
        for rep in 0..20 {
            tr.span("nsga2.rank_and_select", None, rep, |_| {
                black_box(nsga2::rank_population(&objectives));
                black_box(nsga2::environmental_selection(
                    &combined_objs,
                    parents.len(),
                ))
            });
        }
        self.push_span("nsga2.select_us", "us", "nsga2.rank_and_select", 1e3);

        let result = runner.finish(&train).map_err(|e| e.to_string())?;
        let sag = SagSettings {
            min_improvement: 1.0,
            metric: settings.metric,
            complexity: settings.complexity,
        };
        for rep in 0..5 {
            tr.span("sag.simplify_front", None, rep, |_| {
                black_box(simplify_front(&result.models, &train, &test, &sag))
            });
        }
        self.push_span("sag.front_ms", "ms", "sag.simplify_front", 1e6);
        Ok(())
    }

    /// Serving layers: transport, HTTP codec, routing, JSON codec, model,
    /// registry, metrics, pool, and the job path.
    fn serving(&mut self, data: &OtaData) -> Result<(), String> {
        let tr = self.tr;
        self.loopback(2000)?;

        let setup = serve::setup_with(data.clone(), self.seed, &Tracer::new(false))?;
        let result = self.daemon_probes(&setup, data);
        let stopped = setup.daemon.stop();
        result?;
        stopped?;

        let pool = PredictPool::new(&setup.artifact, self.seed)?;
        // Spans carry the names of the metrics they feed: parse, decode,
        // predict, encode. The handler's decode (`parse_predict_body`) and
        // reply (`json!` in the predict route) are private to
        // `caffeine-serve`, so `codec.*` times a replica of those
        // `serde_json` calls; it must be kept in step with `handlers.rs`.
        let classes = [
            (
                &pool.small[0],
                500,
                [
                    "http.parse_small_us",
                    "codec.decode_small_us",
                    "model.predict_small_us",
                    "codec.encode_small_us",
                ],
            ),
            (
                &pool.large[0],
                100,
                [
                    "http.parse_large_us",
                    "codec.decode_large_us",
                    "model.predict_large_us",
                    "codec.encode_large_us",
                ],
            ),
        ];
        let version = setup.artifact.content_hash();
        for (case, reps, [parse, decode, predict, encode]) in classes {
            let raw = [
                format!(
                    "POST /v1/models/{MODEL_ID}/predict HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
                    case.body.len()
                )
                .into_bytes(),
                case.body.clone(),
            ]
            .concat();
            let text = std::str::from_utf8(&case.body).map_err(|e| e.to_string())?;
            for rep in 0..reps {
                let mut carry = Vec::new();
                let parsed = tr.span(parse, None, rep, |_| {
                    read_request_buffered(&mut carry, &mut raw.as_slice(), DEFAULT_MAX_BODY_BYTES)
                });
                let points = tr.span(decode, None, rep, |_| {
                    serde_json::from_str::<Value>(text).and_then(|v| {
                        <Vec<Vec<f64>> as serde::Deserialize>::from_value(&v["points"])
                    })
                });
                let predictions = tr.span(predict, None, rep, |_| {
                    setup.artifact.predict(None, &case.points)
                });
                let ok = parsed.is_ok_and(|r| r.body == case.body)
                    && points.as_ref().is_ok_and(|p| *p == case.points)
                    && predictions
                        .as_ref()
                        .is_ok_and(|p| crate::http::same_bits(p, &case.expected));
                self.check(ok, || {
                    format!("{predict}: layers disagree with the request")
                });
                let preds = predictions.unwrap_or_default();
                tr.span(encode, None, rep, |_| {
                    let _ = black_box(serde_json::to_string(&json!({
                        "model_id": MODEL_ID,
                        "version": version.clone(),
                        "n_points": preds.len(),
                        "predictions": preds,
                    })));
                });
            }
            for name in [parse, decode, predict, encode] {
                self.push_span(name, "us", name, 1e3);
            }
        }

        // A small predict's response, written through a counting writer.
        let body = serde_json::to_string(&json!({
            "model_id": MODEL_ID,
            "version": version.clone(),
            "n_points": 1,
            "predictions": pool.small[0].expected.clone(),
        }))
        .map_err(|e| e.to_string())?;
        let response = Response::json(200, body).with_header("x-model-version", version.clone());
        let mut writes = 0;
        for rep in 0..500 {
            let mut w = CountingWriter::default();
            tr.span("http.write_to", None, rep, |_| {
                response.write_to(&mut w, true)
            })
            .map_err(|e| e.to_string())?;
            writes = w.writes;
        }
        self.push_span("http.write_us", "us", "http.write_to", 1e3);
        self.push("http.writes_per_response", "count", writes as f64);

        for rep in 0..20 {
            tr.span_n("router.route", None, rep, 1000, |_| {
                for _ in 0..1000 {
                    let _ = black_box(route(
                        black_box("POST"),
                        black_box("/v1/models/ota/predict"),
                    ));
                }
            });
        }
        self.push_span("router.route_ns", "ns", "router.route", 1.0);

        let registry = ModelRegistry::in_memory();
        registry
            .publish(MODEL_ID, setup.artifact.clone())
            .map_err(|e| e.message.clone())?;
        for rep in 0..1000 {
            let got = tr.span("registry.get", None, rep, |_| registry.get(MODEL_ID, None));
            self.check(got.is_some(), || "registry lost the published front".into());
        }
        self.push_span("registry.get_us", "us", "registry.get", 1e3);

        self.metrics_probe();
        self.pool_probe()?;
        Ok(())
    }

    /// Raw `std::net` ping-pong of 64 bytes: the transport floor.
    fn loopback(&mut self, round_trips: usize) -> Result<(), String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let echo = std::thread::spawn(move || -> std::io::Result<()> {
            let (mut s, _) = listener.accept()?;
            s.set_nodelay(true)?;
            let mut buf = [0u8; 64];
            loop {
                match s.read_exact(&mut buf) {
                    Ok(()) => s.write_all(&buf)?,
                    Err(_) => return Ok(()),
                }
            }
        });
        let run = || -> std::io::Result<Vec<f64>> {
            let mut s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            let mut buf = [7u8; 64];
            let mut rtt = Vec::with_capacity(round_trips);
            for i in 0..round_trips {
                let started = Instant::now();
                self.tr.span("net.ping_pong", None, i as u64, |_| {
                    s.write_all(&buf)?;
                    s.read_exact(&mut buf)
                })?;
                rtt.push(started.elapsed().as_secs_f64() * 1e6);
            }
            Ok(rtt)
        };
        let rtt = run();
        let joined = echo.join();
        let rtt = rtt.map_err(|e| e.to_string())?;
        joined
            .map_err(|_| "echo thread panicked".to_string())?
            .map_err(|e| e.to_string())?;
        self.push("net.loopback_rtt_us", "us", median(&rtt[rtt.len() / 10..]));
        Ok(())
    }

    /// Layers seen through the running daemon: `/healthz`, job decode,
    /// and jobs end to end against in-process fits.
    fn daemon_probes(&mut self, setup: &serve::ServeSetup, data: &OtaData) -> Result<(), String> {
        let tr = self.tr;
        let mut conn = Conn::new(setup.daemon.addr);
        let mut healthz = Vec::new();
        for rep in 0..1000 {
            let started = Instant::now();
            let r = tr.span("http.healthz", None, rep, |_| {
                conn.request("GET", "/healthz", &[], true)
            });
            healthz.push(started.elapsed().as_secs_f64() * 1e6);
            self.check(matches!(r, Ok((200, _))), || "GET /healthz failed".into());
        }
        self.push("http.healthz_p50_us", "us", median(&healthz[100..]));

        let cases = job_cases(data, sub_seed(self.seed, 700), PROBE_JOBS)?;
        for (i, case) in cases.iter().enumerate() {
            tr.span("jobs.spec_from_json", None, i as u64, |_| {
                JobSpec::from_json(&case.body).map(|_| ())
            })
            .map_err(|e| e.message)?;
        }
        self.push_span("jobs.spec_decode_ms", "ms", "jobs.spec_from_json", 1e6);

        let addr = setup.daemon.addr.to_string();
        let (mut admit, mut overhead, mut frames) = (Vec::new(), Vec::new(), Vec::new());
        let registry = ModelRegistry::in_memory();
        for (i, case) in cases.iter().enumerate() {
            let run = run_job(&mut conn, &addr, case, i, tr, 1_000_000 + i as u64)?;
            let (artifact, mut fit_ms) = fit_job_in_process(case)?;
            for _ in 0..2 {
                fit_ms = fit_ms.min(fit_job_in_process(case)?.1);
            }
            let hash = artifact.content_hash();
            self.check(run.version == hash && run.fetched_hash == hash, || {
                format!(
                    "{}: published {}, in-process {hash}",
                    case.name, run.version
                )
            });
            admit.extend(run.admit_ms);
            overhead.push(run.latency_ms - fit_ms);
            frames.push(run.frames as f64);
            tr.span("registry.publish", None, i as u64, |_| {
                registry.publish(&case.name, artifact)
            })
            .map_err(|e| e.message)?;
        }
        self.push("jobs.admit_ms", "ms", median(&admit));
        self.push("jobs.overhead_ms", "ms", median(&overhead));
        self.push("sse.frames_per_job", "count", median(&frames));
        self.push_span("registry.publish_ms", "ms", "registry.publish", 1e6);
        Ok(())
    }

    /// `Metrics::observe` alone and from `nproc` threads at once.
    fn metrics_probe(&mut self) {
        let tr = self.tr;
        let metrics = Metrics::new();
        let observe = |m: &Metrics, rep: u64, name: &'static str| {
            tr.span_n(name, None, rep, 1000, |_| {
                for _ in 0..1000 {
                    m.observe("models.predict", 200, Duration::from_micros(150));
                }
            })
        };
        for rep in 0..20 {
            observe(&metrics, rep, "metrics.observe");
        }
        std::thread::scope(|scope| {
            for t in 0..nproc() as u64 {
                let m = &metrics;
                scope.spawn(move || {
                    for rep in 0..20 {
                        observe(m, t << 32 | rep, "metrics.observe_contended");
                    }
                });
            }
        });
        self.push_span("metrics.observe_ns", "ns", "metrics.observe", 1.0);
        self.push_span(
            "metrics.observe_nt_ns",
            "ns",
            "metrics.observe_contended",
            1.0,
        );
    }

    /// `WorkerPool::try_execute` to the handler starting, one task at a
    /// time on one worker.
    fn pool_probe(&mut self) -> Result<(), String> {
        let (tx, rx) = std::sync::mpsc::channel::<Duration>();
        let tx = std::sync::Mutex::new(tx);
        let pool = WorkerPool::new(1, 64, move |sent: Instant| {
            let waited = sent.elapsed();
            if let Ok(tx) = tx.lock() {
                let _ = tx.send(waited);
            }
        });
        let mut handoff = Vec::new();
        for rep in 0..1000 {
            let waited = self.tr.span("pool.try_execute", None, rep, |_| {
                pool.try_execute(Instant::now())
                    .map_err(|_| "pool refused a task".to_string())?;
                rx.recv_timeout(Duration::from_secs(5))
                    .map_err(|e| e.to_string())
            })?;
            handoff.push(waited.as_secs_f64() * 1e6);
        }
        pool.shutdown();
        self.push("pool.handoff_us", "us", median(&handoff[100..]));
        Ok(())
    }
}

/// Counts `write` calls: each is one syscall, and with `TCP_NODELAY` one
/// segment, when the writer is a socket.
#[derive(Debug, Default)]
struct CountingWriter {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
