//! The paper's OTA experiment (Sec. 6.1) through the engine crates'
//! public functions: the orthogonal-array sampling plan, the circuit
//! simulations, and one Table I fit per performance.

use std::time::Instant;

use caffeine_circuit::ota::{OtaDesign, OtaPerformance, OtaTestbench, PerfId, OTA_VAR_NAMES};
use caffeine_core::sag::{simplify_front, SagSettings};
use caffeine_core::{pareto, CaffeineSettings, GrammarConfig, ModelArtifact};
use caffeine_doe::{Dataset, OrthogonalArray, ScaledHypercube};
use caffeine_runtime::{IslandRunner, RuntimeConfig};

use crate::trace::{SpanId, Tracer};

/// Population, basis cap and grammar of the paper's Table I runs.
pub const POPULATION: usize = 200;
pub const MAX_BASES: usize = 15;

/// Work budget of one `fit-ota` fit, in basis-generations: the fit
/// stops after the generation at which the population's basis count,
/// summed over generations, reaches this. A fixed generation count lets
/// the work of a fit vary by ±10 % with the seed (measured: 1.36M to
/// 1.69M basis evaluations per six-fit pass at 300 generations); this
/// budget holds it to about ±2 % (0.44M to 0.46M), so run-to-run spread
/// measures the program rather than the seed. Each fit runs ~130
/// generations, long enough that a generation's work outgrows the
/// thread fan-out.
pub const FIT_BUDGET: usize = 60_000;

/// Never reached: the budget ends every fit first.
const GENERATION_CAP: usize = 1_000_000;

/// The simulated training (dx = 10 %) and testing (dx = 3 %) points.
#[derive(Debug, Clone)]
pub struct OtaData {
    train_rows: Vec<Vec<f64>>,
    train_perf: Vec<OtaPerformance>,
    test_rows: Vec<Vec<f64>>,
    test_perf: Vec<OtaPerformance>,
    /// Sample points whose simulation failed.
    pub failures: usize,
}

pub fn var_names() -> Vec<String> {
    OTA_VAR_NAMES.iter().map(|s| s.to_string()).collect()
}

impl OtaData {
    /// Plans and simulates the experiment (`OtaExperiment::generate` of
    /// the bench crate, called piecewise so each layer can be timed).
    pub fn generate(tr: &Tracer, parent: Option<SpanId>) -> Result<OtaData, String> {
        let tb = OtaTestbench::default_07um();
        let nominal = OtaDesign::nominal().to_vec();
        let (train_pts, test_pts) = tr.span("doe.plan", parent, 0, |_| {
            let oa = OrthogonalArray::rao_hamming(5).map_err(|e| e.to_string())?;
            let plan = |dx: f64| {
                ScaledHypercube::relative(&nominal, dx)
                    .and_then(|cube| cube.map_array(&oa))
                    .map_err(|e| e.to_string())
            };
            Ok::<_, String>((plan(0.10)?, plan(0.03)?))
        })?;
        let mut failures = 0;
        let mut simulate = |points: Vec<Vec<f64>>| {
            let mut rows = Vec::with_capacity(points.len());
            let mut perfs = Vec::with_capacity(points.len());
            for (i, p) in points.into_iter().enumerate() {
                let result = tr.span("circuit.simulate", parent, i as u64, |_| {
                    OtaDesign::from_slice(&p)
                        .ok()
                        .and_then(|d| tb.simulate(&d).ok())
                });
                match result {
                    Some(perf) => {
                        rows.push(p);
                        perfs.push(perf);
                    }
                    None => failures += 1,
                }
            }
            (rows, perfs)
        };
        let (train_rows, train_perf) = simulate(train_pts);
        let (test_rows, test_perf) = simulate(test_pts);
        Ok(OtaData {
            train_rows,
            train_perf,
            test_rows,
            test_perf,
            failures,
        })
    }

    pub fn train_rows(&self) -> &[Vec<f64>] {
        &self.train_rows
    }

    /// Learning target of `perf` at training row `i` (`fu` on a log10
    /// scale, as in the paper).
    pub fn train_target(&self, perf: PerfId, i: usize) -> f64 {
        target(&self.train_perf[i], perf)
    }

    /// Train and test tables of one performance.
    pub fn split(&self, perf: PerfId) -> Result<(Dataset, Dataset), String> {
        let table = |rows: &[Vec<f64>], perfs: &[OtaPerformance]| {
            let y = perfs.iter().map(|p| target(p, perf)).collect();
            Dataset::new(var_names(), rows.to_vec(), y).map_err(|e| e.to_string())
        };
        Ok((
            table(&self.train_rows, &self.train_perf)?,
            table(&self.test_rows, &self.test_perf)?,
        ))
    }
}

fn target(p: &OtaPerformance, perf: PerfId) -> f64 {
    let v = p.get(perf);
    if perf.log_scaled() {
        v.log10()
    } else {
        v
    }
}

/// Derives a per-purpose seed from the run seed.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut state = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    rand::splitmix64(&mut state)
}

/// One fitted, simplified front.
#[derive(Debug)]
pub struct Front {
    pub artifact: ModelArtifact,
    pub hash: String,
    /// Wall time of SAG simplification and the test-front filter, in ms.
    pub post_ms: f64,
}

/// The Table I run settings with `seed`; the generation cap is never
/// reached because a budget ends every fit first.
pub fn table1_settings(seed: u64) -> CaffeineSettings {
    let mut settings = CaffeineSettings::paper();
    settings.population = POPULATION;
    settings.max_bases = MAX_BASES;
    settings.generations = GENERATION_CAP;
    settings.seed = seed;
    settings.stats_every = 50;
    settings
}

pub fn table1_runner(train: &Dataset, seed: u64, threads: usize) -> Result<IslandRunner, String> {
    let config = RuntimeConfig {
        threads,
        ..RuntimeConfig::default()
    };
    let grammar = GrammarConfig::paper_full(train.n_vars());
    IslandRunner::new(table1_settings(seed), grammar, config, train).map_err(|e| e.to_string())
}

/// Steps `runner` one generation at a time until the population's basis
/// count, summed over generations, reaches `budget`; returns each
/// generation's wall time in ms.
pub fn step_to_budget(
    runner: &mut IslandRunner,
    train: &Dataset,
    budget: usize,
    tr: &Tracer,
    parent: Option<SpanId>,
    request: u64,
) -> Result<Vec<f64>, String> {
    let evaluator = runner.evaluator(train).map_err(|e| e.to_string())?;
    let mut spent = 0usize;
    let mut generation_ms = Vec::new();
    while spent < budget {
        let started = Instant::now();
        tr.span("runtime.generation", parent, request, |_| {
            runner.run_generations_with(&evaluator, train, 1)
        })
        .map_err(|e| e.to_string())?;
        generation_ms.push(started.elapsed().as_secs_f64() * 1e3);
        spent += runner.islands()[0]
            .population
            .iter()
            .map(|ind| ind.bases.len())
            .sum::<usize>();
    }
    Ok(generation_ms)
}

/// One Table I fit: `IslandRunner` until `budget` basis-generations,
/// then SAG simplification and the test-front filter. The artifact holds
/// the simplified (train-error, complexity) front.
#[allow(clippy::too_many_arguments)]
pub fn fit_front(
    train: &Dataset,
    test: &Dataset,
    seed: u64,
    threads: usize,
    budget: usize,
    tr: &Tracer,
    parent: Option<SpanId>,
    request: u64,
) -> Result<Front, String> {
    let mut runner = tr.span("runtime.init", parent, request, |_| {
        table1_runner(train, seed, threads)
    })?;
    step_to_budget(&mut runner, train, budget, tr, parent, request)?;
    let result = tr.span("runtime.finish", parent, request, |_| {
        runner.finish(train).map_err(|e| e.to_string())
    })?;
    let settings = table1_settings(seed);
    let post_started = Instant::now();
    let sag = SagSettings {
        min_improvement: 1.0,
        metric: settings.metric,
        complexity: settings.complexity,
    };
    let simplified = tr.span("sag.front", parent, request, |_| {
        pareto::train_tradeoff(&simplify_front(&result.models, train, test, &sag))
    });
    let test_front = tr.span("pareto.test_front", parent, request, |_| {
        pareto::test_tradeoff(&simplified)
    });
    let post_ms = post_started.elapsed().as_secs_f64() * 1e3;
    if test_front.is_empty() {
        return Err("the test-error front is empty".into());
    }
    let artifact = ModelArtifact::new(var_names(), simplified).map_err(|e| e.to_string())?;
    let hash = artifact.content_hash();
    Ok(Front {
        artifact,
        hash,
        post_ms,
    })
}
