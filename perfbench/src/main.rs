//! End-to-end and per-layer benchmark of the aaod simulator.
//!
//! ```text
//! aaod-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! aaod-perfbench --selftest
//! aaod-perfbench --write-manifest <repo root>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that gives the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod cpu;
mod guard;
mod layers;
mod manifest;
mod serve;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aaod_core::{Engine, EngineConfig};
use aaod_workload::mixes;

use guard::Outcome;
use serve::{Modelled, Served};
use spans::Spans;
use workloads::Setup;

/// Set-ups at the start of a run. An end-to-end run sets up once more
/// before each timed serve, and `setup_s` is the median of them all.
const SETUP_REPS: usize = 5;
/// Fewest timed serves per end-to-end run, however long they take.
const MIN_SERVES: usize = 3;
/// How long the self-test waits for the deadlock repro.
const SELFTEST_TIMEOUT: Duration = Duration::from_secs(10);

/// The open worker-error deadlock: a default engine over the standard
/// bank, fed the DSP/AI mix whose ids that bank lacks. It must end in
/// a typed error or a reported timeout, never hang the benchmark.
pub fn selftest(timeout: Duration) -> Outcome<aaod_core::EngineResult> {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let workload = Arc::new(mixes::kernel_workload(200, 9));
    guard::run(timeout, move || engine.serve(&workload))
}

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Selftest,
    WriteManifest(PathBuf),
}

fn parse_args() -> Result<Mode, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = manifest::RUN_SECONDS;
    let mut trace = false;
    while let Some(flag) = args.next() {
        if flag == "--selftest" {
            return Ok(Mode::Selftest);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?.max(1),
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
            },
            "--write-manifest" => return Ok(Mode::WriteManifest(PathBuf::from(value))),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// The median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The tallies and metrics of one run, printed as its last line.
#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a whole serve of `requests` requests that failed.
    pub fn fail(&mut self, requests: usize, what: String) {
        self.failed += requests;
        self.errors.push(what);
    }

    /// Records a correctness violation.
    pub fn wrong(&mut self, what: String) {
        self.errors.push(what);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn json(&self, trace: bool) -> String {
        let units: Vec<(&str, &str)> = if trace {
            manifest::PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit))
                .collect()
        } else {
            manifest::END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect()
        };
        let metrics: Vec<String> = units
            .iter()
            .filter_map(|(name, unit)| {
                let v = self.metrics.get(name)?;
                let v = if v.is_finite() { *v } else { 0.0 };
                Some(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ))
            })
            .collect();
        let complete = metrics.len() == units.len();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty() && complete,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The reference outputs of the software oracle for every request,
/// and the time spent inside `execute_software`.
pub fn oracle(setup: &Setup) -> Result<(Vec<Vec<u8>>, Duration), String> {
    let w = &setup.workload;
    let mut software = Duration::ZERO;
    let mut reference = Vec::with_capacity(w.len());
    for (i, req) in w.requests().iter().enumerate() {
        let input = w.input(i);
        let t = Instant::now();
        let out = setup
            .bank
            .execute_software(req.algo_id, &input)
            .map_err(|e| format!("oracle failed on request {i}: {e}"))?;
        software += t.elapsed();
        reference.push(out);
    }
    Ok((reference, software))
}

/// Sets up `SETUP_REPS` times and keeps the last set-up, with every
/// set-up's CPU time and generation wall time.
fn set_up(
    spans: &mut Spans,
    spec: &'static workloads::Spec,
    seed: u64,
) -> (Setup, Vec<f64>, Vec<f64>) {
    let mut cpus = Vec::new();
    let mut gens = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let cpu = cpu::thread_s();
        let (setup, _) = spans.time("setup", |_| Setup::new(spec, seed));
        cpus.push(cpu::thread_s() - cpu);
        gens.push(setup.gen.as_secs_f64());
        last = Some(setup);
    }
    (last.expect("at least one set-up"), cpus, gens)
}

/// A serve that passed the correctness gate.
pub struct Checked {
    pub served: Served,
    /// Wall seconds, timed on the serving thread.
    pub wall: f64,
    /// Process CPU seconds the serve used.
    pub cpu: f64,
    /// Requests completed in time.
    pub completed: usize,
}

/// Serves the whole workload through `target` under a span named
/// `name`, applies the correctness gate, and checks that the modelled
/// results equal those of the first serve recorded in `first`. Returns
/// `None` once anything failed (the report says what).
pub fn serve_checked(
    spans: &mut Spans,
    name: &'static str,
    target: &workloads::Target,
    setup: &Setup,
    reference: &[Vec<u8>],
    first: &mut Option<Modelled>,
    report: &mut Report,
) -> Option<Checked> {
    let n = setup.workload.len();
    report.attempted += n;
    let cpu = cpu::process_s();
    let (outcome, _) = spans.time(name, |_| serve::target(target, setup));
    let cpu = cpu::process_s() - cpu;
    let (served, wall) = match outcome {
        Outcome::Done(served, wall) => (served, wall),
        other => {
            report.fail(n, other.failure().unwrap_or_default());
            return None;
        }
    };
    let completed = match serve::check(&served, setup, reference) {
        Ok(c) => c,
        Err(e) => {
            report.wrong(e);
            return None;
        }
    };
    let modelled = Modelled::of(&served);
    match first {
        None => *first = Some(modelled),
        Some(m) if *m != modelled => {
            report.wrong(format!(
                "{name}: modelled results differ between serves of one run"
            ));
            return None;
        }
        Some(_) => {}
    }
    Some(Checked {
        served,
        wall: wall.as_secs_f64(),
        cpu,
        completed,
    })
}

/// Times whole-workload serves for `seconds` (at least `MIN_SERVES`),
/// timing one more set-up with seed `seed` before each into
/// `setup_cpus`.
fn end_to_end(
    spans: &mut Spans,
    setup: &Setup,
    seed: u64,
    reference: &[Vec<u8>],
    seconds: u64,
    setup_cpus: &mut Vec<f64>,
    report: &mut Report,
) {
    let n = setup.workload.len();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let (mut completed, mut submitted) = (0usize, 0usize);
    let mut first: Option<Modelled> = None;
    let start = Instant::now();
    while walls.len() < MIN_SERVES || start.elapsed() < Duration::from_secs(seconds) {
        // A set-up lasts milliseconds, so its time swings with the
        // machine's state of the moment; sampling it between serves
        // spreads the samples over the whole run.
        let cpu = cpu::thread_s();
        spans.time("setup", |_| drop(Setup::new(setup.spec, seed)));
        setup_cpus.push(cpu::thread_s() - cpu);
        submitted += n;
        let Some(c) = serve_checked(
            spans,
            "serve",
            &setup.target,
            setup,
            reference,
            &mut first,
            report,
        ) else {
            break;
        };
        walls.push(c.wall);
        cpus.push(c.cpu);
        completed += c.completed;
        if walls.len() == 1 {
            // Later serves only add allocator fragmentation.
            report.set("peak_rss_mb", peak_rss_mib());
        }
    }
    let rates: Vec<f64> = cpus.iter().map(|&c| ratio(n as f64, c)).collect();
    report.set("host_req_per_cpu_s", median(&rates));
    report.set("goodput", ratio(completed as f64, submitted as f64));
    if let Some(m) = first {
        let lat = m.latency().summary_ns();
        report.set("model_req_per_s", ratio(n as f64, m.makespan().as_secs()));
        report.set("model_latency_mean_us", lat.mean / 1e3);
        println!(
            "# {} serves, wall s {walls:?}, cpu s {cpus:?}; modelled latency over {} samples: \
             mean {:.3} us, p50 {:.3} us, p99 {:.3} us",
            walls.len(),
            lat.count,
            lat.mean / 1e3,
            lat.p50 / 1e3,
            lat.p99 / 1e3
        );
    }
}

fn run(args: Args) -> ExitCode {
    let Some(spec) = workloads::spec(&args.workload) else {
        let names: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
        eprintln!("unknown workload {:?}; one of {names:?}", args.workload);
        return ExitCode::from(2);
    };
    let seed = args.seed.unwrap_or(spec.seed);
    let run_id = format!("{}-seed{}-trace{}", spec.name, seed, u8::from(args.trace));
    let mut spans = Spans::new(run_id.clone());
    let mut report = Report::default();
    spans.time("run", |spans| {
        let (setup, mut setup_cpus, gens) = set_up(spans, spec, seed);
        report.set("workload.gen_ms", median(&gens) * 1e3);
        let (oracle, _) = spans.time("algos.software", |_| oracle(&setup));
        let (reference, software) = match oracle {
            Ok(r) => r,
            Err(e) => return report.wrong(e),
        };
        report.set(
            "algos.software_us_per_req",
            software.as_secs_f64() * 1e6 / setup.workload.len() as f64,
        );
        if args.trace {
            layers::run(spans, &setup, &reference, args.seconds, &mut report);
        } else {
            end_to_end(
                spans,
                &setup,
                seed,
                &reference,
                args.seconds,
                &mut setup_cpus,
                &mut report,
            );
        }
        report.set("setup_s", median(&setup_cpus));
    });

    let dir = PathBuf::from(".bench_out");
    let path = dir.join(format!("spans-{run_id}.jsonl"));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans.to_jsonl()))
    {
        eprintln!("could not write {}: {e}", path.display());
    }
    for e in &report.errors {
        eprintln!("FAILED: {e}");
    }
    println!("{}", report.json(args.trace));
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(Mode::Run(args)) => run(args),
        Ok(Mode::Selftest) => {
            let out = selftest(SELFTEST_TIMEOUT);
            let why = out.failure().unwrap_or_else(|| "Ok".into());
            if matches!(out, Outcome::Error(_) | Outcome::TimedOut(_)) {
                println!("selftest passed: the unknown-algorithm serve reported {why}");
                ExitCode::SUCCESS
            } else {
                eprintln!("selftest failed: wanted a typed error or a timeout, got {why}");
                ExitCode::FAILURE
            }
        }
        Ok(Mode::WriteManifest(root)) => {
            let files = [
                (root.join("BENCHMARK.json"), manifest::benchmark_json()),
                (
                    root.join("perfbench").join("README.md"),
                    manifest::readme_md(),
                ),
            ];
            for (path, text) in files {
                if let Err(e) = std::fs::write(&path, text) {
                    eprintln!("could not write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("wrote {}", path.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
