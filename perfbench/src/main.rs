//! The repository benchmark (see README.md): runs one named workload in
//! this process for a fixed host-time budget, checks the simulated outputs,
//! and prints every metric by name and unit. The last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```console
//! $ python3 perfbench/run.py --workload ref-40c --seed 42 --seconds 30 --trace 0
//! ```
//!
//! Host times are scaled to a reference host speed, measured by a
//! calibration kernel run between calls (see `host.rs`).
//!
//! `--trace 0` reports the end-to-end metrics of untraced calls. `--trace 1`
//! alternates untraced and traced calls, records spans around the calls
//! into each layer's public functions, and reports the per-layer metrics.

mod host;
mod micro;
mod spans;

use garibaldi_sim::{
    EngineConfig, EngineStats, EstimatorKind, ExperimentScale, LlcScheme, MemoryHierarchy,
    RunResult, SimRunner, SystemConfig, TrainMode,
};
use garibaldi_trace::{random_shared_mixes, WorkloadMix};
use host::HostClock;
use spans::Recorder;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The repository's bound on parallel-vs-serial error, in percent (the
/// hard gate of `tests/fidelity.rs`).
const FIDELITY_BOUND_PCT: f64 = 2.0;
/// The seed whose simulated outputs `reference.txt` records.
const RECORDED_SEED: u64 = 42;
/// Worker threads of the parallel engine, at most the host's CPUs.
const WORKERS: usize = 2;
/// Simulated outputs at [`RECORDED_SEED`], one `<workload> <call> <name> <value>` per line.
const REFERENCE: &str = include_str!("../reference.txt");

#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Serial,
    Parallel,
}

impl Engine {
    fn other(self) -> Self {
        match self {
            Engine::Serial => Engine::Parallel,
            Engine::Parallel => Engine::Serial,
        }
    }
}

/// One benchmark workload: a simulated system, its core mix, its length,
/// and the engine whose host cost it measures.
struct Workload {
    name: &'static str,
    engine: Engine,
    cores: usize,
    factor: f64,
    records: u64,
    warmup: u64,
    mix: fn(usize) -> WorkloadMix,
    /// The mechanism this workload exists to exercise, which must not go
    /// dormant: its name and its count in a run's result.
    live: (&'static str, fn(&RunResult) -> u64),
}

/// The four server workloads of the paper's reference point, cycled over the cores.
fn server_mix(cores: usize) -> WorkloadMix {
    let names = ["tpcc", "twitter", "kafka", "verilator"];
    WorkloadMix { slots: (0..cores).map(|i| names[i % 4].to_string()).collect() }
}

/// The shared-data mix `random_shared_mixes` draws with seed 42
/// (ocean×4, barnes, radix×2, raytrace). The composition is part of the
/// workload; the run's seed drives the traces, not the mix.
fn shared_mix(cores: usize) -> WorkloadMix {
    random_shared_mixes(1, cores, 42).remove(0)
}

fn garibaldi_stat(r: &RunResult, f: fn(&garibaldi::GaribaldiStats) -> u64) -> u64 {
    r.garibaldi.as_ref().map_or(0, |g| f(&g.stats))
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ref-40c",
        engine: Engine::Parallel,
        cores: 40,
        factor: 1.0,
        records: 30_000,
        warmup: 7_500,
        mix: server_mix,
        live: ("garibaldi.pair_updates", |r| garibaldi_stat(r, |g| g.pair_updates)),
    },
    Workload {
        name: "serial-8c",
        engine: Engine::Serial,
        cores: 8,
        factor: 0.5,
        records: 100_000,
        warmup: 25_000,
        mix: server_mix,
        live: ("garibaldi.protections", |r| garibaldi_stat(r, |g| g.protections)),
    },
    Workload {
        name: "shared-8c",
        engine: Engine::Parallel,
        cores: 8,
        factor: 1.0,
        records: 150_000,
        warmup: 37_500,
        mix: shared_mix,
        live: ("invalidations", |r| r.invalidations),
    },
];

impl Workload {
    fn runner(&self, seed: u64) -> SimRunner {
        let scale = ExperimentScale {
            factor: self.factor,
            cores: self.cores,
            records_per_core: self.records,
            warmup_per_core: self.warmup,
            color_period: (self.records / 8).max(1_000),
        };
        let cfg = SystemConfig::scaled(&scale, LlcScheme::mockingjay_garibaldi());
        SimRunner::new(cfg, (self.mix)(self.cores), seed)
    }

    /// Trace records of one call, all cores, warmup included.
    fn total_records(&self) -> u64 {
        self.cores as u64 * (self.records + self.warmup)
    }
}

/// The parallel engine as every workload runs it: ewma estimator, sync training.
fn engine_config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        estimator: EstimatorKind::Ewma,
        train_mode: TrainMode::Sync,
        ..EngineConfig::default()
    }
}

/// One simulation, timed from outside.
struct Call {
    /// Host seconds of the whole engine call, set-up included.
    wall_s: f64,
    /// Host seconds before the first simulated record.
    setup_s: f64,
    result: RunResult,
    stats: Option<EngineStats>,
}

fn call(
    w: &Workload,
    runner: &SimRunner,
    engine: Engine,
    workers: usize,
    rec: &mut Recorder,
) -> Result<Call, String> {
    let run = AssertUnwindSafe(|| match engine {
        Engine::Parallel => {
            let eng = engine_config(workers);
            let t = Instant::now();
            let out = rec.span("sim.run_parallel_stats", |_| {
                runner.try_run_parallel_stats(w.records, w.warmup, &eng)
            });
            let wall_s = t.elapsed().as_secs_f64();
            let (result, stats) = out.map_err(|e| format!("engine error: {e}"))?;
            Ok(Call { wall_s, setup_s: wall_s - stats.wall_s, result, stats: Some(stats) })
        }
        Engine::Serial => {
            // `run_serial` does not report its set-up, so the same public
            // set-up calls are timed on their own.
            let t = Instant::now();
            rec.span("trace.generate_streams", |_| black_box(runner.generate_streams(0)));
            rec.span("hierarchy.new", |_| black_box(MemoryHierarchy::new(runner.config())));
            let setup_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let result = rec.span("sim.run_serial", |_| runner.run_serial(w.records, w.warmup));
            Ok(Call { wall_s: t.elapsed().as_secs_f64(), setup_s, result, stats: None })
        }
    });
    catch_unwind(run).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

/// The simulated outputs a call is checked on, by name, each value in
/// its exact round-trip form.
fn outputs(c: &Call) -> Vec<(&'static str, String)> {
    let r = &c.result;
    let g = r.garibaldi.as_ref();
    let cpi = r.mean_cpi_stack();
    let mut out: Vec<(&'static str, String)> = vec![
        ("hmean_ipc", format!("{:?}", r.harmonic_mean_ipc())),
        ("llc_instr_mpki", format!("{:?}", r.llc_instr_mpki())),
        ("llc_mpki", format!("{:?}", r.llc_mpki())),
        ("wall_cycles", format!("{:?}", r.wall_cycles())),
        ("instrs", r.total_instrs().to_string()),
        ("cpi_ifetch", format!("{:?}", cpi.ifetch)),
        ("cpi_data", format!("{:?}", cpi.data)),
        ("llc_i_accesses", r.llc.i_accesses.to_string()),
        ("llc_i_hits", r.llc.i_hits.to_string()),
        ("llc_d_accesses", r.llc.d_accesses.to_string()),
        ("llc_d_hits", r.llc.d_hits.to_string()),
        ("llc_bypasses", r.llc.bypasses.to_string()),
        ("llc_prefetch_fills", r.llc.prefetch_fills.to_string()),
        ("llc_prefetch_useful", r.llc.prefetch_useful.to_string()),
        ("l2_accesses", r.l2.accesses().to_string()),
        ("l2_hits", r.l2.hits().to_string()),
        ("l1i_accesses", r.l1i.accesses().to_string()),
        ("l1i_hits", r.l1i.hits().to_string()),
        ("dram_reads", r.dram.reads.to_string()),
        ("dram_queue_delay", r.dram.queue_delay.to_string()),
        ("invalidations", r.invalidations.to_string()),
        ("pair_updates", g.map_or(0, |g| g.stats.pair_updates).to_string()),
        ("protections", g.map_or(0, |g| g.stats.protections).to_string()),
        ("declines", g.map_or(0, |g| g.stats.declines).to_string()),
        ("prefetches_issued", g.map_or(0, |g| g.stats.prefetches_issued).to_string()),
        ("final_threshold", g.map_or(0, |g| g.final_threshold).to_string()),
    ];
    if let Some(s) = &c.stats {
        out.push(("inval_cmds", s.inval_cmds.to_string()));
    }
    out
}

/// The outputs `reference.txt` records for `workload`'s `call` at [`RECORDED_SEED`].
fn recorded(workload: &str, call: &str) -> Vec<(String, String)> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            [w, c, name, value] if w == workload && c == call => {
                Some((name.to_string(), value.to_string()))
            }
            _ => None,
        })
        .collect()
}

/// Counts attempted calls and the ones that failed a check, printing each
/// failure to stderr.
#[derive(Default)]
struct Checker {
    attempted: u64,
    failed: u64,
    last_failed: bool,
}

impl Checker {
    /// Checks one call: it completed, its outputs match `expect` (when
    /// given) and, at the recorded seed, the outputs `reference.txt`
    /// records for `label`. Returns the call and its outputs if it completed.
    fn check(
        &mut self,
        w: &Workload,
        seed: u64,
        label: &str,
        c: Result<Call, String>,
        expect: Option<&[(&'static str, String)]>,
    ) -> Option<(Call, Vec<(&'static str, String)>)> {
        self.attempted += 1;
        self.last_failed = false;
        let c = match c {
            Ok(c) => c,
            Err(e) => {
                self.fail_last(&format!("{label}: {e}"));
                return None;
            }
        };
        let out = outputs(&c);
        if expect.is_some_and(|e| e != out.as_slice()) {
            self.fail_last(&format!("{label}: outputs differ from the run's first call"));
        }
        if seed == RECORDED_SEED {
            let got: Vec<(String, String)> =
                out.iter().map(|(n, v)| (n.to_string(), v.clone())).collect();
            if recorded(w.name, label) != got {
                let lines: Vec<String> =
                    got.iter().map(|(n, v)| format!("{} {label} {n} {v}", w.name)).collect();
                self.fail_last(&format!(
                    "{label}: outputs differ from reference.txt; this call gave:\n{}",
                    lines.join("\n")
                ));
            }
        }
        Some((c, out))
    }

    /// Fails the last attempted call (once, however many checks it fails).
    fn fail_last(&mut self, msg: &str) {
        eprintln!("check failed: {msg}");
        if !self.last_failed {
            self.failed += 1;
            self.last_failed = true;
        }
    }
}

/// Checks a call of the workload's own engine: [`Checker::check`] against
/// the run's first call, and the workload's mechanism is live. Keeps the
/// outputs of the first call that completes.
fn check_measured(
    checker: &mut Checker,
    w: &Workload,
    seed: u64,
    r: Result<Call, String>,
    first: &mut Option<(RunResult, Vec<(&'static str, String)>)>,
) -> Option<Call> {
    let expect = first.as_ref().map(|(_, o)| o.as_slice());
    let (c, out) = checker.check(w, seed, "measured", r, expect)?;
    let (name, live) = w.live;
    if live(&c.result) == 0 {
        checker.fail_last(&format!("{name} is 0 on {}, whose mechanism it counts", w.name));
    }
    if first.is_none() {
        *first = Some((c.result.clone(), out));
    }
    Some(c)
}

/// The median; NaN, which fails the run, when there are no samples.
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A memory figure of this process from `/proc/self/status`, in MB:
/// `VmHWM` is the peak resident set, `VmRSS` the current one.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host fingerprint: CPUs, CPU model, build profile, and the source
/// revision given on the command line.
fn host_fingerprint(rev: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']))
        .replace('"', "'");
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{model}\", \"build_profile\": \"{profile}\", \
         \"revision\": \"{}\"}}",
        rev.replace('"', "'")
    )
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    rev: String,
    out_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: &WORKLOADS[0],
        seed: RECORDED_SEED,
        seconds: 30,
        trace: false,
        rev: "unknown".to_string(),
        out_dir: "perfbench/out".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num =
            || value.parse::<u64>().map_err(|_| format!("{flag}: not a whole number: {value}"));
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .iter()
                    .find(|w| w.name == value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
            }
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--rev" => args.rev = value,
            "--out" => args.out_dir = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Metric values in print order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { v.to_string() } else { "null".to_string() };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Samples of the measured loop. Host times are scaled to the reference
/// host speed unless named `host_`.
#[derive(Default)]
struct Samples {
    /// `records_per_s` of untraced and of traced calls.
    rps_off: Vec<f64>,
    rps_on: Vec<f64>,
    /// Records per host second of untraced calls, unscaled.
    host_rps_off: Vec<f64>,
    /// Set-up seconds and host slowness of untraced calls.
    setup_s: Vec<f64>,
    slowness: Vec<f64>,
    /// Engine statistics of traced calls.
    stats_on: Vec<EngineStats>,
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let w = args.workload;
    let host = host_fingerprint(&args.rev);
    println!("host: {host}");
    println!(
        "workload {} seed {} for {} s, {}",
        w.name,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );

    let runner = w.runner(args.seed);
    let workers = WORKERS.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut checker = Checker::default();
    let mut untraced = Recorder::new(false);
    let mut rec = Recorder::new(args.trace);

    // The calibration table stays resident for the whole run; its size is
    // taken off the peak resident set.
    let rss_mb = status_mb("VmRSS");
    let mut clock = HostClock::new();
    let clock_mb = status_mb("VmRSS") - rss_mb;

    // Warm-up: the first call fills the allocator and the caches and gives
    // the outputs every later call must repeat.
    let mut first: Option<(RunResult, Vec<(&'static str, String)>)> = None;
    let warm = call(w, &runner, w.engine, workers, &mut untraced);
    check_measured(&mut checker, w, args.seed, warm, &mut first);

    // The measured loop. Every call is bracketed by calibration samples,
    // and the mean of the two is the call's host slowness. A traced run
    // alternates untraced and traced calls, so both see the same host
    // conditions.
    let mut s = Samples::default();
    let mut before = clock.sample();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < budget || i < if args.trace { 2 } else { 1 } {
        let traced = args.trace && i % 2 == 1;
        i += 1;
        let r = if traced {
            rec.span("call", |rec| call(w, &runner, w.engine, workers, rec))
        } else {
            call(w, &runner, w.engine, workers, &mut untraced)
        };
        let after = clock.sample();
        let slowness = (before + after) / 2.0;
        before = after;
        let Some(c) = check_measured(&mut checker, w, args.seed, r, &mut first) else {
            continue;
        };
        let host_rps = w.total_records() as f64 / c.wall_s;
        let rps = host_rps * slowness;
        eprintln!(
            "call {i}{}: {:.3} s, set-up {:.4} s, slowness {slowness:.3}, {rps:.0} records/s \
             at reference speed",
            if traced { " (traced)" } else { "" },
            c.wall_s,
            c.setup_s
        );
        if traced {
            s.rps_on.push(rps);
            s.stats_on.extend(c.stats);
        } else {
            s.rps_off.push(rps);
            s.host_rps_off.push(host_rps);
            s.setup_s.push(c.setup_s / slowness);
            s.slowness.push(slowness);
        }
    }

    let peak_rss_mb = status_mb("VmHWM") - clock_mb;

    // The fidelity counterpart: the same point and seed on the other engine.
    let counterpart =
        rec.span("fidelity.counterpart", |rec| call(w, &runner, w.engine.other(), workers, rec));
    let counterpart = checker.check(w, args.seed, "counterpart", counterpart, None).map(|(c, _)| c);
    let ipc_err_pct = match (&first, &counterpart) {
        (Some((result, _)), Some(c)) => {
            let (serial, parallel) = match w.engine {
                Engine::Parallel => (c.result.harmonic_mean_ipc(), result.harmonic_mean_ipc()),
                Engine::Serial => (result.harmonic_mean_ipc(), c.result.harmonic_mean_ipc()),
            };
            let err = 100.0 * (parallel - serial).abs() / serial;
            if err > FIDELITY_BOUND_PCT {
                checker.fail_last(&format!(
                    "ipc_err_pct {err:.3} exceeds the {FIDELITY_BOUND_PCT} % fidelity bound"
                ));
            }
            err
        }
        _ => f64::NAN,
    };

    let mut metrics = Metrics::default();
    if let Some((result, first_out)) = &first {
        if args.trace {
            metrics.put("ipc_err_pct", ipc_err_pct, "%");
            layer_metrics(
                w,
                &runner,
                args.seed,
                result,
                first_out,
                counterpart.as_ref(),
                &mut s,
                &mut checker,
                &mut rec,
                &mut metrics,
            );
        } else {
            metrics.put("records_per_s", median(&mut s.rps_off), "records/s");
            metrics.put("setup_s", median(&mut s.setup_s), "s");
            metrics.put("peak_rss_mb", peak_rss_mb, "MB");
            metrics.put("hmean_ipc", result.harmonic_mean_ipc(), "IPC");
            metrics.put("llc_instr_mpki", result.llc_instr_mpki(), "misses/kI");
        }
    }

    for (name, value, unit) in &metrics.0 {
        println!("{name:<34} {value:>18.6} {unit}");
    }
    if args.trace {
        let outputs = first.as_ref().map_or(&[][..], |(_, o)| o.as_slice());
        write_trace(&args, &host, &metrics, outputs, &rec);
    }
    let finite = metrics.0.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checker.failed == 0 && finite && first.is_some(),
        checker.attempted,
        checker.failed,
        metrics.json()
    );
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of a traced run: spans and engine statistics of
/// the measured loop, the counterpart call, and the traced extras
/// (trace-generation calls, the one-worker determinism call, and the
/// micro-benchmarks), plus the counts of the measured result.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    w: &Workload,
    runner: &SimRunner,
    seed: u64,
    result: &RunResult,
    first_out: &[(&'static str, String)],
    counterpart: Option<&Call>,
    s: &mut Samples,
    checker: &mut Checker,
    rec: &mut Recorder,
    m: &mut Metrics,
) {
    // Trace generation: program build alone, then build plus one call's
    // worth of records for every core.
    for _ in 0..5 {
        rec.span("trace.build", |_| black_box(runner.generate_streams(0)));
    }
    rec.span("trace.generate", |_| black_box(runner.generate_streams(w.records + w.warmup)));
    let build_s = median(&mut rec.secs_of("trace.build"));
    let gen_s = rec.secs_of("trace.generate")[0];
    m.put("trace.build_s", build_s, "s");
    m.put("trace.gen_ns_per_record", 1e9 * (gen_s - build_s) / w.total_records() as f64, "ns");

    // Engine phases come from the traced calls on the parallel engine at
    // the run's worker count: the workload's own, or on the serial
    // workload its counterpart call. The hierarchy (serial engine) likewise.
    let stats: Vec<&EngineStats> =
        s.stats_on.iter().chain(counterpart.and_then(|c| c.stats.as_ref())).collect();
    let phase =
        |f: fn(&EngineStats) -> f64| median(&mut stats.iter().map(|s| f(s)).collect::<Vec<_>>());
    m.put("engine.step_s", phase(|s| s.step_s), "s");
    m.put("engine.drain_s", phase(|s| s.drain_s), "s");
    m.put(
        "engine.drain_imbalance",
        phase(|s| s.drain_imbalance().map_or(f64::NAN, |(max, mean)| max / mean)),
        "max/mean",
    );
    m.put("engine.serial_s", phase(|s| s.serial_s), "s");
    m.put("engine.apply_s", phase(|s| s.apply_s), "s");
    m.put("engine.merge_s", phase(|s| s.merge_s), "s");
    m.put("engine.barrier_s", phase(EngineStats::barrier_s), "s");
    m.put(
        "engine.parallel_frac",
        phase(|s| (s.step_s + s.drain_s + s.apply_s) / s.wall_s),
        "fraction",
    );
    m.put("engine.epochs", phase(|s| s.epochs as f64), "count");
    m.put("engine.learned_syncs", phase(|s| s.learned_syncs as f64), "count");
    m.put("engine.inval_cmds", phase(|s| s.inval_cmds as f64), "count");

    let run_s = median(&mut rec.secs_of("sim.run_serial"));
    let setup: Vec<(f64, f64)> = rec
        .secs_of("trace.generate_streams")
        .into_iter()
        .zip(rec.secs_of("hierarchy.new"))
        .collect();
    let setup_s = median(&mut setup.iter().map(|(g, h)| g + h).collect::<Vec<_>>());
    m.put("hierarchy.run_s", run_s, "s");
    m.put("hierarchy.ns_per_record", 1e9 * (run_s - setup_s) / w.total_records() as f64, "ns");

    // Worker-count invariance at benchmark scale.
    if w.engine == Engine::Parallel {
        let one =
            rec.span("engine.determinism_w1", |rec| call(w, runner, Engine::Parallel, 1, rec));
        checker.check(w, seed, "measured", one, Some(first_out));
    }

    let r = result;
    m.put("llc.i_miss_rate", r.llc.i_miss_rate(), "fraction");
    m.put("llc.d_miss_rate", r.llc.d_miss_rate(), "fraction");
    m.put("llc.bypasses", r.llc.bypasses as f64, "count");
    m.put("llc.prefetch_accuracy", ratio(r.llc.prefetch_useful, r.llc.prefetch_fills), "fraction");
    m.put("l2.miss_rate", r.l2.miss_rate(), "fraction");
    m.put("l1i.miss_rate", r.l1i.miss_rate(), "fraction");
    let g = r.garibaldi.as_ref().expect("every workload runs Garibaldi");
    m.put("garibaldi.pair_updates", g.stats.pair_updates as f64, "count");
    m.put(
        "garibaldi.protect_ratio",
        ratio(g.stats.protections, g.stats.protections + g.stats.declines),
        "fraction",
    );
    m.put("garibaldi.prefetches_issued", g.stats.prefetches_issued as f64, "count");
    m.put("garibaldi.helper_hit_rate", g.helper_hit_rate, "fraction");
    m.put("garibaldi.final_threshold", g.final_threshold as f64, "count");
    m.put("dram.reads", r.dram.reads as f64, "count");
    m.put("dram.queue_delay_per_req", ratio(r.dram.queue_delay, r.dram.accesses()), "cycles");
    let cpi = r.mean_cpi_stack();
    m.put("cpi.ifetch", cpi.ifetch, "cycles/instr");
    m.put("cpi.data", cpi.data, "cycles/instr");

    for (name, ns) in rec.span("micro", |rec| micro::run(runner.config(), seed, rec)) {
        m.put(name, ns, "ns");
    }

    let (off, on) = (median(&mut s.rps_off), median(&mut s.rps_on));
    m.put("bench.trace_overhead_pct", 100.0 * (off - on) / off, "%");
    m.put("bench.host_slowness", median(&mut s.slowness), "ratio");
    m.put("bench.host_records_per_s", median(&mut s.host_rps_off), "records/s");
}

/// Writes the traced run's spans, metrics, outputs and host fingerprint
/// to `<out>/trace-<workload>-seed<seed>.json`.
fn write_trace(
    args: &Args,
    host: &str,
    metrics: &Metrics,
    outputs: &[(&'static str, String)],
    rec: &Recorder,
) {
    let outs: Vec<String> = outputs.iter().map(|(n, v)| format!("\"{n}\": \"{v}\"")).collect();
    let doc = format!(
        "{{\n  \"host\": {host},\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"metrics\": {},\n  \"outputs\": {{{}}},\n  \"spans\": {}\n}}\n",
        args.workload.name,
        args.seed,
        args.seconds,
        metrics.json(),
        outs.join(", "),
        rec.to_json()
    );
    let dir = std::path::Path::new(&args.out_dir);
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload.name, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
