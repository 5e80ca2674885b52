//! Environment-driven engine selection, end to end.
//!
//! These tests mutate real environment variables, so they live in their
//! own test binary (its own process) and serialize on one mutex — the
//! other test binaries never read these variables while this one runs.

use garibaldi_sim::{
    EngineChoice, EngineConfig, ExperimentScale, LlcScheme, RunResult, SimRunner, SystemConfig,
    TrainMode,
};
use garibaldi_trace::WorkloadMix;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

const VARS: [&str; 9] = [
    "GARIBALDI_ENGINE",
    "GARIBALDI_WORKERS",
    "GARIBALDI_SYNC_EVERY",
    "GARIBALDI_TRAIN_MODE",
    "GARIBALDI_BARRIER_TIMEOUT_S",
    "GARIBALDI_ESTIMATOR",
    "GARIBALDI_SHARDS",
    "GARIBALDI_EPOCH",
    "GARIBALDI_INNER_WORKERS",
];

/// Runs `f` with exactly `vars` set, restoring a clean slate after.
fn with_env<T>(vars: &[(&str, &str)], f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for v in VARS {
        std::env::remove_var(v);
    }
    for (k, v) in vars {
        std::env::set_var(k, v);
    }
    let out = f();
    for v in VARS {
        std::env::remove_var(v);
    }
    out
}

fn runner() -> SimRunner {
    let s = ExperimentScale::smoke();
    let cfg = SystemConfig::scaled(&s, LlcScheme::mockingjay_garibaldi());
    SimRunner::new(cfg, WorkloadMix::homogeneous("twitter", s.cores), 42)
}

fn smoke_run(r: &SimRunner) -> RunResult {
    let s = ExperimentScale::smoke();
    r.run(s.records_per_core, s.warmup_per_core)
}

/// `GARIBALDI_ENGINE=serial` reproduces the serial engine exactly — even
/// when `GARIBALDI_WORKERS` would otherwise force the parallel one (the
/// escape hatch the benches' parallel-default flip documents).
#[test]
fn engine_serial_reproduces_serial_engine() {
    let r = runner();
    let s = ExperimentScale::smoke();
    let reference = r.run_serial(s.records_per_core, s.warmup_per_core);
    let forced =
        with_env(&[("GARIBALDI_ENGINE", "serial"), ("GARIBALDI_WORKERS", "2")], || smoke_run(&r));
    assert_eq!(reference, forced);
    let plain = with_env(&[("GARIBALDI_ENGINE", "serial")], || smoke_run(&r));
    assert_eq!(reference, plain);
}

/// `GARIBALDI_ENGINE=parallel` routes through the epoch-sharded engine at
/// its default configuration.
#[test]
fn engine_parallel_forces_parallel_engine() {
    let r = runner();
    let s = ExperimentScale::smoke();
    let reference = r.run_parallel(s.records_per_core, s.warmup_per_core, &EngineConfig::default());
    let forced = with_env(&[("GARIBALDI_ENGINE", "parallel")], || smoke_run(&r));
    assert_eq!(reference, forced);
    // Serial differs from the default parallel run on this workload
    // (otherwise the assertion above proves nothing).
    let serial = r.run_serial(s.records_per_core, s.warmup_per_core);
    assert_ne!(serial, reference, "engines must be distinguishable at smoke scale");
}

/// `GARIBALDI_SYNC_EVERY` overrides the learned-sync cadence of an
/// env-selected parallel engine and reproduces the explicitly configured
/// run exactly.
#[test]
fn sync_every_env_overrides_the_cadence() {
    let r = runner();
    let s = ExperimentScale::smoke();
    let eng = EngineConfig { sync_every: 3, ..EngineConfig::default() };
    let reference = r.run_parallel(s.records_per_core, s.warmup_per_core, &eng);
    let forced =
        with_env(&[("GARIBALDI_ENGINE", "parallel"), ("GARIBALDI_SYNC_EVERY", "3")], || {
            smoke_run(&r)
        });
    assert_eq!(reference, forced);
    // Alone (serial default, nothing selecting the parallel engine) the
    // variable configures nothing — but it is still validated.
    let serial = with_env(&[("GARIBALDI_SYNC_EVERY", "3")], || smoke_run(&r));
    assert_eq!(serial, r.run_serial(s.records_per_core, s.warmup_per_core));
}

/// `GARIBALDI_TRAIN_MODE=async` overrides the learned-state training
/// mode of an env-selected parallel engine and reproduces the explicitly
/// configured run exactly. The mode cannot be told apart from sync by
/// the *result* at smoke scale (the deferred install is byte-invisible
/// by construction, and the privatized pair batches only reorder
/// commutative updates here), so the proof that async actually ran is
/// the engine's own accounting: every async sync publishes one barrier
/// late (`publish_lag`), which sync mode never does.
#[test]
fn train_mode_env_overrides_the_mode() {
    let r = runner();
    let s = ExperimentScale::smoke();
    let eng =
        EngineConfig { sync_every: 1, train_mode: TrainMode::Async, ..EngineConfig::default() };
    let reference = r.run_parallel(s.records_per_core, s.warmup_per_core, &eng);
    let forced = with_env(
        &[
            ("GARIBALDI_ENGINE", "parallel"),
            ("GARIBALDI_SYNC_EVERY", "1"),
            ("GARIBALDI_TRAIN_MODE", "async"),
        ],
        || smoke_run(&r),
    );
    assert_eq!(reference, forced);
    // The env-built config really carries the async mode…
    let choice =
        with_env(&[("GARIBALDI_ENGINE", "parallel"), ("GARIBALDI_TRAIN_MODE", "async")], || {
            EngineChoice::from_env_or(EngineChoice::Serial)
        });
    match choice {
        EngineChoice::Parallel(c) => assert_eq!(c.train_mode, TrainMode::Async),
        EngineChoice::Serial => panic!("GARIBALDI_ENGINE=parallel must select the parallel engine"),
    }
    // …and the async schedule really ran: syncs published one barrier
    // late, where the sync mode's lag is identically zero.
    let (_, st) = r.run_parallel_stats(s.records_per_core, s.warmup_per_core, &eng);
    assert!(st.learned_syncs > 0, "sync_every=1 must sync");
    assert_eq!(st.publish_lag, st.learned_syncs, "async publishes one barrier late per sync");
    let (_, st_sync) = r.run_parallel_stats(
        s.records_per_core,
        s.warmup_per_core,
        &EngineConfig { train_mode: TrainMode::Sync, ..eng },
    );
    assert_eq!(st_sync.publish_lag, 0, "sync mode installs at the exporting barrier");
    // Alone (serial default, nothing selecting the parallel engine) the
    // variable configures nothing — but it is still validated.
    let serial = with_env(&[("GARIBALDI_TRAIN_MODE", "async")], || smoke_run(&r));
    assert_eq!(serial, r.run_serial(s.records_per_core, s.warmup_per_core));
}

/// Bare `GARIBALDI_WORKERS` still flips to the parallel engine (the PR-2
/// forcing mechanism CI's parallel-engine leg uses).
#[test]
fn bare_workers_still_selects_parallel() {
    let choice =
        with_env(&[("GARIBALDI_WORKERS", "3")], || EngineChoice::from_env_or(EngineChoice::Serial));
    match choice {
        EngineChoice::Parallel(c) => assert_eq!(c.workers, 3),
        EngineChoice::Serial => panic!("GARIBALDI_WORKERS must select the parallel engine"),
    }
}

/// `GARIBALDI_BARRIER_TIMEOUT_S` arms the barrier watchdog at engine
/// construction: a generous timeout never fires and never changes results
/// (determinism is engine-geometry-only), and malformed values fail
/// loudly on the main thread, naming the variable.
#[test]
fn barrier_timeout_env_is_validated_and_result_invisible() {
    let r = runner();
    let s = ExperimentScale::smoke();
    let eng = EngineConfig::default();
    let reference = r.run_parallel(s.records_per_core, s.warmup_per_core, &eng);
    let timed = with_env(&[("GARIBALDI_BARRIER_TIMEOUT_S", "120")], || {
        r.run_parallel(s.records_per_core, s.warmup_per_core, &eng)
    });
    assert_eq!(reference, timed, "an armed (idle) watchdog never changes results");
    for bad in ["0", "soon", "-5"] {
        let err = with_env(&[("GARIBALDI_BARRIER_TIMEOUT_S", bad)], || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                r.run_parallel(s.records_per_core, s.warmup_per_core, &eng)
            }))
            .expect_err(&format!("GARIBALDI_BARRIER_TIMEOUT_S={bad} must panic"))
        });
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("GARIBALDI_BARRIER_TIMEOUT_S"),
            "panic for {bad} names the variable: {msg:?}"
        );
    }
}

/// Every malformed value fails loudly instead of silently selecting an
/// unintended engine or geometry — and so does every removed variable,
/// even at a once-valid value (`GARIBALDI_ESTIMATOR=ewma` used to select
/// the parallel engine on its own), naming itself as removed.
#[test]
fn malformed_values_panic_with_the_variable_name() {
    let cases: [(&str, &str, &str); 12] = [
        ("GARIBALDI_ENGINE", "turbo", ""),
        ("GARIBALDI_WORKERS", "0", ""),
        ("GARIBALDI_WORKERS", "banana", ""),
        ("GARIBALDI_SYNC_EVERY", "0", ""),
        ("GARIBALDI_SYNC_EVERY", "sometimes", ""),
        ("GARIBALDI_TRAIN_MODE", "eventually", ""),
        ("GARIBALDI_ESTIMATOR", "psychic", "removed"),
        ("GARIBALDI_ESTIMATOR", "ewma", "removed"),
        ("GARIBALDI_SHARDS", "4", "removed"),
        ("GARIBALDI_EPOCH", "99999999999999999999999999", "removed"),
        ("GARIBALDI_EPOCH", "20000", "removed"),
        ("GARIBALDI_INNER_WORKERS", "2", "removed"),
    ];
    for (var, val, why) in cases {
        let err = with_env(&[(var, val)], || {
            std::panic::catch_unwind(|| EngineChoice::from_env_or(EngineChoice::Serial))
                .expect_err(&format!("{var}={val} must panic"))
        });
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains(var) && msg.contains(why),
            "panic for {var}={val} names the variable: {msg:?}"
        );
    }
}
