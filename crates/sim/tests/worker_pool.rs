//! The parallel engine's OS-thread footprint.
//!
//! One worker pool serves a whole engine run: its `workers − 1` helper
//! threads are created when the run starts and joined before it returns,
//! and no parallel section spawns a thread of its own (only the opt-in
//! barrier watchdog does, one monitor per section). These tests observe
//! that from outside the engine by reading `/proc/self/task` — read-only,
//! so Linux only. Both tests count this process's threads, so they
//! serialize on one lock; this binary holds no other tests.

#![cfg(target_os = "linux")]

use garibaldi_sim::{EngineConfig, ExperimentScale, LlcScheme, SimRunner, SystemConfig, TrainMode};
use garibaldi_trace::WorkloadMix;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};
use std::time::{Duration, Instant};

static THREAD_COUNTING: Mutex<()> = Mutex::new(());

/// This process's live thread ids.
fn tasks() -> BTreeSet<u32> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .map(|e| {
            let name = e.expect("task entry").file_name();
            name.to_str().and_then(|s| s.parse().ok()).expect("numeric task id")
        })
        .collect()
}

/// The calling thread's id, from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`).
fn own_tid() -> u32 {
    let link = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self resolves");
    let tid = link.file_name().and_then(|s| s.to_str()).expect("tid component");
    tid.parse().expect("numeric thread id")
}

fn runner() -> SimRunner {
    let s = ExperimentScale::smoke();
    let cfg = SystemConfig::scaled(&s, LlcScheme::mockingjay_garibaldi());
    SimRunner::new(cfg, WorkloadMix::homogeneous("twitter", s.cores), 42)
}

/// Sync training (async overlaps its learned-state merge on a thread of
/// its own) and small epochs, so the run crosses many parallel sections.
fn eng(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        epoch_cycles: 2_000,
        llc_shards: 4,
        train_mode: TrainMode::Sync,
        ..EngineConfig::default()
    }
}

fn run(workers: usize) {
    let s = ExperimentScale::smoke();
    let r = runner().run_parallel(s.records_per_core, s.warmup_per_core, &eng(workers));
    assert!(r.llc.accesses() > 0, "the run reached the LLC");
}

/// The pool's helpers are joined before `run_parallel` returns: the run
/// leaves no thread behind. (A joined thread can stay listed for a moment
/// after `pthread_join` returns while the kernel releases it, hence the
/// bounded poll.)
#[test]
fn parallel_run_leaves_no_thread_behind() {
    let _serial = THREAD_COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    let before = tasks();
    run(4);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let left: Vec<u32> = tasks().difference(&before).copied().collect();
        if left.is_empty() {
            break;
        }
        assert!(Instant::now() < deadline, "threads left running after the run: {left:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(tasks().len() <= before.len(), "thread count grew across the run");
}

/// With the watchdog off, a 2-worker run creates exactly one OS thread —
/// its one pool helper — for the whole run, not one per parallel
/// section. A sampler thread lists `/proc/self/task` continuously while
/// the run executes and collects every thread id it did not see before.
#[test]
fn two_worker_run_creates_exactly_one_thread() {
    let _serial = THREAD_COUNTING.lock().unwrap_or_else(PoisonError::into_inner);
    // The watchdog adds one monitor thread per section by design.
    std::env::remove_var("GARIBALDI_BARRIER_TIMEOUT_S");
    let stop = AtomicBool::new(false);
    let started = Barrier::new(2);
    let before = tasks();
    let (sampler, seen) = std::thread::scope(|s| {
        let h = s.spawn(|| {
            let me = own_tid();
            let mut seen = tasks();
            started.wait();
            while !stop.load(Ordering::SeqCst) {
                seen.extend(tasks());
            }
            (me, seen)
        });
        started.wait();
        run(2);
        stop.store(true, Ordering::SeqCst);
        h.join().expect("sampler thread")
    });
    let created: Vec<u32> =
        seen.difference(&before).copied().filter(|&tid| tid != sampler).collect();
    assert_eq!(created.len(), 1, "threads created by one 2-worker run: {created:?}");
}
