//! The parallel engine's worker pool and worker-failure containment.
//!
//! One [`Pool`] serves a whole engine run ([`with_pool`]): its `workers − 1`
//! helper threads are spawned when the run starts, park on a condition
//! variable between parallel sections, and are joined before the run
//! returns, so a run creates its OS threads once instead of once per
//! section. The calling thread is a worker too, and `workers == 1` is the
//! zero-helper case of the same code.
//!
//! Every parallel section (cluster stepping, shard drains, command
//! applies, the fused invalidation/correction pass, learned-state
//! installs) runs its per-unit closures through [`run_units`], which
//! dispatches them to the pool — the calling thread and the woken helpers
//! claim units from one atomic counter, and each result lands in its
//! unit's own slot, so results come back in item order whichever thread
//! ran which unit — and which:
//!
//! * wraps each unit in `catch_unwind`, converting a worker panic into a
//!   structured [`EngineError`] recorded in the engine's [`FailState`]
//!   instead of a process abort;
//! * raises a cooperative cancel flag on the first failure so the
//!   remaining queued units are skipped (their slots are filled with
//!   `T::default()` — the engine aborts at the next check, so the values
//!   are never used);
//! * when a barrier watchdog timeout is configured
//!   (`GARIBALDI_BARRIER_TIMEOUT_S`), monitors the section with a
//!   per-section watchdog thread that — instead of letting a stuck unit
//!   deadlock the barrier, whether it runs on the calling thread or on a
//!   helper — dumps every unit's phase state to stderr, records a timeout
//!   [`EngineError`], and cancels the section.
//!
//! The cancel flag is also the release signal for injected stalls
//! ([`crate::fault`]), which is what makes the watchdog path testable
//! without a real deadlock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A contained failure inside the parallel engine.
///
/// Returned by [`crate::ParallelEngine::try_run_with_stats`] (and
/// surfaced by [`crate::SimRunner::run_recover`]'s serial fallback)
/// instead of aborting the process when a worker panics or a barrier
/// phase times out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// Epoch ordinal (1-based, counted from run start including warmup)
    /// whose step/barrier the failure surfaced in.
    pub epoch: u64,
    /// Failed worker unit within the phase — a shard index in shard
    /// phases, a cluster index in cluster phases — when one is
    /// implicated; `None` for the pooled learned-state merge.
    pub shard: Option<usize>,
    /// Engine phase: `"step"`, `"drain"`, `"apply-cmds"`, `"install"`,
    /// `"merge"` or `"invals-corrections"` (the fused per-cluster
    /// invalidation + latency-correction pass).
    pub phase: &'static str,
    /// The worker's panic payload, or the watchdog's timeout description.
    pub payload: String,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine {} phase failed at epoch {}", self.phase, self.epoch)?;
        if let Some(unit) = self.shard {
            write!(f, " (unit {unit})")?;
        }
        write!(f, ": {}", self.payload)
    }
}

impl std::error::Error for EngineError {}

/// First-failure latch plus the cooperative cancel flag shared by every
/// worker closure, injected stall, and the watchdog.
#[derive(Default)]
pub(super) struct FailState {
    first: Mutex<Option<EngineError>>,
    cancel: AtomicBool,
}

impl FailState {
    /// Record a failure (first one wins) and cancel in-flight work.
    pub(super) fn record(&self, e: EngineError) {
        self.cancel.store(true, Ordering::SeqCst);
        let mut g = lock(&self.first);
        if g.is_none() {
            *g = Some(e);
        }
    }

    pub(super) fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// The cancel flag, polled by injected stalls.
    pub(super) fn cancel_flag(&self) -> &AtomicBool {
        &self.cancel
    }

    /// Take the recorded failure, if any (the cancel flag stays raised —
    /// a failed engine run never resumes).
    pub(super) fn take(&self) -> Option<EngineError> {
        lock(&self.first).take()
    }
}

/// One parallel section's containment context.
pub(super) struct SectionCtx<'a> {
    pub(super) fail: &'a FailState,
    /// The run's worker pool, which executes the section's units.
    pub(super) pool: &'a Pool,
    /// Epoch ordinal stamped into any [`EngineError`] from this section.
    pub(super) epoch: u64,
    /// Phase label stamped into any [`EngineError`] from this section.
    pub(super) phase: &'static str,
    /// Watchdog deadline for the whole section; `None` disables the
    /// watchdog (and its monitor thread) entirely.
    pub(super) timeout: Option<Duration>,
}

/// Per-unit lifecycle states for the watchdog dump.
const ST_QUEUED: u8 = 0;
const ST_RUNNING: u8 = 1;
const ST_DONE: u8 = 2;
const ST_FAILED: u8 = 3;
const ST_SKIPPED: u8 = 4;

fn state_label(s: u8) -> &'static str {
    match s {
        ST_QUEUED => "queued",
        ST_RUNNING => "running",
        ST_DONE => "done",
        ST_FAILED => "failed",
        ST_SKIPPED => "skipped",
        _ => "?",
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Worker panics are contained before they can poison these locks,
    // but a poisoned guard would still only carry plain data.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, g: std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// Render a panic payload as text for [`EngineError::payload`].
pub(super) fn payload_str(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The dispatch state the parked helpers read, under [`Pool::dispatch`].
struct Dispatch {
    /// Bumped once per dispatched job, so a helper joins a job at most
    /// once and a late waker never re-runs a retracted one.
    gen: u64,
    /// The running section's claim loop; `None` between sections. The
    /// `'static` is erased from a borrow of [`Pool::run`]'s caller: see
    /// the `SAFETY` comment there for why it is never used past it.
    job: Option<&'static (dyn Fn() + Sync)>,
    /// Helpers still allowed to join the current job.
    room: usize,
    /// Helpers currently inside the current job.
    active: usize,
    /// Set once when the run ends; helpers return.
    shutdown: bool,
}

/// One engine run's worker pool: `helpers` parked threads, plus the
/// thread that calls [`Pool::run`]. Created only by [`with_pool`].
pub(super) struct Pool {
    helpers: usize,
    dispatch: Mutex<Dispatch>,
    /// Helpers park here between jobs.
    wake: Condvar,
    /// The dispatching thread waits here for `active` to reach zero.
    idle: Condvar,
    /// Per-unit lifecycle states of the running section (the watchdog
    /// dump), reused across sections. Held by the dispatching thread for
    /// the whole section, so sections never nest.
    states: Mutex<Vec<AtomicU8>>,
}

/// Runs `body` with a pool of `helpers` parked threads that lives exactly
/// as long as the call: the helpers are spawned first and joined before
/// this returns, also when `body` panics.
pub(super) fn with_pool<R>(helpers: usize, body: impl FnOnce(&Pool) -> R) -> R {
    let pool = Pool {
        helpers,
        dispatch: Mutex::new(Dispatch { gen: 0, job: None, room: 0, active: 0, shutdown: false }),
        wake: Condvar::new(),
        idle: Condvar::new(),
        states: Mutex::new(Vec::new()),
    };
    std::thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(|| pool.helper_loop());
        }
        /// Releases the helpers when `body` returns or unwinds, before
        /// the scope joins them.
        struct Shutdown<'a>(&'a Pool);
        impl Drop for Shutdown<'_> {
            fn drop(&mut self) {
                lock(&self.0.dispatch).shutdown = true;
                self.0.wake.notify_all();
            }
        }
        let _shutdown = Shutdown(&pool);
        body(&pool)
    })
}

impl Pool {
    fn helper_loop(&self) {
        let mut seen = 0;
        loop {
            let job = {
                let mut d = lock(&self.dispatch);
                loop {
                    if d.shutdown {
                        return;
                    }
                    if d.gen != seen {
                        seen = d.gen;
                        if let Some(job) = d.job.filter(|_| d.room > 0) {
                            d.room -= 1;
                            d.active += 1;
                            break job;
                        }
                    }
                    d = wait(&self.wake, d);
                }
            };
            /// Leaves the job — also if it unwinds — and wakes the
            /// dispatching thread when the last helper is out.
            struct Leave<'a>(&'a Pool);
            impl Drop for Leave<'_> {
                fn drop(&mut self) {
                    let mut d = lock(&self.0.dispatch);
                    d.active -= 1;
                    if d.active == 0 {
                        self.0.idle.notify_all();
                    }
                }
            }
            let _leave = Leave(self);
            job();
        }
    }

    /// Runs `job` on the calling thread and on up to `max_helpers` of the
    /// pool's helpers at once; returns once every participant has
    /// returned from it. `job` must itself split the work (the helpers
    /// and the caller all call the same closure).
    fn run(&self, max_helpers: usize, job: &(dyn Fn() + Sync)) {
        let room = self.helpers.min(max_helpers);
        if room == 0 {
            job();
            return;
        }
        // SAFETY: only the lifetime is erased (same fat-pointer layout).
        // The erased reference is reachable by helpers only through
        // `dispatch.job`, and `Retract` — constructed before `job` is
        // published and dropped when this function returns *or unwinds* —
        // clears `dispatch.job` and then waits until `dispatch.active` is
        // zero. A helper copies the reference out only under the lock
        // while `dispatch.job` is `Some`, counting itself into `active`
        // before releasing the lock, and leaves `active` only once its
        // call of `job` has returned or unwound (its `Leave` guard). So
        // every use of the reference ends before this function returns,
        // while the borrow of `job` is still live.
        let erased: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(job) };

        /// Retracts the job and waits until every helper has left it.
        struct Retract<'a>(&'a Pool);
        impl Drop for Retract<'_> {
            fn drop(&mut self) {
                let mut d = lock(&self.0.dispatch);
                d.job = None;
                while d.active > 0 {
                    d = wait(&self.0.idle, d);
                }
            }
        }
        let _retract = Retract(self);
        {
            let mut d = lock(&self.dispatch);
            d.gen += 1;
            d.job = Some(erased);
            d.room = room;
        }
        self.wake.notify_all();
        job();
    }
}

/// A unit's item before it runs, and its result after.
enum Slot<I, T> {
    Queued(I),
    Taken,
    Done(T),
}

/// Run `f(i, item)` over every item on the section's pool, with
/// containment and (optionally) a watchdog.
///
/// Results come back indexed by item regardless of scheduling. A failed
/// or skipped unit yields `T::default()`; the caller must consult
/// `ctx.fail` before trusting the results.
pub(super) fn run_units<I: Send, T: Send + Default>(
    items: Vec<I>,
    ctx: &SectionCtx<'_>,
    f: impl Fn(usize, I) -> T + Sync,
) -> Vec<T> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let mut states = lock(&ctx.pool.states);
    if states.len() < n {
        states.resize_with(n, || AtomicU8::new(ST_QUEUED));
    }
    let states = &states[..n];
    for st in states {
        st.store(ST_QUEUED, Ordering::SeqCst);
    }
    let slots: Vec<Mutex<Slot<I, T>>> =
        items.into_iter().map(|item| Mutex::new(Slot::Queued(item))).collect();
    let run_one = |i: usize, item: I| -> T {
        if ctx.fail.cancelled() {
            states[i].store(ST_SKIPPED, Ordering::SeqCst);
            return T::default();
        }
        states[i].store(ST_RUNNING, Ordering::SeqCst);
        match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
            Ok(v) => {
                states[i].store(ST_DONE, Ordering::SeqCst);
                v
            }
            Err(p) => {
                states[i].store(ST_FAILED, Ordering::SeqCst);
                ctx.fail.record(EngineError {
                    epoch: ctx.epoch,
                    shard: Some(i),
                    phase: ctx.phase,
                    payload: payload_str(p),
                });
                T::default()
            }
        }
    };
    // The claim counter publishes nothing: items and results travel
    // through their slot's mutex, and `Pool::run` returns only after
    // every participant has left (through the dispatch mutex).
    let next = AtomicUsize::new(0);
    let job = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let Slot::Queued(item) = std::mem::replace(&mut *lock(&slots[i]), Slot::Taken) else {
            unreachable!("unit {i} claimed twice");
        };
        let v = run_one(i, item);
        *lock(&slots[i]) = Slot::Done(v);
    };
    match ctx.timeout {
        None => ctx.pool.run(n - 1, &job),
        Some(timeout) => {
            let done = DoneSignal::default();
            std::thread::scope(|s| {
                s.spawn(|| watchdog(timeout, ctx, states, &done));
                ctx.pool.run(n - 1, &job);
                done.signal();
            });
        }
    }
    slots
        .into_iter()
        .map(|s| match s.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Slot::Done(v) => v,
            Slot::Queued(_) | Slot::Taken => T::default(),
        })
        .collect()
}

/// Signals the watchdog that the section's units have all returned.
#[derive(Default)]
struct DoneSignal {
    finished: Mutex<bool>,
    cv: Condvar,
}

impl DoneSignal {
    fn signal(&self) {
        *lock(&self.finished) = true;
        self.cv.notify_all();
    }
}

/// Waits for the section to finish or the deadline to pass; on timeout,
/// dumps per-unit phase state and records a structured error (which also
/// cancels the section, releasing any injected stall).
fn watchdog(timeout: Duration, ctx: &SectionCtx<'_>, states: &[AtomicU8], done: &DoneSignal) {
    let deadline = Instant::now() + timeout;
    let mut finished = lock(&done.finished);
    while !*finished {
        let now = Instant::now();
        if now >= deadline {
            drop(finished);
            let dump: Vec<String> = states
                .iter()
                .enumerate()
                .map(|(i, st)| format!("{i}:{}", state_label(st.load(Ordering::SeqCst))))
                .collect();
            let dump = dump.join(" ");
            eprintln!(
                "[engine] barrier watchdog: phase {} of epoch {} exceeded {timeout:?}; \
                 worker states: {dump}",
                ctx.phase, ctx.epoch
            );
            let stuck = states.iter().position(|st| st.load(Ordering::SeqCst) == ST_RUNNING);
            ctx.fail.record(EngineError {
                epoch: ctx.epoch,
                shard: stuck,
                phase: ctx.phase,
                payload: format!(
                    "barrier watchdog timeout after {timeout:?} (worker states: {dump})"
                ),
            });
            return;
        }
        let (g, _) =
            done.cv.wait_timeout(finished, deadline - now).unwrap_or_else(PoisonError::into_inner);
        finished = g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    fn ctx<'a>(fail: &'a FailState, pool: &'a Pool, timeout: Option<Duration>) -> SectionCtx<'a> {
        SectionCtx { fail, pool, epoch: 5, phase: "drain", timeout }
    }

    /// `run_units` on a one-section pool of `workers` threads.
    fn run_once<I: Send, T: Send + Default>(
        items: Vec<I>,
        workers: usize,
        fail: &FailState,
        timeout: Option<Duration>,
        f: impl Fn(usize, I) -> T + Sync,
    ) -> Vec<T> {
        with_pool(workers - 1, |pool| run_units(items, &ctx(fail, pool, timeout), f))
    }

    /// One pool serves many consecutive sections, each result in its
    /// item's slot, and only the pool's threads run units.
    #[test]
    fn results_come_back_in_item_order() {
        for workers in [1, 2, 4, 7] {
            let fail = FailState::default();
            let threads = Mutex::new(std::collections::HashSet::<ThreadId>::new());
            with_pool(workers - 1, |pool| {
                for section in 0..120usize {
                    // Section sizes straddle the pool size: fewer units
                    // than threads, equal, and many more.
                    let n = 1 + section % 11;
                    let out = run_units((0..n).collect(), &ctx(&fail, pool, None), |i, v| {
                        assert_eq!(i, v);
                        lock(&threads).insert(std::thread::current().id());
                        v * 1000 + section
                    });
                    let want: Vec<usize> = (0..n).map(|v| v * 1000 + section).collect();
                    assert_eq!(out, want, "workers {workers}, section {section}");
                }
            });
            assert!(fail.take().is_none());
            let used = lock(&threads).len();
            assert!(used <= workers, "{used} threads ran units of a {workers}-worker pool");
        }
    }

    #[test]
    fn a_panicking_unit_becomes_a_structured_error() {
        for workers in [1, 3] {
            let fail = FailState::default();
            let out = run_once((0..6).collect(), workers, &fail, None, |_, v: i32| {
                assert!(v != 4, "unit four exploded");
                v
            });
            let e = fail.take().expect("failure recorded");
            assert_eq!(e.epoch, 5);
            assert_eq!(e.phase, "drain");
            assert_eq!(e.shard, Some(4));
            assert!(e.payload.contains("unit four exploded"), "{}", e.payload);
            assert_eq!(out[4], 0, "failed slot defaulted");
            assert!(fail.cancelled(), "cancel flag raised");
            // Display is readable.
            assert!(e.to_string().contains("drain phase failed at epoch 5"));
        }
    }

    #[test]
    fn a_unit_panic_leaves_the_pool_serving_the_next_section() {
        for workers in [1, 2, 4] {
            with_pool(workers - 1, |pool| {
                let failed = FailState::default();
                let _ = run_units((0..8).collect(), &ctx(&failed, pool, None), |_, v: i32| {
                    assert!(v != 2, "unit two exploded");
                    v
                });
                assert_eq!(failed.take().expect("failure recorded").shard, Some(2));
                // A fresh latch: the same helpers run every unit again.
                let fresh = FailState::default();
                let ran = AtomicUsize::new(0);
                let out = run_units((0..8).collect(), &ctx(&fresh, pool, None), |_, v: i32| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    v + 1
                });
                assert_eq!(out, (1..9).collect::<Vec<_>>(), "workers {workers}");
                assert_eq!(ran.load(Ordering::SeqCst), 8, "no unit skipped");
                assert!(fresh.take().is_none());
            });
        }
    }

    #[test]
    fn first_failure_wins_and_cancel_skips_queued_units() {
        let fail = FailState::default();
        fail.record(EngineError { epoch: 1, shard: None, phase: "merge", payload: "a".into() });
        fail.record(EngineError { epoch: 2, shard: None, phase: "merge", payload: "b".into() });
        assert_eq!(fail.take().expect("kept").payload, "a");
        // cancel stays raised after take(): everything now skips.
        let out = run_once((0..4).collect(), 2, &fail, None, |_, v: i32| v + 1);
        assert_eq!(out, vec![0; 4], "all units skipped");
    }

    /// Runs a 2-worker, 4-unit watchdog section in which the first unit
    /// that starts on the calling thread (`on_caller`) or on the helper
    /// (`!on_caller`) stalls until cancelled. Units on the other thread
    /// wait until the stall has begun, so neither thread can claim every
    /// unit first and the stall lands where the test wants it.
    fn stall_one_unit(on_caller: bool) -> (EngineError, usize) {
        let caller = std::thread::current().id();
        let fail = FailState::default();
        let stalled = AtomicUsize::new(usize::MAX);
        let cap = Instant::now() + Duration::from_secs(10);
        let out =
            run_once((0..4).collect(), 2, &fail, Some(Duration::from_millis(50)), |i, v: i32| {
                let here = (std::thread::current().id() == caller) == on_caller;
                if here
                    && stalled
                        .compare_exchange(usize::MAX, i, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    // A stuck unit that honors the cancel flag (like an
                    // injected stall): without the watchdog this would
                    // block the section forever.
                    while !fail.cancelled() {
                        assert!(Instant::now() < cap, "watchdog never fired");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                } else if !here {
                    while stalled.load(Ordering::SeqCst) == usize::MAX {
                        assert!(Instant::now() < cap, "the stalling thread never ran a unit");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                v
            });
        assert_eq!(out.len(), 4);
        (fail.take().expect("timeout recorded"), stalled.load(Ordering::SeqCst))
    }

    /// The watchdog breaks a stall wherever the stuck unit runs: on the
    /// calling thread (which then cannot monitor anything itself) or on a
    /// pool helper.
    #[test]
    fn watchdog_fires_on_a_stuck_unit_and_cancels_it() {
        for on_caller in [true, false] {
            let (e, stalled) = stall_one_unit(on_caller);
            assert!(e.payload.contains("watchdog timeout"), "{}", e.payload);
            assert!(e.payload.contains("running"), "dump embedded: {}", e.payload);
            assert_eq!(e.shard, Some(stalled), "stuck unit identified (on caller: {on_caller})");
        }
    }

    #[test]
    fn watchdog_does_not_fire_on_a_fast_section() {
        let fail = FailState::default();
        let out =
            run_once((0..8).collect(), 4, &fail, Some(Duration::from_secs(30)), |_, v: i32| v);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert!(fail.take().is_none());
    }
}
