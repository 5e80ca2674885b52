//! System configuration (Table 1) and LLC scheme selection.

use crate::engine::estimate::{EstimatorKind, TrainMode};
use crate::experiment::ExperimentScale;
use garibaldi::GaribaldiConfig;
use garibaldi_cache::PolicyKind;
use garibaldi_mem::DramConfig;
use serde::{Deserialize, Serialize};

/// Which LLC management runs: a host replacement policy plus, optionally,
/// the Garibaldi module on top (the paper's "orthogonal" composition).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LlcScheme {
    /// Host replacement policy.
    pub policy: PolicyKind,
    /// Garibaldi module configuration, if enabled.
    pub garibaldi: Option<GaribaldiConfig>,
}

impl LlcScheme {
    /// Plain host policy, no Garibaldi.
    pub fn plain(policy: PolicyKind) -> Self {
        Self { policy, garibaldi: None }
    }

    /// Host policy + default Garibaldi.
    pub fn with_garibaldi(policy: PolicyKind) -> Self {
        Self { policy, garibaldi: Some(GaribaldiConfig::default()) }
    }

    /// The paper's headline configuration: Mockingjay + Garibaldi.
    pub fn mockingjay_garibaldi() -> Self {
        Self::with_garibaldi(PolicyKind::Mockingjay)
    }

    /// Label for reports ("Mockingjay+Garibaldi").
    pub fn label(&self) -> String {
        match &self.garibaldi {
            Some(_) => format!("{}+Garibaldi", self.policy.label()),
            None => self.policy.label().to_string(),
        }
    }
}

/// Full system configuration.
///
/// Defaults follow Table 1; [`SystemConfig::scaled`] shrinks footprint-
/// sensitive structures together with the workload scale factor so that
/// capacity ratios (and therefore the paper's effects) are preserved at
/// CI-tractable simulation cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Core count.
    pub cores: usize,
    /// Cores sharing one L2 (Table 1: 4).
    pub l2_cluster_size: usize,
    /// L1I capacity per core in bytes (64 KB).
    pub l1i_bytes: u64,
    /// L1D capacity per core in bytes (32 KB).
    pub l1d_bytes: u64,
    /// L1 associativity (8).
    pub l1_ways: usize,
    /// L1 hit latency in cycles (3).
    pub l1_latency: u64,
    /// L2 capacity per cluster in bytes (4 MB).
    pub l2_bytes: u64,
    /// L2 associativity (16).
    pub l2_ways: usize,
    /// L2 hit latency in cycles (18).
    pub l2_latency: u64,
    /// LLC capacity in bytes, total (30 MB = 0.75 MB × 40 cores).
    pub llc_bytes: u64,
    /// LLC associativity (12).
    pub llc_ways: usize,
    /// LLC hit latency in cycles (40).
    pub llc_latency: u64,
    /// DRAM model parameters.
    pub dram: DramConfig,
    /// LLC scheme under test.
    pub scheme: LlcScheme,
    /// Ways reserved for instruction lines (0 = no partitioning; Fig 14d).
    pub partition_instr_ways: usize,
    /// Instruction-oracle mode: instructions always hit in the LLC after
    /// first touch (Fig 3d headroom study).
    pub i_oracle: bool,
    /// Enable the L1D next-line prefetcher.
    pub l1d_prefetcher: bool,
    /// Enable the L2 GHB prefetcher.
    pub l2_prefetcher: bool,
    /// Enable the L1I temporal (I-SPY stand-in) prefetcher.
    pub l1i_prefetcher: bool,
    /// Base CPI of the 6-wide OoO core when never stalled on memory.
    pub base_cpi: f64,
    /// Branch misprediction penalty in cycles.
    pub branch_penalty: u64,
    /// Backend overlap factor: fraction of each *additional* concurrent
    /// data-miss stall hidden by out-of-order execution (0 = fully serial,
    /// 1 = all but the longest miss free).
    pub mlp_overlap: f64,
    /// Cycles of an isolated data-miss stall hidden by the reorder buffer
    /// (≈ ROB entries × base CPI / instructions per record window). The
    /// frontend has no such shadow: instruction misses stall serially —
    /// the cost asymmetry at the heart of the paper (§3.2).
    pub rob_shadow: u64,
    /// Enable the reuse-distance / per-line profiler (Fig 3/4 analyses;
    /// costs simulation time, off by default).
    pub profile_reuse: bool,
    /// Factor applied to workload footprints via
    /// [`garibaldi_trace::WorkloadProfile::scaled`] so footprint-to-capacity
    /// ratios track the cache scaling.
    pub profile_scale: f64,
}

impl SystemConfig {
    /// The paper's Table 1 baseline: 40 cores, 30 MB 12-way LLC, LRU.
    pub fn paper_baseline() -> Self {
        Self {
            cores: 40,
            l2_cluster_size: 4,
            l1i_bytes: 64 * 1024,
            l1d_bytes: 32 * 1024,
            l1_ways: 8,
            l1_latency: 3,
            l2_bytes: 4 * 1024 * 1024,
            l2_ways: 16,
            l2_latency: 18,
            llc_bytes: 30 * 1024 * 1024,
            llc_ways: 12,
            llc_latency: 40,
            dram: DramConfig::default(),
            scheme: LlcScheme::plain(PolicyKind::Lru),
            partition_instr_ways: 0,
            i_oracle: false,
            l1d_prefetcher: true,
            l2_prefetcher: true,
            l1i_prefetcher: true,
            base_cpi: 0.5,
            branch_penalty: 14,
            mlp_overlap: 0.85,
            rob_shadow: 96,
            profile_reuse: false,
            profile_scale: 1.0,
        }
    }

    /// A scaled configuration: `scale.cores` cores with every per-core
    /// capacity multiplied by `scale.factor` (LLC stays 0.75 MB × factor
    /// per core, L2 4 MB × factor per 4-core cluster, etc.). Workload
    /// profiles must be scaled by the same factor.
    pub fn scaled(scale: &ExperimentScale, scheme: LlcScheme) -> Self {
        let f = scale.factor;
        let mut cfg = Self::paper_baseline();
        cfg.cores = scale.cores;
        cfg.l1i_bytes = scale_bytes(cfg.l1i_bytes, f, 8 * 1024);
        cfg.l1d_bytes = scale_bytes(cfg.l1d_bytes, f, 8 * 1024);
        cfg.l2_bytes = scale_bytes(cfg.l2_bytes, f, 64 * 1024);
        cfg.llc_bytes = scale_bytes(786_432 * scale.cores as u64, f, 256 * 1024);
        let mut scheme = scheme;
        if let Some(g) = scheme.garibaldi.as_mut() {
            g.color_period = scale.color_period;
            // Scaled runs are ~30× shorter than the paper's: compensate the
            // pair table's per-entry update density (DESIGN.md §5).
            if scale.factor < 1.0 {
                g.cost_hit_step = 2;
            }
        }
        cfg.scheme = scheme;
        cfg.profile_scale = f;
        cfg
    }

    /// Cluster index of a core.
    pub fn cluster_of(&self, core: usize) -> usize {
        core / self.l2_cluster_size
    }

    /// Number of L2 clusters.
    pub fn clusters(&self) -> usize {
        self.cores.div_ceil(self.l2_cluster_size)
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("zero cores".into());
        }
        if self.l2_cluster_size == 0 {
            return Err("zero cluster size".into());
        }
        if self.llc_ways == 0 || self.llc_ways > 64 {
            return Err("LLC ways out of [1,64]".into());
        }
        if self.partition_instr_ways > self.llc_ways {
            return Err("cannot reserve more ways than the LLC has".into());
        }
        if !(0.0..=1.0).contains(&self.mlp_overlap) {
            return Err("mlp_overlap out of [0,1]".into());
        }
        if self.base_cpi <= 0.0 {
            return Err("non-positive base CPI".into());
        }
        if let Some(g) = &self.scheme.garibaldi {
            g.validate()?;
        }
        Ok(())
    }
}

/// Configuration of the epoch-sharded parallel engine (see
/// `docs/ARCHITECTURE.md` §"Parallel sharded engine").
///
/// Results are a function of `epoch_cycles`, `llc_shards`, `sync_every`
/// and `train_mode` only — the worker count changes wall-clock, never the
/// simulated outcome (the determinism contract tested in
/// `tests/determinism.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Worker threads stepping L2 clusters and draining LLC shards.
    pub workers: usize,
    /// Epoch window in core cycles: cores advance independently inside a
    /// window and synchronise at its barrier (bounded lag = one window).
    pub epoch_cycles: u64,
    /// Number of set-contiguous LLC shards (each owns its slice of the
    /// Garibaldi pair/D_PPN state and of the DRAM channels).
    pub llc_shards: usize,
    /// Issue-latency model (`sim::engine::estimate`): always
    /// [`EstimatorKind::Ewma`]. Kept only because the repository
    /// benchmark (`perfbench/`) still sets it; no code reads it.
    pub estimator: EstimatorKind,
    /// Run the learned-state sync every `sync_every` barriers
    /// (`--sync-every` / `GARIBALDI_SYNC_EVERY`; ≥ 1). The sync is the
    /// dominant single-CPU cost of the engine's barrier — predictor-table
    /// export + consensus merge per shard — while its fidelity value
    /// decays slowly with staleness (measured in `docs/fidelity/`), so
    /// syncing every k-th barrier trades a bounded fidelity delta for most
    /// of that overhead. A *model* parameter like `epoch_cycles`: the
    /// barrier count is a pure function of the simulated schedule, so
    /// every value stays worker-count invariant.
    pub sync_every: usize,
    /// When learned-state merges run (`--train-mode` /
    /// `GARIBALDI_TRAIN_MODE`; see [`TrainMode`]): synchronously inside
    /// the exporting barrier (the default, bit-compatible with every
    /// committed golden), or overlapped with the next epoch's step phase
    /// and installed one barrier later, with pair-table confidence
    /// batches privatized per source shard. [`TrainMode::Async`] is a
    /// *model* parameter like `epoch_cycles`: it changes simulated
    /// results (fidelity-gated), never determinism — the publish schedule
    /// is barrier-count pure and merges run in fixed shard order, so
    /// worker-count byte-invariance holds in both modes.
    pub train_mode: TrainMode,
}

impl Default for EngineConfig {
    /// The fidelity-validated default geometry.
    ///
    /// `sync_every = 8` is the measured sweet spot of the learned-sync
    /// cadence (PR 5, `docs/fidelity/README.md` §"The `sync_every` axis"):
    /// at the default window the ewma figure-geomean error moves only
    /// fig11 0.10 % → 0.21 % / fig12 0.78 % → 0.80 % (bound: ≤ 1 %) while
    /// the sync's wall-clock cost — the dominant single-CPU ewma overhead
    /// — drops to an eighth (40-core reference point 1.74 s → 1.34 s).
    ///
    /// `epoch_cycles = 20_000`
    /// was selected by the epoch sweep in `docs/fidelity/`: figure-level
    /// geomean error vs the serial engine is nearly flat in the window
    /// size (the residual is intra-epoch issue optimism, not staleness),
    /// so the choice is driven by barrier amortization — 20 k keeps the
    /// measured fig11/fig12 error at ≤ 1.73 % (hard gate 2 %, enforced by
    /// `tests/fidelity.rs`) with 2.5× fewer barriers than the 1 %-error
    /// region of the grid.
    fn default() -> Self {
        Self {
            workers: 1,
            epoch_cycles: 20_000,
            llc_shards: 8,
            estimator: EstimatorKind::Ewma,
            sync_every: 8,
            train_mode: TrainMode::Sync,
        }
    }
}

impl EngineConfig {
    /// A config with `workers` threads and default epoch/shard geometry.
    pub fn with_workers(workers: usize) -> Self {
        Self { workers: workers.max(1), ..Self::default() }
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("zero workers".into());
        }
        if self.epoch_cycles == 0 {
            return Err("zero epoch window".into());
        }
        if self.llc_shards == 0 {
            return Err("zero LLC shards".into());
        }
        if self.sync_every == 0 {
            return Err("zero sync_every (use 1 to sync at every barrier)".into());
        }
        Ok(())
    }
}

/// Which simulation engine a run uses (see `docs/ARCHITECTURE.md`
/// §"Parallel sharded engine"): the serial min-clock reference, or the
/// epoch-sharded parallel engine with a concrete [`EngineConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// The serial min-clock reference engine.
    Serial,
    /// The epoch-sharded parallel engine.
    Parallel(EngineConfig),
}

impl EngineChoice {
    /// Resolves the engine from the environment, with `default` applying
    /// when nothing relevant is set.
    ///
    /// **Resolution order** (each step wins over everything below it; the
    /// same table lives in the README's environment section):
    ///
    /// 1. `GARIBALDI_ENGINE=serial` forces the serial engine (the escape
    ///    hatch the benches document), even if `GARIBALDI_WORKERS` is set.
    ///    `GARIBALDI_ENGINE=parallel` (alias `sharded`) forces the
    ///    parallel engine.
    /// 2. `GARIBALDI_ENGINE` unset but `GARIBALDI_WORKERS` set: parallel
    ///    (the forcing mechanism the CI matrix leg uses).
    /// 3. Nothing set: `default`.
    ///
    /// Whenever the outcome is parallel, its configuration starts from the
    /// caller's `default` when that is parallel (else
    /// [`EngineConfig::default`]) and each of `GARIBALDI_WORKERS` /
    /// `GARIBALDI_SYNC_EVERY` / `GARIBALDI_TRAIN_MODE` that is set
    /// overrides its field. When the outcome is serial, these variables
    /// have nothing to configure and are only validated. The epoch window
    /// and the LLC shard count are not settable from the environment.
    ///
    /// The retired `GARIBALDI_ESTIMATOR`, `GARIBALDI_SHARDS`,
    /// `GARIBALDI_EPOCH` and `GARIBALDI_INNER_WORKERS` are read only to
    /// reject them: silently ignoring one would quietly run a different
    /// engine or geometry than the caller asked for.
    ///
    /// # Panics
    ///
    /// Panics with a clear message on malformed values (unknown engine or
    /// train-mode name, zero/garbage/overflowing counts) and on any
    /// retired variable — misconfiguration must never silently select a
    /// different engine than intended. The pure, unit-tested resolution
    /// is [`EngineChoice::resolve`].
    pub fn from_env_or(default: Self) -> Self {
        Self::resolve(env_raw, default).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Pure form of [`EngineChoice::from_env_or`] over a variable lookup:
    /// `var(name)` is the raw value of `name`, `None` when unset.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending variable and value for an
    /// unknown engine or train-mode name or an invalid count, and one
    /// naming a retired variable as removed whenever it is set.
    pub fn resolve(var: impl Fn(&str) -> Option<String>, default: Self) -> Result<Self, String> {
        for (name, instead) in REMOVED_VARS {
            if let Some(raw) = var(name) {
                return Err(format!("{name} has been removed (got {raw:?}): {instead}"));
            }
        }
        let workers = parse_positive("GARIBALDI_WORKERS", var("GARIBALDI_WORKERS").as_deref())?;
        let sync_every =
            parse_positive("GARIBALDI_SYNC_EVERY", var("GARIBALDI_SYNC_EVERY").as_deref())?;
        let train_mode =
            TrainMode::parse("GARIBALDI_TRAIN_MODE", var("GARIBALDI_TRAIN_MODE").as_deref())?;
        // Which engine, and from which base configuration?
        let base = match var("GARIBALDI_ENGINE").as_deref().map(str::trim) {
            Some("serial") => return Ok(Self::Serial),
            Some("parallel" | "sharded") => Some(default),
            Some(other) => {
                return Err(format!(
                    "GARIBALDI_ENGINE must be \"serial\" or \"parallel\", got {other:?}"
                ))
            }
            None if workers.is_some() => Some(default),
            None => match default {
                // A parallel default still takes the overrides below (the
                // benches' documented contract).
                Self::Parallel(_) => Some(default),
                Self::Serial => None,
            },
        };
        let Some(base) = base else {
            return Ok(Self::Serial);
        };
        let mut cfg = match base {
            Self::Parallel(c) => c,
            Self::Serial => EngineConfig::default(),
        };
        if let Some(w) = workers {
            cfg.workers = w;
        }
        if let Some(k) = sync_every {
            cfg.sync_every = k;
        }
        if let Some(m) = train_mode {
            cfg.train_mode = m;
        }
        Ok(Self::Parallel(cfg))
    }

    /// Stable identity string for checkpoint keys and reports: `"serial"`
    /// or `"sharded-s<shards>-e<epoch>-ewma[-k<sync_every>][-async]"` (the
    /// sync suffix only for `sync_every != 1`, the train-mode suffix only
    /// for [`TrainMode::Async`], so keys minted before either axis existed
    /// still name the same model). The `-ewma` marker is always present:
    /// the suffix-free `sharded-s<S>-e<E>` form named the retired
    /// optimistic issue-latency model, whose checkpoint rows must never be
    /// served as ewma results. Worker count is deliberately excluded — it
    /// never changes simulated results (the determinism contract), so runs
    /// under different worker counts may share rows.
    pub fn tag(&self) -> String {
        match self {
            Self::Serial => "serial".to_string(),
            Self::Parallel(e) => {
                let mut t = format!("sharded-s{}-e{}-ewma", e.llc_shards, e.epoch_cycles);
                if e.sync_every != 1 {
                    t.push_str(&format!("-k{}", e.sync_every));
                }
                if e.train_mode != TrainMode::default() {
                    t.push('-');
                    t.push_str(e.train_mode.label());
                }
                t
            }
        }
    }
}

/// Environment variables that once configured the engine or the bench
/// harness, each with what to do instead. [`EngineChoice::resolve`]
/// rejects every one that is set, naming it as removed.
const REMOVED_VARS: [(&str, &str); 4] = [
    (
        "GARIBALDI_ESTIMATOR",
        "ewma is the parallel engine's only issue-latency model; unset it, and select the \
         parallel engine with GARIBALDI_ENGINE=parallel or GARIBALDI_WORKERS",
    ),
    ("GARIBALDI_SHARDS", "the parallel engine always runs the default LLC shard count; unset it"),
    (
        "GARIBALDI_EPOCH",
        "the parallel engine always runs the default epoch window; unset it (the fidelity \
         gate's off-default window is GARIBALDI_FIDELITY_EPOCH)",
    ),
    (
        "GARIBALDI_INNER_WORKERS",
        "GARIBALDI_WORKERS sets both the per-run engine workers and the bench pool divisor; \
         unset it",
    ),
];

/// Parses an env-var value as a positive count. `Ok(None)` when unset.
///
/// # Errors
///
/// Rejects empty strings, garbage, overflow (> `usize::MAX`) and zero,
/// naming `var` and the value — invalid values must fail loudly rather
/// than silently selecting a default.
pub fn parse_positive(var: &str, raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    let v: usize =
        raw.trim().parse().map_err(|_| format!("{var} must be a positive integer, got {raw:?}"))?;
    if v == 0 {
        return Err(format!("{var} must be at least 1, got 0 (unset it to use the default)"));
    }
    Ok(Some(v))
}

/// Reads and validates a positive-count environment variable
/// ([`parse_positive`] over the live environment); `None` when unset.
/// The one definition of the read-validate-panic idiom the bench
/// harness and test gates share.
///
/// # Panics
///
/// Panics on an invalid value (zero, garbage, overflow), naming the
/// variable — misconfiguration must fail loudly.
pub fn env_positive(var: &str) -> Option<usize> {
    parse_positive(var, env_raw(var).as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

fn env_raw(var: &str) -> Option<String> {
    std::env::var(var).ok()
}

fn scale_bytes(bytes: u64, f: f64, min: u64) -> u64 {
    (((bytes as f64 * f) as u64) / 4096 * 4096).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_table1() {
        let c = SystemConfig::paper_baseline();
        assert_eq!(c.cores, 40);
        assert_eq!(c.llc_bytes, 30 * 1024 * 1024);
        assert_eq!(c.llc_ways, 12);
        assert_eq!(c.l2_bytes, 4 * 1024 * 1024);
        assert_eq!(c.clusters(), 10);
        assert_eq!(c.cluster_of(7), 1);
        c.validate().unwrap();
    }

    #[test]
    fn scaled_keeps_per_core_llc_ratio() {
        let scale = ExperimentScale::default_scaled();
        let c = SystemConfig::scaled(&scale, LlcScheme::plain(PolicyKind::Lru));
        let per_core = c.llc_bytes as f64 / c.cores as f64;
        let paper_per_core = 786_432.0;
        let want = paper_per_core * scale.factor;
        assert!((per_core - want).abs() / want < 0.1, "{per_core} vs {want}");
        c.validate().unwrap();
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(LlcScheme::plain(PolicyKind::Lru).label(), "LRU");
        assert_eq!(LlcScheme::mockingjay_garibaldi().label(), "Mockingjay+Garibaldi");
    }

    #[test]
    fn invalid_configs_detected() {
        let mut c = SystemConfig::paper_baseline();
        c.partition_instr_ways = 13;
        assert!(c.validate().is_err());
        c.partition_instr_ways = 0;
        c.mlp_overlap = 1.5;
        assert!(c.validate().is_err());
    }

    // --- env hardening: every invalid value errs with the variable name ---

    #[test]
    fn parse_positive_accepts_counts_and_whitespace() {
        assert_eq!(parse_positive("X", None).unwrap(), None);
        assert_eq!(parse_positive("X", Some("4")).unwrap(), Some(4));
        assert_eq!(parse_positive("X", Some(" 16 ")).unwrap(), Some(16));
    }

    #[test]
    fn parse_positive_rejects_zero_garbage_and_overflow() {
        for bad in ["0", "banana", "", "-3", "4.5", "99999999999999999999999999"] {
            let err = parse_positive("GARIBALDI_WORKERS", Some(bad)).unwrap_err();
            assert!(err.contains("GARIBALDI_WORKERS"), "error names the variable: {err}");
            assert!(
                bad.is_empty() || err.contains(bad.trim()),
                "error shows the offending value: {err}"
            );
        }
    }

    /// [`EngineChoice::resolve`] over `(variable, value)` pairs.
    fn resolve(vars: &[(&str, &str)], default: EngineChoice) -> Result<EngineChoice, String> {
        let get = |name: &str| vars.iter().find(|(k, _)| *k == name).map(|&(_, v)| v.to_string());
        EngineChoice::resolve(get, default)
    }

    fn parallel(choice: EngineChoice) -> EngineConfig {
        match choice {
            EngineChoice::Parallel(c) => c,
            other => panic!("expected parallel, got {other:?}"),
        }
    }

    #[test]
    fn engine_choice_resolution_precedence() {
        use EngineChoice::Serial;
        let default_par = EngineChoice::Parallel(EngineConfig::default());
        // Nothing set → the caller's default.
        assert_eq!(resolve(&[], Serial).unwrap(), Serial);
        assert_eq!(resolve(&[], default_par).unwrap(), default_par);
        // serial wins even over GARIBALDI_WORKERS.
        let vars = [("GARIBALDI_ENGINE", "serial"), ("GARIBALDI_WORKERS", "4")];
        assert_eq!(resolve(&vars, default_par).unwrap(), Serial);
        // Back-compat: workers alone flips to parallel, with defaults for
        // the rest.
        let c = parallel(resolve(&[("GARIBALDI_WORKERS", "3")], Serial).unwrap());
        assert_eq!(c, EngineConfig { workers: 3, ..EngineConfig::default() });
        // parallel with a parallel default keeps its geometry, env overrides.
        let tuned = EngineChoice::Parallel(EngineConfig {
            workers: 2,
            epoch_cycles: 77,
            llc_shards: 4,
            ..EngineConfig::default()
        });
        let vars = [("GARIBALDI_ENGINE", "parallel"), ("GARIBALDI_SYNC_EVERY", "5")];
        let c = parallel(resolve(&vars, tuned).unwrap());
        assert_eq!((c.workers, c.llc_shards, c.epoch_cycles, c.sync_every), (2, 4, 77, 5));
        // Overrides also apply when the *default* supplies the parallel
        // engine (the benches' contract): the sync cadence and train mode
        // re-configure a bench run instead of being silently ignored.
        let vars = [("GARIBALDI_SYNC_EVERY", "3"), ("GARIBALDI_TRAIN_MODE", "async")];
        let c = parallel(resolve(&vars, tuned).unwrap());
        assert_eq!((c.workers, c.llc_shards, c.epoch_cycles, c.sync_every), (2, 4, 77, 3));
        assert_eq!(c.train_mode, TrainMode::Async);
        // With a serial default, the sync cadence and train mode alone do
        // not flip the engine — they are parallel-engine axes, not forcing
        // mechanisms — but they are still validated.
        assert_eq!(resolve(&[("GARIBALDI_SYNC_EVERY", "3")], Serial).unwrap(), Serial);
        assert_eq!(resolve(&[("GARIBALDI_TRAIN_MODE", "async")], Serial).unwrap(), Serial);
        // Invalid counts and names propagate whatever the outcome —
        // including under an explicit serial engine (validated, unused).
        for (vars, var, value) in [
            (&[("GARIBALDI_ENGINE", "turbo")][..], "GARIBALDI_ENGINE", "turbo"),
            (
                &[("GARIBALDI_ENGINE", "parallel"), ("GARIBALDI_WORKERS", "0")],
                "GARIBALDI_WORKERS",
                "0",
            ),
            (&[("GARIBALDI_WORKERS", "two")], "GARIBALDI_WORKERS", "two"),
            (
                &[("GARIBALDI_WORKERS", "18446744073709551616")],
                "GARIBALDI_WORKERS",
                "18446744073709551616",
            ),
            (
                &[("GARIBALDI_WORKERS", "2"), ("GARIBALDI_SYNC_EVERY", "0")],
                "GARIBALDI_SYNC_EVERY",
                "0",
            ),
            (&[("GARIBALDI_SYNC_EVERY", "nope")], "GARIBALDI_SYNC_EVERY", "nope"),
            (
                &[("GARIBALDI_ENGINE", "serial"), ("GARIBALDI_TRAIN_MODE", "eventually")],
                "GARIBALDI_TRAIN_MODE",
                "eventually",
            ),
            (&[("GARIBALDI_TRAIN_MODE", "lazy")], "GARIBALDI_TRAIN_MODE", "lazy"),
        ] {
            let err = resolve(vars, Serial).unwrap_err();
            assert!(err.contains(var) && err.contains(value), "{vars:?}: {err}");
        }
        // Every removed variable is rejected whatever its value and
        // whatever else is set, naming itself as removed: ignoring one
        // would quietly run a different engine or geometry (the estimator
        // once selected the parallel engine on its own).
        for (vars, var) in [
            (&[("GARIBALDI_ESTIMATOR", "ewma")][..], "GARIBALDI_ESTIMATOR"),
            (
                &[("GARIBALDI_ESTIMATOR", "optimistic"), ("GARIBALDI_WORKERS", "2")],
                "GARIBALDI_ESTIMATOR",
            ),
            (&[("GARIBALDI_ESTIMATOR", ""), ("GARIBALDI_ENGINE", "serial")], "GARIBALDI_ESTIMATOR"),
            (&[("GARIBALDI_SHARDS", "8")], "GARIBALDI_SHARDS"),
            (&[("GARIBALDI_SHARDS", "4"), ("GARIBALDI_ENGINE", "parallel")], "GARIBALDI_SHARDS"),
            (&[("GARIBALDI_EPOCH", "20000")], "GARIBALDI_EPOCH"),
            (&[("GARIBALDI_EPOCH", "0"), ("GARIBALDI_ENGINE", "serial")], "GARIBALDI_EPOCH"),
            (&[("GARIBALDI_INNER_WORKERS", "2")], "GARIBALDI_INNER_WORKERS"),
            (
                &[("GARIBALDI_INNER_WORKERS", "2"), ("GARIBALDI_WORKERS", "4")],
                "GARIBALDI_INNER_WORKERS",
            ),
        ] {
            for default in [Serial, default_par] {
                let err = resolve(vars, default).unwrap_err();
                assert!(err.contains(var) && err.contains("removed"), "{vars:?}: {err}");
            }
        }
    }

    #[test]
    fn engine_choice_tags() {
        assert_eq!(EngineChoice::Serial.tag(), "serial");
        // The default geometry — the key every fidelity golden and bench
        // checkpoint row is stored under.
        let e = EngineConfig { workers: 9, ..EngineConfig::default() };
        assert_eq!(
            EngineChoice::Parallel(e).tag(),
            "sharded-s8-e20000-ewma-k8",
            "workers excluded"
        );
        let e = EngineConfig { train_mode: TrainMode::Async, ..e };
        assert_eq!(EngineChoice::Parallel(e).tag(), "sharded-s8-e20000-ewma-k8-async");
        // Every-barrier sync carries no `-k` (the pre-knob ewma keys).
        let e = EngineConfig { epoch_cycles: 50_000, sync_every: 1, ..EngineConfig::default() };
        assert_eq!(EngineChoice::Parallel(e).tag(), "sharded-s8-e50000-ewma");
        let e = EngineConfig { llc_shards: 2, sync_every: 4, ..e };
        assert_eq!(EngineChoice::Parallel(e).tag(), "sharded-s2-e50000-ewma-k4");
        // The suffix-free `sharded-s<S>-e<E>[-async]` form named the
        // retired optimistic model: no configuration may mint it again.
        for train_mode in TrainMode::ALL {
            for sync_every in [1, 8] {
                let e = EngineConfig { train_mode, sync_every, ..EngineConfig::default() };
                let t = EngineChoice::Parallel(e).tag();
                assert!(t.starts_with("sharded-s8-e20000-ewma"), "{t}");
            }
        }
    }
}
