//! Per-layer micro-benchmarks: the hot public functions of the cache,
//! pair-table and LLC-shard layers, timed from outside on inputs drawn from
//! the run's seed and sized by the workload's system configuration.

use crate::spans::Recorder;
use garibaldi::{DppnTable, PairTable};
use garibaldi_cache::{AccessCtx, CacheConfig, PolicyKind, SetAssocCache};
use garibaldi_sim::engine::request::{LlcRequest, ReqKey, ReqKind, ShardCmd};
use garibaldi_sim::engine::shard::{DrainOut, LlcShard, ThresholdSnapshot};
use garibaldi_sim::SystemConfig;
use garibaldi_types::{LineAddr, VirtAddr};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per micro-benchmark; the median is reported.
const REPS: usize = 5;

/// xorshift64 stream seeded from the run's seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Median ns per iteration of `iters` calls of `f`, over [`REPS`] timed
/// repetitions, each recorded as a span named `name`.
fn ns_per_iter<R>(
    rec: &mut Recorder,
    name: &'static str,
    iters: u64,
    mut f: impl FnMut() -> R,
) -> (&'static str, f64) {
    let mut per = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        rec.span(name, |_| {
            for _ in 0..iters {
                black_box(f());
            }
        });
        per.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    (name, crate::median(&mut per))
}

/// Runs every micro-benchmark; returns `(metric name, ns/iter)` pairs.
pub fn run(cfg: &SystemConfig, seed: u64, rec: &mut Recorder) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut rng = Rng::new(seed);
    let llc_sets = CacheConfig::from_capacity("llc", cfg.llc_bytes, cfg.llc_ways).sets;

    // Set-associative cache probe and fill on the workload's LLC geometry.
    let resident = (llc_sets * cfg.llc_ways) as u64;
    let filled = || {
        let mut c =
            SetAssocCache::new(CacheConfig::new("llc", llc_sets, cfg.llc_ways), PolicyKind::Lru);
        for l in 0..resident {
            c.insert(LineAddr::new(l), &AccessCtx::data(LineAddr::new(l), l), false);
        }
        c
    };
    let mut hit_c = filled();
    out.push(ns_per_iter(rec, "cache.access_hit_ns", 400_000, || {
        let la = LineAddr::new(rng.next() % resident);
        hit_c.access(&AccessCtx::data(la, la.get()), false)
    }));
    let mut miss_c = filled();
    out.push(ns_per_iter(rec, "cache.access_miss_ns", 400_000, || {
        // Same sets as the resident lines, no tag match.
        let la = LineAddr::new(resident + rng.next() % resident);
        miss_c.access(&AccessCtx::data(la, la.get()), false)
    }));
    let mut ev_c = filled();
    let mut next_line = resident;
    out.push(ns_per_iter(rec, "cache.insert_evict_ns", 400_000, || {
        // Strictly new lines: every insert misses a full set and evicts.
        next_line += 1 + rng.next() % 3;
        let la = LineAddr::new(next_line);
        ev_c.insert(la, &AccessCtx::data(la, la.get()), false)
    }));

    // Learned-state merge: one barrier's pooled consensus over the
    // default eight shards' Mockingjay predictor exports.
    let peers: Vec<SetAssocCache> = (0..8)
        .map(|_| {
            let mut c =
                SetAssocCache::new(CacheConfig::new("merge", 64, 8), PolicyKind::Mockingjay);
            for _ in 0..4_000 {
                let la = LineAddr::new(rng.next() % 2_048);
                let ctx = AccessCtx::data(la, 0x40_0000 + (rng.next() % 256) * 4);
                if !c.access(&ctx, false) {
                    c.insert(la, &ctx, false);
                }
            }
            c
        })
        .collect();
    let exports: Vec<Vec<u32>> = peers.iter().map(|c| c.export_policy_learned()).collect();
    let mut merged = Vec::new();
    out.push(ns_per_iter(rec, "cache.learned_merge_ns", 2_000, || {
        peers[0].merge_policy_learned(&exports, &mut merged);
        merged.len()
    }));

    // Pair table on the workload's Garibaldi configuration.
    let gcfg = cfg.scheme.garibaldi.clone().expect("every workload runs Garibaldi");
    let lines = 4 * gcfg.pair_entries() as u64;
    let mut table = PairTable::new(&gcfg);
    out.push(ns_per_iter(rec, "garibaldi.pair_update_ns", 400_000, || {
        let r = rng.next();
        table.update_on_data(
            LineAddr::new(r % lines),
            r & 1 == 0,
            ((r >> 8) % 8_192) as u16,
            ((r >> 24) % 64) as u8,
            ((r >> 32) % 8) as u8,
            32,
        );
    }));
    out.push(ns_per_iter(rec, "garibaldi.pair_query_ns", 400_000, || {
        table.query_protect(LineAddr::new(rng.next() % lines), 0, 32)
    }));
    let dppn = DppnTable::new(64);
    let mut cands = Vec::new();
    out.push(ns_per_iter(rec, "garibaldi.prefetch_candidates_ns", 400_000, || {
        table.prefetch_candidates_into(LineAddr::new(rng.next() % lines), &dppn, &mut cands);
        cands.len()
    }));

    // One whole-LLC shard resolving a sorted 512-request run (phase A) and
    // a 512-command run (phase B) per iteration.
    const RUN: u32 = 512;
    let mut shard = LlcShard::new(cfg, 0, 1, llc_sets);
    let snap = ThresholdSnapshot { color: 0, threshold: 4 };
    let span = 1u64 << 20;
    let clusters = cfg.clusters() as u64;
    let mut now = 0u64;
    let reqs: Vec<LlcRequest> = (0..RUN)
        .map(|seq| {
            let a = rng.next();
            now += 1 + a % 3;
            let kind = match a % 8 {
                0..=2 => ReqKind::Instr { demand: a % 16 < 12 },
                3..=5 => ReqKind::Data {
                    is_write: a.is_multiple_of(5),
                    il_hint: a.is_multiple_of(3).then(|| LineAddr::new((a >> 8) % span)),
                    ifetch_seq: None,
                },
                6 => ReqKind::Writeback { is_instr: a.is_multiple_of(2) },
                _ => ReqKind::PfProbe,
            };
            LlcRequest {
                key: ReqKey { now, core: (a % cfg.cores as u64) as u16, seq },
                line: LineAddr::new(a % span),
                pc: VirtAddr::new((a & 0xffff_fff0) << 2),
                sig: a >> 17,
                cluster: (a % clusters) as u16,
                kind,
            }
        })
        .collect();
    let mut drained = DrainOut::default();
    out.push(ns_per_iter(rec, "engine.shard_drain_run_ns", 400, || {
        shard.drain(&reqs, snap, &mut drained);
        drained.outcomes.len()
    }));
    let cmds: Vec<(ReqKey, ShardCmd)> = (0..RUN)
        .map(|seq| {
            let a = rng.next();
            now += 1 + a % 3;
            let cmd = if a.is_multiple_of(3) {
                ShardCmd::PairwisePrefetch { dl: LineAddr::new(a % span), sig: a >> 13, now }
            } else {
                ShardCmd::PairUpdate {
                    il: LineAddr::new((a >> 7) % span),
                    data_hit: a.is_multiple_of(2),
                    dl: LineAddr::new((a >> 11) % span),
                }
            };
            (ReqKey { now, core: (a % cfg.cores as u64) as u16, seq }, cmd)
        })
        .collect();
    out.push(ns_per_iter(rec, "engine.apply_cmds_run_ns", 400, || shard.apply_cmds(&cmds, snap)));
    out
}
