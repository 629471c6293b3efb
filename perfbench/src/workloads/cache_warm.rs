//! `cache_warm`: repeated warm re-reads of the quick-scale `repro_all` run
//! set from a cache that setup fills, and the figures rendered from them.
//!
//! The harness does all the work (run-key hashing, file read, checksum,
//! JSON decode, stats rendering) and the engine none, so this is the
//! control workload: an engine change must not move it.

use std::path::Path;
use std::time::Instant;

use ccsim_engine::RunStats;
use ccsim_harness::{default_workers, run_cached_at, run_key, CacheMode, CacheStats, JobSet};
use ccsim_types::MachineConfig;
use ccsim_util::{FromJson, Json};
use ccsim_workloads::Spec;

use super::set_run_counts;
use crate::check::{accesses, Blesser, Expected, Tally};
use crate::jobs::ReproSet;
use crate::metrics::Report;
use crate::span::Tracer;
use crate::{median, secs, timed_passes, timed_setup, Ctx};

/// The quick set's content keys, which also key its committed digests.
pub fn quick_key(cfg: &MachineConfig, spec: &Spec) -> String {
    format!("quick.{}", run_key(cfg, spec))
}

fn workers(set: &ReproSet) -> usize {
    default_workers(
        set.jobs
            .iter()
            .map(|(c, _)| c.nodes as usize)
            .max()
            .unwrap_or(1),
    )
}

/// Read (or, on a cold cache, simulate and store) the whole set.
fn read_all(set: &ReproSet, dir: &Path) -> Result<Vec<RunStats>, String> {
    let mut js = JobSet::new();
    for (cfg, spec) in &set.jobs {
        js.push(*cfg, spec.clone());
    }
    js.run_checked_with(workers(set), CacheMode::ReadWrite, dir.to_path_buf())
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect()
}

struct Setup {
    set: ReproSet,
    dir: std::path::PathBuf,
    filled: Vec<RunStats>,
}

/// Fill a fresh cache and check what was simulated against the digests.
fn setup(ctx: &mut Ctx) -> Result<Setup, String> {
    let set = ReproSet::quick();
    let dir = ctx.fresh_dir("cache_warm");
    let filled = read_all(&set, &dir)?;
    for ((cfg, spec), s) in set.jobs.iter().zip(&filled) {
        ctx.tally.record(
            "cache_warm fill",
            ctx.expected.expect_run(&quick_key(cfg, spec), s),
        );
    }
    Ok(Setup { set, dir, filled })
}

/// One pass: every run from the warm cache, and every figure rendered.
fn pass(s: &Setup) -> (Result<Vec<RunStats>, String>, CacheStats) {
    let before = CacheStats::snapshot();
    let runs = read_all(&s.set, &s.dir);
    if let Ok(runs) = &runs {
        std::hint::black_box(s.set.render(runs));
    }
    (runs, CacheStats::snapshot().since(&before))
}

/// Decoded must equal filled, with no miss and no quarantined entry.
fn check(
    tally: &mut Tally,
    s: &Setup,
    runs: &Result<Vec<RunStats>, String>,
    counters: &CacheStats,
) {
    let outcome = match runs {
        Err(e) => Err(e.clone()),
        Ok(_) if counters.misses > 0 || counters.quarantined > 0 => Err(format!(
            "{} miss(es), {} quarantined entr(ies) on a warm cache",
            counters.misses, counters.quarantined
        )),
        Ok(runs) => match runs.iter().zip(&s.filled).position(|(a, b)| a != b) {
            Some(i) => Err(format!("run {i} decoded differently from what was filled")),
            None => Ok(()),
        },
    };
    tally.record("cache_warm pass", outcome);
}

pub fn untraced(ctx: &mut Ctx, report: &mut Report) -> Result<(), String> {
    let (setup_s, s) = timed_setup(|| setup(ctx));
    let s = s?;
    report.set("setup_s", setup_s);
    let sim = s.filled.iter().map(accesses).sum::<u64>() as f64;
    let samples = timed_passes(
        ctx.seconds,
        |_| pass(&s),
        |(runs, counters)| check(&mut ctx.tally, &s, &runs, &counters),
    );
    let wall = median(&samples);
    report.set("wall_s", wall);
    report.set("sim_accesses_per_s", sim / wall);
    super::set_design(report, &s.set.figures(&s.filled), true);
    Ok(())
}

pub fn traced(ctx: &mut Ctx, t: &Tracer, report: &mut Report) -> Result<(), String> {
    let s = setup(ctx)?;
    let start = Instant::now();
    let (runs, counters) = pass(&s);
    let untraced_s = secs(start);
    check(&mut ctx.tally, &s, &runs, &counters);
    let start = Instant::now();
    read_all(&s.set, &s.dir)?;
    let jobset_s = secs(start);

    // The traced pass: each warm read, then the rendering, as spans.
    let before = CacheStats::snapshot();
    let start = Instant::now();
    let runs = t.span("perfbench", "pass", || {
        let runs: Vec<RunStats> = s
            .set
            .jobs
            .iter()
            .map(|(cfg, spec)| {
                t.span("harness", "harness.warm_read", || {
                    run_cached_at(*cfg, spec, CacheMode::ReadWrite, &s.dir)
                })
            })
            .collect();
        t.span("stats", "stats.render", || {
            std::hint::black_box(s.set.render(&runs))
        });
        runs
    });
    let traced_s = secs(start);
    let counters = CacheStats::snapshot().since(&before);
    check(&mut ctx.tally, &s, &Ok(runs.clone()), &counters);
    report.set("perfbench.trace_overhead_s", traced_s - untraced_s);
    report.set(
        "harness.jobset_speedup",
        t.totals()["harness.warm_read"].ns as f64 / 1e9 / jobset_s,
    );
    report.set(
        "harness.hit_pct",
        100.0 * counters.hits as f64
            / (counters.hits + counters.misses + counters.bypasses).max(1) as f64,
    );

    // The harness layers one at a time: key hashing, and decoding the
    // entry files the warm reads consumed.
    const ROUNDS: u64 = 20;
    let n = s.set.jobs.len() as u64;
    t.span_items(t.current(), "harness", "harness.run_key", || {
        for _ in 0..ROUNDS {
            for (cfg, spec) in &s.set.jobs {
                std::hint::black_box(run_key(cfg, spec));
            }
        }
        ((), ROUNDS * n)
    });
    for (cfg, spec) in &s.set.jobs {
        let path = s.dir.join(format!("{}.json", run_key(cfg, spec)));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        t.span(
            "harness",
            "harness.decode",
            || -> Result<RunStats, String> {
                RunStats::from_json(Json::parse(&text)?.req("stats")?)
            },
        )?;
    }
    set_run_counts(report, runs.iter());
    Ok(())
}

pub fn bless(b: &mut Blesser) -> Result<(), String> {
    let set = ReproSet::quick();
    let mut js = JobSet::new();
    for (cfg, spec) in &set.jobs {
        js.push(*cfg, spec.clone());
    }
    // The cache is off, so the directory is never touched.
    let runs = js.run_checked_with(workers(&set), CacheMode::Off, std::env::temp_dir());
    for ((cfg, spec), r) in set.jobs.iter().zip(runs) {
        b.record_run(&quick_key(cfg, spec), &r.map_err(|e| e.to_string())?);
    }
    Ok(())
}

/// Check runs of the quick set's configurations against its digests.
pub fn expect_quick(
    exp: &Expected,
    cfg: &MachineConfig,
    spec: &Spec,
    s: &RunStats,
) -> Result<(), String> {
    exp.expect_run(&quick_key(cfg, spec), s)
}
