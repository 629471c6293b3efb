//! `paper_sweep`: cold paper-scale runs through `JobSet` at its default
//! pool size, with the run cache off.
//!
//! MP3D, Cholesky, LU and OLTP under Baseline/AD/LS at 4 nodes (Figures 3,
//! 4, 6 and 7), plus Cholesky at 32 nodes (Figure 5's widest point), which
//! stresses scheduling and invalidation fan-out. The programs load the
//! layers differently: LU spends most of its live time outside the machine,
//! MP3D and OLTP most of it inside. Each program's three runs go through
//! `JobSet`, in batches as wide as its default pool (sized by the widest
//! job), so a pool change shows here and nowhere else.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use ccsim_engine::{replay, RunStats, SimBuilder};
use ccsim_harness::{chaos_plan, default_workers, CacheMode, CacheStats, JobError, JobSet};
use ccsim_stats::{render_fig5, render_triptych, Triptych};
use ccsim_workloads::{capture_spec, cholesky, lu, mp3d, oltp, run_spec, Spec};

use super::{panic_text, set_run_counts};
use crate::check::{accesses, Blesser, Expected, Tally};
use crate::jobs::{paper_sweep, Job};
use crate::layers::{trace_accesses, trace_layers};
use crate::metrics::{Report, PROTOCOLS};
use crate::span::Tracer;
use crate::{median, secs, timed_passes, timed_setup, Ctx};

/// Generate one job's input: machine, memory image and programs, built and
/// dropped unrun.
fn generate(job: &Job) {
    let mut b = SimBuilder::new(job.cfg);
    match &job.spec {
        Spec::Mp3d(p) => mp3d::build(&mut b, p),
        Spec::Lu(p) => {
            lu::build(&mut b, p);
        }
        Spec::Cholesky(p) => {
            cholesky::build(&mut b, p);
        }
        Spec::Oltp(p) => {
            oltp::build(&mut b, p);
        }
    }
    std::hint::black_box(b);
}

/// Build the job list, generate every job's input, and warm up on the
/// quick-scale sweep.
fn setup(scratch: &Path) -> Result<Vec<Job>, String> {
    let jobs = paper_sweep(true);
    jobs.iter().for_each(generate);
    for r in pass(scratch, &paper_sweep(false), &mut || ()) {
        r.map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(jobs)
}

fn workers(jobs: &[Job]) -> usize {
    default_workers(jobs.iter().map(|j| j.cfg.nodes as usize).max().unwrap_or(1))
}

/// One pass, cache off: each program's Baseline/AD/LS runs go through
/// `JobSet` at its default pool size, in batches of as many runs as that
/// pool runs at once, with `lap` between batches (see `crate::pace`).
fn pass(scratch: &Path, jobs: &[Job], lap: &mut dyn FnMut()) -> Vec<Result<RunStats, JobError>> {
    let mut out = Vec::with_capacity(jobs.len());
    for program in jobs.chunks(PROTOCOLS.len()) {
        for batch in program.chunks(workers(program)) {
            if !out.is_empty() {
                lap();
            }
            let mut set = JobSet::new();
            for j in batch {
                set.push(j.cfg, j.spec.clone());
            }
            let dir = scratch.to_path_buf();
            out.extend(set.run_checked_with(workers(batch), CacheMode::Off, dir));
        }
    }
    out
}

fn check(exp: &Expected, tally: &mut Tally, jobs: &[Job], runs: &[Result<RunStats, String>]) {
    for (j, r) in jobs.iter().zip(runs) {
        let outcome = r
            .clone()
            .and_then(|s| exp.expect_run(&format!("paper.{}", j.label), &s));
        tally.record(&format!("paper_sweep {}", j.label), outcome);
    }
}

fn stringify(runs: Vec<Result<RunStats, JobError>>) -> Vec<Result<RunStats, String>> {
    runs.into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect()
}

/// The 4-node Baseline/AD/LS triptychs, by program.
fn figures<'a>(jobs: &'a [Job], runs: &'a [RunStats]) -> Vec<(&'a str, &'a [RunStats])> {
    jobs.chunks(3)
        .zip(runs.chunks(3))
        .filter(|(j, _)| j[0].cfg.nodes == 4)
        .map(|(j, r)| (j[0].spec.name(), r))
        .collect()
}

pub fn untraced(ctx: &mut Ctx, report: &mut Report) -> Result<(), String> {
    let (setup_s, jobs) = timed_setup(|| setup(&ctx.scratch));
    let jobs = jobs?;
    report.set("setup_s", setup_s);
    let mut first = None;
    let mut sim = Vec::new();
    let scratch = ctx.scratch.clone();
    let samples = timed_passes(
        ctx.seconds,
        |pacer| pass(&scratch, &jobs, &mut || pacer.lap()),
        |runs| {
            let runs = stringify(runs);
            check(&ctx.expected, &mut ctx.tally, &jobs, &runs);
            sim.push(runs.iter().flatten().map(accesses).sum::<u64>() as f64);
            first.get_or_insert(runs);
        },
    );
    let wall = median(&samples);
    report.set("wall_s", wall);
    report.set("sim_accesses_per_s", median(&sim) / wall);
    let runs: Vec<RunStats> = first
        .expect("at least one pass")
        .into_iter()
        .collect::<Result<_, _>>()?;
    super::set_design(report, &figures(&jobs, &runs), true);
    Ok(())
}

pub fn traced(ctx: &mut Ctx, t: &Tracer, report: &mut Report) -> Result<(), String> {
    let jobs = setup(&ctx.scratch)?;
    let before = CacheStats::snapshot();
    let start = Instant::now();
    let plain = stringify(pass(&ctx.scratch, &jobs, &mut || ()));
    let untraced_s = secs(start);
    let lookups = CacheStats::snapshot().since(&before);
    check(&ctx.expected, &mut ctx.tally, &jobs, &plain);
    report.set(
        "harness.hit_pct",
        100.0 * lookups.hits as f64
            / (lookups.hits + lookups.misses + lookups.bypasses).max(1) as f64,
    );

    // The traced pass: JobSet's pool and per-job isolation, with one
    // `engine.live` span per run.
    let start = Instant::now();
    let runs = t.span("perfbench", "pass", || {
        let parent = t.current();
        ccsim_util::pool::run_indexed(workers(&jobs), jobs.len(), |i| {
            t.span_items(parent, "engine", "engine.live", || {
                let r = catch_unwind(AssertUnwindSafe(|| run_spec(jobs[i].cfg, &jobs[i].spec)))
                    .map_err(panic_text);
                let n = r.as_ref().map_or(0, accesses);
                (r, n)
            })
        })
    });
    let traced_s = secs(start);
    check(&ctx.expected, &mut ctx.tally, &jobs, &runs);
    report.set("perfbench.trace_overhead_s", traced_s - untraced_s);
    report.set(
        "harness.jobset_speedup",
        t.totals()["engine.live"].ns as f64 / 1e9 / untraced_s,
    );
    let runs: Vec<RunStats> = runs.into_iter().collect::<Result<_, _>>()?;

    t.span("stats", "stats.render", || {
        for (program, rs) in figures(&jobs, &runs) {
            std::hint::black_box(render_triptych(&Triptych::new(program, rs)));
        }
        let wide: Vec<RunStats> = jobs
            .iter()
            .zip(&runs)
            .filter(|(j, _)| j.cfg.nodes == 32)
            .map(|(_, r)| r.clone())
            .collect();
        std::hint::black_box(render_fig5(&[(32, wide)]));
    });

    // Replay and the trace-driven layers, one run at a time to bound memory.
    let (mut probes, mut l1, mut l2) = (0, 0, 0);
    for (i, j) in jobs.iter().enumerate() {
        let (stats, trace) = t.span("engine", "engine.capture", || capture_spec(j.cfg, &j.spec));
        let n = trace_accesses(&trace);
        let outcome = if stats != runs[i] {
            Err("captured run differs from the live run".to_string())
        } else if n != accesses(&stats) {
            Err(format!(
                "trace holds {n} accesses, statistics count {}",
                accesses(&stats)
            ))
        } else {
            Ok(())
        };
        ctx.tally
            .record(&format!("paper_sweep capture {}", j.label), outcome);
        t.span_items(t.current(), "engine", "engine.replay", || {
            (replay(j.cfg, &trace, &[]), n)
        });
        let hits = trace_layers(t, j.cfg, &trace, chaos_plan(60, ctx.seed));
        probes += hits.probes;
        l1 += hits.l1;
        l2 += hits.l2;
    }
    report.set("cache.l1_hit_pct", 100.0 * l1 as f64 / probes.max(1) as f64);
    report.set("cache.l2_hit_pct", 100.0 * l2 as f64 / probes.max(1) as f64);
    set_run_counts(report, runs.iter());
    Ok(())
}

pub fn bless(b: &mut Blesser) -> Result<(), String> {
    let jobs = paper_sweep(true);
    let mut set = JobSet::new();
    for j in &jobs {
        set.push(j.cfg, j.spec.clone());
    }
    // The cache is off, so the directory is never touched.
    let dir = std::env::temp_dir();
    for (j, r) in jobs
        .iter()
        .zip(set.run_checked_with(workers(&jobs), CacheMode::Off, dir))
    {
        b.record_run(
            &format!("paper.{}", j.label),
            &r.map_err(|e| e.to_string())?,
        );
    }
    Ok(())
}
