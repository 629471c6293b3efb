//! Reference inputs for what a workload does not exercise.
//!
//! Every run prints every declared metric. A traced workload measures the
//! layers its own pass drives; [`complete`] measures each remaining layer
//! on a small fixed input (quick MP3D, the serve cell of pool entry 0, the
//! 3-node model), checked against the same committed digests. Likewise a
//! workload without a serve cell reports the serve metrics of pool entry 0,
//! and `serve_hot`, which has no batch programs, reports the design metrics
//! of the quick-scale Figure 3/4/6/7 runs.

use ccsim_engine::{replay, RunStats};
use ccsim_harness::{chaos_plan, default_workers, run_cached_at, run_key, CacheMode, JobSet};
use ccsim_stats::{render_triptych, Triptych};
use ccsim_util::{FromJson, Json};
use ccsim_workloads::{capture_spec, run_spec};

use crate::check::accesses;
use crate::jobs::{paper_sweep, Job};
use crate::layers::{serve_generators, trace_accesses, trace_layers};
use crate::metrics::{Report, PROTOCOLS};
use crate::span::{self, Span, Tracer};
use crate::workloads::{cache_warm, protocol_check, serve_hot, set_serve_counts};
use crate::Ctx;

/// Quick MP3D under LS, the reference run.
fn quick_mp3d_ls() -> Job {
    paper_sweep(false)
        .into_iter()
        .find(|j| j.label == "MP3D.4p.ls")
        .expect("the quick figures include MP3D under LS")
}

/// Simulate `jobs` through `JobSet` with the cache off and check them
/// against the quick set's digests.
fn quick_runs(ctx: &mut Ctx, jobs: &[Job]) -> Result<Vec<RunStats>, String> {
    let mut set = JobSet::new();
    for j in jobs {
        set.push(j.cfg, j.spec.clone());
    }
    let workers = default_workers(jobs.iter().map(|j| j.cfg.nodes as usize).max().unwrap_or(1));
    let runs: Vec<RunStats> = set
        .run_checked_with(workers, CacheMode::Off, ctx.scratch.clone())
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    for (j, s) in jobs.iter().zip(&runs) {
        let outcome = cache_warm::expect_quick(&ctx.expected, &j.cfg, &j.spec, s);
        ctx.tally.record(&format!("reference {}", j.label), outcome);
    }
    Ok(runs)
}

/// The quick-scale Figure 3/4/6/7 triptychs: (program, Baseline/AD/LS).
pub fn quick_figures(ctx: &mut Ctx) -> Result<Vec<(&'static str, Vec<RunStats>)>, String> {
    let jobs = paper_sweep(false);
    let runs = quick_runs(ctx, &jobs)?;
    Ok(jobs
        .chunks(PROTOCOLS.len())
        .zip(runs.chunks(PROTOCOLS.len()))
        .map(|(j, r)| (j[0].spec.name(), r.to_vec()))
        .collect())
}

/// The serve cell of pool entry 0 under every protocol, checked.
pub fn serve_cell(ctx: &mut Ctx, t: Option<&Tracer>) -> Result<serve_hot::Cell, String> {
    let cells = serve_hot::simulate(&[0], t);
    serve_hot::check(&ctx.expected, &mut ctx.tally, &[0], &cells);
    cells.into_iter().next().expect("one entry simulated")
}

fn has(t: &Tracer, name: &str) -> bool {
    t.totals().contains_key(name)
}

/// Quick MP3D under LS: one live run, its replay, and the trace-driven
/// layers.
fn engine_layers(ctx: &mut Ctx, t: &Tracer, report: &mut Report) -> Result<(), String> {
    let job = &quick_mp3d_ls();
    let live = t.span_items(t.current(), "engine", "engine.live", || {
        let s = run_spec(job.cfg, &job.spec);
        let n = accesses(&s);
        (s, n)
    });
    let (stats, trace) = t.span("engine", "engine.capture", || {
        capture_spec(job.cfg, &job.spec)
    });
    let outcome =
        cache_warm::expect_quick(&ctx.expected, &job.cfg, &job.spec, &live).and_then(|()| {
            if stats == live {
                Ok(())
            } else {
                Err("captured run differs from the live run".to_string())
            }
        });
    ctx.tally.record("reference live run", outcome);
    let n = trace_accesses(&trace);
    t.span_items(t.current(), "engine", "engine.replay", || {
        (replay(job.cfg, &trace, &[]), n)
    });
    let hits = trace_layers(t, job.cfg, &trace, chaos_plan(60, ctx.seed));
    report.set(
        "cache.l1_hit_pct",
        100.0 * hits.l1 as f64 / hits.probes.max(1) as f64,
    );
    report.set(
        "cache.l2_hit_pct",
        100.0 * hits.l2 as f64 / hits.probes.max(1) as f64,
    );
    Ok(())
}

/// Quick MP3D under LS through a fresh run cache: key hashing, warm reads
/// and entry decoding.
fn harness_layers(ctx: &mut Ctx, t: &Tracer) -> Result<(), String> {
    const ROUNDS: u64 = 200;
    let job = &quick_mp3d_ls();
    let dir = ctx.fresh_dir("reference-cache");
    let filled = run_cached_at(job.cfg, &job.spec, CacheMode::ReadWrite, &dir);
    t.span_items(t.current(), "harness", "harness.run_key", || {
        for _ in 0..ROUNDS {
            std::hint::black_box(run_key(&job.cfg, &job.spec));
        }
        ((), ROUNDS)
    });
    let path = dir.join(format!("{}.json", run_key(&job.cfg, &job.spec)));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    for _ in 0..ROUNDS {
        let warm = t.span("harness", "harness.warm_read", || {
            run_cached_at(job.cfg, &job.spec, CacheMode::ReadWrite, &dir)
        });
        let decoded = t.span(
            "harness",
            "harness.decode",
            || -> Result<RunStats, String> {
                RunStats::from_json(Json::parse(&text)?.req("stats")?)
            },
        )?;
        if warm != filled || decoded != filled {
            ctx.tally.record(
                "reference warm read",
                Err("re-read differs from what was filled".to_string()),
            );
            return Ok(());
        }
    }
    ctx.tally.record("reference warm read", Ok(()));
    Ok(())
}

/// Measure every layer the workload left out, then derive the per-layer
/// host-time metrics from the spans.
pub fn complete(ctx: &mut Ctx, t: &Tracer, report: &mut Report) -> Result<(), String> {
    if !has(t, "model.explore") {
        // The protocol_check pass (model, proof, chaos) with quick MP3D as
        // the only race input.
        let inputs = protocol_check::capture(
            protocol_check::race_jobs()
                .into_iter()
                .take(PROTOCOLS.len())
                .collect(),
        );
        let p = protocol_check::checked_pass(ctx, &inputs, Some(t));
        protocol_check::set_model_counts(report, &inputs, &p);
    }
    if !has(t, "engine.replay") {
        engine_layers(ctx, t, report)?;
    }
    if !has(t, "harness.warm_read") {
        harness_layers(ctx, t)?;
    }
    if report.get("harness.jobset_speedup").is_none() || !has(t, "stats.render") {
        // Quick MP3D under every protocol, serially and through `JobSet`.
        let jobs: Vec<Job> = paper_sweep(false)
            .into_iter()
            .take(PROTOCOLS.len())
            .collect();
        for j in &jobs {
            t.span("engine", "engine.serial_run", || {
                std::hint::black_box(run_spec(j.cfg, &j.spec))
            });
        }
        let start = std::time::Instant::now();
        let runs = quick_runs(ctx, &jobs)?;
        let pooled_s = crate::secs(start);
        if report.get("harness.jobset_speedup").is_none() {
            let serial_s = t.totals()["engine.serial_run"].ns as f64 / 1e9;
            report.set("harness.jobset_speedup", serial_s / pooled_s);
        }
        if !has(t, "stats.render") {
            t.span("stats", "stats.render", || {
                std::hint::black_box(render_triptych(&Triptych::new("MP3D", &runs)))
            });
        }
    }
    if !has(t, "serve.run") {
        let cell = serve_cell(ctx, Some(t))?;
        set_serve_counts(report, cell.iter());
    }
    if !has(t, "serve.zipf") {
        serve_generators(t, &serve_hot::config(0));
    }
    let totals = t.totals();
    let per = |name: &str| {
        let x = totals.get(name).copied().unwrap_or_default();
        x.ns as f64 / x.items.max(1) as f64
    };
    let per_call = |name: &str| {
        let x = totals.get(name).copied().unwrap_or_default();
        x.ns as f64 / x.calls.max(1) as f64
    };
    report.set("engine.live_ns_per_access", per("engine.live"));
    report.set("engine.replay_ns_per_access", per("engine.replay"));
    report.set(
        "engine.sched_ns_per_access",
        per("engine.live") - per("engine.replay"),
    );
    report.set("cache.probe_ns", per("cache.probe"));
    report.set("core.dir_op_ns", per("core.dir_op"));
    report.set("network.send_ns", per("network.send"));
    report.set("network.send_faulty_ns", per("network.send_faulty"));
    report.set("harness.run_key_us", per("harness.run_key") / 1e3);
    report.set("harness.warm_read_us", per("harness.warm_read") / 1e3);
    report.set("harness.decode_us", per("harness.decode") / 1e3);
    report.set(
        "harness.chaos_ms_per_cell",
        per("harness.chaos_sweep") / 1e6,
    );
    report.set("stats.render_us", per_call("stats.render") / 1e3);
    report.set("serve.run_ns_per_txn", per("serve.run"));
    report.set("serve.zipf_ns", per("serve.zipf"));
    report.set("serve.arrival_ns", per("serve.arrival"));
    report.set("model.ns_per_state", per("model.explore"));
    report.set("model.verify_ms", per_call("model.verify") / 1e6);
    report.set("race.ns_per_event", per("race.check"));
    Ok(())
}

/// Each layer's self time over the whole traced run.
pub fn set_self_times(spans: &[Span], report: &mut Report) {
    let own = span::self_ns_by_layer(spans);
    for layer in [
        "engine", "cache", "core", "network", "harness", "stats", "serve", "model", "race",
    ] {
        report.set(
            format!("{layer}.self_s"),
            own.get(layer).copied().unwrap_or(0) as f64 / 1e9,
        );
    }
}
