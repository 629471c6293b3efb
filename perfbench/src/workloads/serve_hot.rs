//! `serve_hot`: the paper-scale open-loop zipf serve cell under Baseline,
//! AD and LS, over many seeds.
//!
//! The cell is `ServeConfig::paper()` (2M clients, the paper-scale TPC-B
//! schema, bursts, wards) with zipf skew 1.2, an offered rate of 800
//! arrivals per Mcycle and a 48-deep admission queue per node. At that rate
//! LS drops about 0.5% of arrivals, so its p99 measures service rather than
//! a full queue; Baseline drops about 4%: it sits above capacity, which is
//! the paper's point.
//!
//! Each run simulates 60 seeds drawn by `--seed` from a committed pool of
//! 64, whose `ServeSummary` rows are pinned by digest. Runs end when their
//! percentiles converge, so a seed's length varies by about a third, and
//! drops are rare events: sampling most of a fixed pool is what keeps
//! `wall_s` and `serve_drop_pct` steady from run to run. Cells run one at a
//! time; two workers on a two-core host doubled the run-to-run spread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ccsim_engine::RunStats;
use ccsim_serve::{serve_run, summarize, ServeConfig, ServeReport, StopReason, TxnClass};
use ccsim_types::{MachineConfig, ProtocolKind};
use ccsim_util::{ToJson, Xoshiro256pp};

use super::{panic_text, set_run_counts, set_serve_counts};
use crate::check::{accesses, digest, Blesser, Expected, Tally};
use crate::metrics::{Report, PROTOCOLS};
use crate::span::{self, Tracer};
use crate::{median, secs, timed_passes, timed_setup, Ctx};

/// Serve seeds with committed digests.
pub const POOL: usize = 64;
/// Serve seeds one run simulates.
pub const PER_RUN: usize = 60;

/// The serve cell for pool entry `i`.
pub fn config(i: usize) -> ServeConfig {
    let mut cfg = ServeConfig::paper();
    cfg.skew_per_mille = 1200;
    cfg.rate_per_mcycle = 800;
    cfg.queue_cap = 48;
    cfg.seed = ServeConfig::paper().seed + i as u64;
    cfg
}

/// The pool entries a run simulates: [`PER_RUN`] distinct entries drawn by
/// the benchmark seed, in pool order.
pub fn pick(seed: u64) -> Vec<usize> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..POOL).collect();
    for i in 0..PER_RUN {
        let j = i + rng.below((POOL - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(PER_RUN);
    idx.sort_unstable();
    idx
}

/// The three protocol runs of one pool entry, Baseline/AD/LS.
pub type Cell = Vec<ServeReport>;

fn machine(k: ProtocolKind) -> MachineConfig {
    MachineConfig::oltp_scaled(k)
}

/// Simulate every (entry, protocol), one at a time; a panicking run is
/// returned as its message. With a tracer, each run is a `serve.run`
/// span covering its completed transactions.
pub fn simulate(entries: &[usize], t: Option<&Tracer>) -> Vec<Result<Cell, String>> {
    let run = |i: usize, k: ProtocolKind| {
        let cfg = config(i);
        let go =
            || catch_unwind(AssertUnwindSafe(|| serve_run(machine(k), &cfg))).map_err(panic_text);
        span::traced(t, "serve", "serve.run", go, |r| {
            r.as_ref().map_or(0, |r| r.completed)
        })
    };
    entries
        .iter()
        .map(|&i| PROTOCOLS.iter().map(|&(k, _)| run(i, k)).collect())
        .collect()
}

/// The canonical summary rows' digests and stop reasons, per protocol.
pub fn expect_cell(exp: &Expected, i: usize, cell: &[ServeReport]) -> Result<(), String> {
    let s = summarize(&config(i), cell);
    for (row, (_, p)) in s.rows.iter().zip(PROTOCOLS) {
        if row.stop != StopReason::ConvergedPercentiles.label() {
            return Err(format!(
                "seed {i} {p}: stopped by {}, not converged",
                row.stop
            ));
        }
        exp.expect(&format!("serve.{i}.{p}"), &digest(&row.to_json()))?;
    }
    Ok(())
}

pub fn bless_cell(b: &mut Blesser, i: usize, cell: &[ServeReport]) -> Result<(), String> {
    let s = summarize(&config(i), cell);
    for (row, (_, p)) in s.rows.iter().zip(PROTOCOLS) {
        if row.stop != StopReason::ConvergedPercentiles.label() {
            return Err(format!(
                "seed {i} {p}: stopped by {}, not converged",
                row.stop
            ));
        }
        b.record(format!("serve.{i}.{p}"), digest(&row.to_json()));
    }
    Ok(())
}

/// Check every cell, counting each pool entry as one unit.
pub fn check(exp: &Expected, tally: &mut Tally, entries: &[usize], cells: &[Result<Cell, String>]) {
    for (&i, cell) in entries.iter().zip(cells) {
        let outcome = cell
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|c| expect_cell(exp, i, c));
        tally.record(&format!("serve_hot seed {i}"), outcome);
    }
}

fn protocol(cells: &[Result<Cell, String>], k: ProtocolKind) -> impl Iterator<Item = &ServeReport> {
    cells
        .iter()
        .flatten()
        .flatten()
        .filter(move |r| r.protocol == k)
}

/// `serve_p99_cycles` (the mean over seeds of each LS run's read-modify-write
/// p99, as its `ServeSummary` reports it; the p99 of merged histograms
/// would sit on one coarse bucket edge) and `serve_drop_pct` of the LS runs.
pub fn set_serve_metrics(report: &mut Report, cells: &[Result<Cell, String>]) {
    let (mut p99_sum, mut runs) = (0u64, 0u64);
    let (mut dropped, mut offered) = (0u64, 0u64);
    for r in protocol(cells, ProtocolKind::Ls) {
        p99_sum += r.class_hists[TxnClass::Rmw.idx()].percentile_per_mille(990);
        runs += 1;
        dropped += r.dropped;
        offered += r.admitted + r.dropped;
    }
    report.set("serve_p99_cycles", p99_sum as f64 / runs.max(1) as f64);
    report.set(
        "serve_drop_pct",
        100.0 * dropped as f64 / offered.max(1) as f64,
    );
}

/// `ls_ownacq_norm` per completed transaction: open-loop runs end by ward,
/// not by a fixed amount of work, so raw counts are not comparable.
fn set_ownacq_per_txn(report: &mut Report, cells: &[Result<Cell, String>]) {
    let per_txn = |k| {
        let (acq, done) = protocol(cells, k).fold((0u64, 0u64), |(a, d), r| {
            (a + r.stats.dir.ownership_acquisitions(), d + r.completed)
        });
        acq as f64 / done.max(1) as f64
    };
    report.set(
        "ls_ownacq_norm",
        100.0 * per_txn(ProtocolKind::Ls) / per_txn(ProtocolKind::Baseline),
    );
}

fn all_stats(cells: &[Result<Cell, String>]) -> impl Iterator<Item = &RunStats> {
    cells.iter().flatten().flatten().map(|r| &r.stats)
}

/// Draw the entries, validate their configurations, and warm up on pool
/// entry 0's cell (checked like any other).
fn setup(ctx: &mut Ctx) -> Result<Vec<usize>, String> {
    let entries = pick(ctx.seed);
    for &i in &entries {
        config(i).validate()?;
    }
    let warm = simulate(&[0], None);
    check(&ctx.expected, &mut ctx.tally, &[0], &warm);
    Ok(entries)
}

pub fn untraced(ctx: &mut Ctx, report: &mut Report) -> Result<(), String> {
    let (setup_s, entries) = timed_setup(|| setup(ctx));
    let entries = entries?;
    report.set("setup_s", setup_s);
    let mut first = None;
    let mut sim = Vec::new();
    let samples = timed_passes(
        ctx.seconds,
        |pacer| {
            // One unit of work per pool entry: see `crate::pace`.
            let mut cells = Vec::with_capacity(entries.len());
            for (n, &i) in entries.iter().enumerate() {
                if n > 0 {
                    pacer.lap();
                }
                cells.extend(simulate(&[i], None));
            }
            cells
        },
        |cells| {
            check(&ctx.expected, &mut ctx.tally, &entries, &cells);
            sim.push(all_stats(&cells).map(accesses).sum::<u64>() as f64);
            first.get_or_insert(cells);
        },
    );
    let cells = first.expect("at least one pass");
    let wall = median(&samples);
    report.set("wall_s", wall);
    report.set("sim_accesses_per_s", median(&sim) / wall);
    set_serve_metrics(report, &cells);
    set_ownacq_per_txn(report, &cells);
    let figs = crate::reference::quick_figures(ctx)?;
    super::set_design(report, &figs, false);
    Ok(())
}

pub fn traced(ctx: &mut Ctx, t: &Tracer, report: &mut Report) -> Result<(), String> {
    let entries = setup(ctx)?;
    let start = Instant::now();
    let plain = simulate(&entries, None);
    let untraced_s = secs(start);
    check(&ctx.expected, &mut ctx.tally, &entries, &plain);

    let start = Instant::now();
    let cells = t.span("perfbench", "pass", || simulate(&entries, Some(t)));
    let traced_s = secs(start);
    check(&ctx.expected, &mut ctx.tally, &entries, &cells);
    report.set("perfbench.trace_overhead_s", traced_s - untraced_s);
    report.set("harness.hit_pct", 0.0);

    let completed: Vec<Cell> = cells.into_iter().collect::<Result<_, _>>()?;
    t.span("stats", "stats.render", || {
        for (&i, cell) in entries.iter().zip(&completed) {
            std::hint::black_box(summarize(&config(i), cell).to_json().to_string());
        }
    });
    set_run_counts(report, completed.iter().flatten().map(|r| &r.stats));
    set_serve_counts(report, completed.iter().flatten());
    crate::layers::serve_generators(t, &config(entries[0]));
    Ok(())
}
