//! The four workloads, and what they share.

pub mod cache_warm;
pub mod paper_sweep;
pub mod protocol_check;
pub mod serve_hot;

use ccsim_engine::RunStats;
use ccsim_serve::ServeReport;

use crate::check::{accesses, Blesser};
use crate::metrics::{Report, PROTOCOLS};
use crate::paper::{self, Figure};
use crate::span::Tracer;
use crate::Ctx;

pub const NAMES: [&str; 4] = ["paper_sweep", "serve_hot", "cache_warm", "protocol_check"];

/// Measure the end-to-end metrics with tracing off.
pub fn untraced(name: &str, ctx: &mut Ctx, report: &mut Report) -> Result<(), String> {
    match name {
        "paper_sweep" => paper_sweep::untraced(ctx, report)?,
        "serve_hot" => serve_hot::untraced(ctx, report)?,
        "cache_warm" => cache_warm::untraced(ctx, report)?,
        "protocol_check" => protocol_check::untraced(ctx, report)?,
        _ => return Err(format!("unknown workload {name}")),
    }
    if report.get("serve_p99_cycles").is_none() {
        // Workloads without a serve cell report the reference one.
        let cell = crate::reference::serve_cell(ctx, None)?;
        serve_hot::set_serve_metrics(report, &[Ok(cell)]);
    }
    Ok(())
}

/// Run one untraced and one traced pass and record the workload's own
/// per-layer metrics; [`crate::reference::complete`] adds the rest.
pub fn traced(name: &str, ctx: &mut Ctx, t: &Tracer, report: &mut Report) -> Result<(), String> {
    match name {
        "paper_sweep" => paper_sweep::traced(ctx, t, report),
        "serve_hot" => serve_hot::traced(ctx, t, report),
        "cache_warm" => cache_warm::traced(ctx, t, report),
        "protocol_check" => protocol_check::traced(ctx, t, report),
        _ => Err(format!("unknown workload {name}")),
    }
}

/// A panic payload as text.
pub fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// `ls_exec_norm`, `paper_exec_error` and (unless the workload defines its
/// own) `ls_ownacq_norm` from Baseline/AD/LS figures.
pub fn set_design<R: AsRef<[RunStats]>>(report: &mut Report, figs: &[(&str, R)], ownacq: bool) {
    let figs: Vec<Figure> = figs
        .iter()
        .map(|(program, runs)| Figure {
            program,
            runs: runs.as_ref(),
        })
        .collect();
    report.set("ls_exec_norm", paper::ls_exec_norm(&figs));
    report.set("paper_exec_error", paper::exec_error(&figs));
    if ownacq {
        report.set("ls_ownacq_norm", paper::ls_ownacq_norm(&figs));
    }
}

fn suffix(k: ccsim_types::ProtocolKind) -> Option<&'static str> {
    PROTOCOLS.iter().find(|(p, _)| *p == k).map(|(_, s)| *s)
}

/// Add to a per-protocol count metric.
pub fn add_count(report: &mut Report, name: &str, k: ccsim_types::ProtocolKind, v: f64) {
    if let Some(p) = suffix(k) {
        let key = format!("{name}.{p}");
        let old = report.get(&key).unwrap_or(0.0);
        report.set(key, old + v);
    }
}

/// The engine, directory and network counts of simulated runs, summed per
/// protocol (zero for a protocol with no runs).
pub fn set_run_counts<'a>(report: &mut Report, runs: impl Iterator<Item = &'a RunStats>) {
    const COUNTS: [&str; 9] = [
        "engine.accesses",
        "engine.busy_cycles",
        "engine.read_stall_cycles",
        "engine.write_stall_cycles",
        "engine.silent_stores",
        "core.ownership_acqs",
        "core.invalidations",
        "network.traffic_bytes",
        "network.retransmits",
    ];
    let mut ls = [(0u64, 0u64); 3];
    for (_, p) in PROTOCOLS {
        for n in COUNTS {
            report.set(format!("{n}.{p}"), 0.0);
        }
    }
    for r in runs {
        let k = r.protocol;
        let values = [
            accesses(r),
            r.busy(),
            r.read_stall(),
            r.write_stall(),
            r.machine.silent_stores,
            r.dir.ownership_acquisitions(),
            r.dir.invalidations_requested,
            r.traffic.total_bytes(),
            r.machine.retransmits,
        ];
        for (n, v) in COUNTS.iter().zip(values) {
            add_count(report, n, k, v as f64);
        }
        if let Some(i) = PROTOCOLS.iter().position(|(p, _)| *p == k) {
            let o = r.oracle.total();
            ls[i].0 += o.eliminated_ls;
            ls[i].1 += o.ls_writes;
        }
    }
    for ((_, p), (elim, writes)) in PROTOCOLS.iter().zip(ls) {
        report.set(
            format!("engine.ls_coverage_pct.{p}"),
            100.0 * elim as f64 / writes.max(1) as f64,
        );
    }
}

/// The serve counts of serve runs, per protocol: sums, except the deepest
/// admission queue, which is a maximum.
pub fn set_serve_counts<'a>(report: &mut Report, runs: impl Iterator<Item = &'a ServeReport>) {
    for (_, p) in PROTOCOLS {
        for n in [
            "completed",
            "dropped",
            "max_queue",
            "hotrow_conflicts",
            "stop_cycle",
        ] {
            report.set(format!("serve.{n}.{p}"), 0.0);
        }
    }
    for r in runs {
        add_count(report, "serve.completed", r.protocol, r.completed as f64);
        add_count(report, "serve.dropped", r.protocol, r.dropped as f64);
        add_count(
            report,
            "serve.hotrow_conflicts",
            r.protocol,
            r.hot_row_conflicts as f64,
        );
        add_count(report, "serve.stop_cycle", r.protocol, r.cycles as f64);
        if let Some(p) = suffix(r.protocol) {
            let key = format!("serve.max_queue.{p}");
            let deepest = report
                .get(&key)
                .unwrap_or(0.0)
                .max(r.max_queue_depth as f64);
            report.set(key, deepest);
        }
    }
}

/// Re-record every committed digest from the current code; returns how
/// many values were written.
pub fn bless() -> Result<usize, String> {
    let mut b = Blesser::default();
    paper_sweep::bless(&mut b)?;
    cache_warm::bless(&mut b)?;
    protocol_check::bless(&mut b)?;
    let entries: Vec<usize> = (0..serve_hot::POOL).collect();
    for (&i, cell) in entries.iter().zip(serve_hot::simulate(&entries, None)) {
        serve_hot::bless_cell(&mut b, i, &cell?)?;
    }
    let dir = crate::check::expected_dir();
    b.write(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(b.len())
}
