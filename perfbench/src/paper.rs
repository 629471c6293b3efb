//! Modelled-design metrics and the paper's reference values.
//!
//! The reference is the paper's own *simulated* results (its Figures 3, 4,
//! 6 and 7, as quoted in EXPERIMENTS.md); the model is not checked against
//! hardware.

use ccsim_engine::RunStats;
use ccsim_stats::Triptych;
use ccsim_types::ProtocolKind;

/// Normalized execution time (Baseline = 100) the paper reports, for every
/// cell where EXPERIMENTS.md states a value: (program, protocol, value).
pub const PAPER_EXEC: &[(&str, ProtocolKind, f64)] = &[
    ("MP3D", ProtocolKind::Ad, 83.0),
    ("MP3D", ProtocolKind::Ls, 77.0),
    ("Cholesky", ProtocolKind::Ad, 100.0),
    ("Cholesky", ProtocolKind::Ls, 70.0),
    ("LU", ProtocolKind::Ls, 84.0),
    ("OLTP", ProtocolKind::Ad, 95.0),
    ("OLTP", ProtocolKind::Ls, 87.0),
];

/// One program's Baseline/AD/LS runs at the same node count.
pub struct Figure<'a> {
    pub program: &'a str,
    pub runs: &'a [RunStats],
}

fn by_protocol(runs: &[RunStats], k: ProtocolKind) -> &RunStats {
    runs.iter()
        .find(|r| r.protocol == k)
        .expect("a figure holds one run per protocol")
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0u32), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

/// LS execution time with Baseline = 100, averaged over the figures.
pub fn ls_exec_norm(figs: &[Figure]) -> f64 {
    mean(figs.iter().map(|f| {
        Triptych::new(f.program, f.runs)
            .run(ProtocolKind::Ls)
            .expect("LS run present")
            .time_total()
    }))
}

/// LS ownership acquisitions with Baseline = 100, averaged over the figures.
pub fn ls_ownacq_norm(figs: &[Figure]) -> f64 {
    mean(figs.iter().map(|f| {
        let acq = |k| by_protocol(f.runs, k).dir.ownership_acquisitions() as f64;
        100.0 * acq(ProtocolKind::Ls) / acq(ProtocolKind::Baseline)
    }))
}

/// Mean absolute difference, in normalized-execution points, between the
/// figures and the paper over every cell the paper states.
pub fn exec_error(figs: &[Figure]) -> f64 {
    let mut diffs = Vec::new();
    for f in figs {
        let t = Triptych::new(f.program, f.runs);
        for &(program, k, paper) in PAPER_EXEC {
            if program == f.program {
                let measured = t.run(k).expect("protocol run present").time_total();
                diffs.push((measured - paper).abs());
            }
        }
    }
    assert!(!diffs.is_empty(), "no figure has a paper reference value");
    mean(diffs.into_iter())
}
