//! The run sets the workloads simulate or re-read.
//!
//! `paper_sweep` is the paper-scale subset that reproducing Figures 3–7
//! waits on. `ReproSet` mirrors the quick-scale run set of `repro_all`,
//! figure by figure, and renders its output from results alone.

use ccsim_bench::{
    render_consistency, render_dsi, render_static_comparison, render_sweep, render_table1,
    render_topology, render_variation, VariationReport,
};
use ccsim_engine::RunStats;
use ccsim_stats::{
    render_fig5, render_table2, render_table3, render_table4, render_triptych, Triptych,
};
use ccsim_types::{Consistency, MachineConfig, ProtocolKind, Topology};
use ccsim_workloads::{cholesky, lu, mp3d, oltp, Spec};

use crate::metrics::PROTOCOLS;

/// One simulation with a stable label (`<program>.<nodes>p.<protocol>`).
#[derive(Clone, Debug)]
pub struct Job {
    pub label: String,
    pub cfg: MachineConfig,
    pub spec: Spec,
}

impl Job {
    fn new(cfg: MachineConfig, spec: Spec) -> Job {
        let protocol = PROTOCOLS
            .iter()
            .find(|(k, _)| *k == cfg.protocol.kind)
            .map_or("other", |(_, p)| p);
        Job {
            label: format!("{}.{}p.{}", spec.name(), cfg.nodes, protocol),
            cfg,
            spec,
        }
    }
}

/// MP3D, Cholesky, LU and OLTP at 4 nodes, then Cholesky at 32 nodes, each
/// under Baseline, AD and LS (15 runs). With `paper` false: the quick sizes
/// at 4 nodes only (quick Cholesky does not divide over 32 processors),
/// which are the quick-scale Figure 3/4/6/7 runs.
pub fn paper_sweep(paper: bool) -> Vec<Job> {
    let pick = |p: Spec, q: Spec| if paper { p } else { q };
    type ConfigFor = fn(ProtocolKind) -> MachineConfig;
    let programs: [(Spec, ConfigFor); 4] = [
        (
            pick(
                Spec::Mp3d(mp3d::Mp3dParams::paper()),
                Spec::Mp3d(mp3d::Mp3dParams::quick()),
            ),
            MachineConfig::splash_baseline,
        ),
        (
            pick(
                Spec::Cholesky(cholesky::CholeskyParams::paper()),
                Spec::Cholesky(cholesky::CholeskyParams::quick()),
            ),
            MachineConfig::splash_baseline,
        ),
        (
            pick(
                Spec::Lu(lu::LuParams::paper()),
                Spec::Lu(lu::LuParams::quick()),
            ),
            MachineConfig::splash_baseline,
        ),
        (
            pick(
                Spec::Oltp(oltp::OltpParams::paper()),
                Spec::Oltp(oltp::OltpParams::quick()),
            ),
            MachineConfig::oltp_scaled,
        ),
    ];
    let mut jobs = Vec::new();
    for (spec, cfg_for) in programs {
        for (k, _) in PROTOCOLS {
            jobs.push(Job::new(cfg_for(k), spec.clone()));
        }
    }
    if !paper {
        return jobs;
    }
    // Figure 5's widest point: the problem stays fixed while processors
    // scale, as the paper does.
    let mut wide = cholesky::CholeskyParams::paper();
    wide.procs = 32;
    for (k, _) in PROTOCOLS {
        jobs.push(Job::new(
            MachineConfig::splash_baseline(k).with_nodes(32),
            Spec::Cholesky(wide.clone()),
        ));
    }
    jobs
}

/// How one slice of the repro set is rendered.
enum Part {
    /// A triptych; OLTP's also feeds Tables 2 and 3.
    Figure {
        name: &'static str,
        tables: bool,
    },
    Fig5(Vec<u16>),
    Tab4(Vec<u64>),
    Variation(Vec<(&'static str, usize)>),
    Static,
    Dsi,
    Consistency(Vec<String>),
    Topology(Vec<&'static str>),
    Sweep {
        title: &'static str,
        unit: &'static str,
        params: Vec<u64>,
    },
}

impl Part {
    fn runs(&self) -> usize {
        let per = PROTOCOLS.len();
        match self {
            Part::Figure { .. } => per,
            Part::Fig5(p) => per * p.len(),
            Part::Tab4(s) => s.len(),
            Part::Variation(groups) => groups.iter().map(|(_, n)| n).sum(),
            Part::Static | Part::Dsi => 4,
            Part::Consistency(labels) => per * labels.len(),
            Part::Topology(labels) => per * labels.len(),
            Part::Sweep { params, .. } => per * params.len(),
        }
    }
}

/// The quick-scale run set of `repro_all`, in its order, and how to render
/// it (71 runs, 48 of them distinct).
pub struct ReproSet {
    pub jobs: Vec<(MachineConfig, Spec)>,
    parts: Vec<Part>,
}

fn all_protocols(
    jobs: &mut Vec<(MachineConfig, Spec)>,
    cfg_for: impl Fn(ProtocolKind) -> MachineConfig,
    spec: &Spec,
) {
    for (k, _) in PROTOCOLS {
        jobs.push((cfg_for(k), spec.clone()));
    }
}

impl ReproSet {
    pub fn quick() -> ReproSet {
        let mp3d = Spec::Mp3d(mp3d::Mp3dParams::quick());
        let cholesky = Spec::Cholesky(cholesky::CholeskyParams::quick());
        let lu = Spec::Lu(lu::LuParams::quick());
        let oltp = Spec::Oltp(oltp::OltpParams::quick());
        let splash = MachineConfig::splash_baseline;
        let scaled = MachineConfig::oltp_scaled;
        let mut jobs = Vec::new();
        let mut parts = Vec::new();

        for (name, spec, cfg_for, tables) in [
            ("MP3D (Figure 3)", &mp3d, splash as fn(_) -> _, false),
            ("Cholesky (Figure 4)", &cholesky, splash, false),
        ] {
            all_protocols(&mut jobs, cfg_for, spec);
            parts.push(Part::Figure { name, tables });
        }
        let procs = vec![4u16, 8];
        for &p in &procs {
            let mut params = cholesky::CholeskyParams::quick();
            params.procs = p;
            all_protocols(
                &mut jobs,
                |k| splash(k).with_nodes(p),
                &Spec::Cholesky(params),
            );
        }
        parts.push(Part::Fig5(procs));
        all_protocols(&mut jobs, splash, &lu);
        parts.push(Part::Figure {
            name: "LU (Figure 6)",
            tables: false,
        });
        all_protocols(&mut jobs, scaled, &oltp);
        parts.push(Part::Figure {
            name: "OLTP (Figure 7)",
            tables: true,
        });

        let sizes = vec![16u64, 32, 64];
        for &bs in &sizes {
            jobs.push((
                scaled(ProtocolKind::Baseline).with_block_bytes(bs),
                oltp.clone(),
            ));
        }
        parts.push(Part::Tab4(sizes));

        for (kind, default_tagged) in [
            (ProtocolKind::Ls, false),
            (ProtocolKind::Ls, true),
            (ProtocolKind::Ad, false),
            (ProtocolKind::Ad, true),
        ] {
            let mut cfg = splash(kind);
            cfg.protocol.ls.default_tagged = default_tagged && kind == ProtocolKind::Ls;
            cfg.protocol.ad.default_tagged = default_tagged && kind == ProtocolKind::Ad;
            jobs.push((cfg, mp3d.clone()));
        }
        for keep in [false, true] {
            let mut cfg = scaled(ProtocolKind::Ls);
            cfg.protocol.ls.keep_on_unpaired_write = keep;
            jobs.push((cfg, oltp.clone()));
        }
        for (tag_h, detag_h) in [(1u8, 1u8), (2, 1), (1, 2)] {
            let mut cfg = scaled(ProtocolKind::Ls);
            cfg.protocol.ls.tag_hysteresis = tag_h;
            cfg.protocol.ls.detag_hysteresis = detag_h;
            jobs.push((cfg, oltp.clone()));
        }
        parts.push(Part::Variation(vec![
            ("MP3D default tagging (LS, LS+default, AD, AD+default)", 4),
            ("OLTP LS de-tag keep-heuristic (off, on)", 2),
            ("OLTP LS hysteresis (1/1, tag=2, detag=2)", 3),
        ]));

        jobs.push((scaled(ProtocolKind::Baseline), oltp.clone()));
        let mut hinted = oltp::OltpParams::quick();
        hinted.static_hints = true;
        jobs.push((scaled(ProtocolKind::Baseline), Spec::Oltp(hinted)));
        jobs.push((scaled(ProtocolKind::Ad), oltp.clone()));
        jobs.push((scaled(ProtocolKind::Ls), oltp.clone()));
        parts.push(Part::Static);

        for k in [
            ProtocolKind::Baseline,
            ProtocolKind::Dsi,
            ProtocolKind::Ad,
            ProtocolKind::Ls,
        ] {
            jobs.push((scaled(k), oltp.clone()));
        }
        parts.push(Part::Dsi);

        let mut labels = Vec::new();
        for (wl, spec, cfg_for) in [
            ("MP3D", &mp3d, splash as fn(_) -> _),
            ("OLTP", &oltp, scaled),
        ] {
            for cons in [Consistency::Sc, Consistency::Relaxed] {
                labels.push(format!("{wl} / {cons:?}"));
                all_protocols(
                    &mut jobs,
                    |k| {
                        let mut cfg = cfg_for(k);
                        cfg.consistency = cons;
                        cfg
                    },
                    spec,
                );
            }
        }
        parts.push(Part::Consistency(labels));

        let mut params = cholesky::CholeskyParams::quick();
        params.procs = 16;
        let topologies = [
            ("Cholesky @16P / point-to-point", Topology::PointToPoint),
            ("Cholesky @16P / 4x4 mesh", Topology::Mesh2D { width: 4 }),
        ];
        for (_, topo) in topologies {
            all_protocols(
                &mut jobs,
                |k| {
                    let mut cfg = splash(k).with_nodes(16);
                    cfg.topology = topo;
                    cfg
                },
                &Spec::Cholesky(params.clone()),
            );
        }
        parts.push(Part::Topology(topologies.iter().map(|(l, _)| *l).collect()));

        let kbs = vec![8u64, 32, 128];
        for &kb in &kbs {
            all_protocols(
                &mut jobs,
                |k| {
                    let mut cfg = splash(k);
                    cfg.l2.size_bytes = kb * 1024;
                    cfg
                },
                &cholesky,
            );
        }
        parts.push(Part::Sweep {
            title: "Cholesky vs L2 size (§5.2 gap-closing claim)",
            unit: "L2 kB",
            params: kbs,
        });
        let blocks = vec![16u64, 64];
        for &bs in &blocks {
            all_protocols(&mut jobs, |k| splash(k).with_block_bytes(bs), &mp3d);
        }
        parts.push(Part::Sweep {
            title: "MP3D vs block size",
            unit: "blk B",
            params: blocks,
        });

        let set = ReproSet { jobs, parts };
        debug_assert_eq!(
            set.parts.iter().map(Part::runs).sum::<usize>(),
            set.jobs.len()
        );
        set
    }

    /// The 4-node Figure 3/4/6/7 triptychs: (program, Baseline/AD/LS runs).
    pub fn figures<'a>(&self, runs: &'a [RunStats]) -> Vec<(&'static str, &'a [RunStats])> {
        let mut out = Vec::new();
        let mut at = 0;
        for part in &self.parts {
            if let Part::Figure { name, .. } = part {
                let program = name.split(' ').next().unwrap_or(name);
                out.push((program, &runs[at..at + 3]));
            }
            at += part.runs();
        }
        out
    }

    /// Render every figure and table from the set's results, as `repro_all`
    /// prints them.
    pub fn render(&self, runs: &[RunStats]) -> String {
        let chunks = |rs: &[RunStats]| -> Vec<Vec<RunStats>> {
            rs.chunks(PROTOCOLS.len()).map(|c| c.to_vec()).collect()
        };
        let mut out = render_table1();
        let mut at = 0;
        for part in &self.parts {
            let rs = &runs[at..at + part.runs()];
            at += part.runs();
            out += &match part {
                Part::Figure { name, tables } => {
                    let mut s = render_triptych(&Triptych::new(*name, rs));
                    if *tables {
                        s += &render_table2(&rs[0]);
                        s += &render_table3(&rs[2], &rs[1]);
                    }
                    s
                }
                Part::Fig5(procs) => {
                    render_fig5(&procs.iter().copied().zip(chunks(rs)).collect::<Vec<_>>())
                }
                Part::Tab4(sizes) => render_table4(
                    &sizes
                        .iter()
                        .copied()
                        .zip(rs.iter().cloned())
                        .collect::<Vec<_>>(),
                ),
                Part::Variation(groups) => {
                    let mut entries = Vec::new();
                    let mut g = 0;
                    for (label, n) in groups {
                        entries.push((label.to_string(), rs[g..g + n].to_vec()));
                        g += n;
                    }
                    render_variation(&VariationReport { entries })
                }
                Part::Static => render_static_comparison(rs),
                Part::Dsi => render_dsi(rs),
                Part::Consistency(labels) => {
                    render_consistency(&labels.iter().cloned().zip(chunks(rs)).collect::<Vec<_>>())
                }
                Part::Topology(labels) => render_topology(
                    &labels
                        .iter()
                        .map(|l| l.to_string())
                        .zip(chunks(rs))
                        .collect::<Vec<_>>(),
                ),
                Part::Sweep {
                    title,
                    unit,
                    params,
                } => render_sweep(
                    title,
                    unit,
                    &params.iter().copied().zip(chunks(rs)).collect::<Vec<_>>(),
                ),
            };
        }
        out
    }
}
