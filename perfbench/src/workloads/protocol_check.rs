//! `protocol_check`: what a developer waits for after editing the
//! protocol rules.
//!
//! The bounded model at 3 nodes and the parametric proof under every
//! protocol, SC-conformance checks of quick MP3D, Cholesky and LU under
//! every protocol, and the default chaos sweep (drop, duplicate and reorder
//! with ARQ retransmits), whose fault seeds come from `--seed`. The model,
//! race and chaos layers do all the work here and none elsewhere. `lint` is
//! left out: its input is the repository's own source, which grows with
//! every change.

use std::time::Instant;

use ccsim_engine::{EventLog, RunStats};
use ccsim_harness::{sweep, ChaosConfig, ChaosOutcome};
use ccsim_model::{explore, verify, Exploration, ModelConfig, Verification};
use ccsim_race::{check as race_check, RaceReport};
use ccsim_types::MachineConfig;
use ccsim_util::rng64::splitmix64;
use ccsim_workloads::{capture_events_spec, cholesky, lu, mp3d, Spec};

use super::{add_count, set_run_counts};
use crate::check::{Blesser, Expected, Tally};
use crate::jobs::Job;
use crate::metrics::{Report, PROTOCOLS};
use crate::span::{self, Tracer};
use crate::{median, secs, timed_passes, timed_setup, Ctx};

/// Model-checker node count.
const MODEL_NODES: u16 = 3;

/// The race inputs: quick MP3D, Cholesky and LU under every protocol.
pub fn race_jobs() -> Vec<Job> {
    let specs = [
        Spec::Mp3d(mp3d::Mp3dParams::quick()),
        Spec::Cholesky(cholesky::CholeskyParams::quick()),
        Spec::Lu(lu::LuParams::quick()),
    ];
    specs
        .iter()
        .flat_map(|spec| {
            PROTOCOLS.iter().map(|&(k, p)| Job {
                label: format!("{}.4p.{p}", spec.name()),
                cfg: MachineConfig::splash_baseline(k),
                spec: spec.clone(),
            })
        })
        .collect()
}

/// One race input: the captured run and its coherence event log.
pub struct Captured {
    pub job: Job,
    pub stats: RunStats,
    pub log: EventLog,
}

pub fn capture(jobs: Vec<Job>) -> Vec<Captured> {
    jobs.into_iter()
        .map(|job| {
            let (stats, log) = capture_events_spec(job.cfg, &job.spec);
            Captured { job, stats, log }
        })
        .collect()
}

/// Three chaos fault seeds drawn from the benchmark seed.
pub fn chaos_config(seed: u64) -> ChaosConfig {
    let mut s = seed;
    ChaosConfig {
        seeds: (0..3).map(|_| splitmix64(&mut s)).collect(),
        ..ChaosConfig::new()
    }
}

pub struct Pass {
    pub models: Vec<Result<Exploration, String>>,
    pub proofs: Vec<Result<Verification, String>>,
    pub races: Vec<RaceReport>,
    pub chaos: Result<ChaosOutcome, String>,
}

/// One pass, each call a span when tracing; `lap` runs between calls.
fn pass(seed: u64, inputs: &[Captured], t: Option<&Tracer>, lap: &mut dyn FnMut()) -> Pass {
    let models = PROTOCOLS
        .iter()
        .map(|&(k, _)| {
            let cfg = ModelConfig::new(k).with_nodes(MODEL_NODES);
            let ex = span::traced(
                t,
                "model",
                "model.explore",
                || explore(&cfg),
                |ex| ex.as_ref().map_or(0, |e| e.metrics.states),
            );
            lap();
            ex
        })
        .collect();
    let proofs = PROTOCOLS
        .iter()
        .map(|&(k, _)| {
            let cfg = ModelConfig::new(k);
            let v = span::traced(t, "model", "model.verify", || verify(&cfg), |_| 1);
            lap();
            v
        })
        .collect();
    let races = inputs
        .iter()
        .map(|c| {
            let run = || race_check(&c.job.cfg.protocol, &c.log);
            let r = span::traced(t, "race", "race.check", run, |_| c.log.len() as u64);
            lap();
            r
        })
        .collect();
    let cc = chaos_config(seed);
    let chaos = span::traced(
        t,
        "harness",
        "harness.chaos_sweep",
        || sweep(&cc),
        |out| out.as_ref().map_or(0, |o| o.cells.len() as u64),
    );
    Pass {
        models,
        proofs,
        races,
        chaos,
    }
}

fn check(exp: &Expected, tally: &mut Tally, inputs: &[Captured], p: &Pass) {
    for ((_, name), m) in PROTOCOLS.iter().zip(&p.models) {
        let outcome = m.clone().and_then(|ex| {
            if let Some(cex) = &ex.counterexample {
                return Err(format!("counterexample: {}", cex.violation));
            }
            exp.expect(
                &format!("protocol.model.{name}.states"),
                &ex.metrics.states.to_string(),
            )?;
            exp.expect(
                &format!("protocol.model.{name}.fingerprint"),
                &format!("{:016x}", ex.metrics.state_fingerprint),
            )
        });
        tally.record(&format!("model {name}"), outcome);
    }
    for ((_, name), v) in PROTOCOLS.iter().zip(&p.proofs) {
        let outcome = v.as_ref().map_err(Clone::clone).and_then(|v| {
            if v.counterexample.is_some() {
                return Err("no parametric proof: abstract counterexample".to_string());
            }
            exp.expect(
                &format!("protocol.verify.{name}.fingerprint"),
                &format!("{:016x}", v.metrics.fingerprint),
            )
        });
        tally.record(&format!("verify {name}"), outcome);
    }
    for (c, r) in inputs.iter().zip(&p.races) {
        let outcome = if r.is_clean() {
            let fp = r
                .sc_fingerprint
                .map_or("none".to_string(), |f| format!("{f:016x}"));
            exp.expect(&format!("protocol.race.{}", c.job.label), &fp)
        } else {
            Err(format!("{} SC violation(s)", r.total_violations()))
        };
        tally.record(&format!("race {}", c.job.label), outcome);
    }
    match &p.chaos {
        Ok(o) => {
            for c in &o.cells {
                let outcome = c.failure.clone().map_or(Ok(()), Err);
                tally.record(
                    &format!("chaos {} {:?} seed {}", c.workload, c.protocol, c.seed),
                    outcome,
                );
            }
        }
        Err(e) => tally.record("chaos sweep", Err(e.clone())),
    }
}

/// Accesses the pass checked: race-analysed plus chaos-replayed.
fn checked_accesses(p: &Pass) -> u64 {
    let race: u64 = p.races.iter().map(|r| r.counts.accesses).sum();
    let chaos: u64 = p
        .chaos
        .as_ref()
        .map_or(0, |o| o.cells.iter().map(|c| c.accesses).sum());
    race + chaos
}

/// Capture the race inputs and check the captured runs against the quick
/// set's digests.
fn setup(exp: &Expected, tally: &mut Tally) -> Vec<Captured> {
    let inputs = capture(race_jobs());
    for c in &inputs {
        let outcome = super::cache_warm::expect_quick(exp, &c.job.cfg, &c.job.spec, &c.stats);
        tally.record(&format!("protocol_check capture {}", c.job.label), outcome);
    }
    inputs
}

fn figures(inputs: &[Captured]) -> Vec<(&str, Vec<RunStats>)> {
    inputs
        .chunks(PROTOCOLS.len())
        .map(|c| {
            (
                c[0].job.spec.name(),
                c.iter().map(|x| x.stats.clone()).collect(),
            )
        })
        .collect()
}

/// One pass with its outputs checked.
pub fn checked_pass(ctx: &mut Ctx, inputs: &[Captured], t: Option<&Tracer>) -> Pass {
    let p = pass(ctx.seed, inputs, t, &mut || ());
    check(&ctx.expected, &mut ctx.tally, inputs, &p);
    p
}

pub fn untraced(ctx: &mut Ctx, report: &mut Report) -> Result<(), String> {
    let (setup_s, inputs) = timed_setup(|| setup(&ctx.expected, &mut ctx.tally));
    report.set("setup_s", setup_s);
    let mut sim = Vec::new();
    let seed = ctx.seed;
    let samples = timed_passes(
        ctx.seconds,
        |pacer| pass(seed, &inputs, None, &mut || pacer.lap()),
        |p| {
            check(&ctx.expected, &mut ctx.tally, &inputs, &p);
            sim.push(checked_accesses(&p) as f64);
        },
    );
    let wall = median(&samples);
    report.set("wall_s", wall);
    report.set("sim_accesses_per_s", median(&sim) / wall);
    super::set_design(report, &figures(&inputs), true);
    Ok(())
}

pub fn traced(ctx: &mut Ctx, t: &Tracer, report: &mut Report) -> Result<(), String> {
    let inputs = setup(&ctx.expected, &mut ctx.tally);
    let start = Instant::now();
    checked_pass(ctx, &inputs, None);
    let untraced_s = secs(start);
    let start = Instant::now();
    let p = t.span("perfbench", "pass", || {
        pass(ctx.seed, &inputs, Some(t), &mut || ())
    });
    let traced_s = secs(start);
    check(&ctx.expected, &mut ctx.tally, &inputs, &p);
    report.set("perfbench.trace_overhead_s", traced_s - untraced_s);
    report.set("harness.hit_pct", 0.0);
    set_run_counts(report, inputs.iter().map(|c| &c.stats));
    set_model_counts(report, &inputs, &p);
    if let Ok(o) = &p.chaos {
        for c in &o.cells {
            add_count(
                report,
                "network.retransmits",
                c.protocol,
                c.retransmits as f64,
            );
        }
    }
    Ok(())
}

/// `model.states.*` and `race.events.*`.
pub fn set_model_counts(report: &mut Report, inputs: &[Captured], p: &Pass) {
    for (_, name) in PROTOCOLS {
        report.set(format!("model.states.{name}"), 0.0);
        report.set(format!("race.events.{name}"), 0.0);
    }
    for (&(k, _), m) in PROTOCOLS.iter().zip(&p.models) {
        if let Ok(ex) = m {
            add_count(report, "model.states", k, ex.metrics.states as f64);
        }
    }
    for c in inputs {
        add_count(
            report,
            "race.events",
            c.job.cfg.protocol.kind,
            c.log.len() as f64,
        );
    }
}

pub fn bless(b: &mut Blesser) -> Result<(), String> {
    for (k, name) in PROTOCOLS {
        let ex = explore(&ModelConfig::new(k).with_nodes(MODEL_NODES))?;
        b.record(
            format!("protocol.model.{name}.states"),
            ex.metrics.states.to_string(),
        );
        b.record(
            format!("protocol.model.{name}.fingerprint"),
            format!("{:016x}", ex.metrics.state_fingerprint),
        );
        let v = verify(&ModelConfig::new(k))?;
        b.record(
            format!("protocol.verify.{name}.fingerprint"),
            format!("{:016x}", v.metrics.fingerprint),
        );
    }
    for c in capture(race_jobs()) {
        let r = race_check(&c.job.cfg.protocol, &c.log);
        let fp = r
            .sc_fingerprint
            .map_or("none".to_string(), |f| format!("{f:016x}"));
        b.record(format!("protocol.race.{}", c.job.label), fp);
    }
    Ok(())
}
