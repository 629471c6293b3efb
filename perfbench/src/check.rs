//! Output checks against digests committed with the benchmark.
//!
//! Every simulated result a workload produces is compared with a value
//! recorded from the current code (`perfbench --bless` rewrites them). A run
//! or cell whose output differs, that panics, or that returns a `JobError`
//! counts as failed; the result line reports attempted and failed units and
//! `passed_pct`.
//!
//! Digests are the stable 64-bit FNV-1a hash of an output's canonical
//! compact JSON, so a difference in any counter shows.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ccsim_engine::RunStats;
use ccsim_util::{fnv1a64, Json, ToJson};

/// The committed expectations, one file per group of outputs. Keys start
/// with the group name.
pub const FILES: &[(&str, &str)] = &[
    ("paper", include_str!("../expected/paper.json")),
    ("quick", include_str!("../expected/quick.json")),
    ("serve", include_str!("../expected/serve.json")),
    ("protocol", include_str!("../expected/protocol.json")),
];

/// Where `perfbench --bless` writes the files above.
pub fn expected_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected")
}

pub fn digest(j: &Json) -> String {
    format!("{:016x}", fnv1a64(j.to_string().as_bytes()))
}

/// Digest of a run's canonical statistics document.
pub fn stats_digest(s: &RunStats) -> String {
    digest(&s.to_json())
}

/// Simulated memory accesses of a run: every load, store and
/// load-exclusive ends as exactly one of these outcomes.
pub fn accesses(s: &RunStats) -> u64 {
    s.machine.l1_hits
        + s.machine.l2_hits
        + s.machine.dirty_hits
        + s.machine.silent_stores
        + s.dir.global_reads
        + s.dir.ownership_acquisitions()
}

/// Expected values by key.
#[derive(Clone, Debug, Default)]
pub struct Expected {
    values: BTreeMap<String, String>,
}

impl Expected {
    /// Parse every committed file.
    pub fn committed() -> Result<Expected, String> {
        let mut values = BTreeMap::new();
        for (group, text) in FILES {
            for (k, v) in Json::parse(text)
                .map_err(|e| format!("expected/{group}.json: {e}"))?
                .as_obj()?
            {
                values.insert(k.clone(), v.as_str()?.to_string());
            }
        }
        Ok(Expected { values })
    }

    #[cfg(test)]
    pub fn from_pairs<K: Into<String>, V: Into<String>>(
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> Expected {
        Expected {
            values: pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        }
    }

    /// `Ok` when `key` was recorded with exactly `actual`.
    pub fn expect(&self, key: &str, actual: &str) -> Result<(), String> {
        match self.values.get(key) {
            Some(v) if v == actual => Ok(()),
            Some(v) => Err(format!("{key}: expected {v}, got {actual}")),
            None => Err(format!("{key}: no committed value (run perfbench --bless)")),
        }
    }

    /// The statistics digest and access count of a run.
    pub fn expect_run(&self, key: &str, s: &RunStats) -> Result<(), String> {
        self.expect(&format!("{key}.stats"), &stats_digest(s))?;
        self.expect(&format!("{key}.accesses"), &accesses(s).to_string())
    }
}

/// Records new expectations and writes them, one file per group.
#[derive(Default)]
pub struct Blesser {
    values: BTreeMap<String, String>,
}

impl Blesser {
    pub fn record(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.values.insert(key.into(), value.into());
    }

    pub fn record_run(&mut self, key: &str, s: &RunStats) {
        self.record(format!("{key}.stats"), stats_digest(s));
        self.record(format!("{key}.accesses"), accesses(s).to_string());
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        for (group, _) in FILES {
            let prefix = format!("{group}.");
            let fields: Vec<(String, Json)> = self
                .values
                .iter()
                .filter(|(k, _)| k.starts_with(&prefix))
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect();
            std::fs::write(
                dir.join(format!("{group}.json")),
                Json::Obj(fields).pretty() + "\n",
            )?;
        }
        Ok(())
    }
}

/// Tally of checked units.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one unit; a failure is reported on stderr.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {e}");
        }
    }

    pub fn passed_pct(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        100.0 * (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_types::{MachineConfig, ProtocolKind};
    use ccsim_workloads::{mp3d, run_spec, Spec};

    /// Quick MP3D under LS, as the quick set keys it.
    fn quick_mp3d() -> (String, RunStats) {
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
        let spec = Spec::Mp3d(mp3d::Mp3dParams::quick());
        let key = crate::workloads::cache_warm::quick_key(&cfg, &spec);
        (key, run_spec(cfg, &spec))
    }

    #[test]
    fn a_changed_counter_fails_the_committed_check() {
        let exp = Expected::committed().expect("committed digests parse");
        let (key, run) = quick_mp3d();
        let mut tally = Tally::default();
        tally.record("unchanged", exp.expect_run(&key, &run));
        assert_eq!(
            (tally.attempted, tally.failed),
            (1, 0),
            "the current code must match its digests"
        );

        let mut changed = run.clone();
        changed.dir.invalidations_requested += 1;
        tally.record("one counter changed", exp.expect_run(&key, &changed));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.passed_pct(), 50.0);
    }

    #[test]
    fn every_statistics_field_reaches_the_digest() {
        let (_, run) = quick_mp3d();
        let base = stats_digest(&run);
        let mut a = run.clone();
        a.per_proc[3].write_stall += 1;
        let mut b = run.clone();
        b.false_sharing.false_sharing += 1;
        let mut c = run;
        c.exec_cycles -= 1;
        for changed in [a, b, c] {
            assert_ne!(stats_digest(&changed), base);
        }
    }

    #[test]
    fn missing_expectations_fail_rather_than_pass() {
        let exp = Expected::from_pairs([("quick.x.stats", "0")]);
        assert!(exp.expect("quick.x.stats", "0").is_ok());
        assert!(exp.expect("quick.x.stats", "1").is_err());
        assert!(exp.expect("quick.y.stats", "0").is_err());
    }
}
