//! The ccsim benchmark of record.
//!
//! ```text
//! perfbench --workload <paper_sweep|serve_hot|cache_warm|protocol_check>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --bless
//! ```
//!
//! One workload per process. With `--trace 0` it sets up (several times,
//! reporting the median), runs timed passes for about `--seconds` (times
//! corrected for the host's speed: see [`pace`]), checks
//! every output against the committed digests and prints the end-to-end
//! metrics. With `--trace 1` it runs one untraced and one traced pass, times
//! each layer through spans around calls into the crates, writes the spans
//! to `perfbench/out/` and prints the per-layer metrics. The last line of
//! standard output is always the JSON result; a failed output check makes
//! `correct` false, and any error exits non-zero without a result.
//!
//! `--bless` re-records the committed digests from the current code.

mod check;
mod jobs;
mod layers;
mod metrics;
mod pace;
mod paper;
mod reference;
mod span;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use check::{Expected, Tally};
use metrics::Report;
use pace::Pacer;
use span::Tracer;

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// What every workload gets.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub expected: Expected,
    /// This process's scratch directory (caches, temporaries); removed at exit.
    pub scratch: PathBuf,
    pub tally: Tally,
}

impl Ctx {
    /// A fresh, empty directory under the scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let d = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }
}

pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Run `setup` [`SETUP_REPS`] times; the median host-speed corrected time
/// (see [`pace`]) and the last result.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut pacer = Pacer::new();
    let (mut corrected, mut raw) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        pacer.resume();
        last = Some(setup());
        pacer.lap();
        let (c, r) = pacer.take();
        corrected.push(c);
        raw.push(r);
    }
    eprintln!(
        "perfbench: setup median {:.6} s corrected, {:.6} s raw",
        median(&corrected),
        median(&raw)
    );
    (median(&corrected), last.expect("at least one setup"))
}

/// Run timed passes for about `seconds`: another pass starts only while the
/// run would end nearer the budget with it than without it (judged by the
/// median pass so far), so runs end within half a pass of `seconds`. A pass
/// may end units of work with [`Pacer::lap`]; the pass's end closes the
/// last one. `each` sees every pass's output outside the timed region.
/// Returns the host-speed corrected pass times.
pub fn timed_passes<T>(
    seconds: f64,
    mut pass: impl FnMut(&mut Pacer) -> T,
    mut each: impl FnMut(T),
) -> Vec<f64> {
    let start = Instant::now();
    let mut pacer = Pacer::new();
    let (mut corrected, mut raw, mut spent) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        pacer.resume();
        let out = pass(&mut pacer);
        pacer.lap();
        spent.push(secs(t));
        let (c, r) = pacer.take();
        corrected.push(c);
        raw.push(r);
        each(out);
        if secs(start) + median(&spent) / 2.0 >= seconds {
            eprintln!(
                "perfbench: {} passes, median {:.6} s corrected, {:.6} s raw",
                corrected.len(),
                median(&corrected),
                median(&raw)
            );
            return corrected;
        }
    }
}

/// The process's peak resident set, from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    if args == ["--bless"] {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: want 0 < s <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} ({})",
            workloads::NAMES.join("|")
        ));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &Args) -> Result<String, String> {
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        expected: Expected::committed()?,
        scratch,
        tally: Tally::default(),
    };
    let mut report = Report::default();
    let result = if args.trace {
        let tracer = Tracer::new();
        workloads::traced(&args.workload, &mut ctx, &tracer, &mut report)
            .and_then(|()| reference::complete(&mut ctx, &tracer, &mut report))
            .map(|()| tracer.into_spans())
            .and_then(|spans| {
                reference::set_self_times(&spans, &mut report);
                let path =
                    out_dir().join(format!("spans-{}-seed{}.json", args.workload, args.seed));
                std::fs::write(&path, span::to_json(&spans).to_string())
                    .map_err(|e| format!("{}: {e}", path.display()))
            })
    } else {
        workloads::untraced(&args.workload, &mut ctx, &mut report).and_then(|()| {
            report.set("peak_rss_mb", peak_rss_mb()?);
            report.set("passed_pct", ctx.tally.passed_pct());
            Ok(())
        })
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    result?;
    let metrics = report.metrics_json(&metrics::declared(args.trace))?;
    Ok(metrics::result_line(
        ctx.tally.attempted,
        ctx.tally.failed,
        metrics,
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Some(a)) => run(&a),
        Ok(None) => workloads::bless().map(|n| {
            format!(
                "blessed {n} expected values in {}",
                check::expected_dir().display()
            )
        }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 | --bless",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
