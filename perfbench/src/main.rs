//! A seeded service benchmark for compview.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload write_path --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Drives one workload (`write_path`, `replica_read`, `pool_churn`)
//! through the public `compview-serve` client from a single thread,
//! against servers with one dispatcher shard and durable sessions under
//! `SyncPolicy::Always`, checks every answer against a model, and prints
//! the metrics as the last line of stdout:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.  With
//! `--trace 0` they are the end-to-end metrics; with `--trace 1` the
//! per-layer attribution (see `SPEC.md`).  Report lines before it give
//! the host, the run shape, tails with their sample counts, and every
//! layer metric with its basis.

mod fixture;
mod host;
mod layers;
mod rng;
mod stats;
mod wire;
mod workloads;

use stats::{median, Samples};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Round, Workload};

/// Measured rounds per phase, at least and at most.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 200;
/// Extra seconds an untraced run may spend collecting quiet rounds.
const QUIET_GRACE_S: f64 = 90.0;
/// A run that has not finished by then is stuck: give up without a
/// result rather than hang.
const WATCHDOG: Duration = Duration::from_secs(175);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (a non-finite value, which would make the line
/// unreadable, prints as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Every round's checks, summed.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn absorb(&mut self, round: &Round) {
        self.attempted += round.attempted;
        self.failed += round.failed;
        for e in &round.errors {
            eprintln!("perfbench: check failed: {e}");
        }
    }
}

/// Rounds until `budget_s` is spent (at least `MIN_ROUNDS`).  When
/// fewer than `MIN_ROUNDS` of them were quiet, rounds go on for up to
/// `grace_s` more, so a run that starts inside a burst of host
/// contention can still take its medians over quiet rounds.
fn run_rounds(
    args: &Args,
    first_index: u64,
    budget_s: f64,
    grace_s: f64,
    traced: bool,
    gate: &mut Gate,
) -> Result<Vec<Round>, String> {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let next_end = elapsed + elapsed / rounds.len().max(1) as f64;
        let quiet = rounds.iter().filter(|r| r.steal <= QUIET_STEAL).count();
        let spent = next_end > budget_s && (quiet >= MIN_ROUNDS || next_end > budget_s + grace_s);
        let enough = rounds.len() >= MIN_ROUNDS && (spent || rounds.len() >= MAX_ROUNDS);
        if enough {
            return Ok(rounds);
        }
        let index = first_index + rounds.len() as u64;
        let steal = host::Steal::start();
        let mut round =
            args.workload
                .round(args.seed, index, args.workload.round_size(), traced)?;
        round.steal = steal.share();
        gate.absorb(&round);
        rounds.push(round);
    }
}

/// A round counts as quiet when the hypervisor stole at most this share
/// of the machine's CPU time while it ran.
const QUIET_STEAL: f64 = 0.05;

/// The rounds the end-to-end medians are taken over: every quiet round,
/// or, when fewer than `MIN_ROUNDS` were quiet, the `MIN_ROUNDS` least
/// stolen.  On a shared host a burst of steal slows every layer of a
/// round at once; leaving those rounds out keeps the bursts out of the
/// medians, while a slower program still slows every round.
fn quiet_rounds(rounds: &[Round]) -> Vec<&Round> {
    let mut by_steal: Vec<&Round> = rounds.iter().collect();
    by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let quiet = by_steal.iter().filter(|r| r.steal <= QUIET_STEAL).count();
    by_steal.truncate(quiet.max(MIN_ROUNDS));
    by_steal
}

fn pooled(rounds: &[Round], series: impl Fn(&Round) -> &Samples) -> Samples {
    let mut all = Samples::default();
    for r in rounds {
        all.extend(series(r));
    }
    all
}

/// The median over rounds of each round's p50: a host stall that slows
/// a few rounds moves it less than it moves a pooled p50.
fn round_p50(rounds: &[&Round], series: impl Fn(&Round) -> &Samples) -> f64 {
    median(
        &rounds
            .iter()
            .map(|r| series(r).median())
            .collect::<Vec<_>>(),
    )
}

fn ops_s(rounds: &[&Round]) -> f64 {
    median(
        &rounds
            .iter()
            .map(|r| r.ops as f64 / r.run_s)
            .collect::<Vec<_>>(),
    )
}

fn report_shape(args: &Args, phase: &str, rounds: &[Round]) {
    let w = args.workload;
    println!(
        "{{\"report\":\"run\",\"workload\":{},\"phase\":{},\"seed\":{},\"rounds\":{},\"round_size\":{},\"shards\":1,\"write_window\":{},\"read_window\":{},\"wal\":\"MemStore, SyncPolicy::Always, group commit per batch\",\"loop\":\"closed, one client thread\"}}",
        json_str(w.name()),
        json_str(phase),
        args.seed,
        rounds.len(),
        w.round_size(),
        if w == Workload::PoolChurn { 1 } else { workloads::WRITE_WINDOW },
        if w == Workload::PoolChurn { 1 } else { workloads::READ_WINDOW },
    );
    let per_round = |f: &dyn Fn(&Round) -> f64| {
        rounds
            .iter()
            .map(|r| json_num(f(r)))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "{{\"report\":\"rounds\",\"phase\":{},\"setup_s\":[{}],\"ops_s\":[{}],\"steal\":[{}],\"update_p50_us\":[{}]}}",
        json_str(phase),
        per_round(&|r| r.setup_s),
        per_round(&|r| r.ops as f64 / r.run_s),
        per_round(&|r| r.steal),
        per_round(&|r| r.update_us.median())
    );
    for (name, series) in [
        ("update_us", pooled(rounds, |r| &r.update_us)),
        ("read_us", pooled(rounds, |r| &r.read_us)),
        ("visible_us", pooled(rounds, |r| &r.visible_us)),
        ("pool_edit_us", pooled(rounds, |r| &r.edit_us)),
    ] {
        if !series.is_empty() {
            println!(
                "{{\"report\":\"latency\",\"phase\":{},\"series\":{},\"summary\":{}}}",
                json_str(phase),
                json_str(name),
                series.summary_json()
            );
        }
    }
}

/// Metrics of the result line: name, unit, value.
type Metrics = Vec<(String, &'static str, f64)>;

fn run(args: &Args) -> Result<(Gate, Metrics), String> {
    let mut gate = Gate::default();
    let w = args.workload;
    println!("{{\"report\":\"host\",\"host\":{}}}", host::stamp());
    let started = Instant::now();
    // Warm-up: fill caches and finish lazy set-up; checked, not timed.
    let warm = w.round(args.seed, u64::MAX, w.round_size() / 4, false)?;
    gate.absorb(&warm);
    drop(warm);
    let left = (args.seconds - started.elapsed().as_secs_f64()).max(0.0);
    if !args.trace {
        let all = run_rounds(args, 1, left, QUIET_GRACE_S, false, &mut gate)?;
        let rss = host::peak_rss_mb();
        report_shape(args, "untraced", &all);
        let rounds = quiet_rounds(&all);
        println!(
            "{{\"report\":\"kept\",\"rounds\":{},\"of\":{},\"max_steal\":{}}}",
            rounds.len(),
            all.len(),
            json_num(rounds.last().map_or(0.0, |r| r.steal))
        );
        let metrics = vec![
            (
                "setup_s".to_owned(),
                "s",
                median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
            ),
            ("ops_s".to_owned(), "1/s", ops_s(&rounds)),
            (
                "update_p50_us".to_owned(),
                "us",
                round_p50(&rounds, |r| &r.update_us),
            ),
            (
                "read_p50_us".to_owned(),
                "us",
                round_p50(&rounds, |r| &r.read_us),
            ),
            (
                "visible_p50_us".to_owned(),
                "us",
                round_p50(&rounds, |r| &r.visible_us),
            ),
            ("peak_rss_mb".to_owned(), "MB", rss),
        ];
        return Ok((gate, metrics));
    }
    let plain = run_rounds(args, 1, left * 0.4, 0.0, false, &mut gate)?;
    let traced = run_rounds(
        args,
        1 + plain.len() as u64,
        left * 0.4,
        0.0,
        true,
        &mut gate,
    )?;
    report_shape(args, "untraced", &plain);
    report_shape(args, "traced", &traced);
    println!(
        "{{\"report\":\"spans\",\"drained\":{}}}",
        layers::span_count(&traced)
    );
    let layers = layers::attribute(w, args.seed, &plain, &traced)?;
    let mut metrics = Vec::new();
    for l in layers {
        println!(
            "{{\"report\":\"layer\",\"workload\":{},\"name\":{},\"unit\":{},\"value\":{},\"basis\":{},\"tails\":{}}}",
            json_str(w.name()),
            json_str(l.name),
            json_str(l.unit),
            json_num(l.value),
            json_str(&l.basis),
            l.tails.as_deref().unwrap_or("null")
        );
        if l.every_workload {
            metrics.push((l.name.to_owned(), l.unit, l.value));
        }
    }
    Ok((gate, metrics))
}

/// Keep every thread's allocations in glibc's main arena: otherwise the
/// peak resident size depends on which per-thread arena each round's
/// short-lived server threads happen to draw from, and `peak_rss_mb`
/// wanders by ±15% between identical runs.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` is glibc's allocator-tuning entry point; it takes
    // two plain integers, and is called here before any other thread of
    // this process exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload write_path|replica_read|pool_churn --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    match run(&args) {
        Ok((gate, metrics)) => {
            let correct = gate.failed == 0 && gate.attempted > 0;
            let body: Vec<String> = metrics
                .iter()
                .map(|(name, unit, v)| {
                    format!(
                        "{}:{{\"value\":{},\"unit\":{}}}",
                        json_str(name),
                        json_num(*v),
                        json_str(unit)
                    )
                })
                .collect();
            println!(
                "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
                gate.attempted.max(1),
                gate.failed,
                body.join(",")
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
