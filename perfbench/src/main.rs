//! The repository benchmark: DistHD fit, open-loop dense serving and
//! closed-loop integer serving under class-memory swaps.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit-isolet --seed 1 --seconds 8 --trace 0
//! ```
//!
//! Every run executes all three stages, so every run reports every
//! end-to-end metric; the workload names the stage that gets `--seconds`
//! of measurement, and the other two run at their floor.  `--trace 1` runs the same
//! stages and then times the calls into each layer from this crate,
//! reporting the per-layer metrics instead.  The last line of standard
//! output is the result object; the lines before it record the machine,
//! the settings and each metric's sample count.  The process exits non-zero
//! when any correctness gate fails.

mod dense;
mod emit;
mod fit;
mod fixture;
mod int;
mod schedule;
mod stats;

use emit::{Json, Metric};
use fixture::Fixture;
use stats::Samples;
use std::time::{Duration, Instant};

/// Counts operations and correctness-gate failures across the run.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    gate_failures: Vec<&'static str>,
}

impl Outcome {
    /// Records one operation the benchmark asked the program to perform.
    pub fn attempt(&mut self, ok: bool, what: &'static str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.fail(what);
        }
    }

    /// Records a correctness check that is not itself an operation.
    pub fn check(&mut self, ok: bool, what: &'static str) {
        if !ok {
            self.fail(what);
        }
    }

    fn fail(&mut self, what: &'static str) {
        if !self.gate_failures.contains(&what) {
            self.gate_failures.push(what);
        }
    }
}

pub fn median(samples: &Samples) -> f64 {
    samples.median().expect("measured at least once")
}

pub fn median_ms(samples: &Samples) -> f64 {
    median(samples) * 1e3
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FitIsolet,
    ServeOpenDense,
    ServeClosedInt,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::FitIsolet,
        Workload::ServeOpenDense,
        Workload::ServeClosedInt,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FitIsolet => "fit-isolet",
            Workload::ServeOpenDense => "serve-open-dense",
            Workload::ServeClosedInt => "serve-closed-int",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Rounds per run.  Each round sets up from scratch and fits, then runs
/// slices of the serving phases, each on a fresh server: four of the closed
/// loop, with a slice of each open-loop phase before every second one.  A
/// slow stretch of a shared host therefore lands on a few rounds or slices
/// of every metric instead of on all of one stage.
const ROUNDS: usize = 4;
const OPEN_SLICES_PER_ROUND: usize = 2;
const CLOSED_SLICES_PER_ROUND: usize = 4;

/// Measured seconds of each stage per round (fit) or per slice (serving).
/// The workload's own stage gets `--seconds`; the other two run at their
/// floor: one fit per round, and per slice the fewest requests that support
/// the phase's percentiles.
struct Plan {
    fit_s: f64,
    /// Per open-loop phase.
    open_s: f64,
    closed_s: f64,
}

impl Plan {
    fn new(workload: Workload, seconds: f64) -> Self {
        let own = |w: Workload| if w == workload { seconds } else { 0.0 };
        let open = own(Workload::ServeOpenDense) / (ROUNDS * OPEN_SLICES_PER_ROUND) as f64;
        Plan {
            fit_s: own(Workload::FitIsolet) / ROUNDS as f64,
            open_s: open / 2.0,
            closed_s: own(Workload::ServeClosedInt) / (ROUNDS * CLOSED_SLICES_PER_ROUND) as f64,
        }
    }
}

fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Aggregate CPU time from `/proc/stat`: (steal, total) in clock ticks.
/// Steal is time the hypervisor ran something else while this machine's
/// CPUs wanted to run; a run with a high steal share measured the host.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

fn isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return "avx2+fma";
        }
        "x86_64-baseline"
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <fit-isolet|serve-open-dense|serve-closed-int> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ticks_at_start = cpu_ticks();
    let plan = Plan::new(args.workload, args.seconds);
    let mut outcome = Outcome::default();

    let mut setup_s = Samples::new();
    let mut dense_restore = Samples::new();
    let mut int_restore = Samples::new();
    let mut digest = None;
    let mut fit_run = fit::FitRun::default();
    let phases = dense::phases(plan.open_s);
    let mut dense_runs = phases.map(dense::PhaseRun::new);
    let mut closed = int::ClosedRun::default();
    let mut fx: Option<Fixture> = None;
    for round in 0..ROUNDS {
        // Set-up and fit use every core; serving runs one kernel thread per
        // shard.
        disthd_linalg::parallel::set_thread_count(Some(cores));
        let t = Instant::now();
        let built = Fixture::build(args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        dense_restore.push(built.dense_restore_ms);
        int_restore.push(built.int_restore_ms);
        let d = built.digest();
        outcome.check(*digest.get_or_insert(d) == d, "repeated set-ups agree");
        fit::run_round(
            &built.data,
            Duration::from_secs_f64(plan.fit_s),
            &mut fit_run,
            &mut outcome,
        );

        disthd_linalg::parallel::set_thread_count(Some(1));
        let budget = Duration::from_secs_f64(plan.closed_s);
        let every = CLOSED_SLICES_PER_ROUND / OPEN_SLICES_PER_ROUND;
        for cycle in 0..CLOSED_SLICES_PER_ROUND {
            let slice = round * CLOSED_SLICES_PER_ROUND + cycle;
            let last = slice + 1 == ROUNDS * CLOSED_SLICES_PER_ROUND;
            if cycle % every == 0 {
                let open = slice / every;
                let last_open = open + 1 == ROUNDS * OPEN_SLICES_PER_ROUND;
                dense::run_slice(
                    &built,
                    &mut dense_runs,
                    args.seed,
                    open,
                    last_open,
                    &mut outcome,
                );
            }
            int::run_slice(
                &built,
                budget,
                args.seed,
                slice,
                last,
                &mut closed,
                &mut outcome,
            );
        }
        fx = Some(built);
    }
    let fx = fx.expect("at least one round");

    let layers = args.trace.then(|| {
        disthd_linalg::parallel::set_thread_count(Some(cores));
        let mut layers = fit::traced(&fx.data, &fit_run, &mut outcome);
        disthd_linalg::parallel::set_thread_count(Some(1));
        layers.extend(dense::traced(
            &fx,
            &dense_runs,
            &dense_restore,
            &mut outcome,
        ));
        layers.extend(int::traced(&fx, &closed, &int_restore, &mut outcome));
        layers
    });

    let metrics: Vec<Metric> = if let Some(layers) = layers {
        layers
    } else {
        let mut m = vec![Metric::new("setup_s", median(&setup_s), "s", setup_s.len())];
        m.push(Metric::new(
            "peak_rss_mb",
            peak_rss_mb().unwrap_or(0.0),
            "MB",
            1,
        ));
        m.extend(fit::end_to_end(&fit_run, &fx.data));
        m.extend(dense::end_to_end(&dense_runs));
        m.extend(int::end_to_end(&closed));
        m.push(Metric::new(
            "ok_frac",
            1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64,
            "ok/attempted",
            outcome.attempted as usize,
        ));
        m
    };

    let unbounded = if args.trace {
        Vec::new()
    } else {
        dense::tails(&dense_runs)
    };
    let steal_frac = match (ticks_at_start, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    let context = Json::obj(vec![
        (
            "machine",
            Json::obj(vec![
                ("cores", Json::int(cores)),
                ("isa", Json::str(isa())),
                ("os", Json::str(std::env::consts::OS)),
                ("steal_frac", Json::Num(steal_frac)),
            ]),
        ),
        (
            "settings",
            Json::obj(vec![
                ("workload", Json::str(args.workload.name())),
                ("seed", Json::str(args.seed.to_string())),
                ("seconds", Json::Num(args.seconds)),
                ("trace", Json::Bool(args.trace)),
                ("rounds", Json::int(ROUNDS)),
                (
                    "open_loop_slices",
                    Json::int(ROUNDS * OPEN_SLICES_PER_ROUND),
                ),
                (
                    "closed_loop_slices",
                    Json::int(ROUNDS * CLOSED_SLICES_PER_ROUND),
                ),
                ("dim", Json::int(fixture::DIM)),
                (
                    "dataset",
                    Json::str(format!("synthetic ISOLET scale {}", fixture::SCALE)),
                ),
                ("train", Json::int(fx.data.train.len())),
                ("held_out", Json::int(fx.data.test.len())),
                ("fit_epochs", Json::int(fit::EPOCHS)),
                ("fit_kernel_threads", Json::int(cores)),
                ("serve_kernel_threads", Json::int(1)),
                ("shards", Json::int(1)),
                ("window", Json::int(fixture::WINDOW)),
                (
                    "patience_ms",
                    Json::Num(fixture::PATIENCE.as_secs_f64() * 1e3),
                ),
                (
                    "open_loop",
                    Json::Arr(
                        phases
                            .iter()
                            .map(|p| {
                                Json::obj(vec![
                                    ("phase", Json::str(p.name)),
                                    ("rate_qps", Json::Num(p.rate)),
                                    ("requests_per_slice", Json::int(p.per_slice)),
                                    ("tail_percentile", Json::Num(p.tail)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("closed_loop_in_flight", Json::int(int::IN_FLIGHT)),
                (
                    "int_overlay_dims",
                    Json::int(
                        fx.int
                            .encoder_parts()
                            .as_structured()
                            .map_or(0, |e| e.overlay_len()),
                    ),
                ),
                ("closed_loop_s_per_slice", Json::Num(plan.closed_s)),
                (
                    "swap_every_ms",
                    Json::Num(int::SWAP_EVERY.as_secs_f64() * 1e3),
                ),
                ("fit_s_per_round", Json::Num(plan.fit_s)),
            ]),
        ),
        (
            "meaningful",
            Json::obj(vec![
                // The fit uses every core; on one core it is a serial fit.
                ("parallel_fit", Json::Bool(cores > 1)),
                // The sender and the shard worker each need a core; on one,
                // the load generator steals from the server and open-loop
                // latency measures the host, not the program.
                ("open_loop_latency", Json::Bool(cores >= 2)),
            ]),
        ),
        (
            "unbounded",
            Json::Obj(
                unbounded
                    .iter()
                    .map(|m| {
                        let value = Json::obj(vec![
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit)),
                            ("samples", Json::int(m.samples)),
                        ]);
                        (m.name.clone(), value)
                    })
                    .collect(),
            ),
        ),
        (
            "samples",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), Json::int(m.samples)))
                    .collect(),
            ),
        ),
        (
            "gate_failures",
            Json::Arr(
                outcome
                    .gate_failures
                    .iter()
                    .map(|g| Json::str(*g))
                    .collect(),
            ),
        ),
    ]);
    for m in &metrics {
        println!(
            "{:<40} {:>14.6} {:<14} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for m in &unbounded {
        println!(
            "{:<40} {:>14.6} {:<14} n={} (unbounded)",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", context.render());
    let correct = outcome.gate_failures.is_empty();
    println!(
        "{}",
        emit::result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if !correct {
        eprintln!(
            "perfbench: correctness gates failed: {:?}",
            outcome.gate_failures
        );
        std::process::exit(1);
    }
}
