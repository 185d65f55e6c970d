//! `serve-open-dense`: open-loop Poisson traffic against the dense 8-bit
//! deployment on the f32-query path, in two phases — `lo`, where batches
//! hold about one query and per-batch fixed costs set latency, and `hi`,
//! where batches fill and the encode GEMM dominates.
//!
//! One sender thread submits each request at its scheduled time; one
//! collector thread redeems the tickets.  Latency runs from the time a
//! request was *due*, so a stalled sender charges its stall to every
//! request it delayed; how late the sender ran is reported separately.

use crate::emit::Metric;
use crate::fixture::{spawn_server, Fixture, Fnv, WINDOW};
use crate::schedule::{poisson_schedule, query_order, Rng};
use crate::stats::{self, Samples};
use crate::{median, median_ms, Outcome};
use disthd::DeployedModel;
use disthd_hd::encoder::Encoder;
use disthd_linalg::{Matrix, PackedRhs};
use disthd_serve::{Prediction, ServeError, ServerStats};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Arrival rate of the `lo` phase.
pub const LO_QPS: f64 = 200.0;
/// Arrival rate of the `hi` phase.
pub const HI_QPS: f64 = 1600.0;
/// Synchronous requests sent before each slice's schedule starts.
const WARMUP: usize = 8;

/// One open-loop phase: a name, a rate, a request count per slice, and the
/// tail percentile it reports.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub name: &'static str,
    pub rate: f64,
    /// Requests per slice (one fresh server, one stretch of the run).
    pub per_slice: usize,
    /// Reported tail percentile.
    pub tail: f64,
    /// Label of the phase's arrival stream.
    stream: u64,
}

/// Tail percentile both phases report.
const TAIL: f64 = 90.0;
/// Shortest stretch of arrivals a slice covers.
const MIN_SLICE_S: f64 = 0.25;

/// The `lo` and `hi` phases sized for `secs` seconds per slice each, never
/// below [`MIN_SLICE_S`] of arrivals or the requests that support the
/// phase's tail percentile.
///
/// Both report p90, not p99: at 200 qps a slice that supports a p99 lasts
/// 5 s, and at 1600 qps the p99 of 1000-request slices did not repeat
/// within a tenth from run to run on the reference host (the median across
/// runs held, the quartiles spread 12-47%).
pub fn phases(secs: f64) -> [Phase; 2] {
    let phase = |name, rate: f64, stream| Phase {
        name,
        rate,
        per_slice: ((rate * secs.max(MIN_SLICE_S)) as usize).max(stats::min_samples_for(TAIL)),
        tail: TAIL,
        stream,
    };
    [phase("lo", LO_QPS, 3), phase("hi", HI_QPS, 4)]
}

/// What one phase measured, accumulated over the run's slices.
pub struct PhaseRun {
    pub phase: Phase,
    /// Latencies of each slice, in send order.
    pub slices: Vec<Samples>,
    pub lag_ms: Samples,
    pub stats: ServerStats,
}

impl PhaseRun {
    pub fn new(phase: Phase) -> Self {
        Self {
            phase,
            slices: Vec::new(),
            lag_ms: Samples::new(),
            stats: ServerStats::default(),
        }
    }

    pub fn requests(&self) -> usize {
        self.slices.iter().map(Samples::len).sum()
    }

    /// Interquartile mean across slices of each slice's percentile `p`.
    pub fn latency_ms(&self, p: f64) -> f64 {
        stats::slice_percentile(&self.slices, p).expect("slices are sized for their percentile")
    }

    pub fn batch_mean(&self) -> f64 {
        self.stats.served as f64 / self.stats.flushes.max(1) as f64
    }
}

/// One slice of one phase on a fresh server over the deployment.
fn run_phase(
    fx: &Fixture,
    run: &mut PhaseRun,
    seed: u64,
    slice: usize,
    last: bool,
    outcome: &mut Outcome,
) {
    let phase = run.phase;
    let server = spawn_server(&fx.dense, false);
    let client = server.client();
    for i in 0..WARMUP {
        let row = i % fx.pool.rows();
        let answer = client.predict(fx.pool.row(row));
        outcome.check(
            answer.ok() == Some(fx.dense_reference[row]),
            "warm-up answer",
        );
    }
    let warm = server.stats();

    let label = phase.stream + 16 * slice as u64;
    let schedule = poisson_schedule(phase.rate, phase.per_slice, &mut Rng::stream(seed, label));
    let order = query_order(
        fx.pool.rows(),
        phase.per_slice,
        &mut Rng::stream(seed, label + 8),
    );
    let (tx, rx) = mpsc::channel::<(usize, Instant, Result<Prediction, ServeError>)>();
    let results = std::thread::scope(|scope| {
        let collector = scope.spawn(|| {
            let mut answers = Vec::with_capacity(phase.per_slice);
            for (idx, due, ticket) in rx {
                let answer = ticket.and_then(Prediction::wait);
                answers.push((idx, due.elapsed().as_secs_f64() * 1e3, answer));
            }
            answers
        });
        let start = Instant::now() + Duration::from_millis(2);
        for (&offset, &idx) in schedule.iter().zip(&order) {
            let due = start + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            run.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let ticket = client.submit(fx.pool.row(idx));
            tx.send((idx, due, ticket))
                .expect("collector outlives the sender");
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    let mut latency_ms = Samples::new();
    for (idx, latency, answer) in results {
        latency_ms.push(latency);
        outcome.attempt(
            answer.ok() == Some(fx.dense_reference[idx]),
            "open-loop answer equals the serial DeployedModel reference",
        );
    }
    run.slices.push(latency_ms);
    let end = server.stats();
    run.stats.served += end.served - warm.served;
    run.stats.flushes += end.flushes - warm.flushes;
    run.stats.shed += end.shed - warm.shed;
    run.stats.peak_queue_depth = run.stats.peak_queue_depth.max(end.peak_queue_depth);
    if last {
        post_run_pass(fx, &client, outcome);
    }
    let shutdown = server.shutdown();
    outcome.check(shutdown.is_ok(), "dense server shuts down cleanly");
}

/// Every pool query once, in pool order, through the live server after the
/// run's last slice; the FNV-1a of the answers must equal that of the
/// serial reference.
fn post_run_pass(fx: &Fixture, client: &disthd_serve::ServerClient, outcome: &mut Outcome) {
    let tickets: Vec<_> = (0..fx.pool.rows())
        .map(|r| client.submit(fx.pool.row(r)))
        .collect();
    let mut served = Fnv::new();
    served.words(
        tickets
            .into_iter()
            .map(|t| match t.and_then(Prediction::wait) {
                Ok(class) => class as u64,
                Err(_) => u64::MAX,
            }),
    );
    let mut serial = Fnv::new();
    serial.words(fx.dense_reference.iter().map(|&c| c as u64));
    outcome.check(
        served.finish() == serial.finish(),
        "dense post-run hash equals the serial baseline",
    );
}

/// One slice of each phase; `last` marks the run's final slice.
pub fn run_slice(
    fx: &Fixture,
    runs: &mut [PhaseRun; 2],
    seed: u64,
    slice: usize,
    last: bool,
    outcome: &mut Outcome,
) {
    for run in runs {
        run_phase(fx, run, seed, slice, last, outcome);
    }
}

fn latency_metric(run: &PhaseRun, p: f64) -> Metric {
    Metric::new(
        format!("{}.p{}_ms", run.phase.name, p as u32),
        run.latency_ms(p),
        "ms",
        run.requests(),
    )
}

/// Each phase's median latency.
pub fn end_to_end(runs: &[PhaseRun; 2]) -> Vec<Metric> {
    runs.iter().map(|run| latency_metric(run, 50.0)).collect()
}

/// Each phase's tail latency: printed and recorded, but not a gated
/// end-to-end metric, because on a shared host it does not repeat within
/// any bound the benchmark may set (see the README).
pub fn tails(runs: &[PhaseRun; 2]) -> Vec<Metric> {
    runs.iter()
        .map(|run| latency_metric(run, run.phase.tail))
        .collect()
}

/// Per-stage replay of the serving computation at one batch size.
struct Replay {
    batch: usize,
    encode_ms: f64,
    center_ms: f64,
    score_ms: f64,
    untraced_ms: f64,
    traced_wall_ms: f64,
}

impl Replay {
    fn service_ms(&self) -> f64 {
        self.encode_ms + self.center_ms + self.score_ms
    }
}

fn reps_for(batch: usize) -> usize {
    (120 / batch).clamp(9, 41)
}

fn replay(model: &DeployedModel, fx: &Fixture, batch: usize, outcome: &mut Outcome) -> Replay {
    let rows: Vec<&[f32]> = (0..batch)
        .map(|r| fx.pool.row(r % fx.pool.rows()))
        .collect();
    let queries = Matrix::from_row_slices(fx.pool.cols(), &rows).expect("pool arity");
    let expected: Vec<usize> = (0..batch)
        .map(|r| fx.dense_reference[r % fx.pool.rows()])
        .collect();
    let encoder = model.encoder_parts();
    let center = model.center_parts();
    let (mut encode, mut centering, mut score, mut untraced, mut wall) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    for _ in 0..reps_for(batch) {
        let t = Instant::now();
        let answer = model.predict_batch(&queries);
        untraced.push(t.elapsed().as_secs_f64());
        outcome.check(
            answer.ok().as_ref() == Some(&expected),
            "replayed predict_batch answer",
        );

        let t0 = Instant::now();
        let mut encoded = encoder.encode_batch(&queries).expect("pool arity");
        let t1 = Instant::now();
        center.apply_batch(&mut encoded);
        let t2 = Instant::now();
        let answer = model.predict_encoded_batch(&encoded);
        let t3 = Instant::now();
        encode.push((t1 - t0).as_secs_f64());
        centering.push((t2 - t1).as_secs_f64());
        score.push((t3 - t2).as_secs_f64());
        wall.push((t3 - t0).as_secs_f64());
        outcome.check(
            answer.ok().as_ref() == Some(&expected),
            "replayed stage answer",
        );
    }
    Replay {
        batch,
        encode_ms: median_ms(&encode),
        center_ms: median_ms(&centering),
        score_ms: median_ms(&score),
        untraced_ms: median_ms(&untraced),
        traced_wall_ms: median_ms(&wall),
    }
}

/// Per-layer metrics: stage replays at b=1, at each phase's mean batch and
/// at the full window, plus the server's own counters.
pub fn traced(
    fx: &Fixture,
    runs: &[PhaseRun; 2],
    restore_ms: &Samples,
    outcome: &mut Outcome,
) -> Vec<Metric> {
    let model = &fx.dense;
    let mut out = Vec::new();

    let bases = model
        .encoder_parts()
        .as_dense()
        .expect("dense deployment")
        .bases();
    let mut pack = Samples::new();
    for _ in 0..15 {
        let t = Instant::now();
        std::hint::black_box(PackedRhs::pack(std::hint::black_box(bases)));
        pack.push(t.elapsed().as_secs_f64());
    }
    out.push(Metric::new(
        "dense.linalg.pack_ms",
        median_ms(&pack),
        "ms",
        pack.len(),
    ));
    let bytes = (bases.rows() * bases.cols() * std::mem::size_of::<f32>()) as f64;
    out.push(Metric::new("dense.linalg.pack_mb", bytes / 1e6, "MB", 0));

    let points = [
        ("b1", 1),
        ("blo", stats::replay_batch(runs[0].batch_mean(), WINDOW)),
        ("bhi", stats::replay_batch(runs[1].batch_mean(), WINDOW)),
        ("b32", WINDOW),
    ];
    let replays: Vec<(&str, Replay)> = points
        .iter()
        .map(|&(label, b)| (label, replay(model, fx, b, outcome)))
        .collect();
    for (label, r) in &replays {
        let n = reps_for(r.batch);
        out.push(Metric::new(
            format!("dense.encoder.encode_ms.{label}"),
            r.encode_ms,
            "ms",
            n,
        ));
        out.push(Metric::new(
            format!("dense.center.apply_ms.{label}"),
            r.center_ms,
            "ms",
            n,
        ));
        out.push(Metric::new(
            format!("dense.score.f32q_ms.{label}"),
            r.score_ms,
            "ms",
            n,
        ));
    }

    let service: Vec<(usize, f64)> = replays
        .iter()
        .map(|(_, r)| (r.batch, r.service_ms()))
        .collect();
    for run in runs {
        let name = run.phase.name;
        let n = run.requests();
        let residual = stats::residual_ms(run.latency_ms(50.0), run.batch_mean(), WINDOW, &service)
            .expect("the phase's mean batch was replayed");
        out.push(Metric::new(
            format!("dense.server.batch_mean.{name}"),
            run.batch_mean(),
            "queries/batch",
            run.stats.flushes as usize,
        ));
        out.push(Metric::new(
            format!("dense.server.flushes.{name}"),
            run.stats.flushes as f64,
            "count",
            1,
        ));
        out.push(Metric::new(
            format!("dense.server.shed.{name}"),
            run.stats.shed as f64,
            "count",
            1,
        ));
        out.push(Metric::new(
            format!("dense.server.peak_queue_depth.{name}"),
            run.stats.peak_queue_depth as f64,
            "queries",
            1,
        ));
        out.push(Metric::new(
            format!("dense.server.residual_p50_ms.{name}"),
            residual,
            "ms",
            n,
        ));
        out.push(Metric::new(
            format!("dense.loadgen.lag_p99_ms.{name}"),
            run.lag_ms.percentile(99.0).expect("samples"),
            "ms",
            run.lag_ms.len(),
        ));
    }
    out.push(Metric::new(
        "dense.io.restore_ms",
        median(restore_ms),
        "ms",
        restore_ms.len(),
    ));
    let (_, at_hi) = &replays[2];
    out.push(Metric::new(
        "dense.trace.coverage",
        at_hi.service_ms() / at_hi.traced_wall_ms,
        "fraction",
        reps_for(at_hi.batch),
    ));
    out.push(Metric::new(
        "dense.trace.overhead",
        at_hi.traced_wall_ms / at_hi.untraced_ms,
        "ratio",
        reps_for(at_hi.batch),
    ));
    out
}
