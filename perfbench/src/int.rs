//! `serve-closed-int`: one thread keeps 64 requests in flight against the
//! structured 1-bit deployment on the integer pipeline, with an 80/10/10
//! classify/top-k/anomaly mix, and alternates the served class memory every
//! 250 ms from the same thread.
//!
//! This path runs the Walsh–Hadamard encoder, the fused quantize epilogue
//! and XOR+popcount scoring, and never packs a dense operand.

use crate::emit::Metric;
use crate::fixture::{spawn_server, Fixture, Fnv, IntReference, TOP_K, WINDOW};
use crate::schedule::{draw_task, query_order, Rng, Task};
use crate::stats::{self, Samples};
use crate::{median, median_ms, Outcome};
use disthd_hd::encoder::AnyRbfEncoder;
use disthd_hd::packed_cosine_matrix;
use disthd_hd::packed_predict_batch;
use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
use disthd_linalg::{fht_inplace_opts, top_k_largest, FhtOpts, Matrix};
use disthd_serve::{Prediction, ServeError, ServerClient, ServerStats, TaskKind, TaskResponse};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Requests kept in flight.
pub const IN_FLIGHT: usize = 64;
/// Interval between class-memory swaps (each slice also swaps once
/// mid-way).
pub const SWAP_EVERY: Duration = Duration::from_millis(250);
/// Synchronous requests of each task kind sent before a slice starts.
const WARMUP: usize = 4;
/// Label of the run's query-order and task-mix stream.
const STREAM: u64 = 5;

/// What the closed loop measured, accumulated over the run's slices.
#[derive(Default)]
pub struct ClosedRun {
    pub elapsed_s: f64,
    pub completed: usize,
    /// Latencies of each slice, in completion order.
    pub slices: Vec<Samples>,
    pub swap_ms: Samples,
    pub stats: ServerStats,
}

fn kind(task: Task) -> TaskKind {
    match task {
        Task::Classify => TaskKind::Classify,
        Task::TopK => TaskKind::TopK,
        Task::Anomaly => TaskKind::Anomaly,
    }
}

/// Whether `response` is the serial answer to pool query `idx` under `r`.
fn matches(r: &IntReference, idx: usize, task: Task, response: &TaskResponse) -> bool {
    match (task, response) {
        (Task::Classify, TaskResponse::Class(c)) => *c == r.class[idx],
        (Task::TopK, TaskResponse::Ranked(ranks)) => *ranks == r.ranked[idx],
        (Task::Anomaly, TaskResponse::Anomaly(v)) => {
            v.score.to_bits() == r.anomaly[idx].to_bits()
                && v.anomalous == (r.anomaly[idx] < r.threshold)
        }
        _ => false,
    }
}

struct InFlight {
    idx: usize,
    task: Task,
    sent: Instant,
    ticket: Result<Prediction, ServeError>,
}

/// Fewest requests a slice completes.  The closed loop reports p90, not
/// p99: the p99 of its slices did not repeat within a tenth from run to run
/// on the reference host (quartile spreads of 3-45% over six sets of runs).
const MIN_PER_SLICE: usize = 4000;

/// One slice: the closed loop for `budget` (and at least
/// [`MIN_PER_SLICE`] requests) on a fresh server; `last` marks the run's
/// final slice.
pub fn run_slice(
    fx: &Fixture,
    budget: Duration,
    seed: u64,
    slice: usize,
    last: bool,
    run: &mut ClosedRun,
    outcome: &mut Outcome,
) {
    let server = spawn_server(&fx.int, true);
    let client = server.client();
    let mut rng = Rng::stream(seed, STREAM + 16 * slice as u64);
    let pool = fx.pool.rows();
    let submit = |rng: &mut Rng| {
        let idx = query_order(pool, 1, rng)[0];
        let task = draw_task(rng);
        InFlight {
            idx,
            task,
            sent: Instant::now(),
            ticket: client.submit_task(fx.pool.row(idx), kind(task)),
        }
    };
    // Warm-up: a few requests of each task kind, unmeasured.
    for task in [Task::Classify, Task::TopK, Task::Anomaly] {
        for idx in 0..WARMUP {
            let answer = client
                .submit_task(fx.pool.row(idx), kind(task))
                .and_then(Prediction::wait_response);
            outcome.check(
                answer.is_ok_and(|a| matches(&fx.int_reference[0], idx, task, &a)),
                "integer warm-up answer",
            );
        }
    }
    let warm = server.stats();

    let (mut live, mut swaps) = (0usize, 0usize);
    let mut queue: VecDeque<InFlight> = (0..IN_FLIGHT).map(|_| submit(&mut rng)).collect();
    let start = Instant::now();
    let mut next_swap = start + SWAP_EVERY;
    let mut latency_ms = Samples::new();
    let mut sent = IN_FLIGHT;
    while let Some(req) = queue.pop_front() {
        let response = req.ticket.and_then(Prediction::wait_response);
        latency_ms.push(req.sent.elapsed().as_secs_f64() * 1e3);
        let ok = response.is_ok_and(|r| {
            fx.int_reference
                .iter()
                .any(|reference| matches(reference, req.idx, req.task, &r))
        });
        outcome.attempt(
            ok,
            "closed-loop answer equals the reference under one of the two memories",
        );
        let now = Instant::now();
        if sent < MIN_PER_SLICE || now.duration_since(start) < budget {
            queue.push_back(submit(&mut rng));
            sent += 1;
        }
        // Every 250 ms, and once mid-way through every slice, so that a
        // slice shorter than the interval still serves across a swap.
        let midway = swaps == 0 && latency_ms.len() == MIN_PER_SLICE / 2;
        if now >= next_swap || midway {
            swaps += 1;
            live = 1 - live;
            let memory = fx.memories[live].clone();
            let t = Instant::now();
            let swapped = client.swap_class_memory(memory);
            run.swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
            outcome.check(swapped.is_ok(), "class-memory swap publishes");
            if !midway {
                next_swap += SWAP_EVERY;
            }
        }
    }
    run.elapsed_s += start.elapsed().as_secs_f64();
    run.completed += latency_ms.len();
    run.slices.push(latency_ms);
    let end = server.stats();
    run.stats.served += end.served - warm.served;
    run.stats.flushes += end.flushes - warm.flushes;
    run.stats.peak_queue_depth = run.stats.peak_queue_depth.max(end.peak_queue_depth);

    if live != 0 {
        let restored = client.swap_class_memory(fx.memories[0].clone());
        outcome.check(restored.is_ok(), "class-memory swap publishes");
    }
    if last {
        post_run_pass(fx, &client, outcome);
    }
    let shutdown = server.shutdown();
    outcome.check(shutdown.is_ok(), "integer server shuts down cleanly");
}

/// Every pool query once per task kind, in pool order, under the first
/// memory, after the run's last slice; the FNV-1a of the answers must equal
/// the serial reference's.
fn post_run_pass(fx: &Fixture, client: &ServerClient, outcome: &mut Outcome) {
    let reference = &fx.int_reference[0];
    let mut served = Fnv::new();
    let mut serial = Fnv::new();
    for task in [Task::Classify, Task::TopK, Task::Anomaly] {
        let tickets: Vec<_> = (0..fx.pool.rows())
            .map(|r| client.submit_task(fx.pool.row(r), kind(task)))
            .collect();
        for (idx, t) in tickets.into_iter().enumerate() {
            served.words(response_words(t.and_then(Prediction::wait_response).ok()));
            serial.words(response_words(Some(match task {
                Task::Classify => TaskResponse::Class(reference.class[idx]),
                Task::TopK => TaskResponse::Ranked(reference.ranked[idx].clone()),
                Task::Anomaly => TaskResponse::Anomaly(disthd_serve::AnomalyVerdict {
                    score: reference.anomaly[idx],
                    anomalous: reference.anomaly[idx] < reference.threshold,
                }),
            })));
        }
    }
    outcome.check(
        served.finish() == serial.finish(),
        "integer post-run hash equals the serial baseline",
    );
}

fn response_words(response: Option<TaskResponse>) -> Vec<u64> {
    match response {
        None => vec![u64::MAX],
        Some(TaskResponse::Class(c)) => vec![c as u64],
        Some(TaskResponse::Ranked(ranks)) => ranks.into_iter().map(|c| c as u64).collect(),
        Some(TaskResponse::Anomaly(v)) => vec![v.score.to_bits() as u64, v.anomalous as u64],
    }
}

pub fn end_to_end(run: &ClosedRun) -> Vec<Metric> {
    let latency =
        |p| stats::slice_percentile(&run.slices, p).expect("slices are sized for their percentile");
    vec![
        Metric::new(
            "qps",
            run.completed as f64 / run.elapsed_s,
            "req/s",
            run.completed,
        ),
        Metric::new("p50_ms", latency(50.0), "ms", run.completed),
        Metric::new("p90_ms", latency(90.0), "ms", run.completed),
    ]
}

fn reps_for(batch: usize) -> usize {
    (240 / batch).clamp(15, 61)
}

fn batch_of(fx: &Fixture, batch: usize) -> Matrix {
    let rows: Vec<&[f32]> = (0..batch)
        .map(|r| fx.pool.row(r % fx.pool.rows()))
        .collect();
    Matrix::from_row_slices(fx.pool.cols(), &rows).expect("pool arity")
}

/// Per-layer metrics: replays of each integer stage at b=1, at the run's
/// mean batch and at the full window; one FHT; the swap and server counters.
pub fn traced(
    fx: &Fixture,
    run: &ClosedRun,
    restore_ms: &Samples,
    outcome: &mut Outcome,
) -> Vec<Metric> {
    let model = &fx.int;
    let encoder = model.encoder_parts();
    let means = model.center_parts().means();
    let memory = model.memory_parts();
    let mut inv_norms = Vec::new();
    memory.code_inv_norms_into(&mut inv_norms);
    let reference = &fx.int_reference[0];
    let mut out = Vec::new();

    let batch_mean = run.stats.served as f64 / run.stats.flushes.max(1) as f64;
    let mut coverage = (0.0, 0.0, 0.0);
    for (label, b) in [
        ("b1", 1),
        ("bmean", stats::replay_batch(batch_mean, WINDOW)),
        ("b32", WINDOW),
    ] {
        let queries = batch_of(fx, b);
        let expected: Vec<usize> = (0..b)
            .map(|r| reference.class[r % fx.pool.rows()])
            .collect();
        let (mut encode, mut score, mut wall, mut topk, mut anomaly, mut untraced) = (
            Samples::new(),
            Samples::new(),
            Samples::new(),
            Samples::new(),
            Samples::new(),
            Samples::new(),
        );
        for _ in 0..reps_for(b) {
            let t = Instant::now();
            let answer = model.predict_quantized_batch(&queries);
            untraced.push(t.elapsed().as_secs_f64());
            outcome.check(
                answer.ok().as_ref() == Some(&expected),
                "replayed integer answer",
            );

            let t0 = Instant::now();
            let codes = encode_q(encoder, &queries, means, memory.width());
            let t1 = Instant::now();
            let answer = packed_predict_batch(&codes, memory, &inv_norms);
            let t2 = Instant::now();
            encode.push((t1 - t0).as_secs_f64());
            score.push((t2 - t1).as_secs_f64());
            wall.push((t2 - t0).as_secs_f64());
            outcome.check(
                answer.ok().as_ref() == Some(&expected),
                "replayed integer stage answer",
            );

            let t = Instant::now();
            let ranked: Vec<Vec<usize>> = cosines(&codes, memory, &inv_norms)
                .iter_rows()
                .map(|row| top_k_largest(row, TOP_K))
                .collect();
            topk.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let best: Vec<f32> = cosines(&codes, memory, &inv_norms)
                .iter_rows()
                .map(|row| row.iter().copied().fold(f32::NEG_INFINITY, f32::max))
                .collect();
            anomaly.push(t.elapsed().as_secs_f64());
            outcome.check(
                ranked
                    .iter()
                    .enumerate()
                    .all(|(r, k)| *k == reference.ranked[r % fx.pool.rows()])
                    && best.iter().enumerate().all(|(r, s)| {
                        s.to_bits() == reference.anomaly[r % fx.pool.rows()].to_bits()
                    }),
                "replayed task answers",
            );
        }
        let n = reps_for(b);
        out.push(Metric::new(
            format!("int.encoder.encode_q_ms.{label}"),
            median_ms(&encode),
            "ms",
            n,
        ));
        out.push(Metric::new(
            format!("int.score.int_ms.{label}"),
            median_ms(&score),
            "ms",
            n,
        ));
        out.push(Metric::new(
            format!("int.tasks.topk_ms.{label}"),
            median_ms(&topk),
            "ms",
            n,
        ));
        out.push(Metric::new(
            format!("int.tasks.anomaly_ms.{label}"),
            median_ms(&anomaly),
            "ms",
            n,
        ));
        if label == "bmean" {
            coverage = (
                median_ms(&encode) + median_ms(&score),
                median_ms(&wall),
                median_ms(&untraced),
            );
        }
    }

    let (fht_us, n) = fht_probe(encoder);
    out.push(Metric::new("int.linalg.fht_us", fht_us, "us", 64));
    out.push(Metric::new(
        "int.linalg.fht_ops",
        (n * n.trailing_zeros() as usize) as f64,
        "add/sub",
        0,
    ));
    out.push(Metric::new(
        "int.publish.swap_ms",
        run.swap_ms.median().unwrap_or(0.0),
        "ms",
        run.swap_ms.len(),
    ));
    out.push(Metric::new(
        "int.publish.swaps",
        run.swap_ms.len() as f64,
        "count",
        1,
    ));
    out.push(Metric::new(
        "int.server.batch_mean",
        batch_mean,
        "queries/batch",
        run.stats.flushes as usize,
    ));
    out.push(Metric::new(
        "int.server.peak_queue_depth",
        run.stats.peak_queue_depth as f64,
        "queries",
        1,
    ));
    out.push(Metric::new(
        "int.io.restore_ms",
        median(restore_ms),
        "ms",
        restore_ms.len(),
    ));
    let (stage_sum, traced_wall, untraced) = coverage;
    out.push(Metric::new(
        "int.trace.coverage",
        stage_sum / traced_wall,
        "fraction",
        1,
    ));
    out.push(Metric::new(
        "int.trace.overhead",
        traced_wall / untraced,
        "ratio",
        1,
    ));
    out
}

fn encode_q(
    encoder: &AnyRbfEncoder,
    queries: &Matrix,
    means: &[f32],
    width: BitWidth,
) -> QuantizedMatrix {
    encoder
        .encode_batch_quantized(queries, Some(means), width)
        .expect("pool arity")
}

fn cosines(codes: &QuantizedMatrix, memory: &QuantizedMatrix, inv_norms: &[f32]) -> Matrix {
    packed_cosine_matrix(codes, memory, inv_norms).expect("same width and dimension")
}

/// Median time of one Walsh–Hadamard transform at the encoder's block size
/// under its schedule (with a refresh of its input buffer), in
/// microseconds, and that size.
fn fht_probe(encoder: &AnyRbfEncoder) -> (f64, usize) {
    let structured = encoder.as_structured().expect("structured deployment");
    let n = structured.block_dim().next_power_of_two();
    let opts = FhtOpts::dense(structured.fht_schedule());
    let mut rng = Rng::stream(0, 0);
    let input: Vec<f32> = (0..n)
        .map(|_| (rng.next_open_unit() - 0.5) as f32)
        .collect();
    let mut data = input.clone();
    let mut per = Samples::new();
    const INNER: usize = 64;
    for _ in 0..31 {
        let t = Instant::now();
        for _ in 0..INNER {
            // Fresh input each time: repeated unnormalized transforms
            // would overflow to infinities.
            data.copy_from_slice(&input);
            fht_inplace_opts(std::hint::black_box(&mut data), &opts);
        }
        per.push(t.elapsed().as_secs_f64() / INNER as f64);
    }
    (per.median().expect("samples") * 1e6, n)
}
