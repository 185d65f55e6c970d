//! The sharded, live serving layer: N batch workers, lock-free hot-swap.
//!
//! A [`Server`] spawns one scoring worker per **shard**.  Every worker
//! owns a batch queue; clients are dealt across the queues round-robin,
//! and an idle worker steals the oldest queued work from the deepest
//! other queue, so throughput scales with cores instead of serializing
//! behind one dispatcher thread (the pre-shard design topped out at one
//! engine regardless of load — see `DESIGN.md` §9).
//!
//! The model itself is **published, not locked**: workers read an
//! epoch-versioned snapshot ([`crate::PublishedModel`]) that hot-swap and
//! rollback replace wholesale.  A worker resolves the snapshot once per
//! batch, so a swap never blocks an in-flight batch, a batch can never
//! tear across two generations, and a publication is visible by the next
//! batch — while the per-batch cost in the steady state is a single
//! atomic load.
//!
//! Every worker runs under a **supervisor** (`DESIGN.md` §13): a panic
//! while scoring fails the in-flight batch's tickets with
//! [`ServeError::WorkerFailed`] — clients never hang on a dropped
//! responder — and restarts the worker with a fresh snapshot reader,
//! bounded by [`ServerOptions::max_worker_restarts`] with exponential
//! backoff.  A shard that exhausts its restart budget is marked dead:
//! its queue is failed, admission routes around it, and
//! [`Server::shutdown`] reports the shard instead of panicking.
//! Requests may also carry a **deadline** ([`SubmitOptions::deadline`]):
//! a shard sheds queued work whose deadline passes before its batch
//! flushes ([`ServeError::DeadlineExceeded`]) rather than serving answers
//! the client has already abandoned.

use crate::chaos::ChaosPlan;
use crate::engine::{
    score_task_batch, validate_query, AnomalyVerdict, BatchPolicy, TaskKind, TaskResponse,
};
use crate::publish::PublishedModel;
use disthd::DeployedModel;
use disthd_eval::ModelError;
use disthd_hd::encoder::Encoder;
use disthd_hd::quantize::QuantizedMatrix;
use disthd_linalg::{RngSeed, SeededRng};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Errors surfaced to serving clients.
#[derive(Debug)]
pub enum ServeError {
    /// The model rejected or failed the request.
    Model(ModelError),
    /// The server worker is gone (shut down).
    Disconnected,
    /// Admission control shed the request: the target shard's queue was at
    /// capacity.  The client may retry ([`ServerClient::submit_with_retry`]
    /// does so with jittered backoff); the server sheds instead of letting
    /// queueing delay grow without bound (see
    /// [`ServerOptions::queue_capacity`]).
    Overloaded,
    /// The worker scoring this request's batch panicked (the named shard),
    /// or the shard died after exhausting its restart budget.  The request
    /// was **not** served; it is safe to resubmit — a restarted worker (or
    /// another shard) will pick it up.
    WorkerFailed {
        /// Index of the shard whose worker failed.
        shard: usize,
    },
    /// The request's [`SubmitOptions::deadline`] passed before its batch
    /// flushed; the shard shed it unscored (see `DESIGN.md` §13).
    DeadlineExceeded,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Model(e) => write!(f, "serving failed: {e}"),
            ServeError::Disconnected => write!(f, "server is no longer running"),
            ServeError::Overloaded => write!(f, "server queue is full; request shed"),
            ServeError::WorkerFailed { shard } => {
                write!(f, "shard {shard} worker failed; request not served")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline passed before its batch flushed")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Model(e) => Some(e),
            ServeError::Disconnected
            | ServeError::Overloaded
            | ServeError::WorkerFailed { .. }
            | ServeError::DeadlineExceeded => None,
        }
    }
}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> Self {
        ServeError::Model(e)
    }
}

/// Deployment options of a [`Server`] beyond the batch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// Number of shard workers (≥ 1).  Each worker scores batches
    /// independently against the published snapshot, so qps scales with
    /// shards until the machine runs out of cores.  The default resolves
    /// `DISTHD_SERVE_SHARDS`, falling back to 1 (the single-worker
    /// behaviour of the pre-shard server).
    pub shards: usize,
    /// Per-shard admission bound: a predict request targeting a shard whose
    /// queue already holds this many waiting queries is shed with
    /// [`ServeError::Overloaded`] (and counted in
    /// [`ServerStats::shed`]) instead of queueing unboundedly.
    pub queue_capacity: usize,
    /// Score batches through the end-to-end integer pipeline
    /// ([`disthd::Precision::Integer`]): the fused quantize
    /// epilogue packs encoded queries at the class memory's storage width
    /// and similarity runs on XOR+popcount (1-bit) or widening integer
    /// dots — no `f32` hypervector after featurization.  The default
    /// resolves `DISTHD_SERVE_INT` (`1`/`true`), falling back to the
    /// f32-query scoring path.
    pub integer_pipeline: bool,
    /// How many times a shard's supervisor restarts a panicked worker
    /// before declaring the shard dead (failing its queue with
    /// [`ServeError::WorkerFailed`] and routing admission around it).
    /// Restarts back off exponentially (1 ms doubling, capped at 50 ms).
    pub max_worker_restarts: usize,
}

/// Default per-shard admission bound.
const DEFAULT_QUEUE_CAPACITY: usize = 8192;
/// Default supervisor restart budget per shard.
const DEFAULT_MAX_WORKER_RESTARTS: usize = 32;

impl Default for ServerOptions {
    fn default() -> Self {
        let shards = std::env::var("DISTHD_SERVE_SHARDS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(1);
        let integer_pipeline = std::env::var("DISTHD_SERVE_INT")
            .map(|v| matches!(v.trim(), "1" | "true"))
            .unwrap_or(false);
        Self {
            shards,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            integer_pipeline,
            max_worker_restarts: DEFAULT_MAX_WORKER_RESTARTS,
        }
    }
}

impl ServerOptions {
    /// Options with the given shard count and the default admission bound.
    pub fn sharded(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            ..Self::default()
        }
    }
}

/// Options of a single submission beyond the feature vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOptions {
    /// The serving task requested (defaults to classification).
    pub kind: TaskKind,
    /// Optional deadline, measured from submission: if the request's batch
    /// has not started scoring within this budget, the shard sheds it with
    /// [`ServeError::DeadlineExceeded`] instead of serving an answer the
    /// caller has stopped waiting for.  A deadline shorter than the batch's
    /// natural flush trigger (window fill or [`BatchPolicy::max_wait`]
    /// patience) is therefore a guarantee to shed unless load fills the
    /// window first.  `None` (the default) never sheds by time.
    pub deadline: Option<Duration>,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        Self {
            kind: TaskKind::Classify,
            deadline: None,
        }
    }
}

impl SubmitOptions {
    /// Options for `kind` with no deadline.
    pub fn task(kind: TaskKind) -> Self {
        Self {
            kind,
            ..Self::default()
        }
    }

    /// Classification with a deadline.
    pub fn within(deadline: Duration) -> Self {
        Self {
            kind: TaskKind::Classify,
            deadline: Some(deadline),
        }
    }

    /// Returns these options with `deadline` set.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Bounded retry with deterministic jittered exponential backoff for
/// [`ServeError::Overloaded`] rejections (and only those — every other
/// error is surfaced immediately).
///
/// The jitter is drawn from the in-tree seeded RNG: attempt `i` sleeps
/// `backoff * 2^i * u` with `u` uniform in `[0.5, 1.0)` derived from
/// `seed` and `i`, so two clients with different seeds decorrelate their
/// retry storms while any single run stays replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (≥ 1).
    pub attempts: usize,
    /// Base backoff before the second attempt; doubles each retry.
    pub backoff: Duration,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Four attempts from a 200 µs base: a burst rejection retries within
    /// roughly a batch window, a sustained overload still fails fast.
    fn default() -> Self {
        Self {
            attempts: 4,
            backoff: Duration::from_micros(200),
            seed: 0x00dd_5eed,
        }
    }
}

/// Lifetime counters of a [`Server`], aggregated across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries answered.
    pub served: u64,
    /// Batched scoring passes claimed (each one encode GEMM + one
    /// integer-similarity pass; a pass that panicked under fault injection
    /// still counts — its batch is in [`ServerStats::failed_batches`]).
    pub flushes: u64,
    /// Batches an idle worker stole from another shard's queue.
    pub stolen_batches: u64,
    /// Requests shed by admission control (queue at capacity).
    pub shed: u64,
    /// Requests shed because their [`SubmitOptions::deadline`] passed
    /// before their batch started scoring.
    pub deadline_shed: u64,
    /// Times a supervisor restarted a panicked shard worker.
    pub worker_restarts: u64,
    /// Batches whose tickets were failed with
    /// [`ServeError::WorkerFailed`] because scoring panicked.
    pub failed_batches: u64,
    /// Deepest any shard queue has been (admission/backpressure gauge).
    pub peak_queue_depth: usize,
}

/// One queued serving request (any [`TaskKind`]).
struct Job {
    /// Enqueue instant; the shard's flush deadline is measured from the
    /// *oldest* queued job so a trickle of arrivals cannot starve it.
    at: Instant,
    /// Absolute shed deadline, if the submission carried one.
    deadline: Option<Instant>,
    features: Vec<f32>,
    kind: TaskKind,
    reply: Sender<Result<TaskResponse, ServeError>>,
}

/// A shard: one batch queue plus the condvar its worker parks on.
struct Shard {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    /// Set (under the queue lock) when the shard's supervisor gave up;
    /// admission routes around dead shards.
    dead: AtomicBool,
}

/// State shared by every client handle and worker thread.
struct Shared {
    published: PublishedModel,
    policy: BatchPolicy,
    queue_capacity: usize,
    feature_dim: usize,
    integer_pipeline: bool,
    max_worker_restarts: usize,
    chaos: Arc<ChaosPlan>,
    shards: Vec<Shard>,
    /// Round-robin admission cursor.
    rr: AtomicUsize,
    shutdown: AtomicBool,
    /// First shard declared dead (`usize::MAX` while all are alive).
    first_dead: AtomicUsize,
    served: AtomicU64,
    flushes: AtomicU64,
    stolen: AtomicU64,
    shed: AtomicU64,
    deadline_shed: AtomicU64,
    worker_restarts: AtomicU64,
    failed_batches: AtomicU64,
    peak_depth: AtomicUsize,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        ServerStats {
            served: self.served.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            stolen_batches: self.stolen.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_shed: self.deadline_shed.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            failed_batches: self.failed_batches.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_depth.load(Ordering::Relaxed),
        }
    }
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// An in-flight request submitted with [`ServerClient::submit`] or
/// [`ServerClient::submit_task`]; redeem it with [`Prediction::wait`]
/// (classification) or [`Prediction::wait_response`] (any task kind).
/// Dropping it abandons the answer (the query is still scored with its
/// batch).
#[derive(Debug)]
pub struct Prediction {
    rx: Receiver<Result<TaskResponse, ServeError>>,
}

impl Prediction {
    /// Blocks until the batch containing this query has been scored and
    /// returns the predicted class.  Only valid for
    /// [`TaskKind::Classify`] submissions; a ranking or anomaly ticket
    /// surfaces [`ServeError::Model`] here — redeem those with
    /// [`Prediction::wait_response`].
    ///
    /// # Errors
    ///
    /// * [`ServeError::Model`] if scoring failed or the submission was
    ///   not a classification task;
    /// * [`ServeError::WorkerFailed`] if the scoring worker panicked;
    /// * [`ServeError::DeadlineExceeded`] if the request's deadline passed
    ///   before its batch flushed;
    /// * [`ServeError::Disconnected`] if the server shut down first.
    pub fn wait(self) -> Result<usize, ServeError> {
        match self.wait_response()? {
            TaskResponse::Class(class) => Ok(class),
            other => Err(ServeError::Model(ModelError::Incompatible(format!(
                "ticket holds a {other:?}, not a classification; redeem with wait_response"
            )))),
        }
    }

    /// Blocks until the batch containing this query has been scored and
    /// returns the full [`TaskResponse`], whatever the task kind.
    ///
    /// # Errors
    ///
    /// See [`Prediction::wait`].
    pub fn wait_response(self) -> Result<TaskResponse, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Disconnected)?
    }
}

/// A cloneable, `Send` handle for submitting requests to a [`Server`].
#[derive(Clone)]
pub struct ServerClient {
    shared: Arc<Shared>,
}

impl ServerClient {
    /// Classifies one feature vector, blocking until the coalesced batch
    /// containing it has been scored.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Model`] if the query is malformed;
    /// * [`ServeError::Overloaded`] if admission control shed the request;
    /// * [`ServeError::WorkerFailed`] if the scoring worker panicked (or
    ///   every shard is dead);
    /// * [`ServeError::Disconnected`] if the server has shut down.
    pub fn predict(&self, features: &[f32]) -> Result<usize, ServeError> {
        self.submit(features)?.wait()
    }

    /// Classifies one feature vector under a deadline: if the coalesced
    /// batch has not started scoring within `deadline` of submission, the
    /// shard sheds the request with [`ServeError::DeadlineExceeded`]
    /// instead of answering late (ROADMAP item 5's shed-by-deadline).
    ///
    /// # Errors
    ///
    /// See [`ServerClient::predict`], plus
    /// [`ServeError::DeadlineExceeded`].
    pub fn predict_within(
        &self,
        features: &[f32],
        deadline: Duration,
    ) -> Result<usize, ServeError> {
        self.submit_with(features, SubmitOptions::within(deadline))?
            .wait()
    }

    /// Classifies one feature vector with bounded retry on
    /// [`ServeError::Overloaded`] (deterministic jittered exponential
    /// backoff per `retry`); every other error is surfaced immediately.
    ///
    /// # Errors
    ///
    /// See [`ServerClient::predict`]; [`ServeError::Overloaded`] is
    /// returned only after `retry.attempts` rejected submissions.
    pub fn predict_with_retry(
        &self,
        features: &[f32],
        retry: RetryPolicy,
    ) -> Result<usize, ServeError> {
        self.submit_with_retry(features, SubmitOptions::default(), retry)?
            .wait()
    }

    /// Ranks the top-k classes for one feature vector, blocking until its
    /// coalesced batch has been scored.  `k` comes from the live
    /// snapshot's [`disthd::ServingTasks::top_k`] (resolved by the worker
    /// at the batch boundary, so a hot-swap retunes queued rankings
    /// together with the memory scoring them), falling back to 1; the
    /// leading entry always equals [`ServerClient::predict`] on the same
    /// query.
    ///
    /// # Errors
    ///
    /// See [`ServerClient::predict`].
    pub fn rank(&self, features: &[f32]) -> Result<Vec<usize>, ServeError> {
        match self
            .submit_task(features, TaskKind::TopK)?
            .wait_response()?
        {
            TaskResponse::Ranked(ranks) => Ok(ranks),
            other => unreachable!("top-k job answered with {other:?}"),
        }
    }

    /// Scores one feature vector for one-class anomaly detection,
    /// blocking until its coalesced batch has been scored.  The verdict
    /// thresholds against the live snapshot's calibrated
    /// [`disthd::ServingTasks::anomaly_threshold`]; an uncalibrated model
    /// still returns the exact score but flags nothing.
    ///
    /// # Errors
    ///
    /// See [`ServerClient::predict`].
    pub fn score_anomaly(&self, features: &[f32]) -> Result<AnomalyVerdict, ServeError> {
        match self
            .submit_task(features, TaskKind::Anomaly)?
            .wait_response()?
        {
            TaskResponse::Anomaly(verdict) => Ok(verdict),
            other => unreachable!("anomaly job answered with {other:?}"),
        }
    }

    /// Enqueues one query without blocking on its answer; the returned
    /// [`Prediction`] redeems it.  This is the pipelined entry point: a
    /// client can keep a window of submissions in flight and let the shard
    /// workers coalesce them.
    ///
    /// # Errors
    ///
    /// See [`ServerClient::predict`] — malformed and shed requests are
    /// rejected here, before anything is queued.
    pub fn submit(&self, features: &[f32]) -> Result<Prediction, ServeError> {
        self.submit_task(features, TaskKind::Classify)
    }

    /// Enqueues one query under an explicit [`TaskKind`] without blocking
    /// on its answer.  Mixed-kind traffic coalesces into the same shard
    /// batches; the worker scores each batch once and reads every query's
    /// answer off its own score row, so sharing a window with rankings or
    /// anomaly probes can never move a classification answer (and vice
    /// versa).
    ///
    /// # Errors
    ///
    /// See [`ServerClient::predict`] — malformed and shed requests are
    /// rejected here, before anything is queued.
    pub fn submit_task(&self, features: &[f32], kind: TaskKind) -> Result<Prediction, ServeError> {
        self.submit_with(features, SubmitOptions::task(kind))
    }

    /// Enqueues one query with full [`SubmitOptions`] (task kind +
    /// optional deadline) without blocking on its answer.  Admission deals
    /// requests round-robin across shards, routing around dead ones.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Model`] if the query has the wrong arity or a NaN
    ///   or infinite feature;
    /// * [`ServeError::Overloaded`] if the target shard's queue is full;
    /// * [`ServeError::DeadlineExceeded`] if the deadline is already zero
    ///   at submission;
    /// * [`ServeError::WorkerFailed`] if every shard is dead;
    /// * [`ServeError::Disconnected`] if the server has shut down.
    pub fn submit_with(
        &self,
        features: &[f32],
        options: SubmitOptions,
    ) -> Result<Prediction, ServeError> {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Disconnected);
        }
        validate_query(features, shared.feature_dim).map_err(ServeError::Model)?;
        if options.deadline.is_some_and(|d| d.is_zero()) {
            shared.deadline_shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::DeadlineExceeded);
        }
        let cursor = shared.rr.fetch_add(1, Ordering::Relaxed);
        let count = shared.shards.len();
        for probe in 0..count {
            let index = (cursor + probe) % count;
            let shard = &shared.shards[index];
            if shard.dead.load(Ordering::Acquire) {
                continue;
            }
            let mut queue = lock(&shard.queue);
            // Re-check under the lock: a worker only exits after observing
            // (shutdown ∧ empty queue) under this lock, and `fail_shard`
            // marks the shard dead under it before draining — so a job
            // admitted past both checks is guaranteed to be drained by a
            // worker or failed by the supervisor, never silently dropped.
            if shared.shutdown.load(Ordering::Acquire) {
                return Err(ServeError::Disconnected);
            }
            if shard.dead.load(Ordering::Acquire) {
                continue;
            }
            if queue.len() >= shared.queue_capacity {
                shared.shed.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded);
            }
            let now = Instant::now();
            let (tx, rx) = mpsc::channel();
            queue.push_back(Job {
                at: now,
                deadline: options.deadline.map(|d| now + d),
                features: features.to_vec(),
                kind: options.kind,
                reply: tx,
            });
            let depth = queue.len();
            drop(queue);
            shared.peak_depth.fetch_max(depth, Ordering::Relaxed);
            shard.cv.notify_one();
            if depth > shared.policy.max_batch {
                // More than one batch is backed up on this shard: wake
                // every worker so an idle one can steal the overflow.
                for other in &shared.shards {
                    other.cv.notify_one();
                }
            }
            return Ok(Prediction { rx });
        }
        // Every shard is dead; name the first casualty.
        let shard = shared.first_dead.load(Ordering::Acquire);
        Err(ServeError::WorkerFailed {
            shard: if shard == usize::MAX { 0 } else { shard },
        })
    }

    /// Enqueues one query with bounded retry on
    /// [`ServeError::Overloaded`]: attempt `i` (zero-based) backs off for
    /// `retry.backoff * 2^i` scaled by a deterministic jitter in
    /// `[0.5, 1.0)` drawn from `retry.seed`.  Every non-`Overloaded`
    /// outcome — success or error — is returned immediately.
    ///
    /// # Errors
    ///
    /// See [`ServerClient::submit_with`]; [`ServeError::Overloaded`] is
    /// returned only after `retry.attempts` rejected submissions.
    pub fn submit_with_retry(
        &self,
        features: &[f32],
        options: SubmitOptions,
        retry: RetryPolicy,
    ) -> Result<Prediction, ServeError> {
        let attempts = retry.attempts.max(1);
        let mut attempt = 0usize;
        loop {
            match self.submit_with(features, options) {
                Err(ServeError::Overloaded) if attempt + 1 < attempts => {
                    let mut rng = SeededRng::derive_stream(RngSeed(retry.seed), attempt as u64);
                    let jitter = 0.5 + 0.5 * f64::from(rng.next_unit());
                    let scale = (1u64 << attempt.min(16)) as f64;
                    std::thread::sleep(retry.backoff.mul_f64(jitter * scale));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Hot-swaps the quantized class memory of the live model by
    /// **publishing** a derived snapshot (copy-on-write, see
    /// [`DeployedModel::with_swapped_memory`]).  The call never waits on a
    /// scoring worker: in-flight batches finish against the generation they
    /// started with, and every batch that begins after this returns is
    /// scored by the new memory.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Model`] on a topology mismatch;
    /// * [`ServeError::Disconnected`] if the server has shut down.
    pub fn swap_class_memory(&self, memory: QuantizedMatrix) -> Result<(), ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Disconnected);
        }
        self.shared
            .published
            .publish_with(|live| live.with_swapped_memory(memory))
            .map(|_| ())
            .map_err(ServeError::Model)
    }

    /// Replaces the whole live deployment (the rollback path; pair with
    /// [`crate::SnapshotStore::restore`] or, after suspected snapshot
    /// corruption, [`crate::SnapshotStore::restore_or_rollback`]).  Like
    /// [`ServerClient::swap_class_memory`] this publishes a new snapshot
    /// and returns immediately — visible by the next batch, never blocking
    /// an in-flight one.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Model`] on a feature-arity mismatch;
    /// * [`ServeError::Disconnected`] if the server has shut down.
    pub fn install_model(&self, model: DeployedModel) -> Result<(), ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Disconnected);
        }
        if model.encoder_parts().input_dim() != self.shared.feature_dim {
            return Err(ServeError::Model(ModelError::Incompatible(format!(
                "replacement expects {} features, live model serves {}",
                model.encoder_parts().input_dim(),
                self.shared.feature_dim
            ))));
        }
        self.shared.published.publish(model);
        Ok(())
    }
}

/// A live classification server: per-shard worker threads that coalesce
/// concurrent client queries into batches and score them against a
/// published model snapshot.
///
/// Each worker accumulates arriving queries until the policy's batch
/// window fills or [`BatchPolicy::max_wait`] elapses with a partial batch
/// (measured from the oldest queued query), then answers the whole batch
/// in one pass.  Clients block only for their own answer.  Hot-swap and
/// rollback go through snapshot **publication** and never block scoring.
/// Workers are supervised: a scoring panic fails its batch's tickets and
/// restarts the worker (see `DESIGN.md` §13).
///
/// # Example
///
/// ```
/// use disthd_serve::{BatchPolicy, Server};
///
/// let deployment = disthd_serve::testkit::tiny_deployment();
/// let server = Server::spawn(deployment, BatchPolicy::window(4));
///
/// // Concurrent clients: each thread fires queries at the shared server.
/// let queries = disthd_serve::testkit::tiny_queries(8);
/// let classes: Vec<usize> = std::thread::scope(|s| {
///     let handles: Vec<_> = queries
///         .iter()
///         .map(|q| {
///             let client = server.client();
///             s.spawn(move || client.predict(q).expect("server alive"))
///         })
///         .collect();
///     handles.into_iter().map(|h| h.join().unwrap()).collect()
/// });
/// assert_eq!(classes.len(), 8);
///
/// let stats = server.shutdown()?;
/// assert_eq!(stats.served, 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts a server with [`ServerOptions::default`] (one shard unless
    /// `DISTHD_SERVE_SHARDS` says otherwise).
    pub fn spawn(model: DeployedModel, policy: BatchPolicy) -> Self {
        Self::spawn_with(model, policy, ServerOptions::default())
    }

    /// Starts a server with an explicit shard count.
    pub fn spawn_sharded(model: DeployedModel, policy: BatchPolicy, shards: usize) -> Self {
        Self::spawn_with(model, policy, ServerOptions::sharded(shards))
    }

    /// Starts the shard workers and publishes `model` as generation 0.
    pub fn spawn_with(model: DeployedModel, policy: BatchPolicy, options: ServerOptions) -> Self {
        Self::spawn_chaotic(model, policy, options, Arc::new(ChaosPlan::none()))
    }

    /// Starts a server whose workers run under the given fault-injection
    /// schedule (the chaos drill entry point — see [`ChaosPlan`]).  A
    /// production server is simply `spawn_with`, i.e. this with
    /// [`ChaosPlan::none`].  Keep a clone of the `Arc` to
    /// [`ChaosPlan::disarm`] mid-run, or call [`Server::disarm_chaos`].
    pub fn spawn_chaotic(
        model: DeployedModel,
        policy: BatchPolicy,
        options: ServerOptions,
        chaos: Arc<ChaosPlan>,
    ) -> Self {
        let shards = options.shards.max(1);
        let feature_dim = model.encoder_parts().input_dim();
        let shared = Arc::new(Shared {
            published: PublishedModel::new(model),
            policy: BatchPolicy {
                max_batch: policy.max_batch.max(1),
                max_wait: policy.max_wait,
            },
            queue_capacity: options.queue_capacity.max(1),
            feature_dim,
            integer_pipeline: options.integer_pipeline,
            max_worker_restarts: options.max_worker_restarts,
            chaos,
            shards: (0..shards)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    cv: Condvar::new(),
                    dead: AtomicBool::new(false),
                })
                .collect(),
            rr: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            first_dead: AtomicUsize::new(usize::MAX),
            served: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_shed: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            failed_batches: AtomicU64::new(0),
            peak_depth: AtomicUsize::new(0),
        });
        let workers = (0..shards)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("disthd-serve-{index}"))
                    .spawn(move || run_worker(&shared, index))
                    .expect("spawn serve worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Creates a client handle; clients are cheap to clone and `Send`, so
    /// every request thread can own one.
    pub fn client(&self) -> ServerClient {
        ServerClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Live lifetime counters (racy snapshot; exact after
    /// [`Server::shutdown`]).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Disarms the fault-injection schedule this server was spawned with
    /// (a no-op under [`ChaosPlan::none`]).  The soak drill calls this
    /// before measuring its post-chaos baseline.
    pub fn disarm_chaos(&self) {
        self.shared.chaos.disarm();
    }

    /// Stops every worker after it has drained and answered its queued
    /// queries, returning the final counters.  Requests submitted after
    /// this call starts are rejected with [`ServeError::Disconnected`].
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerFailed`] naming the first shard whose worker
    /// died (exhausted its restart budget, or — should a panic ever escape
    /// the supervisor — crashed outright).  Never panics, including when a
    /// worker did: the failure is a return value, and the [`Drop`] impl
    /// that runs as `self` goes out of scope joins nothing twice.
    pub fn shutdown(mut self) -> Result<ServerStats, ServeError> {
        self.shared.shutdown.store(true, Ordering::Release);
        for shard in &self.shared.shards {
            shard.cv.notify_all();
        }
        let mut crashed: Option<usize> = None;
        for (index, worker) in std::mem::take(&mut self.workers).into_iter().enumerate() {
            if worker.join().is_err() && crashed.is_none() {
                crashed = Some(index);
            }
        }
        let first_dead = self.shared.first_dead.load(Ordering::Acquire);
        let dead = if first_dead != usize::MAX {
            Some(first_dead)
        } else {
            crashed
        };
        match dead {
            Some(shard) => Err(ServeError::WorkerFailed { shard }),
            None => Ok(self.shared.stats()),
        }
    }
}

impl Drop for Server {
    /// Dropping a server without calling [`Server::shutdown`] still stops
    /// and joins every worker — and swallows worker panics rather than
    /// propagating them, so a drop during unwinding can never double-panic
    /// and abort.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for shard in &self.shared.shards {
            shard.cv.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Takes up to `max_batch` jobs from the front of `queue` (oldest first).
fn drain_batch(queue: &mut VecDeque<Job>, max_batch: usize) -> Vec<Job> {
    let n = queue.len().min(max_batch);
    queue.drain(..n).collect()
}

/// Collects the next scoreable batch for shard `index`: raw collection per
/// the policy, then deadline shedding — a drained job whose deadline has
/// passed is failed with [`ServeError::DeadlineExceeded`] instead of
/// scored.  Returns an empty batch only on shutdown with an empty queue.
fn collect_batch(shared: &Shared, index: usize) -> Vec<Job> {
    loop {
        let batch = collect_raw_batch(shared, index);
        if batch.is_empty() {
            return batch;
        }
        let live = shed_expired(shared, batch);
        if !live.is_empty() {
            return live;
        }
        // Every drained job was past its deadline; collect again.
    }
}

/// Splits `batch` into jobs still worth scoring and jobs whose deadline
/// passed while queued; the latter are answered with
/// [`ServeError::DeadlineExceeded`] and counted.
fn shed_expired(shared: &Shared, batch: Vec<Job>) -> Vec<Job> {
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    for job in batch {
        match job.deadline {
            Some(deadline) if now >= deadline => {
                shared.deadline_shed.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(Err(ServeError::DeadlineExceeded));
            }
            _ => live.push(job),
        }
    }
    live
}

/// Collects the next batch for shard `index`, blocking per the policy.
/// The wake-up instant is the sooner of the patience deadline (oldest
/// job + `max_wait`) and the earliest queued request deadline, so a
/// deadline is honoured (served by an early flush or shed on time) even
/// when the patience window is much longer.  Returns an empty batch only
/// when the server is shutting down and the shard's queue has been
/// observed empty under its lock.
fn collect_raw_batch(shared: &Shared, index: usize) -> Vec<Job> {
    let shard = &shared.shards[index];
    let max_batch = shared.policy.max_batch;
    let max_wait = shared.policy.max_wait;
    let mut queue = lock(&shard.queue);
    loop {
        let shutting_down = shared.shutdown.load(Ordering::Acquire);
        if queue.len() >= max_batch || (shutting_down && !queue.is_empty()) {
            return drain_batch(&mut queue, max_batch);
        }
        if let Some(oldest) = queue.front() {
            let patience = oldest.at + max_wait;
            let wake = queue
                .iter()
                .filter_map(|job| job.deadline)
                .min()
                .map_or(patience, |d| d.min(patience));
            let now = Instant::now();
            if now >= wake {
                // Deadline reached: drain everything that is queued *right
                // now* in one batch.  (The pre-shard dispatcher could hit a
                // zero-remaining `recv_timeout` here and flush short even
                // though queued messages would have filled the batch.)
                return drain_batch(&mut queue, max_batch);
            }
            queue = shard
                .cv
                .wait_timeout(queue, wake - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            continue;
        }
        // Own queue is empty.
        if shutting_down {
            return Vec::new();
        }
        drop(queue);
        if let Some(stolen) = steal_batch(shared, index) {
            shared.stolen.fetch_add(1, Ordering::Relaxed);
            return stolen;
        }
        queue = lock(&shard.queue);
        if queue.is_empty() && !shared.shutdown.load(Ordering::Acquire) {
            queue = shard.cv.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Steals up to one batch of the oldest work from the deepest other
/// shard's queue.
fn steal_batch(shared: &Shared, thief: usize) -> Option<Vec<Job>> {
    if shared.shards.len() == 1 {
        return None;
    }
    let victim = (0..shared.shards.len())
        .filter(|&v| v != thief)
        .map(|v| (lock(&shared.shards[v].queue).len(), v))
        .filter(|&(len, _)| len > 0)
        .max()?
        .1;
    let mut queue = lock(&shared.shards[victim].queue);
    if queue.is_empty() {
        // Raced with the victim's own worker (or another thief).
        return None;
    }
    Some(drain_batch(&mut queue, shared.policy.max_batch))
}

/// Declares shard `index` dead after its restart budget is spent: marks it
/// (under the queue lock, so admission's own locked re-check cannot race a
/// job past it), drains whatever is queued, and fails every drained job —
/// clients waiting on this shard resolve promptly instead of hanging.
fn fail_shard(shared: &Shared, index: usize) {
    let shard = &shared.shards[index];
    let drained: Vec<Job> = {
        let mut queue = lock(&shard.queue);
        shard.dead.store(true, Ordering::Release);
        queue.drain(..).collect()
    };
    let _ =
        shared
            .first_dead
            .compare_exchange(usize::MAX, index, Ordering::AcqRel, Ordering::Acquire);
    for job in drained {
        let _ = job
            .reply
            .send(Err(ServeError::WorkerFailed { shard: index }));
    }
}

/// The supervisor for shard `index`: runs the worker loop, catching
/// panics.  Each panic costs one restart from the budget (with
/// exponentially backed-off sleeps); a clean return is shutdown.  When the
/// budget is spent the shard is failed — never silently abandoned.
fn run_worker(shared: &Shared, index: usize) {
    let mut restarts = 0usize;
    loop {
        // The shared state is safe to reuse across the unwind: panics are
        // only ever raised during scoring (or injected by chaos at the
        // same point), where no queue lock is held and the in-flight
        // batch's tickets have already been failed by `worker_loop`.
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared, index))) {
            Ok(()) => return,
            Err(_panic) => {
                if restarts == shared.max_worker_restarts {
                    fail_shard(shared, index);
                    return;
                }
                restarts += 1;
                shared.worker_restarts.fetch_add(1, Ordering::Relaxed);
                let shift = (restarts - 1).min(6) as u32;
                let backoff = Duration::from_millis(1u64 << shift).min(Duration::from_millis(50));
                std::thread::sleep(backoff);
            }
        }
    }
}

/// The shard worker loop: collect a batch, resolve the snapshot **once at
/// the batch boundary**, score, repeat; exit after draining on shutdown.
///
/// Scoring runs inside its own `catch_unwind` so a panicked pass —
/// injected by a [`ChaosPlan`] or real — fails the batch's tickets with
/// [`ServeError::WorkerFailed`] *before* the panic propagates to the
/// supervisor: the clients never hang on a dropped responder.  The flush
/// number is claimed before scoring so chaos schedules key on a counter
/// that advances even across failed passes.
fn worker_loop(shared: &Shared, index: usize) {
    let mut reader = shared.published.reader();
    loop {
        let batch = collect_batch(shared, index);
        if batch.is_empty() {
            debug_assert!(shared.shutdown.load(Ordering::Acquire));
            return;
        }
        let served = batch.len() as u64;
        reader.refresh();
        let flush = shared.flushes.fetch_add(1, Ordering::Relaxed);
        let rows: Vec<&[f32]> = batch.iter().map(|job| job.features.as_slice()).collect();
        let kinds: Vec<TaskKind> = batch.iter().map(|job| job.kind).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shared.chaos.before_score(flush);
            score_task_batch(
                reader.snapshot(),
                shared.integer_pipeline,
                shared.feature_dim,
                &rows,
                &kinds,
            )
        }));
        drop(rows);
        match outcome {
            Ok(Ok(responses)) => {
                for (job, response) in batch.into_iter().zip(responses) {
                    let _ = job.reply.send(Ok(response));
                }
                shared.served.fetch_add(served, Ordering::Relaxed);
            }
            Ok(Err(e)) => {
                // Unreachable for queries admitted by `submit` (arity is
                // validated up front); answer every job rather than hanging
                // it.
                let message = e.to_string();
                for job in batch {
                    let _ = job
                        .reply
                        .send(Err(ServeError::Model(ModelError::Incompatible(
                            message.clone(),
                        ))));
                }
                shared.served.fetch_add(served, Ordering::Relaxed);
            }
            Err(panic) => {
                shared.failed_batches.fetch_add(1, Ordering::Relaxed);
                for job in batch {
                    let _ = job
                        .reply
                        .send(Err(ServeError::WorkerFailed { shard: index }));
                }
                resume_unwind(panic);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use disthd_hd::quantize::BitWidth;
    use disthd_linalg::Matrix;

    /// A class memory whose every row is identical, so argmax resolves to
    /// class 0 for any query — a recognizable "generation marker".
    fn constant_memory(model: &DeployedModel) -> QuantizedMatrix {
        let (k, dim) = model.memory_parts().shape();
        QuantizedMatrix::quantize(&Matrix::filled(k, dim, 1.0), BitWidth::B8)
    }

    #[test]
    fn a_burst_within_the_patience_window_coalesces_into_one_batch() {
        // Regression for the pre-shard dispatcher's deadline busy-path: a
        // burst that arrives while the worker is waiting out the patience
        // window must be drained into ONE batch at the deadline, not split
        // because the deadline check raced the queue.
        let server = Server::spawn_sharded(
            testkit::tiny_deployment(),
            BatchPolicy {
                max_batch: 1024,
                max_wait: Duration::from_millis(200),
            },
            1,
        );
        let client = server.client();
        let queries = testkit::tiny_queries(40);
        let pending: Vec<Prediction> = queries.iter().map(|q| client.submit(q).unwrap()).collect();
        for p in pending {
            p.wait().unwrap();
        }
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.served, 40);
        assert_eq!(
            stats.flushes, 1,
            "burst inside one patience window must coalesce into one batch"
        );
    }

    #[test]
    fn swap_published_mid_batch_is_visible_without_waiting_on_scoring() {
        // A swap issued while a partial batch is still queued (long
        // patience) must (a) return immediately — publication, not a trip
        // through the worker loop — and (b) be visible to that very batch,
        // because the worker resolves the snapshot at the batch boundary,
        // after the publication.
        let deployment = testkit::tiny_deployment();
        let constant = constant_memory(&deployment);
        let server = Server::spawn_sharded(
            deployment,
            BatchPolicy {
                max_batch: 64,
                max_wait: Duration::from_millis(300),
            },
            1,
        );
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let queued = client.submit(&q).unwrap();

        let swap_started = Instant::now();
        client.swap_class_memory(constant).unwrap();
        let swap_latency = swap_started.elapsed();
        assert!(
            swap_latency < Duration::from_millis(150),
            "swap must not wait out the batch window ({swap_latency:?})"
        );

        // The queued query's batch flushes after the publication, so it is
        // scored by the constant memory (every row identical → class 0).
        assert_eq!(queued.wait().unwrap(), 0);
        // So is everything that follows.
        assert_eq!(client.predict(&q).unwrap(), 0);
        server.shutdown().unwrap();
    }

    #[test]
    fn install_rollback_restores_old_predictions() {
        let deployment = testkit::tiny_deployment();
        let constant = constant_memory(&deployment);
        let server = Server::spawn(deployment.clone(), BatchPolicy::window(4));
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let before = client.predict(&q).unwrap();
        client.swap_class_memory(constant).unwrap();
        assert_eq!(client.predict(&q).unwrap(), 0);
        client.install_model(deployment).unwrap();
        assert_eq!(client.predict(&q).unwrap(), before);
        server.shutdown().unwrap();
    }

    #[test]
    fn full_shard_queue_sheds_with_overloaded() {
        // Window far above capacity + long patience: the worker parks on
        // the deadline while jobs accumulate, so the queue depth (and the
        // shed decision) is deterministic.
        let server = Server::spawn_with(
            testkit::tiny_deployment(),
            BatchPolicy {
                max_batch: 1024,
                max_wait: Duration::from_secs(5),
            },
            ServerOptions {
                shards: 1,
                queue_capacity: 4,
                integer_pipeline: false,
                ..ServerOptions::default()
            },
        );
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let pending: Vec<Prediction> = (0..4).map(|_| client.submit(&q).unwrap()).collect();
        assert!(matches!(client.submit(&q), Err(ServeError::Overloaded)));
        // Shutdown drains the admitted four; none are lost.
        let drained: Vec<_> = std::thread::scope(|s| {
            let waiter = s.spawn(move || {
                pending
                    .into_iter()
                    .map(|p| p.wait().unwrap())
                    .collect::<Vec<_>>()
            });
            let stats = server.shutdown().unwrap();
            assert_eq!(stats.served, 4);
            assert_eq!(stats.shed, 1);
            assert!(stats.peak_queue_depth >= 4);
            waiter.join().unwrap()
        });
        assert_eq!(drained.len(), 4);
    }

    #[test]
    fn sharded_server_answers_identically_to_a_single_shard() {
        let deployment = testkit::tiny_deployment();
        let queries = testkit::tiny_queries(64);
        let expected: Vec<usize> = {
            let mut engine = crate::ServeEngine::new(deployment.clone(), BatchPolicy::window(1));
            queries
                .iter()
                .map(|q| engine.predict_one(q).unwrap())
                .collect()
        };
        for shards in [1usize, 2, 4] {
            let server = Server::spawn_sharded(deployment.clone(), BatchPolicy::window(8), shards);
            let client = server.client();
            let pending: Vec<Prediction> =
                queries.iter().map(|q| client.submit(q).unwrap()).collect();
            let answers: Vec<usize> = pending.into_iter().map(|p| p.wait().unwrap()).collect();
            assert_eq!(answers, expected, "{shards} shards");
            let stats = server.shutdown().unwrap();
            assert_eq!(stats.served, 64, "{shards} shards");
        }
    }

    #[test]
    fn integer_pipeline_matches_the_direct_quantized_batch_path() {
        // The integer-pipeline server and engine must answer exactly like
        // DeployedModel::predict_quantized_batch: the fused encode is
        // per-row deterministic, so batching (and sharding) can never
        // change an answer.
        let deployment = testkit::tiny_deployment();
        let queries = testkit::tiny_queries(48);
        let refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let batch = Matrix::from_row_slices(queries[0].len(), &refs).unwrap();
        let expected = deployment.predict_quantized_batch(&batch).unwrap();

        let engine_answers = crate::ServeEngine::new(deployment.clone(), BatchPolicy::window(7))
            .with_integer_pipeline(true)
            .serve_all(&batch)
            .unwrap();
        assert_eq!(engine_answers, expected, "integer engine");

        for shards in [1usize, 2] {
            let server = Server::spawn_with(
                deployment.clone(),
                BatchPolicy::window(8),
                ServerOptions {
                    shards,
                    queue_capacity: DEFAULT_QUEUE_CAPACITY,
                    integer_pipeline: true,
                    ..ServerOptions::default()
                },
            );
            let client = server.client();
            let pending: Vec<Prediction> =
                queries.iter().map(|q| client.submit(q).unwrap()).collect();
            let answers: Vec<usize> = pending.into_iter().map(|p| p.wait().unwrap()).collect();
            assert_eq!(answers, expected, "{shards} integer shards");
            server.shutdown().unwrap();
        }
    }

    #[test]
    fn task_endpoints_match_the_engine_across_shards() {
        // The threaded server and the synchronous engine share one scorer,
        // so rankings and anomaly verdicts must agree bit-for-bit however
        // many shards the traffic is dealt across.
        let mut deployment = testkit::tiny_deployment();
        deployment
            .set_tasks(disthd::ServingTasks {
                top_k: Some(2),
                anomaly_threshold: Some(0.5),
            })
            .unwrap();
        let queries = testkit::tiny_queries(30);
        let (expected_ranks, expected_verdicts) = {
            let mut engine = crate::ServeEngine::new(deployment.clone(), BatchPolicy::window(1));
            let ranks: Vec<Vec<usize>> = queries
                .iter()
                .map(|q| engine.rank_one(q).unwrap())
                .collect();
            let verdicts: Vec<AnomalyVerdict> = queries
                .iter()
                .map(|q| engine.score_anomaly_one(q).unwrap())
                .collect();
            (ranks, verdicts)
        };
        for shards in [1usize, 2] {
            let server = Server::spawn_sharded(deployment.clone(), BatchPolicy::window(8), shards);
            let client = server.client();
            // Pipeline mixed traffic so both kinds coalesce inside shard
            // batches instead of flushing one by one.
            let pending: Vec<(usize, Prediction, Prediction)> = queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    (
                        i,
                        client.submit_task(q, TaskKind::TopK).unwrap(),
                        client.submit_task(q, TaskKind::Anomaly).unwrap(),
                    )
                })
                .collect();
            for (i, ranked, anomaly) in pending {
                match ranked.wait_response().unwrap() {
                    TaskResponse::Ranked(ranks) => {
                        assert_eq!(ranks, expected_ranks[i], "{shards} shards, query {i}");
                    }
                    other => panic!("top-k job answered with {other:?}"),
                }
                match anomaly.wait_response().unwrap() {
                    TaskResponse::Anomaly(verdict) => {
                        assert_eq!(
                            verdict.score.to_bits(),
                            expected_verdicts[i].score.to_bits(),
                            "{shards} shards, query {i}"
                        );
                        assert_eq!(verdict.anomalous, expected_verdicts[i].anomalous);
                    }
                    other => panic!("anomaly job answered with {other:?}"),
                }
            }
            server.shutdown().unwrap();
        }
    }

    #[test]
    fn wait_on_a_non_classify_ticket_is_a_model_error() {
        let server = Server::spawn(testkit::tiny_deployment(), BatchPolicy::window(1));
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let pending = client.submit_task(&q, TaskKind::TopK).unwrap();
        assert!(matches!(pending.wait(), Err(ServeError::Model(_))));
        // Blocking conveniences on an unconfigured model: k defaults to 1
        // and an uncalibrated threshold flags nothing.
        assert_eq!(client.rank(&q).unwrap().len(), 1);
        assert!(!client.score_anomaly(&q).unwrap().anomalous);
        server.shutdown().unwrap();
    }

    #[test]
    fn hot_swap_retunes_task_configuration_at_the_batch_boundary() {
        // Task configuration travels with the published snapshot: after an
        // install, queued-after requests are ranked with the new k and
        // thresholded by the new calibration — never a mix of generations.
        let deployment = testkit::tiny_deployment();
        let mut retuned = deployment.clone();
        retuned
            .set_tasks(disthd::ServingTasks {
                top_k: Some(3),
                anomaly_threshold: Some(2.0),
            })
            .unwrap();
        let server = Server::spawn(deployment, BatchPolicy::window(4));
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        assert_eq!(client.rank(&q).unwrap().len(), 1);
        assert!(!client.score_anomaly(&q).unwrap().anomalous);
        client.install_model(retuned).unwrap();
        assert_eq!(client.rank(&q).unwrap().len(), 3);
        // A threshold of 2.0 exceeds any cosine, so everything flags.
        assert!(client.score_anomaly(&q).unwrap().anomalous);
        server.shutdown().unwrap();
    }

    #[test]
    fn sharded_burst_is_drained_completely_across_windows() {
        // A burst several windows deep lands on every shard (round-robin);
        // overflow notifications wake all workers, and whether a shard's
        // backlog is flushed by its owner or stolen by an idle neighbour,
        // no query may be lost or double-answered.
        let server = Server::spawn_with(
            testkit::tiny_deployment(),
            BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(400),
            },
            ServerOptions {
                shards: 4,
                queue_capacity: DEFAULT_QUEUE_CAPACITY,
                integer_pipeline: false,
                ..ServerOptions::default()
            },
        );
        let client = server.client();
        let queries = testkit::tiny_queries(64);
        let pending: Vec<Prediction> = queries.iter().map(|q| client.submit(q).unwrap()).collect();
        for p in pending {
            p.wait().unwrap();
        }
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.served, 64);
        // 64 queries at window 4 cannot fit in fewer than 16 flushes.
        assert!(stats.flushes >= 16);
    }

    #[test]
    fn zero_deadline_is_shed_at_submission() {
        let server = Server::spawn(testkit::tiny_deployment(), BatchPolicy::window(4));
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        assert!(matches!(
            client.predict_within(&q, Duration::ZERO),
            Err(ServeError::DeadlineExceeded)
        ));
        // The shed happens before anything is queued: the server still
        // serves ordinary traffic.
        client.predict(&q).unwrap();
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.deadline_shed, 1);
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn lone_deadlined_job_is_shed_at_its_deadline_not_at_patience() {
        // Patience is 5 s; the request's 25 ms deadline must wake the
        // worker early and shed it — the client resolves in tens of
        // milliseconds, not seconds, and the job is never scored.
        let server = Server::spawn_sharded(
            testkit::tiny_deployment(),
            BatchPolicy {
                max_batch: 1024,
                max_wait: Duration::from_secs(5),
            },
            1,
        );
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let started = Instant::now();
        let err = client
            .predict_within(&q, Duration::from_millis(25))
            .unwrap_err();
        let waited = started.elapsed();
        assert!(matches!(err, ServeError::DeadlineExceeded), "{err}");
        assert!(
            waited < Duration::from_secs(2),
            "deadline shed must not wait out the 5 s patience ({waited:?})"
        );
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.deadline_shed, 1);
        assert_eq!(stats.served, 0, "a shed request is never scored");
    }

    #[test]
    fn deadlined_job_is_served_when_the_window_fills_first() {
        // A generous deadline with a filling batch window: the flush beats
        // the deadline and the request is answered normally.
        let server = Server::spawn_sharded(
            testkit::tiny_deployment(),
            BatchPolicy {
                max_batch: 2,
                max_wait: Duration::from_secs(5),
            },
            1,
        );
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let deadlined = client
            .submit_with(&q, SubmitOptions::within(Duration::from_secs(30)))
            .unwrap();
        let filler = client.submit(&q).unwrap();
        let expected = filler.wait().unwrap();
        assert_eq!(deadlined.wait().unwrap(), expected);
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.deadline_shed, 0);
        assert_eq!(stats.served, 2);
    }

    #[test]
    fn deadline_shed_flushes_batchmates_early_but_still_serves_them() {
        // One deadlined job shares the queue with a plain one.  At the
        // deadline the shard drains both: the expired job is shed, its
        // batchmate is scored (early — well before the 5 s patience).
        let server = Server::spawn_sharded(
            testkit::tiny_deployment(),
            BatchPolicy {
                max_batch: 1024,
                max_wait: Duration::from_secs(5),
            },
            1,
        );
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let plain = client.submit(&q).unwrap();
        let deadlined = client
            .submit_with(&q, SubmitOptions::within(Duration::from_millis(25)))
            .unwrap();
        let started = Instant::now();
        assert!(matches!(
            deadlined.wait(),
            Err(ServeError::DeadlineExceeded)
        ));
        plain.wait().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "the batchmate must ride the early deadline flush"
        );
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.deadline_shed, 1);
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn retry_rides_out_a_transient_overload() {
        // Queue capacity 1 with a short patience: the first submission
        // occupies the queue until its ~20 ms flush, so an immediate
        // second submission is shed — but a retrying client backs off and
        // lands a later attempt once the queue drains.
        let server = Server::spawn_with(
            testkit::tiny_deployment(),
            BatchPolicy {
                max_batch: 1024,
                max_wait: Duration::from_millis(20),
            },
            ServerOptions {
                shards: 1,
                queue_capacity: 1,
                integer_pipeline: false,
                ..ServerOptions::default()
            },
        );
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let first = client.submit(&q).unwrap();
        assert!(matches!(client.submit(&q), Err(ServeError::Overloaded)));
        let retry = RetryPolicy {
            attempts: 10,
            backoff: Duration::from_millis(10),
            seed: 7,
        };
        let class = client.predict_with_retry(&q, retry).unwrap();
        assert_eq!(class, first.wait().unwrap());
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.served, 2);
        assert!(stats.shed >= 2, "the plain submit and ≥ 1 retry attempt");
    }

    #[test]
    fn retry_policy_is_deterministic_and_bounded() {
        // A saturated queue that never drains (5 s patience): retry must
        // give up with Overloaded after exactly `attempts` submissions —
        // measured via the shed counter — and the jitter stream must not
        // stall the caller anywhere near the patience window.
        let server = Server::spawn_with(
            testkit::tiny_deployment(),
            BatchPolicy {
                max_batch: 1024,
                max_wait: Duration::from_secs(5),
            },
            ServerOptions {
                shards: 1,
                queue_capacity: 1,
                integer_pipeline: false,
                ..ServerOptions::default()
            },
        );
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let occupant = client.submit(&q).unwrap();
        let retry = RetryPolicy {
            attempts: 3,
            backoff: Duration::from_micros(100),
            seed: 11,
        };
        let started = Instant::now();
        assert!(matches!(
            client.predict_with_retry(&q, retry),
            Err(ServeError::Overloaded)
        ));
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(server.stats().shed, 3, "one shed per attempt");
        drop(occupant);
        server.shutdown().unwrap();
    }

    #[test]
    fn dropping_a_server_without_shutdown_joins_workers_quietly() {
        // Drop is the unceremonious path (e.g. during a caller's unwind):
        // workers must stop without the drop panicking, even while queries
        // are in flight.
        let server = Server::spawn(testkit::tiny_deployment(), BatchPolicy::window(4));
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        client.predict(&q).unwrap();
        drop(server);
        assert!(matches!(client.predict(&q), Err(ServeError::Disconnected)));
    }
}
