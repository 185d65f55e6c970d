//! The request-batching engine: coalesce single queries into batched GEMMs.

use disthd::io::PersistError;
use disthd::DeployedModel;
use disthd_eval::ModelError;
use disthd_hd::encoder::Encoder;
use disthd_hd::quantize::QuantizedMatrix;
use disthd_linalg::Matrix;
use std::collections::HashMap;
use std::time::Duration;

/// The serving task a submitted query asks for.
///
/// Every kind rides the same batched encode + similarity path; they
/// differ only in how the per-row scores are post-processed, so mixed
/// batches coalesce freely and every answer stays bit-identical whatever
/// batch (or task mix) a query lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Plain classification: the argmax class.
    Classify,
    /// Top-k multi-label ranking; `k` comes from the live model's
    /// [`disthd::ServingTasks::top_k`] (resolved at flush time, so a
    /// hot-swap retunes queued rankings coherently with the memory that
    /// scores them), falling back to `k = 1`.
    TopK,
    /// One-class anomaly scoring against the live model's calibrated
    /// [`disthd::ServingTasks::anomaly_threshold`].
    Anomaly,
}

/// One-class anomaly answer: the query's best class cosine plus the
/// thresholded verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyVerdict {
    /// Best class cosine in `[-1, 1]` (higher = more inlier-like).
    pub score: f32,
    /// `score < threshold` under the model's calibrated threshold, and
    /// always `true` for a non-finite score (a NaN compares false against
    /// any threshold, so it would otherwise pass as an inlier).  A finite
    /// score is never flagged when the model carries no threshold (an
    /// uncalibrated deployment flags nothing rather than guessing).
    pub anomalous: bool,
}

/// A flushed answer, one variant per [`TaskKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum TaskResponse {
    /// Answer to a [`TaskKind::Classify`] query.
    Class(usize),
    /// Answer to a [`TaskKind::TopK`] query: classes, best first.
    Ranked(Vec<usize>),
    /// Answer to a [`TaskKind::Anomaly`] query.
    Anomaly(AnomalyVerdict),
}

/// Serving admission check, shared by [`ServeEngine::submit_task`] and
/// the live server's submit path: a query must have the model's arity and
/// only finite features.  Rejecting it here keeps it out of every batch,
/// so it can neither disturb a batchmate nor be answered from NaN scores.
pub(crate) fn validate_query(features: &[f32], feature_dim: usize) -> Result<(), ModelError> {
    if features.len() != feature_dim {
        return Err(ModelError::Incompatible(format!(
            "query has {} features, model expects {feature_dim}",
            features.len()
        )));
    }
    match features.iter().position(|v| !v.is_finite()) {
        Some(i) => Err(ModelError::Incompatible(format!(
            "query feature {i} is {}; features must be finite",
            features[i]
        ))),
        None => Ok(()),
    }
}

/// Scores one coalesced batch of mixed-task queries against `model`.
///
/// The rows are split by task kind and each sub-batch runs the matching
/// batched [`DeployedModel`] API (classify keeps its exact historical
/// path, so existing classify answers cannot move by a bit); because
/// every API computes its rows independently, the split preserves
/// batch-composition invariance.  Task configuration (`k`, threshold) is
/// resolved from `model` **here** — at flush time, from the same snapshot
/// that scores the batch — so a hot-swap can never pair one generation's
/// scores with another generation's threshold.
pub(crate) fn score_task_batch(
    model: &DeployedModel,
    integer_pipeline: bool,
    feature_dim: usize,
    rows: &[&[f32]],
    kinds: &[TaskKind],
) -> Result<Vec<TaskResponse>, ModelError> {
    debug_assert_eq!(rows.len(), kinds.len());
    let batch = Matrix::from_row_slices(feature_dim, rows)?;
    let mut out: Vec<Option<TaskResponse>> = vec![None; rows.len()];
    for kind in [TaskKind::Classify, TaskKind::TopK, TaskKind::Anomaly] {
        let idx: Vec<usize> = kinds
            .iter()
            .enumerate()
            .filter(|&(_, k)| *k == kind)
            .map(|(i, _)| i)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let selected;
        let sub = if idx.len() == batch.rows() {
            &batch
        } else {
            selected = batch.select_rows(&idx);
            &selected
        };
        match kind {
            TaskKind::Classify => {
                let classes = if integer_pipeline {
                    model.predict_quantized_batch(sub)?
                } else {
                    model.predict_batch(sub)?
                };
                for (&i, class) in idx.iter().zip(classes) {
                    out[i] = Some(TaskResponse::Class(class));
                }
            }
            TaskKind::TopK => {
                let k = model
                    .tasks()
                    .top_k
                    .unwrap_or(1)
                    .clamp(1, model.class_count());
                let ranked = if integer_pipeline {
                    model.top_k_quantized_batch(sub, k)?
                } else {
                    model.top_k_batch(sub, k)?
                };
                for (&i, ranks) in idx.iter().zip(ranked) {
                    out[i] = Some(TaskResponse::Ranked(ranks));
                }
            }
            TaskKind::Anomaly => {
                let threshold = model.tasks().anomaly_threshold;
                let scores = if integer_pipeline {
                    model.anomaly_scores_quantized(sub)?
                } else {
                    model.anomaly_scores(sub)?
                };
                for (&i, score) in idx.iter().zip(scores) {
                    out[i] = Some(TaskResponse::Anomaly(AnomalyVerdict {
                        score,
                        anomalous: !score.is_finite() || threshold.is_some_and(|t| score < t),
                    }));
                }
            }
        }
    }
    Ok(out
        .into_iter()
        .map(|r| r.expect("every batch row is scored by its kind's pass"))
        .collect())
}

/// The latency-vs-throughput knob of the serving layer.
///
/// `max_batch` is the **batch window**: how many queries the engine
/// accumulates before it runs one batched encode + similarity pass.  A
/// window of 1 is classic one-at-a-time serving (lowest per-query latency,
/// lowest throughput); larger windows amortize each pass over more queries
/// and multiply throughput at the cost of queueing delay.  `max_wait` only
/// matters to the threaded [`crate::Server`]: it bounds how long a partial
/// batch may wait for company before it is flushed anyway.
///
/// # Example
///
/// ```
/// use disthd_serve::BatchPolicy;
/// use std::time::Duration;
///
/// let throughput_oriented = BatchPolicy::window(64);
/// assert_eq!(throughput_oriented.max_batch, 64);
/// // Default: a moderate window with a 1 ms patience cap.
/// assert_eq!(BatchPolicy::default().max_batch, 32);
/// assert_eq!(BatchPolicy::default().max_wait, Duration::from_millis(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum queries coalesced into one batched pass (≥ 1).
    pub max_batch: usize,
    /// Upper bound a partial batch waits for more arrivals before being
    /// flushed ([`crate::Server`] only; the synchronous engine flushes on
    /// demand).
    pub max_wait: Duration,
}

impl BatchPolicy {
    /// Policy with the given batch window and the default 1 ms patience.
    pub fn window(max_batch: usize) -> Self {
        Self {
            max_batch: max_batch.max(1),
            ..Self::default()
        }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_wait: Duration::from_millis(1),
        }
    }
}

/// Claim check for a submitted query; redeem it with
/// [`ServeEngine::try_take`] after a flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// Lifetime counters of a [`ServeEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries answered so far.
    pub served: u64,
    /// Batched passes executed (each one encode GEMM + one similarity
    /// GEMM).
    pub flushes: u64,
}

/// A synchronous request-batching inference engine over a
/// [`DeployedModel`].
///
/// Queries are [`ServeEngine::submit`]ted individually and accumulate in a
/// queue; when the queue reaches the [`BatchPolicy::max_batch`] window (or
/// on an explicit [`ServeEngine::flush`]) the engine gathers them into one
/// contiguous batch and answers them all through
/// [`DeployedModel::predict_batch`].  Because the compute backend
/// evaluates every batch row independently and deterministically, a
/// query's prediction is **bit-identical whatever batch it happens to
/// share** — batching changes throughput, never answers.
///
/// # Example
///
/// ```
/// use disthd_serve::{BatchPolicy, ServeEngine};
///
/// let deployment = disthd_serve::testkit::tiny_deployment();
/// let mut engine = ServeEngine::new(deployment, BatchPolicy::window(4));
///
/// // Submit three queries; nothing is computed until the window fills or
/// // someone flushes.
/// let queries = disthd_serve::testkit::tiny_queries(3);
/// let tickets: Vec<_> = queries
///     .iter()
///     .map(|q| engine.submit(q))
///     .collect::<Result<_, _>>()?;
/// assert_eq!(engine.pending_len(), 3);
/// engine.flush()?;
/// for t in &tickets {
///     assert!(engine.try_take(*t).is_some());
/// }
/// assert_eq!(engine.stats().flushes, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ServeEngine {
    model: DeployedModel,
    policy: BatchPolicy,
    pending: Vec<(Ticket, TaskKind, Vec<f32>)>,
    ready: HashMap<Ticket, TaskResponse>,
    next_ticket: u64,
    stats: EngineStats,
    integer_pipeline: bool,
}

impl ServeEngine {
    /// Wraps a deployed model in a batching engine.
    pub fn new(model: DeployedModel, policy: BatchPolicy) -> Self {
        Self {
            model,
            policy: BatchPolicy {
                max_batch: policy.max_batch.max(1),
                max_wait: policy.max_wait,
            },
            pending: Vec::new(),
            ready: HashMap::new(),
            next_ticket: 0,
            stats: EngineStats::default(),
            integer_pipeline: false,
        }
    }

    /// Selects the scoring pipeline for every subsequent flush.
    ///
    /// With the integer pipeline enabled, each batch is answered through
    /// [`DeployedModel::predict_quantized_batch`]: the fused quantize
    /// epilogue packs encoded queries straight to the class memory's
    /// storage width and classes are ranked by XOR+popcount (1-bit) or
    /// widening integer dot products — after featurization the hot loop
    /// never touches an `f32` hypervector.  Disabled (the default), the
    /// engine scores f32-encoded queries against the packed memory via
    /// [`DeployedModel::predict_batch`].
    pub fn with_integer_pipeline(mut self, enabled: bool) -> Self {
        self.integer_pipeline = enabled;
        self
    }

    /// Whether flushes run the end-to-end integer pipeline.
    pub fn integer_pipeline(&self) -> bool {
        self.integer_pipeline
    }

    /// Loads a `DHD1` deployment stream (see [`disthd::io`]) straight into
    /// an engine — the serving entry point for a persisted artifact.
    ///
    /// # Example
    ///
    /// ```
    /// use disthd_serve::{BatchPolicy, ServeEngine};
    ///
    /// let deployment = disthd_serve::testkit::tiny_deployment();
    /// let mut bytes = Vec::new();
    /// disthd::io::save_deployed(&deployment, &mut bytes)?;
    /// let mut engine = ServeEngine::load(bytes.as_slice(), BatchPolicy::default())?;
    /// let query = disthd_serve::testkit::tiny_queries(1).remove(0);
    /// let class = engine.predict_one(&query)?;
    /// assert!(class < engine.model().class_count());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates [`PersistError`] from the model loader.
    pub fn load<R: std::io::Read>(reader: R, policy: BatchPolicy) -> Result<Self, PersistError> {
        Ok(Self::new(disthd::io::load_deployed(reader)?, policy))
    }

    /// The active batching policy.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Borrows the underlying deployment (for metadata queries).
    pub fn model(&self) -> &DeployedModel {
        &self.model
    }

    /// Feature arity queries must have.
    pub fn feature_dim(&self) -> usize {
        self.model.encoder_parts().input_dim()
    }

    /// Number of queries waiting for the next flush.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Queues one query, flushing automatically when the queue reaches the
    /// batch window.  The returned [`Ticket`] redeems the prediction via
    /// [`ServeEngine::try_take`] once a flush has run.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Incompatible`] for a wrong-arity query or one
    /// with a NaN or infinite feature (rejected up front, so a malformed
    /// request cannot poison the batch it would have joined), or any error
    /// from an automatic flush.
    pub fn submit(&mut self, features: &[f32]) -> Result<Ticket, ModelError> {
        self.submit_task(features, TaskKind::Classify)
    }

    /// Queues one query under an explicit [`TaskKind`]; otherwise behaves
    /// exactly like [`ServeEngine::submit`].  Mixed-kind queues coalesce
    /// into the same flush — the batch is partitioned by kind and each
    /// partition runs its own batched pass, so a ranking request never
    /// changes a classification answer sharing its window (and vice
    /// versa).
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::submit`].
    pub fn submit_task(&mut self, features: &[f32], kind: TaskKind) -> Result<Ticket, ModelError> {
        validate_query(features, self.feature_dim())?;
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.pending.push((ticket, kind, features.to_vec()));
        if self.pending.len() >= self.policy.max_batch {
            self.flush()?;
        }
        Ok(ticket)
    }

    /// Answers every pending query in one batched pass; returns how many
    /// were served.  A flush with an empty queue is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors (impossible for queries accepted by
    /// [`ServeEngine::submit`]).
    pub fn flush(&mut self) -> Result<usize, ModelError> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let served = self.pending.len();
        let responses = {
            let rows: Vec<&[f32]> = self.pending.iter().map(|(_, _, q)| q.as_slice()).collect();
            let kinds: Vec<TaskKind> = self.pending.iter().map(|(_, k, _)| *k).collect();
            score_task_batch(
                &self.model,
                self.integer_pipeline,
                self.feature_dim(),
                &rows,
                &kinds,
            )?
        };
        for ((ticket, _, _), response) in self.pending.drain(..).zip(responses) {
            self.ready.insert(ticket, response);
        }
        self.stats.served += served as u64;
        self.stats.flushes += 1;
        Ok(served)
    }

    /// Redeems a classification ticket: `Some(class)` once the query's
    /// batch has been flushed, `None` while it is still queued (or for an
    /// unknown ticket).  Each ticket redeems at most once.  Tickets from
    /// [`ServeEngine::submit_task`] with a non-classify kind are left in
    /// place (and `None` returned) — redeem those with
    /// [`ServeEngine::try_take_response`].
    pub fn try_take(&mut self, ticket: Ticket) -> Option<usize> {
        match self.ready.get(&ticket) {
            Some(TaskResponse::Class(class)) => {
                let class = *class;
                self.ready.remove(&ticket);
                Some(class)
            }
            _ => None,
        }
    }

    /// Redeems a ticket of any task kind.  Each ticket redeems at most
    /// once; `None` while the query is still queued or for an unknown
    /// ticket.
    pub fn try_take_response(&mut self, ticket: Ticket) -> Option<TaskResponse> {
        self.ready.remove(&ticket)
    }

    /// One-at-a-time serving: submit, flush, take.  This is the latency
    /// path the throughput benchmark compares batched windows against.
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::submit`].
    pub fn predict_one(&mut self, features: &[f32]) -> Result<usize, ModelError> {
        let ticket = self.submit(features)?;
        self.flush()?;
        Ok(self
            .try_take(ticket)
            .expect("flush answers every pending ticket"))
    }

    /// One-at-a-time top-k ranking: submit as [`TaskKind::TopK`], flush,
    /// take.  `k` comes from the live model's configured serving tasks
    /// (default 1); the leading entry always equals
    /// [`ServeEngine::predict_one`] on the same query.
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::submit`].
    pub fn rank_one(&mut self, features: &[f32]) -> Result<Vec<usize>, ModelError> {
        let ticket = self.submit_task(features, TaskKind::TopK)?;
        self.flush()?;
        match self.try_take_response(ticket) {
            Some(TaskResponse::Ranked(ranks)) => Ok(ranks),
            _ => unreachable!("flush answers every pending ticket with its own kind"),
        }
    }

    /// One-at-a-time anomaly scoring: submit as [`TaskKind::Anomaly`],
    /// flush, take.  The verdict thresholds against the live model's
    /// calibrated [`disthd::ServingTasks::anomaly_threshold`]; without one
    /// the score is still exact but nothing is flagged.
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::submit`].
    pub fn score_anomaly_one(&mut self, features: &[f32]) -> Result<AnomalyVerdict, ModelError> {
        let ticket = self.submit_task(features, TaskKind::Anomaly)?;
        self.flush()?;
        match self.try_take_response(ticket) {
            Some(TaskResponse::Anomaly(verdict)) => Ok(verdict),
            _ => unreachable!("flush answers every pending ticket with its own kind"),
        }
    }

    /// Streams every row of `queries` through the batching queue in order
    /// (auto-flushing at the batch window) and returns the predictions in
    /// row order — the bulk entry point the benchmark and tests use.
    ///
    /// # Example
    ///
    /// ```
    /// use disthd_serve::{BatchPolicy, ServeEngine};
    /// use disthd_linalg::Matrix;
    ///
    /// let deployment = disthd_serve::testkit::tiny_deployment();
    /// let queries = disthd_serve::testkit::tiny_queries(10);
    /// let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
    /// let batch = Matrix::from_row_slices(queries[0].len(), &refs)?;
    ///
    /// // Predictions are identical at every batch window.
    /// let mut narrow = ServeEngine::new(deployment.clone(), BatchPolicy::window(1));
    /// let mut wide = ServeEngine::new(deployment, BatchPolicy::window(8));
    /// assert_eq!(narrow.serve_all(&batch)?, wide.serve_all(&batch)?);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::submit`].
    pub fn serve_all(&mut self, queries: &Matrix) -> Result<Vec<usize>, ModelError> {
        let mut tickets = Vec::with_capacity(queries.rows());
        for r in 0..queries.rows() {
            tickets.push(self.submit(queries.row(r))?);
        }
        self.flush()?;
        Ok(tickets
            .into_iter()
            .map(|t| {
                self.try_take(t)
                    .expect("flush answers every pending ticket")
            })
            .collect())
    }

    /// Hot-swaps the quantized class memory of the live deployment (see
    /// [`DeployedModel::swap_class_memory`] — allocation-free: the packed
    /// words move in and the per-class code norms refresh in place, with
    /// no `f32` snapshot to rebuild).  Pending queries are flushed
    /// *first*, so every query is answered by the model that was live when
    /// it entered the queue.
    ///
    /// # Errors
    ///
    /// Propagates flush errors and shape-mismatch rejections.
    pub fn swap_class_memory(&mut self, memory: QuantizedMatrix) -> Result<(), ModelError> {
        self.flush()?;
        self.model.swap_class_memory(memory)
    }

    /// Replaces the whole deployment (the rollback path — see
    /// [`crate::SnapshotStore`]).  Pending queries are flushed first, and
    /// the replacement must serve the same feature arity.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Incompatible`] if `model` expects a different
    /// feature arity than the live deployment.
    pub fn install_model(&mut self, model: DeployedModel) -> Result<(), ModelError> {
        if model.encoder_parts().input_dim() != self.feature_dim() {
            return Err(ModelError::Incompatible(format!(
                "replacement expects {} features, live model serves {}",
                model.encoder_parts().input_dim(),
                self.feature_dim()
            )));
        }
        self.flush()?;
        self.model = model;
        Ok(())
    }
}
