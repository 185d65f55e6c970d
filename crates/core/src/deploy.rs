//! Low-precision deployment of a trained DistHD model.
//!
//! The paper's edge story (§IV-D) stores the class hypervectors at 1–8 bits
//! per dimension.  [`DeployedModel`] freezes a trained [`crate::DistHd`]
//! into that form: the encoder and centering stay in f32 (they run once per
//! query), while the class memory — the part that dominates storage and is
//! exposed to memory faults — lives in a [`QuantizedMatrix`].
//!
//! The quantized words are the **single source of truth** for the class
//! memory: no dequantized `ClassModel` snapshot exists, and construct,
//! hot-swap and predict perform zero `dequantize()` calls (a regression
//! test pins this via `disthd_hd::quantize::dequantize_calls`).
//! [`DeployedModel::inject_faults`] flips bits in place exactly like the
//! Fig. 8 fault model, and inference derives everything it reads from
//! those very words — a faulted deployment behaves like the faulted device
//! would, with out-of-range codes saturating as on hardware.
//!
//! [`DeployedModel::scores`] encodes and scores a batch once at either
//! [`Precision`]; classify, top-k and anomaly scoring only read that pass
//! ([`Scores`]).  Single queries stream the packed words through
//! [`disthd_hd::quantized_similarity_to_all`] in the batched GEMM's
//! per-element accumulation order, scoring bit-identically to it.

use crate::trainer::DistHd;
use disthd_eval::ModelError;
use disthd_hd::center::EncodingCenter;
use disthd_hd::encoder::{AnyRbfEncoder, Encoder};
use disthd_hd::noise::flip_random_bits;
use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
use disthd_hd::{packed_dot_matrix, quantized_similarity_matrix, quantized_similarity_to_all};
use disthd_linalg::{Matrix, SeededRng};
use std::borrow::Borrow;
use std::sync::Arc;

/// Optional serving-task configuration carried by a deployment.
///
/// Beyond plain classification, a deployment can serve two more task
/// types on the same batched GEMM path: **top-k multi-label prediction**
/// (the `k` most similar classes, ranked) and **one-class anomaly
/// scoring** (is this query close enough to *any* class to be an
/// inlier?).  Both are pure post-processing of the similarity scores the
/// classify path already computes, so they inherit its batch-composition
/// invariance; this struct holds the knobs they need, travels with the
/// deployment through hot-swap and snapshot publication, and persists in
/// the `DHD` artifact (format version `'3'`, written only when a task is
/// actually configured — see [`crate::io`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServingTasks {
    /// Ranked classes returned by top-k serving requests (`None` = top-k
    /// requests fall back to `k = 1`, i.e. plain argmax in a vector).
    pub top_k: Option<usize>,
    /// Decision threshold of the one-class anomaly scorer: a query whose
    /// best class cosine falls **below** this is flagged anomalous.
    /// Calibrate with [`DeployedModel::calibrate_anomaly_threshold`].
    pub anomaly_threshold: Option<f32>,
}

impl ServingTasks {
    /// `true` when no task is configured (the artifact then persists in
    /// its task-free pre-v3 format, byte-identical to older writers).
    pub fn is_empty(&self) -> bool {
        self.top_k.is_none() && self.anomaly_threshold.is_none()
    }
}

/// A trained DistHD model frozen for low-precision edge deployment.
///
/// # Example
///
/// ```
/// use disthd::{DeployedModel, DistHd, DistHdConfig};
/// use disthd_datasets::suite::{PaperDataset, SuiteConfig};
/// use disthd_eval::Classifier;
/// use disthd_hd::quantize::BitWidth;
///
/// let data = PaperDataset::Diabetes.generate(&SuiteConfig::at_scale(0.001))?;
/// let mut model = DistHd::new(
///     DistHdConfig { dim: 256, epochs: 6, ..Default::default() },
///     data.train.feature_dim(),
///     data.train.class_count(),
/// );
/// model.fit(&data.train, None)?;
/// let deployed = DeployedModel::freeze(&model, BitWidth::B1)?;
/// let class = deployed.predict(data.test.sample(0))?;
/// assert!(class < data.test.class_count());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeployedModel {
    /// The frozen encoder, shared structurally across clones: a deployment
    /// clone (e.g. a serving snapshot published for lock-free readers) costs
    /// O(class memory), not O(encoder) — the encoder is immutable after
    /// freeze, so every clone can point at the same instance.
    encoder: Arc<AnyRbfEncoder>,
    center: EncodingCenter,
    memory: QuantizedMatrix,
    /// Reciprocal integer code norms, one per class — the only derived
    /// state inference needs on top of the packed words.  Refreshed in
    /// place (no allocation) on hot-swap and fault injection.
    inv_norms: Vec<f32>,
    class_count: usize,
    /// Optional top-k / anomaly serving configuration; rides along through
    /// clone, hot-swap and persistence.
    tasks: ServingTasks,
}

impl DeployedModel {
    /// Freezes a trained model at the given storage precision.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotFitted`] if `model` has not been trained.
    pub fn freeze(model: &DistHd, width: BitWidth) -> Result<Self, ModelError> {
        let class_model = model.class_model().ok_or(ModelError::NotFitted)?;
        let center = model.center().ok_or(ModelError::NotFitted)?.clone();
        let memory = QuantizedMatrix::quantize(class_model.classes(), width);
        let mut inv_norms = Vec::new();
        memory.code_inv_norms_into(&mut inv_norms);
        Ok(Self {
            encoder: Arc::new(model.encoder().clone()),
            center,
            memory,
            inv_norms,
            class_count: class_model.class_count(),
            tasks: ServingTasks::default(),
        })
    }

    /// Storage precision of the class memory.
    pub fn width(&self) -> BitWidth {
        self.memory.width()
    }

    /// Class-memory footprint in bits (the memory the fault model acts on).
    pub fn memory_bits(&self) -> usize {
        self.memory.payload_bits()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// Classifies one feature vector, reading the packed quantized words
    /// directly (no dequantized snapshot exists to consult).
    ///
    /// # Errors
    ///
    /// Returns a shape error for a wrong-length input.
    pub fn predict(&self, features: &[f32]) -> Result<usize, ModelError> {
        let scores = self.decision_scores(features)?;
        Ok(argmax(scores))
    }

    /// Encodes and scores a batch (one query per row) in **one pass**: the
    /// similarity of eq. 1 that classify, top-k and anomaly scoring all
    /// read.  This is the only place a deployment encodes and scores a
    /// batch; the per-task batch APIs and the serving layer post-process
    /// the returned [`Scores`].  Rows are computed independently by the
    /// deterministic backend, so a row's answers are bit-identical alone
    /// or in any batch.
    ///
    /// # Example
    ///
    /// ```
    /// use disthd::{DeployedModel, DistHd, DistHdConfig, Precision};
    /// use disthd_datasets::suite::{PaperDataset, SuiteConfig};
    /// use disthd_eval::Classifier;
    /// use disthd_hd::quantize::BitWidth;
    ///
    /// let data = PaperDataset::Diabetes.generate(&SuiteConfig::at_scale(0.001))?;
    /// let mut model = DistHd::new(
    ///     DistHdConfig { dim: 256, epochs: 6, ..Default::default() },
    ///     data.train.feature_dim(),
    ///     data.train.class_count(),
    /// );
    /// model.fit(&data.train, None)?;
    /// let deployed = DeployedModel::freeze(&model, BitWidth::B8)?;
    /// let queries = data.test.features().select_rows(&[0, 1]);
    /// let scores = deployed.scores(&queries, Precision::Integer)?;
    /// // The best-ranked class is the classify answer.
    /// assert_eq!(scores.top_k(1, 2)?[0], scores.class(1));
    /// // A batch of one is the same computation, so the answers agree.
    /// let solo_queries = queries.select_rows(&[1]);
    /// let solo = deployed.scores(&solo_queries, Precision::Integer)?;
    /// assert_eq!(solo.class(0), scores.class(1));
    /// assert_eq!(solo.anomaly(0).to_bits(), scores.anomaly(1).to_bits());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a shape error if `queries.cols()` differs from the
    /// encoder's input arity (an empty batch is accepted at any arity).
    pub fn scores(&self, queries: &Matrix, precision: Precision) -> Result<Scores<'_>, ModelError> {
        let (scores, norms) = match precision {
            // Nothing to encode; no row accessor can be reached.
            _ if queries.rows() == 0 => (
                Matrix::zeros(0, self.class_count),
                QueryNorms::Encoded(Matrix::zeros(0, 0)),
            ),
            Precision::F32Query => {
                let mut encoded = self.encoder.encode_batch(queries)?;
                self.center.apply_batch(&mut encoded);
                let sims = quantized_similarity_matrix(&encoded, &self.memory, &self.inv_norms)?;
                (sims, QueryNorms::Encoded(encoded))
            }
            Precision::Integer => {
                let codes = self.encoder.encode_batch_quantized(
                    queries,
                    Some(self.center.means()),
                    self.memory.width(),
                )?;
                let finite = queries
                    .iter_rows()
                    .map(|row| row.iter().all(|x| x.is_finite()))
                    .collect();
                let dots = packed_dot_matrix(&codes, &self.memory)?;
                (dots, QueryNorms::Codes(codes, finite))
            }
        };
        Ok(Scores {
            scores,
            norms,
            class_inv_norms: &self.inv_norms,
        })
    }

    /// The classify answer for every row of [`DeployedModel::scores`] at
    /// [`Precision::F32Query`].  Kept because the repository benchmark
    /// names it.
    ///
    /// # Errors
    ///
    /// See [`DeployedModel::scores`].
    pub fn predict_batch(&self, queries: &Matrix) -> Result<Vec<usize>, ModelError> {
        let scores = self.scores(queries, Precision::F32Query)?;
        Ok((0..scores.len()).map(|r| scores.class(r)).collect())
    }

    /// The classify answer for every row of [`DeployedModel::scores`] at
    /// [`Precision::Integer`].  Kept because the repository benchmark
    /// names it.
    ///
    /// # Errors
    ///
    /// See [`DeployedModel::scores`].
    pub fn predict_quantized_batch(&self, queries: &Matrix) -> Result<Vec<usize>, ModelError> {
        let scores = self.scores(queries, Precision::Integer)?;
        Ok((0..scores.len()).map(|r| scores.class(r)).collect())
    }

    /// Classifies a batch of **already encoded and centered** hypervectors
    /// (one per row): the class-scoring stage of
    /// [`Precision::F32Query`] in isolation, for callers that pre-encode
    /// once and score many model variants (the Fig. 8 robustness harness).
    /// Kept because the repository benchmark names it.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `encoded.cols()` differs from the class
    /// memory's dimensionality.
    pub fn predict_encoded_batch(&self, encoded: &Matrix) -> Result<Vec<usize>, ModelError> {
        let sims = quantized_similarity_matrix(encoded, &self.memory, &self.inv_norms)?;
        Ok(sims.iter_rows().map(argmax).collect())
    }

    /// Hot-swaps the quantized class memory, e.g. with a freshly
    /// requantized model produced by [`crate::DistHd::partial_fit`].
    ///
    /// The encoder and centering are untouched: online adaptive updates
    /// keep the encoder frozen between regeneration events, so the class
    /// memory is the only part of the deployment that needs to move for a
    /// live model refresh.
    ///
    /// The swap moves the replacement's words in and refreshes the per-row
    /// code norms into the existing buffer — **allocation-free**, so a hot
    /// serving loop can swap between batches without touching the
    /// allocator (no `f32` snapshot is rebuilt; there is none).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Incompatible`] if the replacement's shape
    /// differs from the current memory — a swap may change weights, never
    /// topology.
    pub fn swap_class_memory(&mut self, memory: QuantizedMatrix) -> Result<(), ModelError> {
        if memory.shape() != self.memory.shape() {
            return Err(ModelError::Incompatible(format!(
                "class memory shape {:?} cannot replace {:?}",
                memory.shape(),
                self.memory.shape()
            )));
        }
        memory.code_inv_norms_into(&mut self.inv_norms);
        self.memory = memory;
        Ok(())
    }

    /// Builds a **new** deployment that serves `memory` in place of the
    /// current class memory, without mutating `self` — the copy-on-write
    /// counterpart of [`DeployedModel::swap_class_memory`] for snapshot
    /// publication: a serving layer that shares one immutable deployment
    /// across reader threads derives the post-swap generation from the live
    /// one and publishes it, while in-flight readers keep scoring the old
    /// generation untouched.
    ///
    /// The encoder and centering are structurally shared with `self`
    /// (`Arc`), so the construction cost is the class memory plus its code
    /// norms — independent of the encoder's size.  Predictions of the
    /// returned deployment are bit-identical to calling
    /// [`DeployedModel::swap_class_memory`] on a clone.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Incompatible`] if the replacement's shape
    /// differs from the current memory — a swap may change weights, never
    /// topology.
    pub fn with_swapped_memory(&self, memory: QuantizedMatrix) -> Result<Self, ModelError> {
        if memory.shape() != self.memory.shape() {
            return Err(ModelError::Incompatible(format!(
                "class memory shape {:?} cannot replace {:?}",
                memory.shape(),
                self.memory.shape()
            )));
        }
        let mut inv_norms = Vec::with_capacity(self.inv_norms.len());
        memory.code_inv_norms_into(&mut inv_norms);
        Ok(Self {
            encoder: Arc::clone(&self.encoder),
            center: self.center.clone(),
            memory,
            inv_norms,
            class_count: self.class_count,
            tasks: self.tasks,
        })
    }

    /// Per-class similarity scores for one feature vector: the encoded
    /// query dotted against the integer codes of each class, normalized by
    /// the class's code norm — cosine-equivalent to the dequantized
    /// similarity (the quantization scale cancels).
    ///
    /// # Errors
    ///
    /// Returns a shape error for a wrong-length input.
    pub fn decision_scores(&self, features: &[f32]) -> Result<Vec<f32>, ModelError> {
        let mut encoded = self.encoder.encode(features)?;
        self.center.apply(&mut encoded);
        Ok(quantized_similarity_to_all(
            &encoded,
            &self.memory,
            &self.inv_norms,
        )?)
    }

    /// Accuracy over a dataset.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    pub fn accuracy(&self, data: &disthd_datasets::Dataset) -> Result<f64, ModelError> {
        if data.is_empty() {
            return Ok(0.0);
        }
        let mut correct = 0usize;
        for i in 0..data.len() {
            if self.predict(data.sample(i))? == data.label(i) {
                correct += 1;
            }
        }
        Ok(correct as f64 / data.len() as f64)
    }

    /// Reassembles a deployment from persisted parts (see [`crate::io`]).
    pub fn from_parts(
        encoder: AnyRbfEncoder,
        center: EncodingCenter,
        memory: QuantizedMatrix,
    ) -> Self {
        let mut inv_norms = Vec::new();
        memory.code_inv_norms_into(&mut inv_norms);
        let class_count = memory.shape().0;
        Self {
            encoder: Arc::new(encoder),
            center,
            memory,
            inv_norms,
            class_count,
            tasks: ServingTasks::default(),
        }
    }

    /// Borrows the encoder (persistence access).
    pub fn encoder_parts(&self) -> &AnyRbfEncoder {
        self.encoder.as_ref()
    }

    /// Borrows the centering means (persistence access).
    pub fn center_parts(&self) -> &EncodingCenter {
        &self.center
    }

    /// Borrows the quantized class memory (persistence access).
    pub fn memory_parts(&self) -> &QuantizedMatrix {
        &self.memory
    }

    /// The serving-task configuration this deployment carries.
    pub fn tasks(&self) -> ServingTasks {
        self.tasks
    }

    /// Sets the serving-task configuration (see [`ServingTasks`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Incompatible`] if `top_k` is configured as 0
    /// or exceeds the class count — a `k` outside `1..=classes` cannot
    /// rank anything.
    pub fn set_tasks(&mut self, tasks: ServingTasks) -> Result<(), ModelError> {
        if let Some(k) = tasks.top_k {
            if k == 0 || k > self.class_count {
                return Err(ModelError::Incompatible(format!(
                    "top-k of {k} is outside 1..={} classes",
                    self.class_count
                )));
            }
        }
        self.tasks = tasks;
        Ok(())
    }

    /// The `k` best-ranked classes per row of [`DeployedModel::scores`] at
    /// [`Precision::Integer`].  Kept because the repository benchmark
    /// names it.
    ///
    /// # Errors
    ///
    /// See [`DeployedModel::scores`] and [`Scores::top_k`].
    pub fn top_k_quantized_batch(
        &self,
        queries: &Matrix,
        k: usize,
    ) -> Result<Vec<Vec<usize>>, ModelError> {
        let scores = self.scores(queries, Precision::Integer)?;
        (0..scores.len()).map(|r| scores.top_k(r, k)).collect()
    }

    /// The anomaly score of every row of [`DeployedModel::scores`] at
    /// [`Precision::Integer`].  Kept because the repository benchmark
    /// names it.
    ///
    /// # Errors
    ///
    /// See [`DeployedModel::scores`].
    pub fn anomaly_scores_quantized(&self, queries: &Matrix) -> Result<Vec<f32>, ModelError> {
        let scores = self.scores(queries, Precision::Integer)?;
        Ok((0..scores.len()).map(|r| scores.anomaly(r)).collect())
    }

    /// Calibrates the one-class anomaly threshold from labelled
    /// calibration batches: `inliers` should come from the training
    /// distribution, `outliers` from outside it.  Both are scored with
    /// [`Scores::anomaly`] at [`Precision::F32Query`], an ROC curve is swept
    /// over the pooled scores (`disthd_eval::roc`) and the threshold
    /// maximizing Youden's J (`tpr − fpr`) is stored in [`ServingTasks`]
    /// and returned.  A query scoring **below** the threshold is anomalous.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Incompatible`] if either batch is empty or
    /// the scores cannot separate anything (degenerate ROC curve), or a
    /// shape error for wrong-arity rows.
    pub fn calibrate_anomaly_threshold(
        &mut self,
        inliers: &Matrix,
        outliers: &Matrix,
    ) -> Result<f32, ModelError> {
        if inliers.rows() == 0 || outliers.rows() == 0 {
            return Err(ModelError::Incompatible(
                "anomaly calibration needs at least one inlier and one outlier".into(),
            ));
        }
        let anomaly_of = |queries: &Matrix| -> Result<Vec<f32>, ModelError> {
            let scores = self.scores(queries, Precision::F32Query)?;
            Ok((0..scores.len()).map(|r| scores.anomaly(r)).collect())
        };
        let mut scores = anomaly_of(inliers)?;
        let mut labels = vec![true; scores.len()];
        scores.extend(anomaly_of(outliers)?);
        labels.resize(scores.len(), false);
        let curve = disthd_eval::roc_curve(&scores, &labels);
        let threshold = disthd_eval::youden_threshold(&curve).ok_or_else(|| {
            ModelError::Incompatible(
                "anomaly calibration scores are degenerate (no separating threshold)".into(),
            )
        })?;
        self.tasks.anomaly_threshold = Some(threshold);
        Ok(threshold)
    }

    /// Flips `round(rate * memory_bits())` random bits of the stored class
    /// memory (the Fig. 8 fault model) and refreshes the per-class code
    /// norms in place.  Inference reads the very same faulted words, so no
    /// snapshot rebuild is needed.  Returns the number of bits flipped.
    pub fn inject_faults(&mut self, rate: f64, rng: &mut SeededRng) -> usize {
        let flipped = flip_random_bits(&mut self.memory, rate, rng);
        self.memory.code_inv_norms_into(&mut self.inv_norms);
        flipped
    }
}

/// The scoring pipeline [`DeployedModel::scores`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// One f32 encode GEMM and centering, then one similarity GEMM against
    /// the integer class codes ([`disthd_hd::quantized_similarity_matrix`]).
    F32Query,
    /// The end-to-end integer dataflow: the fused encode quantizes each
    /// centered query to the class memory's width, then one pass of exact
    /// integer dots ([`disthd_hd::packed_dot_matrix`]) — XOR+popcount at 1
    /// bit, widening dots otherwise.  Answers can differ from `F32Query`
    /// where query quantization flips a near-tie.
    Integer,
}

/// A batch scored once by [`DeployedModel::scores`]; each serving task is
/// post-processing of one row of it.  Ties resolve to the lower class
/// index, and per-query norms are computed only by the tasks that read
/// them, so classifying never pays for them.
#[derive(Debug)]
pub struct Scores<'a> {
    /// `F32Query`: `dot(encoded, codes_l) · inv_norm[l]`; `Integer`: the
    /// exact integer dots as `f32`.
    scores: Matrix,
    norms: QueryNorms,
    class_inv_norms: &'a [f32],
}

/// What turns a score row into cosines.
#[derive(Debug)]
enum QueryNorms {
    /// The centered f32 encodings.
    Encoded(Matrix),
    /// The query codes, and whether each query's features were all finite
    /// (quantization would hide a poisoned one).
    Codes(QuantizedMatrix, Vec<bool>),
}

impl Scores<'_> {
    /// Number of scored rows.
    pub fn len(&self) -> usize {
        self.scores.rows()
    }

    /// Whether the batch had no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The classify answer of row `r`.  On the integer pipeline it ranks
    /// `dot·inv_norm[l]`, not the cosine: the query norm cannot move the
    /// argmax, but its extra multiply could round two scores into a tie.
    pub fn class(&self, r: usize) -> usize {
        let row = self.scores.row(r);
        match self.norms {
            QueryNorms::Encoded(_) => argmax(row),
            QueryNorms::Codes(..) => argmax(
                row.iter()
                    .zip(self.class_inv_norms)
                    .map(|(&d, &inv)| d * inv),
            ),
        }
    }

    /// The `k` best classes of row `r`, best first (`k` clamps to the
    /// class count).  The integer pipeline ranks the cosines
    /// `dot·q_inv·inv_norm[l]`; entry 0 is [`Scores::class`] on both.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Incompatible`] for `k = 0`.
    pub fn top_k(&self, r: usize, k: usize) -> Result<Vec<usize>, ModelError> {
        if k == 0 {
            return Err(ModelError::Incompatible("top-k of 0 ranks nothing".into()));
        }
        Ok(match &self.norms {
            QueryNorms::Encoded(_) => disthd_linalg::top_k_largest(self.scores.row(r), k),
            QueryNorms::Codes(codes, _) => disthd_linalg::top_k_largest(&self.cosines(r, codes), k),
        })
    }

    /// The one-class anomaly score of row `r`: its **best class cosine**
    /// in `[-1, 1]`, compared across queries against a threshold, so the
    /// per-query norm is applied (a zero-norm f32 encoding scores `0.0`).
    /// A query with a non-finite feature scores NaN on both pipelines.
    pub fn anomaly(&self, r: usize) -> f32 {
        let row = self.scores.row(r);
        match &self.norms {
            QueryNorms::Encoded(encoded) => {
                let norm = disthd_linalg::l2_norm(encoded.row(r));
                if norm == 0.0 {
                    0.0
                } else {
                    max_score(row) / norm
                }
            }
            QueryNorms::Codes(codes, finite) if finite[r] => max_score(&self.cosines(r, codes)),
            QueryNorms::Codes(..) => f32::NAN,
        }
    }

    /// Integer cosines of row `r`: `dot·q_inv·inv_norm[l]`, the multiply
    /// order of [`disthd_hd::packed_cosine_matrix`].
    fn cosines(&self, r: usize, codes: &QuantizedMatrix) -> Vec<f32> {
        let q_inv = codes.code_inv_norm(r);
        let row = self.scores.row(r).iter().zip(self.class_inv_norms);
        row.map(|(&dot, &inv_norm)| dot * q_inv * inv_norm)
            .collect()
    }
}

/// Greatest score of a non-empty row (the anomaly scorer's "best class").
fn max_score(scores: &[f32]) -> f32 {
    scores[argmax(scores)]
}

/// Index of the strictly greatest score (ties resolve to the lower class
/// index, matching `ClassModel`'s argmax convention).
fn argmax<S: Borrow<f32>>(scores: impl IntoIterator<Item = S>) -> usize {
    let mut scores = scores.into_iter().map(|s| *s.borrow()).enumerate();
    let Some((mut best, mut best_score)) = scores.next() else {
        return 0;
    };
    for (i, score) in scores {
        if score > best_score {
            best = i;
            best_score = score;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistHdConfig;
    use disthd_datasets::suite::{PaperDataset, SuiteConfig};
    use disthd_eval::Classifier;
    use disthd_linalg::RngSeed;

    fn trained() -> (DistHd, disthd_datasets::TrainTest) {
        let data = PaperDataset::Diabetes
            .generate(&SuiteConfig::at_scale(0.002))
            .unwrap();
        let mut model = DistHd::new(
            DistHdConfig {
                dim: 512,
                epochs: 10,
                ..Default::default()
            },
            data.train.feature_dim(),
            data.train.class_count(),
        );
        model.fit(&data.train, None).unwrap();
        (model, data)
    }

    #[test]
    fn freeze_requires_fitted_model() {
        let model = DistHd::new(
            DistHdConfig {
                dim: 64,
                ..Default::default()
            },
            4,
            3,
        );
        assert!(matches!(
            DeployedModel::freeze(&model, BitWidth::B8),
            Err(ModelError::NotFitted)
        ));
    }

    #[test]
    fn integer_path_predictions_match_f32_snapshot_at_every_width() {
        // The zero-dequantize serving path must predict exactly what the
        // old dequantize-into-a-ClassModel snapshot path predicted, for
        // every sample, at every storage precision — including after a
        // hot-swap and after fault injection.
        use disthd_hd::ClassModel;
        let (model, data) = trained();
        for width in BitWidth::all() {
            let mut deployed = DeployedModel::freeze(&model, width).unwrap();
            let mut rng = SeededRng::new(RngSeed(17));
            for phase in 0..2 {
                if phase == 1 {
                    deployed.inject_faults(0.02, &mut rng);
                }
                let mut snapshot = ClassModel::from_matrix(deployed.memory_parts().dequantize());
                for i in 0..data.test.len() {
                    let mut encoded = deployed
                        .encoder_parts()
                        .encode(data.test.sample(i))
                        .unwrap();
                    deployed.center_parts().apply(&mut encoded);
                    let expected = snapshot.predict(&encoded);
                    let got = deployed.predict(data.test.sample(i)).unwrap();
                    assert_eq!(got, expected, "{width}, sample {i}, phase {phase}");
                }
                // The batched path agrees with the single path.
                let n = data.test.len().min(32);
                let rows: Vec<usize> = (0..n).collect();
                let batch = deployed
                    .predict_batch(&data.test.features().select_rows(&rows))
                    .unwrap();
                for (i, &b) in batch.iter().enumerate() {
                    assert_eq!(
                        b,
                        deployed.predict(data.test.sample(i)).unwrap(),
                        "{width}, batched sample {i}, phase {phase}"
                    );
                }
            }
        }
    }

    #[test]
    fn eight_bit_deployment_matches_f32_closely() {
        let (mut model, data) = trained();
        let f32_acc = model.accuracy(&data.test).unwrap();
        let deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        let deployed_acc = deployed.accuracy(&data.test).unwrap();
        assert!(
            (f32_acc - deployed_acc).abs() < 0.05,
            "f32 {f32_acc:.3} vs 8-bit {deployed_acc:.3}"
        );
    }

    #[test]
    fn memory_bits_scale_with_width() {
        let (model, _) = trained();
        let b1 = DeployedModel::freeze(&model, BitWidth::B1).unwrap();
        let b8 = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        assert_eq!(b8.memory_bits(), 8 * b1.memory_bits());
        assert_eq!(b1.width(), BitWidth::B1);
        assert_eq!(b1.class_count(), 3);
    }

    #[test]
    fn fault_injection_flips_requested_fraction() {
        let (model, _) = trained();
        let mut deployed = DeployedModel::freeze(&model, BitWidth::B4).unwrap();
        let mut rng = SeededRng::new(RngSeed(5));
        let flipped = deployed.inject_faults(0.10, &mut rng);
        assert_eq!(
            flipped,
            (deployed.memory_bits() as f64 * 0.10).round() as usize
        );
    }

    #[test]
    fn faulted_deployment_still_classifies_above_chance() {
        let (model, data) = trained();
        let mut deployed = DeployedModel::freeze(&model, BitWidth::B1).unwrap();
        let mut rng = SeededRng::new(RngSeed(6));
        deployed.inject_faults(0.05, &mut rng);
        let acc = deployed.accuracy(&data.test).unwrap();
        assert!(acc > 1.0 / 3.0, "faulted accuracy {acc}");
    }

    #[test]
    fn predict_batch_is_invariant_to_batch_composition() {
        // The serving engine relies on this: a query's prediction must not
        // depend on which other queries happen to share its batch.
        let (model, data) = trained();
        let deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        let n = data.test.len().min(40);
        let all: Vec<usize> = (0..n).collect();
        let batched = deployed
            .predict_batch(&data.test.features().select_rows(&all))
            .unwrap();
        for (i, &expected) in batched.iter().enumerate() {
            let solo = deployed
                .predict_batch(&data.test.features().select_rows(&[i]))
                .unwrap();
            assert_eq!(solo[0], expected, "sample {i}");
        }
    }

    #[test]
    fn quantized_batch_predictions_track_the_f32_pipeline() {
        // The all-integer pipeline quantizes the query side too, so it may
        // legitimately flip near-ties against the mixed f32-query pipeline
        // — but agreement must stay high at every width and the resulting
        // accuracy must not collapse.
        let (model, data) = trained();
        let n = data.test.len();
        let all: Vec<usize> = (0..n).collect();
        let queries = data.test.features().select_rows(&all);
        for width in BitWidth::all() {
            let deployed = DeployedModel::freeze(&model, width).unwrap();
            let f32_preds = deployed.predict_batch(&queries).unwrap();
            let int_preds = deployed.predict_quantized_batch(&queries).unwrap();
            assert_eq!(int_preds.len(), n);
            let agree = f32_preds
                .iter()
                .zip(&int_preds)
                .filter(|(a, b)| a == b)
                .count() as f64
                / n as f64;
            let floor = match width {
                BitWidth::B1 | BitWidth::B2 => 0.85,
                _ => 0.95,
            };
            assert!(agree >= floor, "{width}: agreement {agree:.3} < {floor}");
            let f32_acc = f32_preds
                .iter()
                .enumerate()
                .filter(|&(i, &p)| p == data.test.label(i))
                .count() as f64
                / n as f64;
            let int_acc = int_preds
                .iter()
                .enumerate()
                .filter(|&(i, &p)| p == data.test.label(i))
                .count() as f64
                / n as f64;
            assert!(
                int_acc >= f32_acc - 0.05,
                "{width}: integer accuracy {int_acc:.3} vs f32 {f32_acc:.3}"
            );
        }
        // Degenerate shapes behave like predict_batch.
        let deployed = DeployedModel::freeze(&model, BitWidth::B1).unwrap();
        assert!(deployed
            .predict_quantized_batch(&Matrix::zeros(2, 3))
            .is_err());
        assert!(deployed
            .predict_quantized_batch(&Matrix::zeros(0, 0))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn predict_batch_checks_shapes_and_handles_empty() {
        let (model, _) = trained();
        let deployed = DeployedModel::freeze(&model, BitWidth::B4).unwrap();
        assert!(deployed.predict_batch(&Matrix::zeros(2, 3)).is_err());
        assert!(deployed
            .predict_batch(&Matrix::zeros(0, 0))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn swap_class_memory_changes_predictions_and_rejects_reshape() {
        let (model, data) = trained();
        let mut deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        let before = deployed.accuracy(&data.test).unwrap();
        // Swapping in a permuted class memory must change behaviour.
        let k = deployed.class_count();
        let rotated: Vec<usize> = (0..k).map(|c| (c + 1) % k).collect();
        let permuted = model.class_model().unwrap().classes().select_rows(&rotated);
        deployed
            .swap_class_memory(QuantizedMatrix::quantize(&permuted, BitWidth::B8))
            .unwrap();
        let after = deployed.accuracy(&data.test).unwrap();
        assert!(after < before, "permuted memory should hurt: {after}");
        // Swapping the original back restores the original accuracy.
        let restore =
            QuantizedMatrix::quantize(model.class_model().unwrap().classes(), BitWidth::B8);
        deployed.swap_class_memory(restore).unwrap();
        assert_eq!(deployed.accuracy(&data.test).unwrap(), before);
        // Topology changes are rejected.
        let wrong = QuantizedMatrix::quantize(&Matrix::zeros(k + 1, 512), BitWidth::B8);
        assert!(matches!(
            deployed.swap_class_memory(wrong),
            Err(ModelError::Incompatible(_))
        ));
    }

    #[test]
    fn with_swapped_memory_matches_in_place_swap_and_shares_the_encoder() {
        let (model, data) = trained();
        let deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        let k = deployed.class_count();
        let rotated: Vec<usize> = (0..k).map(|c| (c + 1) % k).collect();
        let permuted = model.class_model().unwrap().classes().select_rows(&rotated);
        let replacement = QuantizedMatrix::quantize(&permuted, BitWidth::B8);

        // Copy-on-write swap: `self` is untouched, the derived generation
        // predicts exactly like an in-place swap on a clone.
        let derived = deployed.with_swapped_memory(replacement.clone()).unwrap();
        let mut swapped = deployed.clone();
        swapped.swap_class_memory(replacement).unwrap();
        for i in 0..data.test.len().min(40) {
            let x = data.test.sample(i);
            assert_eq!(
                derived.predict(x).unwrap(),
                swapped.predict(x).unwrap(),
                "sample {i}"
            );
        }
        // The pre-swap deployment still serves the old memory.
        assert_eq!(
            deployed.accuracy(&data.test).unwrap(),
            DeployedModel::freeze(&model, BitWidth::B8)
                .unwrap()
                .accuracy(&data.test)
                .unwrap()
        );
        // Structural sharing: both generations point at one encoder, so
        // publication costs O(class memory), not O(encoder).
        assert!(Arc::ptr_eq(&deployed.encoder, &derived.encoder));
        assert!(Arc::ptr_eq(&deployed.encoder, &deployed.clone().encoder));
        // Topology changes are rejected, exactly like the in-place swap.
        let wrong = QuantizedMatrix::quantize(&Matrix::zeros(k + 1, 512), BitWidth::B8);
        assert!(matches!(
            deployed.with_swapped_memory(wrong),
            Err(ModelError::Incompatible(_))
        ));
    }

    /// Every row's f32-pipeline ranking, read off one scoring pass.
    fn f32_rankings(
        model: &DeployedModel,
        q: &Matrix,
        k: usize,
    ) -> Result<Vec<Vec<usize>>, ModelError> {
        let scores = model.scores(q, Precision::F32Query)?;
        (0..scores.len()).map(|r| scores.top_k(r, k)).collect()
    }

    /// Every row's f32-pipeline anomaly score, read off one scoring pass.
    fn f32_anomaly(deployed: &DeployedModel, queries: &Matrix) -> Result<Vec<f32>, ModelError> {
        let scores = deployed.scores(queries, Precision::F32Query)?;
        Ok((0..scores.len()).map(|r| scores.anomaly(r)).collect())
    }

    #[test]
    fn top_k_first_choice_matches_the_classify_path_on_both_pipelines() {
        // Top-k is post-processing of the very scores classify ranks, so
        // rank 0 must equal predict_batch (f32 pipeline) and
        // predict_quantized_batch (integer pipeline) — and k clamps.
        let (model, data) = trained();
        let n = data.test.len().min(40);
        let all: Vec<usize> = (0..n).collect();
        let queries = data.test.features().select_rows(&all);
        for width in [BitWidth::B8, BitWidth::B1] {
            let deployed = DeployedModel::freeze(&model, width).unwrap();
            let k = deployed.class_count();
            let ranked = f32_rankings(&deployed, &queries, 2).unwrap();
            let classes = deployed.predict_batch(&queries).unwrap();
            for (r, ranks) in ranked.iter().enumerate() {
                assert_eq!(ranks.len(), 2, "{width}, row {r}");
                assert_eq!(ranks[0], classes[r], "{width}, row {r}");
            }
            let int_ranked = deployed.top_k_quantized_batch(&queries, 2).unwrap();
            let int_classes = deployed.predict_quantized_batch(&queries).unwrap();
            for (r, ranks) in int_ranked.iter().enumerate() {
                assert_eq!(ranks[0], int_classes[r], "{width}, integer row {r}");
            }
            // k beyond the class count clamps to a full ranking.
            let full = f32_rankings(&deployed, &queries, k + 10).unwrap();
            assert!(full.iter().all(|ranks| ranks.len() == k));
            // Rankings are batch-composition invariant.
            let solo = f32_rankings(&deployed, &queries.select_rows(&[3]), 2).unwrap();
            assert_eq!(solo[0], ranked[3], "{width}: solo vs batched ranking");
        }
        let deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        assert!(f32_rankings(&deployed, &queries, 0).is_err());
        assert!(deployed.top_k_quantized_batch(&queries, 0).is_err());
        assert!(f32_rankings(&deployed, &Matrix::zeros(0, 0), 2)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn scores_answer_every_task_from_one_pass_on_both_precisions() {
        // Widths B1 and B8; an 8-row batch (the GEMM path) against each of
        // its rows scored alone, and the integer answers against the
        // packed kernels they must reproduce bit for bit.
        let (model, data) = trained();
        let queries = data
            .test
            .features()
            .select_rows(&(0..8).collect::<Vec<_>>());
        for width in [BitWidth::B1, BitWidth::B8] {
            let deployed = DeployedModel::freeze(&model, width).unwrap();
            let k = deployed.class_count();
            let means = Some(deployed.center.means());
            let codes = deployed
                .encoder
                .encode_batch_quantized(&queries, means, width);
            let codes = codes.unwrap();
            let (memory, inv_norms) = (&deployed.memory, &deployed.inv_norms);
            let int_classes = disthd_hd::packed_predict_batch(&codes, memory, inv_norms).unwrap();
            let cosines = disthd_hd::packed_cosine_matrix(&codes, memory, inv_norms).unwrap();
            for precision in [Precision::F32Query, Precision::Integer] {
                let batched = deployed.scores(&queries, precision).unwrap();
                assert_eq!(batched.len(), 8, "{width}, {precision:?}");
                for (r, &int_class) in int_classes.iter().enumerate() {
                    let at = format!("{width}, {precision:?}, row {r}");
                    let class = batched.class(r);
                    assert_eq!(batched.top_k(r, 1).unwrap(), vec![class], "{at}");
                    assert!(batched.top_k(r, 0).is_err(), "{at}: k = 0");
                    let solo_queries = queries.select_rows(&[r]);
                    let solo = deployed.scores(&solo_queries, precision).unwrap();
                    let ranked = batched.top_k(r, k).unwrap();
                    let anomaly = batched.anomaly(r).to_bits();
                    assert_eq!(solo.class(0), class, "{at}");
                    assert_eq!(solo.top_k(0, k).unwrap(), ranked, "{at}");
                    assert_eq!(solo.anomaly(0).to_bits(), anomaly, "{at}");
                    if precision == Precision::Integer {
                        let row = cosines.row(r);
                        assert_eq!(class, int_class, "{at}");
                        assert_eq!(ranked, disthd_linalg::top_k_largest(row, k), "{at}");
                        assert_eq!(anomaly, max_score(row).to_bits(), "{at}");
                    }
                }
                let empty = deployed.scores(&Matrix::zeros(0, 0), precision).unwrap();
                assert!(empty.is_empty(), "{width}, {precision:?}: empty batch");
            }
        }
    }

    /// Uniform-noise queries with the deployment's arity — off the
    /// training manifold, so they should resemble no class.
    fn noise_queries(n: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = SeededRng::new(RngSeed(seed));
        Matrix::from_fn(n, dim, |_, _| rng.next_unit())
    }

    #[test]
    fn anomaly_scores_separate_the_manifold_from_noise_and_calibrate() {
        let (model, data) = trained();
        let mut deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        let n = data.test.len().min(60);
        let all: Vec<usize> = (0..n).collect();
        let inliers = data.test.features().select_rows(&all);
        let outliers = noise_queries(n, data.test.feature_dim(), 0xA70);

        let in_scores = f32_anomaly(&deployed, &inliers).unwrap();
        let out_scores = f32_anomaly(&deployed, &outliers).unwrap();
        // Scores are genuine cosines.
        for s in in_scores.iter().chain(&out_scores) {
            assert!((-1.001..=1.001).contains(s), "score {s}");
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(
            mean(&in_scores) > mean(&out_scores) + 0.05,
            "inliers {:.3} vs outliers {:.3}",
            mean(&in_scores),
            mean(&out_scores)
        );

        // Youden calibration stores a threshold that actually separates.
        let threshold = deployed
            .calibrate_anomaly_threshold(&inliers, &outliers)
            .unwrap();
        assert_eq!(deployed.tasks().anomaly_threshold, Some(threshold));
        let inlier_pass = in_scores.iter().filter(|&&s| s >= threshold).count();
        let outlier_flagged = out_scores.iter().filter(|&&s| s < threshold).count();
        assert!(
            inlier_pass * 10 >= n * 8,
            "only {inlier_pass}/{n} inliers pass"
        );
        assert!(
            outlier_flagged * 10 >= n * 8,
            "only {outlier_flagged}/{n} outliers flagged"
        );

        // Batch-composition invariance: a solo score equals the batched one.
        let solo = f32_anomaly(&deployed, &inliers.select_rows(&[5])).unwrap();
        assert_eq!(solo[0].to_bits(), in_scores[5].to_bits());

        // The integer pipeline agrees directionally (same separation).
        let int_in = deployed.anomaly_scores_quantized(&inliers).unwrap();
        let int_out = deployed.anomaly_scores_quantized(&outliers).unwrap();
        assert!(mean(&int_in) > mean(&int_out) + 0.05);
        let int_solo = deployed
            .anomaly_scores_quantized(&inliers.select_rows(&[5]))
            .unwrap();
        assert_eq!(int_solo[0].to_bits(), int_in[5].to_bits());
    }

    #[test]
    fn task_configuration_validates_and_travels_with_swaps() {
        let (model, _) = trained();
        let mut deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        assert!(deployed.tasks().is_empty());
        // k outside 1..=classes is rejected.
        assert!(deployed
            .set_tasks(ServingTasks {
                top_k: Some(0),
                anomaly_threshold: None
            })
            .is_err());
        assert!(deployed
            .set_tasks(ServingTasks {
                top_k: Some(deployed.class_count() + 1),
                anomaly_threshold: None
            })
            .is_err());
        let tasks = ServingTasks {
            top_k: Some(2),
            anomaly_threshold: Some(0.25),
        };
        deployed.set_tasks(tasks).unwrap();
        assert!(!deployed.tasks().is_empty());
        // Hot-swap derivation keeps the configuration.
        let derived = deployed
            .with_swapped_memory(deployed.memory_parts().clone())
            .unwrap();
        assert_eq!(derived.tasks(), tasks);
        assert_eq!(deployed.clone().tasks(), tasks);
        // Calibration rejects empty batches.
        let dim = model.encoder().input_dim();
        assert!(deployed
            .calibrate_anomaly_threshold(&Matrix::zeros(0, dim), &noise_queries(4, dim, 1))
            .is_err());
        assert!(deployed
            .calibrate_anomaly_threshold(&noise_queries(4, dim, 1), &Matrix::zeros(0, dim))
            .is_err());
    }

    #[test]
    fn decision_scores_rank_like_predict() {
        let (model, data) = trained();
        let deployed = DeployedModel::freeze(&model, BitWidth::B8).unwrap();
        let x = data.test.sample(0);
        let predicted = deployed.predict(x).unwrap();
        let scores = deployed.decision_scores(x).unwrap();
        assert_eq!(disthd_linalg::argsort_descending(&scores)[0], predicted);
    }
}
