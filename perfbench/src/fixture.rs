//! Set-up shared by every stage: the seeded dataset, the two served models
//! (restored from DHD4 snapshot blobs, as a deployment would load them),
//! the second class memory the closed loop swaps in, and the serial
//! reference answers every served answer is checked against.
//!
//! The served models are fixed artifacts: they are trained on the suite's
//! default ISOLET sample whatever the seed, and the seed draws the queries
//! sent to them.  A model trained on a seeded sample would carry a
//! seed-dependent number of regenerated dimensions, and the structured
//! encoder serves those through a dense overlay whose cost grows with
//! their count (43 to 410 overlay dimensions across five seeds tried, a 2x
//! spread in closed-loop throughput).

use crate::schedule::Rng;
use disthd::{DeployedModel, DistHd, DistHdConfig, ErrorFeedbackQuantizer, StreamConfig};
use disthd::{EncoderBackend, ServingTasks};
use disthd_datasets::suite::{PaperDataset, SuiteConfig};
use disthd_datasets::TrainTest;
use disthd_eval::Classifier;
use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
use disthd_linalg::{FhtSchedule, Matrix, RngSeed};
use disthd_serve::{BatchPolicy, Server, ServerOptions, SnapshotStore};
use std::time::{Duration, Instant};

/// Hypervector dimensionality of every model the benchmark runs.
pub const DIM: usize = 4096;
/// Synthetic ISOLET scale: 1248 train / 312 held-out samples.
pub const SCALE: f64 = 0.2;
/// Training epochs of the two served models.  Serving cost does not depend
/// on how long the model trained; a short fit keeps set-up cheap enough to
/// repeat within one run.
pub const SERVE_EPOCHS: usize = 4;
/// Serving window (queries per batch) of both servers.
pub const WINDOW: usize = 32;
/// Dispatcher patience before a partial batch flushes.
pub const PATIENCE: Duration = Duration::from_millis(1);
/// Ranked classes of a top-k request.
pub const TOP_K: usize = 3;
/// Samples in the fresh labelled batch behind the second class memory.
pub const FRESH_BATCH: usize = 256;
/// Encoder seed of every model: fixed, so `--seed` varies only the inputs.
pub const MODEL_SEED: RngSeed = RngSeed(0x00D1_57CE);
/// Sample seed of the fresh batch behind the second class memory.
const FRESH_SEED: RngSeed = RngSeed(0x0F2E_5B47);

/// Serial answers to every pool query under one class memory.
#[derive(Debug, Clone, PartialEq)]
pub struct IntReference {
    pub class: Vec<usize>,
    pub ranked: Vec<Vec<usize>>,
    pub anomaly: Vec<f32>,
    pub threshold: f32,
}

pub struct Fixture {
    pub data: TrainTest,
    /// Query pool: the seeded held-out features, in dataset order.
    pub pool: Matrix,
    /// Dense, 8-bit, f32-query deployment.
    pub dense: DeployedModel,
    pub dense_reference: Vec<usize>,
    pub dense_restore_ms: f64,
    /// Structured, 1-bit, integer-pipeline deployment.
    pub int: DeployedModel,
    pub int_restore_ms: f64,
    /// The two class memories the closed loop alternates between.
    pub memories: [QuantizedMatrix; 2],
    pub int_reference: [IntReference; 2],
}

/// Fit configuration shared by the fit stage and the served models.
pub fn fit_config(backend: EncoderBackend, epochs: usize) -> DistHdConfig {
    DistHdConfig {
        dim: DIM,
        epochs,
        patience: None,
        seed: MODEL_SEED,
        encoder_backend: backend,
        fht_schedule: FhtSchedule::Ascending,
        ..DistHdConfig::default()
    }
}

/// The seeded ISOLET split of run `seed`.
pub fn dataset(seed: u64) -> TrainTest {
    let sample_seed = RngSeed(Rng::stream(seed, 1).next_u64());
    PaperDataset::Isolet
        .generate(&SuiteConfig::at_scale(SCALE).with_sample_seed(sample_seed))
        .expect("synthetic ISOLET generates at any scale")
}

/// The split the served models train on: the suite's default sample.
fn serving_dataset() -> TrainTest {
    PaperDataset::Isolet
        .generate(&SuiteConfig::at_scale(SCALE))
        .expect("synthetic ISOLET generates at any scale")
}

/// A one-shard server over `model` with the benchmark's window and
/// patience, on the f32-query or the integer pipeline.
pub fn spawn_server(model: &DeployedModel, integer_pipeline: bool) -> Server {
    let policy = BatchPolicy {
        max_batch: WINDOW,
        max_wait: PATIENCE,
    };
    let options = ServerOptions {
        shards: 1,
        queue_capacity: 8192,
        integer_pipeline,
        max_worker_restarts: 32,
    };
    Server::spawn_with(model.clone(), policy, options)
}

/// Pushes `model` through a DHD4 snapshot store and restores it, returning
/// the restored deployment and the restore time in milliseconds.
fn through_snapshot(model: &DeployedModel) -> (DeployedModel, f64) {
    let mut store = SnapshotStore::new(2);
    let version = store.push(model).expect("a fresh deployment serializes");
    let t = Instant::now();
    let restored = store
        .restore(version)
        .expect("a pristine snapshot restores");
    (restored, t.elapsed().as_secs_f64() * 1e3)
}

fn fitted(data: &TrainTest, backend: EncoderBackend) -> DistHd {
    let mut model = DistHd::new(
        fit_config(backend, SERVE_EPOCHS),
        data.train.feature_dim(),
        data.train.class_count(),
    );
    model.fit(&data.train, None).expect("ISOLET fits");
    model
}

/// Serial reference answers of the integer pipeline under `model`'s memory.
pub fn int_reference(model: &DeployedModel, pool: &Matrix) -> IntReference {
    let threshold = model.tasks().anomaly_threshold.expect("threshold set");
    IntReference {
        class: model.predict_quantized_batch(pool).expect("pool arity"),
        ranked: model
            .top_k_quantized_batch(pool, TOP_K)
            .expect("pool arity"),
        anomaly: model.anomaly_scores_quantized(pool).expect("pool arity"),
        threshold,
    }
}

impl Fixture {
    pub fn build(seed: u64) -> Self {
        let data = dataset(seed);
        let pool = data.test.features().clone();
        let serving = serving_dataset();

        let dense_fit = fitted(&serving, EncoderBackend::Dense);
        let frozen = DeployedModel::freeze(&dense_fit, BitWidth::B8).expect("fitted");
        let (dense, dense_restore_ms) = through_snapshot(&frozen);
        let dense_reference = dense.predict_batch(&pool).expect("pool arity");

        let mut int_fit = fitted(&serving, EncoderBackend::Structured);
        let mut frozen = DeployedModel::freeze(&int_fit, BitWidth::B1).expect("fitted");
        // Threshold at the median held-out anomaly score, so both verdicts
        // occur.
        let mut scores = frozen
            .anomaly_scores_quantized(serving.test.features())
            .expect("held-out arity");
        scores.sort_by(f32::total_cmp);
        frozen
            .set_tasks(ServingTasks {
                top_k: Some(TOP_K),
                anomaly_threshold: Some(scores[scores.len() / 2]),
            })
            .expect("k within the class count");
        let (int, int_restore_ms) = through_snapshot(&frozen);

        let fresh = PaperDataset::Isolet
            .generate(&SuiteConfig::at_scale(0.0).with_sample_seed(FRESH_SEED))
            .expect("synthetic ISOLET generates at any scale")
            .train
            .take(FRESH_BATCH);
        let mut feedback = ErrorFeedbackQuantizer::new(BitWidth::B1);
        let (_, second) = int_fit
            .partial_fit_quantized(&fresh, &StreamConfig::default(), &mut feedback)
            .expect("a fitted model streams");
        let memories = [int.memory_parts().clone(), second];
        let int_reference = [
            int_reference(&int, &pool),
            int_reference(
                &int.with_swapped_memory(memories[1].clone())
                    .expect("same shape"),
                &pool,
            ),
        ];

        Self {
            data,
            pool,
            dense,
            dense_reference,
            dense_restore_ms,
            int,
            int_restore_ms,
            memories,
            int_reference,
        }
    }

    /// Digest of everything set-up produced that the stages depend on:
    /// repeated set-ups of one seed must agree on it.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for m in [&self.dense, &self.int] {
            h.words(m.memory_parts().as_words().iter().copied());
        }
        h.words(self.memories[1].as_words().iter().copied());
        h.words(self.dense_reference.iter().map(|&c| c as u64));
        for r in &self.int_reference {
            h.words(r.class.iter().map(|&c| c as u64));
            h.words(r.anomaly.iter().map(|s| s.to_bits() as u64));
        }
        h.finish()
    }
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn words(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
