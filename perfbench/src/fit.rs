//! `fit-isolet`: `DistHd::fit` with per-epoch held-out evaluation, then a
//! batched predict of the held-out set.
//!
//! The traced run replays `fit` from the library's public calls, timing each
//! call from here; the replica must produce the same class memory, bit for
//! bit, or the trace is not describing `fit`.

use crate::emit::Metric;
use crate::fixture::{fit_config, Fnv};
use crate::stats::Samples;
use crate::Outcome;
use disthd::{categorize_batch, select_undesired_dims, DistHd, DistHdConfig, EncoderBackend};
use disthd_datasets::TrainTest;
use disthd_eval::Classifier;
use disthd_hd::center::EncodingCenter;
use disthd_hd::encoder::{AnyRbfEncoder, Encoder, RegenerativeEncoder};
use disthd_hd::learn::{adaptive_epoch, bundle_init};
use disthd_hd::ClassModel;
use disthd_linalg::{Matrix, SeededRng};
use std::time::{Duration, Instant};

/// Epochs of the measured fit (early stopping off).
pub const EPOCHS: usize = 20;
/// Held-out predicts timed after each fit.
const PREDICT_REPS: usize = 5;
/// Label `DistHd::fit` derives its regeneration stream from.
const REGEN_STREAM: u64 = 0xD157;

pub fn config() -> DistHdConfig {
    fit_config(EncoderBackend::Dense, EPOCHS)
}

/// What the stage measured, accumulated over the run's rounds.
#[derive(Default)]
pub struct FitRun {
    pub fit_s: Samples,
    pub predict_s: Samples,
    /// Class memory, its digest and the held-out predictions of the first
    /// fit; every later fit must repeat them.
    first: Option<(u64, Matrix, Vec<usize>)>,
}

impl FitRun {
    pub fn classes(&self) -> &Matrix {
        &self.first.as_ref().expect("a fit succeeded").1
    }

    pub fn accuracy(&self, data: &TrainTest) -> f64 {
        let predictions = &self.first.as_ref().expect("a fit succeeded").2;
        let correct = predictions
            .iter()
            .zip(data.test.labels())
            .filter(|(p, l)| p == l)
            .count();
        correct as f64 / data.test.len() as f64
    }
}

fn memory_digest(classes: &Matrix) -> u64 {
    let mut h = Fnv::new();
    h.words(classes.as_slice().iter().map(|v| v.to_bits() as u64));
    h.finish()
}

/// One round: fits (at least one) until `budget` has passed, each followed
/// by timed held-out predicts.
pub fn run_round(data: &TrainTest, budget: Duration, run: &mut FitRun, outcome: &mut Outcome) {
    let start = Instant::now();
    let mut fits = 0;
    while fits == 0 || start.elapsed() < budget {
        fits += 1;
        let mut model = DistHd::new(config(), data.train.feature_dim(), data.train.class_count());
        let t = Instant::now();
        let fitted = model.fit(&data.train, Some(&data.test));
        run.fit_s.push(t.elapsed().as_secs_f64());
        outcome.attempt(fitted.is_ok(), "fit");
        if fitted.is_err() {
            continue;
        }
        let mut predictions = Vec::new();
        for _ in 0..PREDICT_REPS {
            let t = Instant::now();
            let p = model.predict(&data.test);
            run.predict_s.push(t.elapsed().as_secs_f64());
            outcome.attempt(p.is_ok(), "held-out predict");
            predictions = p.unwrap_or_default();
        }
        let classes = model.class_model().expect("fitted").classes().clone();
        let digest = memory_digest(&classes);
        match &run.first {
            None => run.first = Some((digest, classes, predictions)),
            Some((d, _, p)) => {
                outcome.check(*d == digest, "fit class memory repeats within the run");
                outcome.check(
                    *p == predictions,
                    "held-out predictions repeat within the run",
                );
            }
        }
    }
}

pub fn end_to_end(run: &FitRun, data: &TrainTest) -> Vec<Metric> {
    let fit = run.fit_s.median().expect("fits ran");
    let predict = run.predict_s.median().expect("predicts ran");
    vec![
        Metric::new("fit_s", fit, "s", run.fit_s.len()),
        Metric::new(
            "test_accuracy",
            run.accuracy(data),
            "fraction",
            data.test.len(),
        ),
        Metric::new(
            "predict_sps",
            data.test.len() as f64 / predict,
            "samples/s",
            run.predict_s.len(),
        ),
    ]
}

/// Accumulated time of each timed call in the replica, in seconds.
#[derive(Default)]
struct Ledger {
    spans: Vec<(&'static str, f64)>,
}

impl Ledger {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let dt = t.elapsed().as_secs_f64();
        match self.spans.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += dt,
            None => self.spans.push((name, dt)),
        }
        r
    }

    fn ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| s * 1e3)
    }

    fn total_s(&self) -> f64 {
        self.spans.iter().map(|(_, s)| s).sum()
    }
}

/// `DistHd::fit(train, Some(held_out))` rebuilt from public calls, each
/// timed.  Returns the per-layer metrics; checks the class memory against
/// the untraced fit.
pub fn traced(data: &TrainTest, untraced: &FitRun, outcome: &mut Outcome) -> Vec<Metric> {
    let cfg = config();
    let train = &data.train;
    let labels = train.labels();
    let mut ledger = Ledger::default();
    // Constructing the encoder is `DistHd::new`, outside the timed `fit`.
    let mut encoder =
        AnyRbfEncoder::new(cfg.encoder_backend, train.feature_dim(), cfg.dim, cfg.seed);
    encoder.set_fht_schedule(cfg.fht_schedule);
    let wall = Instant::now();
    let mut regen_rng = SeededRng::derive_stream(cfg.seed, REGEN_STREAM);
    let mut encoded = ledger
        .time("encoder.encode", || encoder.encode_batch(train.features()))
        .expect("train arity");
    let mut center = ledger.time("center.fit", || EncodingCenter::fit_and_apply(&mut encoded));
    let mut model = ClassModel::new(train.class_count(), cfg.dim);
    ledger
        .time("learn.bundle_init", || {
            bundle_init(&mut model, &encoded, labels)
        })
        .expect("encoded width");

    let (mut samples, mut updates, mut selected, mut budget) = (0usize, 0usize, 0usize, 0usize);
    for epoch in 0..cfg.epochs {
        let stats = ledger
            .time("learn.epoch", || {
                adaptive_epoch(&mut model, &encoded, labels, cfg.learning_rate)
            })
            .expect("encoded width");
        samples += stats.samples;
        updates += stats.mistakes;
        let regen_epoch = cfg.regen_interval > 0
            && (epoch + 1) % cfg.regen_interval == 0
            && epoch + 1 < cfg.epochs;
        if regen_epoch {
            let outcomes = ledger
                .time("top2.categorize", || {
                    categorize_batch(&mut model, &encoded, labels)
                })
                .expect("encoded width");
            let scores = ledger.time("distance.select", || {
                select_undesired_dims(
                    &encoded,
                    labels,
                    &outcomes,
                    model.classes(),
                    &cfg.weights,
                    cfg.regen_rate,
                )
            });
            let dims = scores.undesired;
            selected += dims.len();
            budget += (cfg.dim as f64 * cfg.regen_rate).round() as usize;
            if !dims.is_empty() {
                ledger.time("encoder.regenerate", || {
                    encoder.regenerate(&dims, &mut regen_rng);
                    model.reset_dimensions(&dims);
                });
                ledger
                    .time("encoder.reencode", || {
                        encoder.reencode_dims(train.features(), &mut encoded, &dims)
                    })
                    .expect("train arity");
                ledger.time("center.refit", || center.refit_dims(&mut encoded, &dims));
                ledger.time("model.bundle_dims", || {
                    model.bundle_dimensions(&encoded, labels, &dims)
                });
            }
        }
        let held_out = ledger
            .time("eval.encode", || {
                encoder.encode_batch(data.test.features()).map(|mut m| {
                    center.apply_batch(&mut m);
                    m
                })
            })
            .expect("held-out arity");
        ledger
            .time("eval.score", || model.predict_batch(&held_out))
            .expect("encoded width");
    }
    let wall_s = wall.elapsed().as_secs_f64();

    let same = model
        .classes()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .eq(untraced.classes().as_slice().iter().map(|v| v.to_bits()));
    outcome.check(
        same,
        "traced fit replica's class memory is bit-identical to fit",
    );

    let per_fit = untraced.fit_s.median().expect("fits ran");
    let n = |name: &str| Metric::new(format!("fit.{name}_ms"), ledger.ms(name), "ms", 1);
    let mut out: Vec<Metric> = [
        "encoder.encode",
        "center.fit",
        "learn.bundle_init",
        "learn.epoch",
        "top2.categorize",
        "distance.select",
        "encoder.regenerate",
        "encoder.reencode",
        "center.refit",
        "model.bundle_dims",
        "eval.encode",
        "eval.score",
    ]
    .iter()
    .map(|name| n(name))
    .collect();
    out.push(Metric::new(
        "fit.learn.update_frac",
        updates as f64 / samples as f64,
        "updates/sample",
        samples,
    ));
    out.push(Metric::new(
        "fit.distance.selected_frac",
        selected as f64 / budget.max(1) as f64,
        "dims/budget",
        budget,
    ));
    out.push(Metric::new(
        "fit.trace.coverage",
        ledger.total_s() / wall_s,
        "fraction",
        1,
    ));
    out.push(Metric::new(
        "fit.trace.overhead",
        wall_s / per_fit,
        "ratio",
        untraced.fit_s.len(),
    ));
    out
}
