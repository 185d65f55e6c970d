//! Compute-backend throughput benchmark: encode / structured encode /
//! top-2 / predict / train samples-per-second, comparing the pre-backend
//! scalar kernels against the cache-blocked kernel serial (1 thread) and
//! parallel (`DISTHD_THREADS` or all cores), and the dense `O(F·D)` RBF
//! encoder against the structured `O(D log D)` Walsh–Hadamard encoder.
//!
//! The workload is the Fig. 5 efficiency setting at `D = 4096` (the
//! BaselineHD D* dimensionality — the heaviest encode in the paper's panel)
//! on the synthetic ISOLET substitute.  `DISTHD_ENCODER` (`dense` |
//! `structured`, default `dense`) selects the backend the end-to-end train
//! and predict phases run on, so CI exercises the full pipeline under both
//! backends and diffs their accuracies across thread counts; the
//! `encode_structured` phase and the structured-vs-dense accuracy
//! comparison are always emitted.  `DISTHD_SYNTH_F` remaps the dataset
//! to a synthetic feature count by cyclic repetition/truncation (to
//! exercise non-power-of-two pad/half-block handling at widths the
//! generator doesn't emit).  An `fht_phases` micro-bench block records
//! transform throughput and the pruned-vs-full ratio under synthetic
//! eviction, and an in-bin bitwise gate proves the zero-aware and pruned
//! FHT paths equal the full transform on every live lane.  Emits
//! `BENCH_throughput.json` (override the path with `DISTHD_BENCH_OUT`) and
//! exits non-zero if the parallel backend's results are not bit-identical
//! to serial, if parallel encode or train lose to serial on a machine that
//! could host every worker, if structured encode falls under 6× dense
//! serial encode on a multi-core runner, or if the FHT bitwise gate fails.
//!
//! Run with `cargo run --release -p disthd_bench --bin throughput`.

use disthd::{categorize, categorize_batch, DistHd, DistHdConfig, EncoderBackend};
use disthd_bench::default_scale;
use disthd_datasets::suite::{PaperDataset, SuiteConfig};
use disthd_datasets::Dataset;
use disthd_eval::Classifier;
use disthd_hd::encoder::{AnyRbfEncoder, Encoder, RbfEncoder, StructuredRbfEncoder};
use disthd_hd::learn::bundle_init;
use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
use disthd_hd::ClassModel;
use disthd_linalg::{fht_inplace, fht_inplace_opts, parallel, FhtOpts, FhtPrunePlan, FhtSchedule};
use disthd_linalg::{Matrix, RngSeed};
use std::time::Instant;

/// Fig. 5's heavy dimensionality (BaselineHD's D* = 4k).
const DIM: usize = 4096;
/// Timing repetitions; the best rep is reported (least scheduler noise).
const REPS: usize = 3;
/// Epochs for the end-to-end training phase.
const TRAIN_EPOCHS: usize = 6;

/// Best-of-`REPS` wall-clock seconds for `f`, plus its last result.
fn time_best<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64());
        result = Some(r);
    }
    (best, result.expect("REPS > 0"))
}

/// Samples-per-second from a best-of timing.
fn sps(samples: usize, seconds: f64) -> f64 {
    samples as f64 / seconds.max(1e-12)
}

/// Remaps every sample to `new_f` features by cyclic repetition (or
/// truncation) of its real features — a synthetic feature width for
/// exercising pad/half-block handling at non-power-of-two `F` the
/// generator doesn't emit.  The RBF bandwidth scale (`base_std ∝ 1/√F`)
/// cancels the repeated energy, so kernel widths stay comparable.
fn remap_feature_dim(data: &Dataset, new_f: usize) -> Dataset {
    let old_f = data.feature_dim();
    let features = Matrix::from_fn(data.len(), new_f, |r, c| data.sample(r)[c % old_f]);
    Dataset::new(features, data.labels().to_vec(), data.class_count())
        .expect("remap preserves rows and labels")
}

/// Deterministic micro-bench input (values in roughly ±0.8, no special
/// structure).
fn fht_bench_input(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.7).sin() * 0.8).collect()
}

/// Transforms-per-second of `fht_inplace_opts` under `opts` at size `n`,
/// best-of-REPS over `batch` back-to-back transforms.
fn fht_sps(n: usize, batch: usize, opts: &FhtOpts) -> f64 {
    let input = fht_bench_input(n);
    let mut buf = vec![0.0f32; n];
    let (secs, _) = time_best(|| {
        for _ in 0..batch {
            buf.copy_from_slice(&input);
            fht_inplace_opts(&mut buf, opts);
        }
        buf[0]
    });
    sps(batch, secs)
}

/// Synthetic eviction mask: lane `l` is dead iff its multiplicative hash
/// lands under `pct` — scattered like real regeneration, not contiguous.
fn synthetic_live(pct: u32) -> impl Fn(usize) -> bool {
    move |lane| (lane.wrapping_mul(2654435761) >> 7) as u32 % 100 >= pct
}

/// In-bin bitwise gate: the zero-aware and pruned paths must equal the
/// plain full transform on every live lane, at the bench's exact shapes.
/// Returns `false` (→ non-zero exit) on any mismatch.
fn fht_bitwise_live_lanes_ok() -> bool {
    let mut ok = true;
    for &n in &[1024usize, 4096] {
        // Zero-aware front end vs transforming the padded buffer in full,
        // at the ISOLET and synth non-pow2 widths.
        for &nz in &[617usize, 1000, n] {
            let nz = nz.min(n);
            let mut reference = fht_bench_input(nz);
            reference.resize(n, 0.0);
            let mut aware = reference.clone();
            fht_inplace(&mut reference);
            fht_inplace_opts(
                &mut aware,
                &FhtOpts {
                    nonzero_len: nz,
                    ..FhtOpts::dense(FhtSchedule::Ascending)
                },
            );
            ok &= reference
                .iter()
                .zip(&aware)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        }
        // Pruned final stage vs the full ascending transform on live lanes.
        for &pct in &[10u32, 25] {
            let live = synthetic_live(pct);
            let plan = FhtPrunePlan::from_live(n, &live);
            let mut reference = fht_bench_input(n);
            fht_inplace(&mut reference);
            let mut pruned = fht_bench_input(n);
            fht_inplace_opts(
                &mut pruned,
                &FhtOpts {
                    prune: Some(&plan),
                    ..FhtOpts::dense(FhtSchedule::Ascending)
                },
            );
            ok &= reference
                .iter()
                .zip(&pruned)
                .enumerate()
                .all(|(lane, (a, b))| !live(lane) || a.to_bits() == b.to_bits());
        }
    }
    ok
}

struct Phase {
    name: &'static str,
    reference_sps: Option<f64>,
    serial_sps: f64,
    parallel_sps: f64,
}

impl Phase {
    fn speedup_serial(&self) -> Option<f64> {
        self.reference_sps.map(|r| self.serial_sps / r)
    }

    fn speedup_parallel(&self) -> f64 {
        self.parallel_sps / self.serial_sps
    }

    fn json(&self) -> String {
        let reference = match self.reference_sps {
            Some(r) => format!(
                "\"reference_sps\": {:.2}, \"speedup_serial_over_reference\": {:.3}, ",
                r,
                self.speedup_serial().unwrap_or(0.0)
            ),
            None => String::new(),
        };
        format!(
            "{{ {reference}\"serial_sps\": {:.2}, \"parallel_sps\": {:.2}, \
             \"speedup_parallel_over_serial\": {:.3} }}",
            self.serial_sps,
            self.parallel_sps,
            self.speedup_parallel()
        )
    }

    fn print(&self) {
        match (self.reference_sps, self.speedup_serial()) {
            (Some(r), Some(s)) => println!(
                "{:<8} {:>12.1} {:>12.1} {:>12.1}   {:>6.2}x {:>8.2}x",
                self.name,
                r,
                self.serial_sps,
                self.parallel_sps,
                s,
                self.speedup_parallel()
            ),
            _ => println!(
                "{:<8} {:>12} {:>12.1} {:>12.1}   {:>6} {:>8.2}x",
                self.name,
                "-",
                self.serial_sps,
                self.parallel_sps,
                "-",
                self.speedup_parallel()
            ),
        }
    }
}

fn main() {
    let scale = default_scale();
    let parallel_threads = parallel::thread_count();
    // Backend for the end-to-end train/predict phases (the encode phases
    // always measure both backends explicitly).
    let encoder_backend = std::env::var("DISTHD_ENCODER")
        .ok()
        .map(|name| EncoderBackend::parse(&name).expect("DISTHD_ENCODER: dense|structured"))
        .unwrap_or(EncoderBackend::Dense);
    // Physical parallelism actually available, as opposed to the requested
    // worker count: on a single-core machine a >1x parallel speedup is
    // physically impossible, so the regression gate only arms when the
    // hardware could have delivered one.
    let machine_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let dataset = PaperDataset::Isolet;
    let mut data = dataset
        .generate(&SuiteConfig::at_scale(scale))
        .expect("dataset generation");
    // Synthetic feature width: cyclically repeat/truncate the real
    // features so non-pow2 pad and half-block shapes the generator doesn't
    // emit still get end-to-end coverage.
    let synth_f = std::env::var("DISTHD_SYNTH_F").ok().map(|v| {
        v.trim()
            .parse::<usize>()
            .expect("DISTHD_SYNTH_F: a feature count")
    });
    if let Some(new_f) = synth_f {
        data.train = remap_feature_dim(&data.train, new_f);
        data.test = remap_feature_dim(&data.test, new_f);
    }
    let train_n = data.train.len();
    let test_n = data.test.len();
    println!(
        "throughput: {} (scale {scale}), D = {DIM}, F = {}, {} train / {} test samples, \
         encoder = {encoder_backend}, \
         parallel = {parallel_threads} thread(s)\n",
        dataset.name(),
        data.train.feature_dim(),
        train_n,
        test_n
    );

    let encoder = RbfEncoder::new(data.train.feature_dim(), DIM, RngSeed(11));

    // -- encode: pre-PR scalar kernel vs blocked serial vs blocked parallel.
    let (ref_secs, _) = time_best(|| encoder.encode_batch_reference(data.train.features()));
    let (serial_secs, encoded_serial) = parallel::with_thread_count(1, || {
        time_best(|| encoder.encode_batch(data.train.features()).expect("encode"))
    });
    let (par_secs, encoded_parallel) = parallel::with_thread_count(parallel_threads, || {
        time_best(|| encoder.encode_batch(data.train.features()).expect("encode"))
    });
    let mut bit_identical = encoded_serial.as_slice() == encoded_parallel.as_slice();
    let encode = Phase {
        name: "encode",
        reference_sps: Some(sps(train_n, ref_secs)),
        serial_sps: sps(train_n, serial_secs),
        parallel_sps: sps(train_n, par_secs),
    };

    // -- structured encode: the O(D log D) Walsh–Hadamard encoder against
    //    the dense O(F·D) GEMM encoder (the dense *blocked serial* sps is
    //    the reference, so `speedup_serial_over_reference` is the headline
    //    structured-vs-dense factor the ≥ 6× gate watches).
    let structured_encoder = StructuredRbfEncoder::new(data.train.feature_dim(), DIM, RngSeed(11));
    let (structured_serial_secs, structured_serial) = parallel::with_thread_count(1, || {
        time_best(|| {
            structured_encoder
                .encode_batch(data.train.features())
                .expect("structured encode")
        })
    });
    let (structured_par_secs, structured_parallel) =
        parallel::with_thread_count(parallel_threads, || {
            time_best(|| {
                structured_encoder
                    .encode_batch(data.train.features())
                    .expect("structured encode")
            })
        });
    bit_identical &= structured_serial.as_slice() == structured_parallel.as_slice();
    let encode_structured = Phase {
        name: "enc-fht",
        reference_sps: Some(encode.serial_sps),
        serial_sps: sps(train_n, structured_serial_secs),
        parallel_sps: sps(train_n, structured_par_secs),
    };
    let structured_speedup = encode_structured
        .speedup_serial()
        .expect("dense reference present");
    drop(structured_serial);
    drop(structured_parallel);

    // -- top-2 categorization: per-sample matvecs vs one batched GEMM.
    let mut model = ClassModel::new(data.train.class_count(), DIM);
    bundle_init(&mut model, &encoded_serial, data.train.labels()).expect("bundle");
    let (ref_secs, outcomes_ref) =
        time_best(|| categorize(&mut model, &encoded_serial, data.train.labels()).expect("top2"));
    let (serial_secs, outcomes_serial) = parallel::with_thread_count(1, || {
        time_best(|| {
            categorize_batch(&mut model, &encoded_serial, data.train.labels()).expect("top2")
        })
    });
    let (par_secs, outcomes_parallel) = parallel::with_thread_count(parallel_threads, || {
        time_best(|| {
            categorize_batch(&mut model, &encoded_serial, data.train.labels()).expect("top2")
        })
    });
    bit_identical &= outcomes_serial == outcomes_parallel;
    let taxonomy_agrees = outcomes_ref == outcomes_serial;
    let top2 = Phase {
        name: "top2",
        reference_sps: Some(sps(train_n, ref_secs)),
        serial_sps: sps(train_n, serial_secs),
        parallel_sps: sps(train_n, par_secs),
    };

    // -- end-to-end training and prediction (DistHD at D = 4096, on the
    //    `DISTHD_ENCODER`-selected backend).  Training is deterministic,
    //    so repeating a fit only re-times the identical computation:
    //    best-of-REPS keeps one scheduler hiccup from being recorded as a
    //    parallel train regression.
    let config = DistHdConfig {
        dim: DIM,
        epochs: TRAIN_EPOCHS,
        patience: None,
        encoder_backend,
        ..Default::default()
    };
    let fit_once = |threads: usize| {
        parallel::with_thread_count(threads, || {
            let mut best = f64::INFINITY;
            let mut fitted = None;
            for _ in 0..REPS {
                let mut m = DistHd::new(
                    config.clone(),
                    data.train.feature_dim(),
                    data.train.class_count(),
                );
                let start = Instant::now();
                m.fit(&data.train, None).expect("fit");
                best = best.min(start.elapsed().as_secs_f64());
                fitted = Some(m);
            }
            let mut m = fitted.expect("REPS > 0");
            let accuracy = m.accuracy(&data.test).expect("accuracy");
            (m, best, accuracy)
        })
    };
    let (mut model_serial, serial_secs, accuracy_serial) = fit_once(1);
    let (mut model_parallel, par_secs, accuracy_parallel) = fit_once(parallel_threads);
    bit_identical &= accuracy_serial == accuracy_parallel;
    let train = Phase {
        name: "train",
        reference_sps: None,
        serial_sps: sps(train_n * TRAIN_EPOCHS, serial_secs),
        parallel_sps: sps(train_n * TRAIN_EPOCHS, par_secs),
    };

    // -- structured-vs-dense end-to-end accuracy: the other backend,
    //    trained once with the same hyper-parameters, must land within one
    //    accuracy point (the tentpole's fidelity bar).
    let other_backend = match encoder_backend {
        EncoderBackend::Dense => EncoderBackend::Structured,
        EncoderBackend::Structured => EncoderBackend::Dense,
    };
    let accuracy_other = parallel::with_thread_count(parallel_threads, || {
        let mut m = DistHd::new(
            DistHdConfig {
                encoder_backend: other_backend,
                ..config.clone()
            },
            data.train.feature_dim(),
            data.train.class_count(),
        );
        m.fit(&data.train, None).expect("fit");
        m.accuracy(&data.test).expect("accuracy")
    });
    let (accuracy_dense, accuracy_structured) = match encoder_backend {
        EncoderBackend::Dense => (accuracy_serial, accuracy_other),
        EncoderBackend::Structured => (accuracy_other, accuracy_serial),
    };
    // Directional gap: positive means the structured encoder is *worse*
    // than dense.  Both encoders draw different random features, so on a
    // small test split either can land a point ahead by luck; only the
    // structured encoder losing accuracy is a regression.
    let accuracy_gap = accuracy_dense - accuracy_structured;
    let within_one_point = accuracy_gap <= 0.01;
    // The gate tolerance widens to the test split's resolution when the
    // split is tiny (a couple of samples at DISTHD_SCALE=0.02 are already
    // > 1 point); at the committed scale (260+ test samples) it is the
    // literal one-point bar.
    let accuracy_tolerance = (2.5 / test_n as f64).max(0.01);
    let accuracy_regression = accuracy_gap > accuracy_tolerance;

    // -- prediction: per-sample encode+matvec loop vs batched pipeline.
    let (ref_secs, _) = time_best(|| {
        (0..test_n)
            .map(|i| model_serial.predict_one(data.test.sample(i)).expect("pred"))
            .collect::<Vec<usize>>()
    });
    let (serial_secs, predictions_serial) = parallel::with_thread_count(1, || {
        time_best(|| model_serial.predict(&data.test).expect("predict"))
    });
    let (par_secs, predictions_parallel) = parallel::with_thread_count(parallel_threads, || {
        time_best(|| model_parallel.predict(&data.test).expect("predict"))
    });
    bit_identical &= predictions_serial == predictions_parallel;
    let predict = Phase {
        name: "predict",
        reference_sps: Some(sps(test_n, ref_secs)),
        serial_sps: sps(test_n, serial_secs),
        parallel_sps: sps(test_n, par_secs),
    };

    // -- fused integer encode: the bit-sliced encode-with-quantize
    //    epilogue against the f32 round-trip (encode → center → quantize)
    //    it replaces, on the `DISTHD_ENCODER`-selected backend.
    //    `DISTHD_WIDTH` (1|2|4|8) narrows the sweep to one storage width
    //    so CI can pin a width per job.  Parity is exact: both legs must
    //    produce identical packed words and row scales at every width.
    let int_widths: Vec<BitWidth> = match std::env::var("DISTHD_WIDTH") {
        Ok(v) => {
            let bits: usize = v.trim().parse().expect("DISTHD_WIDTH: 1|2|4|8");
            vec![BitWidth::from_bits(bits).expect("DISTHD_WIDTH: 1|2|4|8")]
        }
        Err(_) => BitWidth::all().to_vec(),
    };
    let any_encoder = match encoder_backend {
        EncoderBackend::Dense => AnyRbfEncoder::Dense(encoder.clone()),
        EncoderBackend::Structured => AnyRbfEncoder::Structured(structured_encoder.clone()),
    };
    // Centering vector representative of the deployed
    // encode → center → quantize pipeline: the per-dimension mean of the
    // encoded training batch.
    let center: Vec<f32> = {
        let mut sums = vec![0.0f64; DIM];
        for r in 0..encoded_serial.rows() {
            for (s, &v) in sums.iter_mut().zip(encoded_serial.row(r)) {
                *s += f64::from(v);
            }
        }
        sums.iter()
            .map(|s| (*s / train_n.max(1) as f64) as f32)
            .collect()
    };
    struct IntEncodeResult {
        bits: usize,
        int_sps: f64,
        f32_sps: f64,
        speedup: f64,
        parity: bool,
    }
    let int_encode_results: Vec<IntEncodeResult> =
        parallel::with_thread_count(parallel_threads, || {
            int_widths
                .iter()
                .map(|&width| {
                    let (int_secs, fused) = time_best(|| {
                        any_encoder
                            .encode_batch_quantized(data.train.features(), Some(&center), width)
                            .expect("fused quantized encode")
                    });
                    let (f32_secs, round_trip) = time_best(|| {
                        let mut m = any_encoder
                            .encode_batch(data.train.features())
                            .expect("f32 encode");
                        for r in 0..m.rows() {
                            for (v, c) in m.row_mut(r).iter_mut().zip(&center) {
                                *v -= *c;
                            }
                        }
                        QuantizedMatrix::quantize(&m, width)
                    });
                    let parity = fused.as_words() == round_trip.as_words()
                        && fused.scales() == round_trip.scales();
                    IntEncodeResult {
                        bits: width.bits(),
                        int_sps: sps(train_n, int_secs),
                        f32_sps: sps(train_n, f32_secs),
                        speedup: f32_secs / int_secs.max(1e-12),
                        parity,
                    }
                })
                .collect()
        });
    // Same slack convention as the serve bench's int-encode gate: a few
    // percent absorbs timer noise; a genuine fused-path loss lands far
    // below it.  Parity has no noise to absorb and gates exactly.
    let int_encode_regression = int_encode_results
        .iter()
        .any(|r| !r.parity || r.speedup < 0.95);
    let speedup_int_encode_over_f32 = int_encode_results
        .iter()
        .find(|r| r.bits == 1)
        .map(|r| r.speedup);

    println!(
        "{:<8} {:>12} {:>12} {:>12}   {:>7} {:>9}",
        "phase", "ref sps", "serial sps", "par sps", "blk/ref", "par/serial"
    );
    for phase in [&encode, &encode_structured, &top2, &train, &predict] {
        phase.print();
    }
    println!(
        "\n{:<8} {:>12} {:>12} {:>10} {:>8}",
        "width", "int sps", "f32 sps", "speedup", "parity"
    );
    for r in &int_encode_results {
        println!(
            "{:<8} {:>12.1} {:>12.1} {:>9.2}x {:>8}",
            r.bits, r.int_sps, r.f32_sps, r.speedup, r.parity
        );
    }
    // The pool-backed regression signal: with every requested worker on
    // its own core, a parallel phase at or below serial throughput means
    // the dispatch machinery is eating the win — exactly the failure mode
    // the persistent pool (and the narrow-GEMM serial gating) exists to
    // prevent.  Under oversubscription (workers > cores, including the
    // 1-core case) the comparison is vacuous — parallel can at best tie
    // serial — so the gates only arm when `machine_cores >=
    // parallel_threads`; when one fires, the process exits non-zero.  The
    // gate covers **encode and train**: train is where PR 4 recorded a
    // 0.79x parallel loss from per-epoch GEMMs too small to fan out.
    let encode_speedup = encode.speedup_parallel();
    let train_speedup = train.speedup_parallel();
    // `parallel_comparison_meaningful` is the same predicate the gates arm
    // on, recorded in the artifact so a green-looking
    // `*_speedup_parallel_over_serial` emitted from a single-core (or
    // oversubscribed) run cannot be mistaken for a measured win — on such
    // machines the number measures the scheduler, not the code.
    let parallel_comparison_meaningful = machine_cores >= parallel_threads && parallel_threads > 1;
    let parallel_regression =
        parallel_comparison_meaningful && (encode_speedup < 1.0 || train_speedup < 1.0);
    // The tentpole gates: structured encode must stay ≥ 6× dense serial
    // encode at D = 4096 (armed on multi-core machines only — single-core
    // containers run every phase on one thread where the factor is still
    // measured and recorded, but timing variance is higher), and the
    // structured backend's accuracy must stay within the fidelity bar on
    // *every* machine — accuracy is deterministic, so that check has no
    // noise to absorb.
    let structured_regression =
        (machine_cores > 1 && structured_speedup < 6.0) || accuracy_regression;

    // -- fht_phases micro-bench: serial transform throughput and the
    //    pruned-vs-full ratio under synthetic eviction, plus the bitwise
    //    gate proving the skip paths touch no live lane.
    let fht_batch = |n: usize| (1 << 22) / n; // ~4M lanes per rep
    let dense_fht = FhtOpts::dense(FhtSchedule::Ascending);
    let [fht_sps_1024, fht_sps_4096] =
        [1024usize, 4096].map(|n| fht_sps(n, fht_batch(n), &dense_fht));
    let pruned_ratio: Vec<(u32, f64)> = [0u32, 10, 25]
        .into_iter()
        .map(|pct| {
            let n = 4096;
            let plan = FhtPrunePlan::from_live(n, synthetic_live(pct));
            let full = fht_sps(n, fht_batch(n), &dense_fht);
            let pruned = fht_sps(
                n,
                fht_batch(n),
                &FhtOpts {
                    prune: Some(&plan),
                    ..dense_fht
                },
            );
            (pct, pruned / full.max(1e-12))
        })
        .collect();
    let fht_bitwise_ok = fht_bitwise_live_lanes_ok();

    println!("\naccuracy serial   = {accuracy_serial:.6}");
    println!("accuracy parallel = {accuracy_parallel:.6}");
    println!(
        "accuracy dense = {accuracy_dense:.6}, structured = {accuracy_structured:.6} \
         (gap {accuracy_gap:.4}, within one point: {within_one_point})"
    );
    println!("top2 taxonomy batch == per-sample: {taxonomy_agrees}");
    println!("parallel bit-identical to serial:  {bit_identical}");
    println!(
        "machine cores = {machine_cores}, encode parallel/serial = {encode_speedup:.3}x, \
         train parallel/serial = {train_speedup:.3}x \
         (comparison meaningful: {parallel_comparison_meaningful})"
    );
    println!("structured encode vs dense serial  = {structured_speedup:.3}x");
    println!("fht d=1024: {fht_sps_1024:.0} sps; d=4096: {fht_sps_4096:.0} sps");
    for (pct, ratio) in &pruned_ratio {
        println!("fht pruned/full at {pct}% eviction (d=4096) = {ratio:.3}x");
    }
    println!("fht skip paths bitwise-equal on live lanes: {fht_bitwise_ok}");

    let pruned_ratio_json = pruned_ratio
        .iter()
        .map(|(pct, ratio)| format!("\"evict_{pct}pct\": {ratio:.3}"))
        .collect::<Vec<_>>()
        .join(", ");
    let synth_f_json = synth_f
        .map(|f| f.to_string())
        .unwrap_or_else(|| "null".into());
    let int_encode_json: Vec<String> = int_encode_results
        .iter()
        .map(|r| {
            format!(
                "{{ \"width_bits\": {}, \"int_sps\": {:.2}, \"f32_sps\": {:.2}, \
                 \"speedup_int_encode_over_f32\": {:.3}, \"parity\": {} }}",
                r.bits, r.int_sps, r.f32_sps, r.speedup, r.parity
            )
        })
        .collect();
    let headline_int_speedup = speedup_int_encode_over_f32
        .map(|s| format!("{s:.3}"))
        .unwrap_or_else(|| "null".into());
    let json = format!(
        "{{\n  \"bench\": \"throughput\",\n  \"dataset\": \"{}\",\n  \"dim\": {DIM},\n  \
         \"scale\": {scale},\n  \"train_samples\": {train_n},\n  \"test_samples\": {test_n},\n  \
         \"train_epochs\": {TRAIN_EPOCHS},\n  \"encoder_backend\": \"{encoder_backend}\",\n  \
         \"feature_dim\": {},\n  \
         \"synth_f\": {synth_f_json},\n  \
         \"threads_parallel\": {parallel_threads},\n  \
         \"machine_cores\": {machine_cores},\n  \
         \"phases\": {{\n    \"encode\": {},\n    \"encode_structured\": {},\n    \
         \"top2\": {},\n    \"train\": {},\n    \
         \"predict\": {}\n  }},\n  \
         \"fht_phases\": {{\n    \
         \"d1024\": {{ \"ascending_sps\": {fht_sps_1024:.2} }},\n    \
         \"d4096\": {{ \"ascending_sps\": {fht_sps_4096:.2} }},\n    \
         \"pruned_over_full_d4096\": {{ {pruned_ratio_json} }},\n    \
         \"bitwise_live_lanes_ok\": {fht_bitwise_ok}\n  }},\n  \
         \"int_encode\": [\n    {}\n  ],\n  \
         \"speedup_int_encode_over_f32\": {headline_int_speedup},\n  \
         \"int_encode_regression\": {int_encode_regression},\n  \
         \"accuracy\": {{ \"serial\": {accuracy_serial:.6}, \
         \"parallel\": {accuracy_parallel:.6} }},\n  \
         \"structured_vs_dense\": {{ \"accuracy_dense\": {accuracy_dense:.6}, \
         \"accuracy_structured\": {accuracy_structured:.6}, \
         \"accuracy_gap\": {accuracy_gap:.6}, \"within_one_point\": {within_one_point}, \
         \"accuracy_gate_tolerance\": {accuracy_tolerance:.6}, \
         \"encode_speedup_structured_over_dense_serial\": {structured_speedup:.3}, \
         \"structured_regression\": {structured_regression} }},\n  \
         \"top2_taxonomy_agrees\": {taxonomy_agrees},\n  \
         \"encode_speedup_parallel_over_serial\": {encode_speedup:.3},\n  \
         \"train_speedup_parallel_over_serial\": {train_speedup:.3},\n  \
         \"parallel_comparison_meaningful\": {parallel_comparison_meaningful},\n  \
         \"parallel_regression\": {parallel_regression},\n  \
         \"parallel_bit_identical_to_serial\": {bit_identical}\n}}\n",
        dataset.name(),
        data.train.feature_dim(),
        encode.json(),
        encode_structured.json(),
        top2.json(),
        train.json(),
        predict.json(),
        int_encode_json.join(",\n    ")
    );
    let out_path =
        std::env::var("DISTHD_BENCH_OUT").unwrap_or_else(|_| "BENCH_throughput.json".into());
    std::fs::write(&out_path, json).expect("write benchmark json");
    println!("wrote {out_path}");

    if !bit_identical {
        eprintln!("ERROR: parallel results diverged from serial — determinism contract violated");
        std::process::exit(1);
    }
    if parallel_regression {
        eprintln!(
            "ERROR: a parallel phase is slower than serial (encode {encode_speedup:.3}x, \
             train {train_speedup:.3}x) on a {machine_cores}-core machine — parallel regression"
        );
        std::process::exit(1);
    }
    if structured_regression {
        eprintln!(
            "ERROR: structured-encoder regression — encode {structured_speedup:.3}x dense \
             serial (gate on multi-core: >= 6x), accuracy gap {accuracy_gap:.4} \
             (gate: <= {accuracy_tolerance:.4})"
        );
        std::process::exit(1);
    }
    if int_encode_regression {
        eprintln!(
            "ERROR: the fused integer encode diverged from the f32 round-trip or ran below \
             0.95x its throughput at some width — int-encode regression"
        );
        std::process::exit(1);
    }
    if !fht_bitwise_ok {
        eprintln!(
            "ERROR: a zero-aware or pruned FHT path changed a live lane's bits relative to \
             the full ascending transform — skip-path soundness violated"
        );
        std::process::exit(1);
    }
}
