//! # disthd-serve
//!
//! Streaming inference and online-learning serving layer for the DistHD
//! reproduction — the request path between a persisted `DHD` model
//! artifact (checksummed `DHD4` container, see `disthd::io`) and live
//! classification traffic.
//!
//! * [`ServeEngine`] — a synchronous **request-batching engine**: single
//!   queries accumulate in a queue and are answered together through one
//!   batched encode GEMM + one integer-similarity pass that reads the
//!   quantized class words directly (the deployment keeps **no** `f32`
//!   class snapshot — see `disthd::DeployedModel`), all on the
//!   deterministic compute backend.  Predictions are bit-identical at
//!   every batch window; only throughput changes.
//! * [`BatchPolicy`] — the latency-vs-throughput knob (batch window +
//!   patience bound).
//! * [`TaskKind`] / [`TaskResponse`] — serving **task types** on the same
//!   batched path: plain classification, top-k multi-label ranking, and
//!   one-class anomaly scoring against a calibrated similarity threshold
//!   (see `disthd::ServingTasks`).  A mixed batch is scored once and each
//!   query's kind only post-processes its own row, so no answer ever
//!   depends on batch composition.
//! * [`Server`] / [`ServerClient`] — the live, **sharded** server: N
//!   worker threads (one per shard), each pulling batches from its own
//!   queue with work stealing, so qps scales with cores.  Admission
//!   control sheds requests when a queue is at capacity
//!   ([`ServerOptions::queue_capacity`]) or past their opt-in deadline
//!   ([`SubmitOptions::deadline`]), and [`RetryPolicy`] adds bounded,
//!   deterministically-jittered client retry on overload.  Workers run
//!   **supervised**: a scoring panic fails its batch's tickets with
//!   [`ServeError::WorkerFailed`] and the worker restarts (bounded, with
//!   backoff) instead of killing the server.  Pair with
//!   [`disthd::DistHd::partial_fit`] for online learning behind a live
//!   server.
//! * [`ChaosPlan`] — a seeded, deterministic fault-injection schedule
//!   (worker panics, slow-shard stalls) for drilling the supervision
//!   layer; [`Server::spawn_chaotic`] runs a server under it.
//! * [`PublishedModel`] — epoch-based snapshot publication: hot-swap and
//!   rollback **publish** a new immutable model generation that workers
//!   pick up at batch boundaries; writers never block readers, batches
//!   never tear, and a publication is visible by the next batch.
//! * [`SnapshotStore`] — bounded, versioned, checksummed `DHD` snapshots
//!   with restore/rollback; a bit-flipped blob fails closed and
//!   [`SnapshotStore::restore_or_rollback`] serves the last known good
//!   version instead.
//!
//! ## Serving quickstart
//!
//! ```
//! use disthd_serve::{BatchPolicy, ServeEngine, SnapshotStore};
//!
//! // In production the artifact comes off disk or the network; here we
//! // train a tiny one.
//! let deployment = disthd_serve::testkit::tiny_deployment();
//! let mut snapshots = SnapshotStore::new(8);
//! let v0 = snapshots.push(&deployment)?;
//!
//! // Batch window 32: up to 32 queries share each batched pass.
//! let mut engine = ServeEngine::new(deployment, BatchPolicy::window(32));
//! for query in disthd_serve::testkit::tiny_queries(100) {
//!     let _class = engine.predict_one(&query)?;
//! }
//! assert_eq!(engine.stats().served, 100);
//!
//! // Roll back to the snapshot if an online update misbehaves.
//! engine.install_model(snapshots.restore(v0)?)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The serving workload is measured by `cargo run --release -p
//! disthd_bench --bin serve_throughput` (queries/sec vs batch window;
//! results in `BENCH_serve.json`), and `examples/streaming_serving.rs`
//! walks the full serve → stream → hot-swap → rollback lifecycle.

#![deny(missing_docs)]

mod chaos;
mod engine;
mod publish;
mod server;
mod snapshot;

pub use chaos::ChaosPlan;
pub use engine::{
    AnomalyVerdict, BatchPolicy, EngineStats, ServeEngine, TaskKind, TaskResponse, Ticket,
};
pub use publish::{ModelReader, PublishedModel};
pub use server::{
    Prediction, RetryPolicy, ServeError, Server, ServerClient, ServerOptions, ServerStats,
    SubmitOptions,
};
pub use snapshot::{SnapshotError, SnapshotStore};

/// Tiny trained artifacts for doc-tests and examples.
///
/// Not part of the serving API — the helpers train a miniature model so
/// every example in this crate is runnable and fast.
pub mod testkit {
    use disthd::{DeployedModel, DistHd, DistHdConfig};
    use disthd_datasets::suite::{PaperDataset, SuiteConfig};
    use disthd_eval::Classifier;
    use disthd_hd::quantize::BitWidth;

    /// Trains a miniature Diabetes model and freezes it at 8 bits.
    pub fn tiny_deployment() -> DeployedModel {
        let data = PaperDataset::Diabetes
            .generate(&SuiteConfig::at_scale(0.001))
            .expect("synthetic dataset generation is infallible at this scale");
        let mut model = DistHd::new(
            DistHdConfig {
                dim: 128,
                epochs: 3,
                patience: None,
                ..Default::default()
            },
            data.train.feature_dim(),
            data.train.class_count(),
        );
        model.fit(&data.train, None).expect("tiny fit");
        DeployedModel::freeze(&model, BitWidth::B8).expect("freeze fitted model")
    }

    /// `n` query feature vectors matching [`tiny_deployment`]'s arity.
    pub fn tiny_queries(n: usize) -> Vec<Vec<f32>> {
        let data = PaperDataset::Diabetes
            .generate(&SuiteConfig::at_scale(0.001))
            .expect("synthetic dataset generation is infallible at this scale");
        (0..n)
            .map(|i| data.test.sample(i % data.test.len()).to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disthd_eval::ModelError;
    use disthd_hd::quantize::{BitWidth, QuantizedMatrix};
    use disthd_linalg::Matrix;

    fn queries_matrix(n: usize) -> Matrix {
        let queries = testkit::tiny_queries(n);
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        Matrix::from_row_slices(queries[0].len(), &refs).unwrap()
    }

    /// The tiny deployment with both serving tasks configured.
    fn tasked_deployment(top_k: usize, threshold: f32) -> disthd::DeployedModel {
        let mut deployment = testkit::tiny_deployment();
        deployment
            .set_tasks(disthd::ServingTasks {
                top_k: Some(top_k),
                anomaly_threshold: Some(threshold),
            })
            .unwrap();
        deployment
    }

    const KIND_CYCLE: [TaskKind; 3] = [TaskKind::Classify, TaskKind::TopK, TaskKind::Anomaly];

    #[test]
    fn task_responses_are_bit_identical_across_batch_windows() {
        // The headline serving invariant, extended to the new task types:
        // whatever window (and task mix) a query shares, its answer —
        // class, full ranking, or anomaly score — must not move by a bit,
        // on both scoring pipelines.
        let deployment = tasked_deployment(2, 0.5);
        let queries = testkit::tiny_queries(60);
        let serve = |window: usize, integer: bool| -> Vec<TaskResponse> {
            let mut engine = ServeEngine::new(deployment.clone(), BatchPolicy::window(window))
                .with_integer_pipeline(integer);
            let tickets: Vec<_> = queries
                .iter()
                .enumerate()
                .map(|(i, q)| engine.submit_task(q, KIND_CYCLE[i % 3]).unwrap())
                .collect();
            engine.flush().unwrap();
            tickets
                .into_iter()
                .map(|t| engine.try_take_response(t).unwrap())
                .collect()
        };
        for integer in [false, true] {
            let baseline = serve(1, integer);
            for window in [2usize, 8, 32, 128] {
                assert_eq!(
                    serve(window, integer),
                    baseline,
                    "window {window}, integer {integer}"
                );
            }
        }
    }

    #[test]
    fn mixed_batches_match_the_direct_model_apis() {
        // One coalesced flush of interleaved kinds must answer each query
        // exactly like the matching DeployedModel batch API, on both
        // scoring pipelines.
        let deployment = tasked_deployment(3, 0.4);
        let queries = queries_matrix(30);
        for integer in [false, true] {
            let (expected_classes, expected_ranks, expected_scores) = if integer {
                (
                    deployment.predict_quantized_batch(&queries).unwrap(),
                    deployment.top_k_quantized_batch(&queries, 3).unwrap(),
                    deployment.anomaly_scores_quantized(&queries).unwrap(),
                )
            } else {
                let scores = deployment
                    .scores(&queries, disthd::Precision::F32Query)
                    .unwrap();
                let rows = 0..scores.len();
                (
                    deployment.predict_batch(&queries).unwrap(),
                    rows.clone().map(|r| scores.top_k(r, 3).unwrap()).collect(),
                    rows.map(|r| scores.anomaly(r)).collect::<Vec<_>>(),
                )
            };
            let mut engine = ServeEngine::new(deployment.clone(), BatchPolicy::window(256))
                .with_integer_pipeline(integer);
            let mut tickets = Vec::new();
            for r in 0..queries.rows() {
                let kind = KIND_CYCLE[r % 3];
                tickets.push((r, kind, engine.submit_task(queries.row(r), kind).unwrap()));
            }
            engine.flush().unwrap();
            for (r, kind, ticket) in tickets {
                let at = format!("integer {integer}, row {r}");
                match (kind, engine.try_take_response(ticket).unwrap()) {
                    (TaskKind::Classify, TaskResponse::Class(class)) => {
                        assert_eq!(class, expected_classes[r], "{at}");
                    }
                    (TaskKind::TopK, TaskResponse::Ranked(ranks)) => {
                        assert_eq!(ranks, expected_ranks[r], "{at}");
                    }
                    (TaskKind::Anomaly, TaskResponse::Anomaly(verdict)) => {
                        let expected = expected_scores[r].to_bits();
                        assert_eq!(verdict.score.to_bits(), expected, "{at}");
                        assert_eq!(verdict.anomalous, verdict.score < 0.4, "{at}");
                    }
                    (kind, response) => panic!("{kind:?} answered with {response:?}"),
                }
            }
        }
    }

    #[test]
    fn classify_try_take_leaves_other_kinds_for_try_take_response() {
        let mut engine = ServeEngine::new(tasked_deployment(2, 0.0), BatchPolicy::window(8));
        let q = testkit::tiny_queries(1).remove(0);
        let ticket = engine.submit_task(&q, TaskKind::TopK).unwrap();
        engine.flush().unwrap();
        assert_eq!(
            engine.try_take(ticket),
            None,
            "classify redemption must not consume a ranking"
        );
        assert!(matches!(
            engine.try_take_response(ticket),
            Some(TaskResponse::Ranked(ranks)) if ranks.len() == 2
        ));
        // One-shot conveniences agree with the classify path.
        let ranks = engine.rank_one(&q).unwrap();
        assert_eq!(ranks.len(), 2);
        assert_eq!(ranks[0], engine.predict_one(&q).unwrap());
        let verdict = engine.score_anomaly_one(&q).unwrap();
        assert_eq!(verdict.anomalous, verdict.score < 0.0);
    }

    #[test]
    fn unconfigured_models_default_to_k1_and_never_flag() {
        let mut engine = ServeEngine::new(testkit::tiny_deployment(), BatchPolicy::window(2));
        let q = testkit::tiny_queries(1).remove(0);
        let ranks = engine.rank_one(&q).unwrap();
        assert_eq!(ranks, vec![engine.predict_one(&q).unwrap()]);
        assert!(!engine.score_anomaly_one(&q).unwrap().anomalous);
    }

    /// Every non-finite value a feature can hold.
    const NON_FINITE: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];

    /// Asserts `err` is the admission rejection naming feature `index`.
    fn assert_names_feature(err: &ModelError, index: usize, value: f32) {
        let ModelError::Incompatible(message) = err else {
            panic!("{value}: expected an admission rejection, got {err:?}");
        };
        let named = format!("feature {index} is {value}");
        assert!(
            message.contains(&named),
            "{message:?} should name {named:?}"
        );
    }

    #[test]
    fn non_finite_anomaly_scores_fail_closed() {
        // A NaN feature poisons every projection, so the query's best
        // cosine cannot be trusted.  Admission refuses it outright; below
        // admission, both pipelines still score it non-finite — which the
        // verdict always flags — rather than certify it as an inlier, with
        // or without a threshold.
        let mut q = testkit::tiny_queries(1).remove(0);
        q[0] = f32::NAN;
        let solo = Matrix::from_row_slices(q.len(), &[&q]).unwrap();
        for deployment in [tasked_deployment(2, 0.5), testkit::tiny_deployment()] {
            for integer in [false, true] {
                let mut engine = ServeEngine::new(deployment.clone(), BatchPolicy::window(4))
                    .with_integer_pipeline(integer);
                let err = engine.score_anomaly_one(&q).unwrap_err();
                assert_names_feature(&err, 0, f32::NAN);
            }
            let f32_score = deployment
                .scores(&solo, disthd::Precision::F32Query)
                .unwrap()
                .anomaly(0);
            let int_score = deployment.anomaly_scores_quantized(&solo).unwrap()[0];
            assert!(!f32_score.is_finite(), "f32 pipeline scored {f32_score}");
            assert!(
                !int_score.is_finite(),
                "integer pipeline scored {int_score}"
            );
        }
    }

    #[test]
    fn non_finite_features_are_rejected_at_admission() {
        // A NaN or infinite feature is refused with an error naming it
        // before it joins a batch; the batchmate queued beside it still
        // gets its serial answer, on both scoring pipelines.
        let deployment = testkit::tiny_deployment();
        let queries = testkit::tiny_queries(2);
        for integer in [false, true] {
            let serial = ServeEngine::new(deployment.clone(), BatchPolicy::window(1))
                .with_integer_pipeline(integer)
                .predict_one(&queries[0])
                .unwrap();
            for bad in NON_FINITE {
                let mut engine = ServeEngine::new(deployment.clone(), BatchPolicy::window(4))
                    .with_integer_pipeline(integer);
                let mate = engine.submit(&queries[0]).unwrap();
                let mut poisoned = queries[1].clone();
                poisoned[3] = bad;
                assert_names_feature(&engine.submit(&poisoned).unwrap_err(), 3, bad);
                assert_eq!(engine.pending_len(), 1, "a rejected query must not queue");
                engine.flush().unwrap();
                assert_eq!(
                    engine.try_take(mate),
                    Some(serial),
                    "integer {integer}, {bad}"
                );
            }
        }
    }

    #[test]
    fn server_rejects_non_finite_features_at_admission() {
        let deployment = testkit::tiny_deployment();
        let queries = testkit::tiny_queries(2);
        for integer in [false, true] {
            let serial = ServeEngine::new(deployment.clone(), BatchPolicy::window(1))
                .with_integer_pipeline(integer)
                .predict_one(&queries[0])
                .unwrap();
            let options = ServerOptions {
                shards: 1,
                integer_pipeline: integer,
                ..ServerOptions::default()
            };
            let server = Server::spawn_with(deployment.clone(), BatchPolicy::window(8), options);
            let client = server.client();
            for bad in NON_FINITE {
                let mate = client.submit(&queries[0]).unwrap();
                let mut poisoned = queries[1].clone();
                poisoned[3] = bad;
                match client.submit(&poisoned) {
                    Err(ServeError::Model(err)) => assert_names_feature(&err, 3, bad),
                    other => panic!("{bad}: expected a model error, got {other:?}"),
                }
                assert_eq!(mate.wait().unwrap(), serial, "integer {integer}, {bad}");
            }
            assert_eq!(server.shutdown().unwrap().served, 3);
        }
    }

    #[test]
    fn persisted_task_configuration_serves_after_load() {
        // A DHD3 artifact carries its task section into a fresh engine:
        // the loaded k and threshold drive serving without reconfiguration.
        let deployment = tasked_deployment(2, 0.9);
        let mut bytes = Vec::new();
        disthd::io::save_deployed(&deployment, &mut bytes).unwrap();
        let mut engine = ServeEngine::load(bytes.as_slice(), BatchPolicy::window(4)).unwrap();
        assert_eq!(engine.model().tasks().top_k, Some(2));
        let q = testkit::tiny_queries(1).remove(0);
        assert_eq!(engine.rank_one(&q).unwrap().len(), 2);
        let solo = Matrix::from_row_slices(q.len(), &[&q]).unwrap();
        let direct = deployment
            .scores(&solo, disthd::Precision::F32Query)
            .unwrap()
            .anomaly(0);
        let verdict = engine.score_anomaly_one(&q).unwrap();
        assert_eq!(verdict.score.to_bits(), direct.to_bits());
        assert_eq!(verdict.anomalous, direct < 0.9);
    }

    #[test]
    fn batched_predictions_are_bit_identical_across_windows() {
        let deployment = testkit::tiny_deployment();
        let queries = queries_matrix(97);
        let baseline = ServeEngine::new(deployment.clone(), BatchPolicy::window(1))
            .serve_all(&queries)
            .unwrap();
        for window in [2usize, 8, 32, 128] {
            let served = ServeEngine::new(deployment.clone(), BatchPolicy::window(window))
                .serve_all(&queries)
                .unwrap();
            assert_eq!(baseline, served, "window {window}");
        }
    }

    #[test]
    fn submit_auto_flushes_at_the_window() {
        let mut engine = ServeEngine::new(testkit::tiny_deployment(), BatchPolicy::window(3));
        let queries = testkit::tiny_queries(3);
        let t0 = engine.submit(&queries[0]).unwrap();
        assert_eq!(engine.pending_len(), 1);
        assert_eq!(engine.try_take(t0), None, "not flushed yet");
        engine.submit(&queries[1]).unwrap();
        engine.submit(&queries[2]).unwrap();
        assert_eq!(engine.pending_len(), 0, "window filled, auto-flush");
        assert!(engine.try_take(t0).is_some());
        assert_eq!(engine.try_take(t0), None, "tickets redeem once");
        assert_eq!(engine.stats().flushes, 1);
    }

    #[test]
    fn malformed_query_is_rejected_without_poisoning_the_queue() {
        let mut engine = ServeEngine::new(testkit::tiny_deployment(), BatchPolicy::window(4));
        let good = testkit::tiny_queries(1).remove(0);
        let t = engine.submit(&good).unwrap();
        assert!(engine.submit(&[1.0, 2.0]).is_err());
        engine.flush().unwrap();
        assert!(engine.try_take(t).is_some());
    }

    #[test]
    fn engine_round_trips_through_dhd1() {
        let deployment = testkit::tiny_deployment();
        let mut bytes = Vec::new();
        disthd::io::save_deployed(&deployment, &mut bytes).unwrap();
        let mut loaded = ServeEngine::load(bytes.as_slice(), BatchPolicy::window(16)).unwrap();
        let mut direct = ServeEngine::new(deployment, BatchPolicy::window(16));
        let queries = queries_matrix(20);
        assert_eq!(
            loaded.serve_all(&queries).unwrap(),
            direct.serve_all(&queries).unwrap()
        );
    }

    #[test]
    fn hot_swap_answers_queued_queries_with_the_old_memory() {
        let deployment = testkit::tiny_deployment();
        let k = deployment.class_count();
        let dim = deployment.memory_parts().shape().1;
        let mut engine = ServeEngine::new(deployment, BatchPolicy::window(64));
        let queries = testkit::tiny_queries(5);
        let tickets: Vec<_> = queries.iter().map(|q| engine.submit(q).unwrap()).collect();
        let old_served: Vec<usize> = {
            let mut reference =
                ServeEngine::new(testkit::tiny_deployment(), BatchPolicy::window(1));
            queries
                .iter()
                .map(|q| reference.predict_one(q).unwrap())
                .collect()
        };
        // Degenerate memory that maps everything to one class.
        let constant = QuantizedMatrix::quantize(&Matrix::filled(k, dim, 1.0), BitWidth::B8);
        engine.swap_class_memory(constant).unwrap();
        for (t, expected) in tickets.iter().zip(&old_served) {
            assert_eq!(engine.try_take(*t), Some(*expected));
        }
        // New queries see the swapped (constant) memory: every class row is
        // identical, so argmax resolves to class 0.
        assert_eq!(engine.predict_one(&queries[0]).unwrap(), 0);
    }

    #[test]
    fn install_model_rejects_arity_mismatch() {
        let mut engine = ServeEngine::new(testkit::tiny_deployment(), BatchPolicy::default());
        let data = disthd_datasets::suite::PaperDataset::Pamap2
            .generate(&disthd_datasets::suite::SuiteConfig::at_scale(0.001))
            .unwrap();
        let mut other = disthd::DistHd::new(
            disthd::DistHdConfig {
                dim: 128,
                epochs: 2,
                patience: None,
                ..Default::default()
            },
            data.train.feature_dim(),
            data.train.class_count(),
        );
        disthd_eval::Classifier::fit(&mut other, &data.train, None).unwrap();
        let other = disthd::DeployedModel::freeze(&other, BitWidth::B8).unwrap();
        assert!(engine.install_model(other).is_err());
    }

    #[test]
    fn server_serves_concurrent_clients_and_shuts_down_cleanly() {
        let server = Server::spawn(testkit::tiny_deployment(), BatchPolicy::window(8));
        let queries = testkit::tiny_queries(24);
        let mut expected = ServeEngine::new(testkit::tiny_deployment(), BatchPolicy::window(1));
        let answers: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = queries
                .iter()
                .map(|q| {
                    let client = server.client();
                    s.spawn(move || client.predict(q).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (q, a) in queries.iter().zip(&answers) {
            assert_eq!(expected.predict_one(q).unwrap(), *a);
        }
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.served, 24);
        // Clients created before shutdown observe the disconnect.
    }

    #[test]
    fn dead_server_reports_disconnected() {
        let server = Server::spawn(testkit::tiny_deployment(), BatchPolicy::default());
        let client = server.client();
        server.shutdown().unwrap();
        let q = testkit::tiny_queries(1).remove(0);
        assert!(matches!(client.predict(&q), Err(ServeError::Disconnected)));
    }

    #[test]
    fn snapshot_store_evicts_oldest_and_restores_exact_bytes() {
        let deployment = testkit::tiny_deployment();
        let mut store = SnapshotStore::new(2);
        let v0 = store.push(&deployment).unwrap();
        let v1 = store.push(&deployment).unwrap();
        let v2 = store.push(&deployment).unwrap();
        assert_eq!(store.versions(), vec![v1, v2]);
        assert!(matches!(
            store.restore(v0),
            Err(SnapshotError::UnknownVersion(0))
        ));
        let restored = store.restore(v2).unwrap();
        assert_eq!(restored.class_count(), deployment.class_count());
        assert!(store.bytes(v2).is_some());
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
    }

    #[test]
    fn rollback_through_server_restores_old_behaviour() {
        let deployment = testkit::tiny_deployment();
        let k = deployment.class_count();
        let dim = deployment.memory_parts().shape().1;
        let mut store = SnapshotStore::new(4);
        let v0 = store.push(&deployment).unwrap();

        let server = Server::spawn(deployment, BatchPolicy::window(4));
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let before = client.predict(&q).unwrap();

        // Bad update: constant memory collapses every answer to class 0.
        let constant = QuantizedMatrix::quantize(&Matrix::filled(k, dim, 1.0), BitWidth::B8);
        client.swap_class_memory(constant).unwrap();
        assert_eq!(client.predict(&q).unwrap(), 0);

        // Roll back to the snapshot.
        client.install_model(store.restore(v0).unwrap()).unwrap();
        assert_eq!(client.predict(&q).unwrap(), before);
        server.shutdown().unwrap();
    }

    #[test]
    fn corrupt_snapshot_fails_closed_with_a_named_checksum_error() {
        let deployment = testkit::tiny_deployment();
        let mut store = SnapshotStore::new(4);
        let v0 = store.push(&deployment).unwrap();
        // Flip one bit deep inside the class-memory payload: the blob still
        // parses structurally, so only the checksum can catch it.
        let blob_bits = store.bytes(v0).unwrap().len() * 8;
        assert!(store.flip_stored_bit(v0, blob_bits / 2));
        match store.restore(v0) {
            Err(SnapshotError::Persist(e)) => {
                assert!(
                    e.to_string().contains("checksum mismatch"),
                    "corruption must be named: {e}"
                );
            }
            other => panic!("corrupt blob must fail closed, got {other:?}"),
        }
        // Out-of-range flips and unknown versions are reported, not panics.
        assert!(!store.flip_stored_bit(v0, blob_bits));
        assert!(!store.flip_stored_bit(99, 0));
    }

    #[test]
    fn restore_or_rollback_serves_the_last_known_good_version() {
        let deployment = testkit::tiny_deployment();
        let mut store = SnapshotStore::new(4);
        let v0 = store.push(&deployment).unwrap();
        let v1 = store.push(&deployment).unwrap();
        let v2 = store.push(&deployment).unwrap();
        store.flip_stored_bit(v2, 1000);
        store.flip_stored_bit(v1, 1000);
        // v2 is corrupt; the rollback walks back past the also-corrupt v1
        // to v0.
        let (version, model) = store.restore_or_rollback(v2).unwrap();
        assert_eq!(version, v0);
        assert_eq!(model.class_count(), deployment.class_count());
        let (latest_good, _) = store.restore_latest_good().unwrap();
        assert_eq!(latest_good, v0);
        // A version that never existed is a caller bug, not corruption: no
        // fallback.
        assert!(matches!(
            store.restore_or_rollback(99),
            Err(SnapshotError::UnknownVersion(99))
        ));
        // Intact requests pass through unchanged.
        assert_eq!(store.restore_or_rollback(v0).unwrap().0, v0);
    }

    #[test]
    fn no_intact_snapshot_is_a_named_error() {
        let deployment = testkit::tiny_deployment();
        let mut store = SnapshotStore::new(2);
        let v0 = store.push(&deployment).unwrap();
        let v1 = store.push(&deployment).unwrap();
        store.flip_stored_bit(v0, 500);
        store.flip_stored_bit(v1, 500);
        assert!(matches!(
            store.restore_or_rollback(v1),
            Err(SnapshotError::NoIntactSnapshot)
        ));
        assert!(matches!(
            store.restore_latest_good(),
            Err(SnapshotError::NoIntactSnapshot)
        ));
        assert!(matches!(
            SnapshotStore::new(1).restore_latest_good(),
            Err(SnapshotError::NoIntactSnapshot)
        ));
    }
}
