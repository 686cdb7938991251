//! Micro-batched learned-cost inference.
//!
//! `cost/predict` requests from all connections funnel into one bounded
//! queue. A single collector thread blocks until a request is queued, takes
//! everything waiting at that moment (up to `max_batch`) and runs one
//! forward pass of the frozen evaluator plan over the combined
//! `[batch, arch_width]` matrix. Requests that arrive during that pass form
//! the next batch, so no request waits on a timer for batch partners.
//!
//! Responses must stay **bit-identical regardless of batch composition**
//! (the response cache replays them): the evaluator is frozen (batch norms
//! use running statistics), the head read-out uses deterministic softmax
//! sampling, and every per-row computation depends only on that row. A
//! stochastic evaluator cannot freeze, so [`PredictBatcher::start`] refuses
//! it.

use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use dance_accel::space::HardwareSpace;
use dance_evaluator::evaluator::Evaluator;
use dance_evaluator::hwgen_net::HEAD_WIDTHS;
use dance_plan::{Executor, FreezeError};
use dance_telemetry::json::push_num;

use crate::proto::ProtoError;
use crate::queue::Bounded;

/// One queued prediction: the encoding row and the channel the rendered
/// response payload is delivered on.
#[derive(Debug)]
pub struct PredictJob {
    /// Architecture encoding (validated to `arch_width` before enqueue).
    pub arch: Vec<f32>,
    /// Delivery channel for the rendered payload fragment.
    pub tx: mpsc::Sender<Result<String, ProtoError>>,
}

/// Collector configuration.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Largest micro-batch taken per forward pass.
    pub max_batch: usize,
    /// Queue capacity; pushes beyond it are shed with `503`.
    pub queue_capacity: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            queue_capacity: 1024,
        }
    }
}

/// Handle to the collector thread; shared by all connection threads.
#[derive(Debug)]
pub struct PredictBatcher {
    queue: Arc<Bounded<PredictJob>>,
    arch_width: usize,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl PredictBatcher {
    /// Freezes `evaluator` into a static `dance-plan` and starts the
    /// collector thread, which serves every micro-batch through the plan's
    /// allocation-free executor. Only the executor moves to the collector:
    /// the autograd graph is `Rc`-based and stays on the calling thread.
    ///
    /// # Errors
    ///
    /// The evaluator cannot be frozen, e.g. its heads use Gumbel sampling,
    /// whose noise is drawn per batch, so a row's answer would depend on
    /// its batch peers.
    pub fn start(evaluator: &Evaluator, cfg: BatchConfig) -> Result<Self, FreezeError> {
        let arch_width = evaluator.arch_width();
        let exec = Executor::new(evaluator.freeze_plan(cfg.max_batch)?);
        let queue = Arc::new(Bounded::new(cfg.queue_capacity));
        let worker_queue = queue.clone();
        let handle = dance_backend::spawn_service("serve-predict", move || {
            collector_loop(exec, &worker_queue, cfg.max_batch, arch_width);
        })
        .expect("spawn predict collector thread");
        Ok(Self {
            queue,
            arch_width,
            handle: Mutex::new(Some(handle)),
        })
    }

    /// Encoding width requests must match (`NUM_SLOTS × NUM_CHOICES`).
    pub fn arch_width(&self) -> usize {
        self.arch_width
    }

    /// Current queue depth (for `health` and gauges).
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a prediction and returns the channel its payload will
    /// arrive on.
    ///
    /// # Errors
    ///
    /// `400` on a wrong-width encoding; `503` when the queue is full or the
    /// server is draining.
    pub fn submit(
        &self,
        arch: Vec<f32>,
    ) -> Result<mpsc::Receiver<Result<String, ProtoError>>, ProtoError> {
        if arch.len() != self.arch_width {
            return Err(ProtoError::bad_request(format!(
                "`arch` must have {} entries, got {}",
                self.arch_width,
                arch.len()
            )));
        }
        let (tx, rx) = mpsc::channel();
        self.queue.try_push(PredictJob { arch, tx }).map_err(|_| {
            dance_telemetry::counter!("serve.shed.predict_queue");
            ProtoError::overloaded("predict queue full")
        })?;
        Ok(rx)
    }

    /// Drains the queue and stops the collector. Queued jobs are still
    /// answered; only then does the thread exit.
    pub fn shutdown(&self) {
        self.queue.close();
        let handle = self
            .handle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(h) = handle {
            if h.join().is_err() {
                eprintln!("warning: predict collector thread panicked");
            }
        }
    }
}

fn collector_loop(mut exec: Executor, queue: &Bounded<PredictJob>, max_batch: usize, width: usize) {
    let space = HardwareSpace::new();
    while let Some(jobs) = queue.pop_batch(max_batch) {
        run_batch(&mut exec, &space, &jobs, width);
    }
}

/// Renders one row's response fragment.
fn render_row(metrics_row: &[f32], cfg_index: usize) -> String {
    let mut payload = String::with_capacity(64);
    payload.push_str("\"metrics\":[");
    for (m, &v) in metrics_row.iter().enumerate() {
        if m > 0 {
            payload.push(',');
        }
        push_num(&mut payload, f64::from(v));
    }
    payload.push_str("],\"cfg\":");
    push_num(&mut payload, cfg_index as f64);
    payload
}

/// Row-wise argmax with `Tensor::argmax_rows` semantics (ties keep the
/// *last* maximum), so the plan decodes the same head index the tape's
/// `predict_configs` would.
fn argmax_last_max(row: &[f32]) -> usize {
    let mut best = 0;
    for j in 1..row.len() {
        if row[j]
            .partial_cmp(&row[best])
            .unwrap_or(std::cmp::Ordering::Equal)
            != std::cmp::Ordering::Less
        {
            best = j;
        }
    }
    best
}

// analyze:hot
/// One forward pass over the micro-batch: restage rows into the executor's
/// input arena, one `run`, then decode metrics and head argmaxes straight
/// from the output buffers, and send every job its row's rendered payload.
/// No tape, no tensor allocation.
fn run_batch(exec: &mut Executor, space: &HardwareSpace, jobs: &[PredictJob], width: usize) {
    let _span = dance_telemetry::hot_span!("serve.predict_batch");
    dance_telemetry::histogram!("serve.predict.batch_size", jobs.len() as f64);
    let b = jobs.len();
    {
        let input = exec.input_mut(b);
        for (i, job) in jobs.iter().enumerate() {
            input[i * width..(i + 1) * width].copy_from_slice(&job.arch);
        }
    }
    exec.run(b);
    for (i, job) in jobs.iter().enumerate() {
        let metrics = &exec.output(0, b)[i * 3..(i + 1) * 3];
        let mut heads = [0usize; 4];
        for (h, &w) in HEAD_WIDTHS.iter().enumerate() {
            let logits = &exec.output(1 + h, b)[i * w..(i + 1) * w];
            heads[h] = argmax_last_max(logits);
        }
        let config = space.from_head_indices(heads[0], heads[1], heads[2], heads[3]);
        let payload = render_row(metrics, space.index_of(&config));
        // A send error only means the client hung up before its answer.
        let _ = job.tx.send(Ok(payload));
    }
}
// analyze:hot-end

#[cfg(test)]
mod tests {
    use super::*;
    use dance::autograd::tensor::Tensor;
    use dance::autograd::var::Var;
    use dance_evaluator::cost_net::CostNet;
    use dance_evaluator::hwgen_net::{HeadSampling, HwGenNet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn evaluator_with(sampling: HeadSampling) -> Evaluator {
        let mut rng = StdRng::seed_from_u64(7);
        let hwgen = HwGenNet::new(63, 16, &mut rng);
        let cost = CostNet::new(63 + dance_accel::space::ENCODED_WIDTH, 16, &mut rng);
        Evaluator::with_feature_forwarding(hwgen, cost, 63, sampling)
    }

    fn tiny_evaluator() -> Evaluator {
        evaluator_with(HeadSampling::Softmax { tau: 1.0 })
    }

    fn start(cfg: BatchConfig) -> PredictBatcher {
        PredictBatcher::start(&tiny_evaluator(), cfg).expect("softmax evaluator freezes")
    }

    /// Runs `rows` as one batch through `run_batch` and returns each row's
    /// payload in order.
    fn run_rows(exec: &mut Executor, rows: &[Vec<f32>]) -> Vec<String> {
        let (jobs, rxs): (Vec<_>, Vec<_>) = rows
            .iter()
            .map(|arch| {
                let (tx, rx) = mpsc::channel();
                (
                    PredictJob {
                        arch: arch.clone(),
                        tx,
                    },
                    rx,
                )
            })
            .unzip();
        run_batch(exec, &HardwareSpace::new(), &jobs, 63);
        rxs.iter()
            .map(|rx| rx.recv().expect("answer").expect("ok"))
            .collect()
    }

    #[test]
    fn single_prediction_round_trips() {
        let b = start(BatchConfig::default());
        let rx = b.submit(vec![0.1; 63]).expect("submit");
        let payload = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("collector answers")
            .expect("prediction succeeds");
        assert!(payload.starts_with("\"metrics\":["), "{payload}");
        assert!(payload.contains("\"cfg\":"), "{payload}");
        b.shutdown();
    }

    #[test]
    fn wrong_width_is_rejected_before_enqueue() {
        let b = start(BatchConfig::default());
        let err = b.submit(vec![0.0; 5]).expect_err("must reject");
        assert_eq!(err.code, 400);
        b.shutdown();
    }

    #[test]
    fn payload_is_independent_of_batch_composition() {
        let evaluator = tiny_evaluator();
        let mut exec = Executor::new(evaluator.freeze_plan(8).expect("softmax eval freezes"));
        let probe: Vec<f32> = (0..63).map(|i| (i as f32) / 63.0).collect();
        let solo = run_rows(&mut exec, std::slice::from_ref(&probe));
        let rows: Vec<Vec<f32>> = (0..8)
            .map(|k| {
                if k == 3 {
                    probe.clone()
                } else {
                    vec![0.31 + 0.07 * k as f32; 63]
                }
            })
            .collect();
        let batched = run_rows(&mut exec, &rows);
        assert_eq!(
            solo[0], batched[3],
            "payload must not depend on batch peers"
        );
    }

    #[test]
    fn plan_payloads_match_the_tape_reference() {
        let evaluator = tiny_evaluator();
        let mut exec = Executor::new(evaluator.freeze_plan(8).expect("softmax eval freezes"));
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|k| (0..63).map(|i| ((i + 13 * k) as f32) / 80.0).collect())
            .collect();
        let planned = run_rows(&mut exec, &rows);
        // Reference: the tape forward over the same rows.
        let space = HardwareSpace::new();
        let x = Var::constant(Tensor::from_vec(rows.concat(), &[rows.len(), 63]));
        let metrics = evaluator.predict_metrics(&x, &mut StdRng::seed_from_u64(0));
        let metrics = metrics.value();
        let configs = evaluator.predict_configs(&x, &space);
        let tape: Vec<String> = (0..rows.len())
            .map(|i| {
                render_row(
                    &metrics.data()[i * 3..(i + 1) * 3],
                    space.index_of(&configs[i]),
                )
            })
            .collect();
        assert_eq!(planned, tape, "plan path must not change a single byte");
    }

    #[test]
    fn stochastic_evaluator_is_refused_at_start() {
        let gumbel = evaluator_with(HeadSampling::Gumbel { tau: 1.0 });
        let err = PredictBatcher::start(&gumbel, BatchConfig::default())
            .expect_err("a Gumbel evaluator cannot freeze");
        assert!(err.to_string().contains("stochastic"), "{err}");
    }

    #[test]
    fn full_queue_sheds_with_503() {
        // The collector drains fast, so use capacity 1 and flood
        // synchronously.
        let b = start(BatchConfig {
            queue_capacity: 1,
            ..BatchConfig::default()
        });
        let mut shed = 0;
        for _ in 0..64 {
            if let Err(e) = b.submit(vec![0.2; 63]) {
                assert_eq!(e.code, 503);
                shed += 1;
            }
        }
        b.shutdown();
        assert!(shed > 0, "capacity-1 queue must shed under a flood");
    }
}
