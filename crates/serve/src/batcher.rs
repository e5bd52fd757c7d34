//! Micro-batching request queue.
//!
//! Classify requests land in a bounded [`BatchQueue`]. Batching is
//! work-conserving: an idle inference replica takes whatever is queued, up
//! to `max_batch`, the moment the first request arrives, and never holds a
//! batch open waiting for more. Under load, batches form from the requests
//! that queue up while the replicas run the previous forward pass. Each
//! batch runs ONE [`Sequential::forward`] over the stacked `[n, C, H, W]`
//! input, and each request's [`ResponseSlot`] is then filled with its row
//! of the softmaxed logits.
//!
//! Batching is exact, not approximate: every layer in the workspace
//! processes batch rows independently (BatchNorm runs in `Eval` mode on its
//! running statistics), and every matrix product sums each output element
//! over ascending `k` from +0.0 whatever the batch composition — more
//! images only add columns or rows to a product, never terms to an
//! existing sum — so the logits for a request are bit-identical whether it
//! rode in a batch of 1 or 64. `micro_batching_matches_single_request_forward`
//! below pins this down.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use xbar_nn::{Mode, Sequential};
use xbar_obs::ring::StageTiming;
use xbar_obs::{metrics, names, trace};
use xbar_tensor::Tensor;

/// Result of classifying one image.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyOutcome {
    /// Argmax class index.
    pub class: usize,
    /// Softmax probabilities, one per class.
    pub scores: Vec<f32>,
    /// How many requests shared the forward pass that produced this.
    pub batch_size: usize,
    /// Per-stage timings (`queue`, `batch`, `solve`) gathered on the
    /// inference side; the HTTP worker appends its own `respond` stage and
    /// feeds the lot into request tracing when the request is sampled.
    pub stages: Vec<StageTiming>,
}

type SlotState = Option<Result<ClassifyOutcome, String>>;

/// One-shot rendezvous between request submission and the inference
/// worker that computes the answer. Callers either block on [`wait`]
/// (thread-per-request style, used by tests) or register a [`notifier`]
/// and poll [`take`] (the event loop's completion path).
///
/// [`wait`]: ResponseSlot::wait
/// [`take`]: ResponseSlot::take
/// [`notifier`]: ResponseSlot::set_notifier
#[derive(Default)]
pub struct ResponseSlot {
    state: Mutex<SlotState>,
    cond: Condvar,
    notify: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl ResponseSlot {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Registers a one-shot callback invoked (once) right after the slot
    /// is filled. The event loop uses this to get woken through its wake
    /// pipe instead of blocking a thread per request. Register *before*
    /// submitting the request, or the fill can race past the registration
    /// and the callback will never run.
    pub fn set_notifier(&self, f: impl FnOnce() + Send + 'static) {
        *self.notify.lock().expect("slot notifier poisoned") = Some(Box::new(f));
    }

    /// Fills the slot and wakes the waiter. Second fills are ignored.
    pub fn fill(&self, value: Result<ClassifyOutcome, String>) {
        let filled = {
            let mut state = self.state.lock().expect("slot lock poisoned");
            if state.is_none() {
                *state = Some(value);
                self.cond.notify_all();
                true
            } else {
                false
            }
        };
        if filled {
            // Run the notifier outside the state lock: it typically locks
            // the event loop's completion list.
            let notify = self.notify.lock().expect("slot notifier poisoned").take();
            if let Some(f) = notify {
                f();
            }
        }
    }

    /// Non-blocking read: returns the outcome if the slot has been filled,
    /// consuming it. `None` means not ready yet.
    pub fn take(&self) -> Option<Result<ClassifyOutcome, String>> {
        self.state.lock().expect("slot lock poisoned").take()
    }

    /// Blocks until the slot is filled or `timeout` elapses; `None` means
    /// the request timed out (the caller answers 504).
    pub fn wait(&self, timeout: Duration) -> Option<Result<ClassifyOutcome, String>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("slot lock poisoned");
        while state.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self
                .cond
                .wait_timeout(state, deadline - now)
                .expect("slot lock poisoned");
            state = next;
        }
        state.take()
    }
}

/// A queued classify request: flattened `C·H·W` input plus where to
/// deliver the answer.
pub struct Pending {
    pub input: Vec<f32>,
    pub slot: Arc<ResponseSlot>,
    /// When the request entered the batch queue (trace-epoch µs); the
    /// inference worker turns the gap to batch start into the `queue`
    /// stage timing.
    pub enqueued_us: u64,
}

impl Pending {
    /// Builds a pending request stamped with the current trace-epoch time.
    pub fn new(input: Vec<f32>, slot: Arc<ResponseSlot>) -> Self {
        Pending {
            input,
            slot,
            enqueued_us: trace::now_us(),
        }
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — backpressure, answer 503.
    QueueFull { cap: usize },
    /// The server is shutting down — answer 503.
    Closed,
}

struct QueueState {
    items: VecDeque<Pending>,
    closed: bool,
}

/// Bounded MPMC queue of pending classify requests.
pub struct BatchQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    cap: usize,
}

impl BatchQueue {
    pub fn new(cap: usize) -> Arc<Self> {
        Arc::new(BatchQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            cap: cap.max(1),
        })
    }

    /// Enqueues a request.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] at capacity, [`SubmitError::Closed`]
    /// after [`BatchQueue::close`].
    pub fn submit(&self, pending: Pending) -> Result<(), SubmitError> {
        let mut state = self.state.lock().expect("batch queue poisoned");
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.items.len() >= self.cap {
            metrics::counter_add(names::SERVE_QUEUE_REJECTIONS, 1);
            return Err(SubmitError::QueueFull { cap: self.cap });
        }
        state.items.push_back(pending);
        metrics::gauge_set(names::SERVE_QUEUE_DEPTH, state.items.len() as f64);
        self.cond.notify_one();
        Ok(())
    }

    /// Number of requests currently waiting.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("batch queue poisoned").items.len()
    }

    /// Marks the queue closed and wakes all workers. Already-queued
    /// requests are still drained by `next_batch`.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("batch queue poisoned");
        state.closed = true;
        self.cond.notify_all();
    }

    /// Takes the next micro-batch: blocks until a request is queued, then
    /// drains what is waiting, up to `max_batch`, in FIFO order without
    /// waiting for more. Returns `None` once the queue is closed *and*
    /// drained — the worker's exit signal.
    pub fn next_batch(&self, max_batch: usize) -> Option<Vec<Pending>> {
        let mut state = self.state.lock().expect("batch queue poisoned");
        while state.items.is_empty() {
            if state.closed {
                return None;
            }
            state = self.cond.wait(state).expect("batch queue poisoned");
        }
        let n = state.items.len().min(max_batch.max(1));
        let batch = state.items.drain(..n).collect();
        metrics::gauge_set(names::SERVE_QUEUE_DEPTH, state.items.len() as f64);
        Some(batch)
    }
}

/// Numerically stable softmax over one logit row.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
    let total: f32 = exps.iter().sum();
    if total > 0.0 {
        exps.iter().map(|&e| e / total).collect()
    } else {
        vec![1.0 / logits.len().max(1) as f32; logits.len()]
    }
}

/// Runs one batch through the model and fills every slot. The replica loop,
/// [`crate::lifecycle::replica_inference_loop`], calls this per batch.
///
/// Exposed (not just used by the worker loop) so tests can compare batched
/// against single-request execution on the same model instance.
pub fn classify_batch(model: &mut Sequential, input_shape: &[usize], batch: Vec<Pending>) {
    let n = batch.len();
    let batch_start_us = trace::now_us();
    let per_example: usize = input_shape.iter().product();
    let mut stacked = Vec::with_capacity(n * per_example);
    for pending in &batch {
        metrics::latency_record_us(
            names::SERVE_QUEUE_US,
            batch_start_us.saturating_sub(pending.enqueued_us),
        );
        stacked.extend_from_slice(&pending.input);
    }
    let mut shape = Vec::with_capacity(1 + input_shape.len());
    shape.push(n);
    shape.extend_from_slice(input_shape);
    let solve_start_us = trace::now_us();
    let start = Instant::now();
    let result = Tensor::from_vec(stacked, &shape)
        .and_then(|x| model.forward(&x, Mode::Eval))
        .map_err(|e| format!("forward failed: {e}"));
    let solve_us = start.elapsed().as_micros() as u64;
    metrics::latency_record_us(names::SERVE_INFER_US, solve_us);
    metrics::latency_record_us(names::SERVE_BATCH_SIZE, n as u64);
    metrics::counter_add(names::SERVE_BATCHES, 1);
    // queue: enqueue → batch assembly; batch: stacking; solve: the shared
    // forward pass. Start offsets are absolute (trace epoch) so the stages
    // line up with HTTP-side spans in exports.
    let stages_for = |enqueued_us: u64| {
        vec![
            StageTiming {
                stage: "queue",
                start_us: enqueued_us,
                duration_us: batch_start_us.saturating_sub(enqueued_us),
            },
            StageTiming {
                stage: "batch",
                start_us: batch_start_us,
                duration_us: solve_start_us.saturating_sub(batch_start_us),
            },
            StageTiming {
                stage: "solve",
                start_us: solve_start_us,
                duration_us: solve_us,
            },
        ]
    };
    match result {
        Ok(logits) => {
            let classes = logits.shape().last().copied().unwrap_or(0).max(1);
            let rows = logits.as_slice().chunks_exact(classes);
            for (pending, row) in batch.iter().zip(rows) {
                let scores = softmax(row);
                let class = scores
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map_or(0, |(i, _)| i);
                pending.slot.fill(Ok(ClassifyOutcome {
                    class,
                    scores,
                    batch_size: n,
                    stages: stages_for(pending.enqueued_us),
                }));
            }
        }
        Err(msg) => {
            for pending in &batch {
                pending.slot.fill(Err(msg.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use xbar_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, ReLU};
    use xbar_nn::Layer;

    fn tiny_model() -> Sequential {
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 4, 3, 1, 1, 7)),
            Layer::ReLU(ReLU::new()),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::new(4 * 4 * 4, 3, 9)),
        ])
    }

    fn image(seed: usize) -> Vec<f32> {
        (0..64)
            .map(|i| ((i * 31 + seed * 7) % 13) as f32 / 13.0 - 0.5)
            .collect()
    }

    #[test]
    fn micro_batching_matches_single_request_forward() {
        let shape = [1usize, 8, 8];
        // Batched: five requests through one forward pass.
        let mut model = tiny_model();
        let slots: Vec<Arc<ResponseSlot>> = (0..5).map(|_| ResponseSlot::new()).collect();
        let batch: Vec<Pending> = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| Pending::new(image(i), Arc::clone(slot)))
            .collect();
        classify_batch(&mut model, &shape, batch);
        // Singles: each request through its own forward pass.
        for (i, slot) in slots.iter().enumerate() {
            let batched = slot
                .wait(Duration::from_secs(1))
                .expect("slot filled")
                .expect("classify ok");
            assert_eq!(batched.batch_size, 5);
            let single_slot = ResponseSlot::new();
            classify_batch(
                &mut tiny_model(),
                &shape,
                vec![Pending::new(image(i), Arc::clone(&single_slot))],
            );
            let single = single_slot
                .wait(Duration::from_secs(1))
                .expect("slot filled")
                .expect("classify ok");
            assert_eq!(
                batched.scores, single.scores,
                "request {i}: micro-batched scores must be bit-identical"
            );
            assert_eq!(batched.class, single.class);
        }
    }

    #[test]
    fn batch_size_keeps_the_exported_names_the_benchmark_scrapes() {
        let slot = ResponseSlot::new();
        classify_batch(
            &mut tiny_model(),
            &[1, 8, 8],
            vec![Pending::new(image(0), Arc::clone(&slot))],
        );
        slot.wait(Duration::from_secs(1))
            .expect("slot filled")
            .expect("classify ok");
        // The registry is process-global and shared with parallel tests,
        // so only the presence of each series is checked.
        let text = metrics::to_text();
        for series in [
            "serve_batch_size_bucket",
            "serve_batch_size_sum",
            "serve_batch_size_count",
        ] {
            assert!(text.contains(series), "{series} missing from:\n{text}");
        }
    }

    #[test]
    fn queue_flushes_on_batch_size() {
        let queue = BatchQueue::new(16);
        for i in 0..4 {
            queue
                .submit(Pending::new(image(i), ResponseSlot::new()))
                .unwrap();
        }
        let batch = queue.next_batch(4).unwrap();
        assert_eq!(batch.len(), 4);
    }

    #[test]
    fn a_lone_request_is_taken_at_once() {
        let queue = BatchQueue::new(16);
        queue
            .submit(Pending::new(image(0), ResponseSlot::new()))
            .unwrap();
        // Nothing else is coming and the batch has room for 64: the request
        // still leaves the queue without waiting for company.
        let start = Instant::now();
        let batch = queue.next_batch(64).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].input, image(0));
        assert_eq!(queue.depth(), 0);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "a queued request must not wait for a fuller batch"
        );
    }

    #[test]
    fn queued_requests_leave_in_fifo_batches_of_at_most_max_batch() {
        let queue = BatchQueue::new(16);
        for i in 0..5 {
            queue
                .submit(Pending::new(image(i), ResponseSlot::new()))
                .unwrap();
        }
        let inputs = |batch: Vec<Pending>| -> Vec<Vec<f32>> {
            batch.into_iter().map(|pending| pending.input).collect()
        };
        let first = inputs(queue.next_batch(4).unwrap());
        assert_eq!(first, (0..4).map(image).collect::<Vec<_>>());
        assert_eq!(queue.depth(), 1);
        let second = inputs(queue.next_batch(4).unwrap());
        assert_eq!(second, vec![image(4)]);
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        let queue = BatchQueue::new(2);
        for i in 0..2 {
            queue
                .submit(Pending::new(image(i), ResponseSlot::new()))
                .unwrap();
        }
        let err = queue
            .submit(Pending::new(image(2), ResponseSlot::new()))
            .unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { cap: 2 });
    }

    #[test]
    fn closed_queue_drains_then_stops() {
        let queue = BatchQueue::new(4);
        queue
            .submit(Pending::new(image(0), ResponseSlot::new()))
            .unwrap();
        queue.close();
        assert!(matches!(
            queue.submit(Pending::new(image(1), ResponseSlot::new())),
            Err(SubmitError::Closed)
        ));
        let drained = queue.next_batch(8).unwrap();
        assert_eq!(drained.len(), 1);
        assert!(queue.next_batch(8).is_none());
    }

    #[test]
    fn slot_times_out_when_never_filled() {
        let slot = ResponseSlot::new();
        assert!(slot.wait(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn slot_notifier_fires_once_on_fill_and_take_consumes() {
        let slot = ResponseSlot::new();
        let fired = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        assert!(slot.take().is_none(), "empty slot yields nothing");
        {
            let fired = Arc::clone(&fired);
            slot.set_notifier(move || {
                fired.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
        }
        slot.fill(Err("first".into()));
        slot.fill(Err("second fill is ignored".into()));
        assert_eq!(fired.load(std::sync::atomic::Ordering::SeqCst), 1);
        let outcome = slot.take().expect("filled");
        assert_eq!(outcome.unwrap_err(), "first");
        assert!(slot.take().is_none(), "take consumes the outcome");
    }

    #[test]
    fn worker_thread_serves_submissions_until_close() {
        let queue = BatchQueue::new(8);
        let meta_shape = [1usize, 8, 8];
        let worker = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                let mut model = tiny_model();
                while let Some(batch) = queue.next_batch(4) {
                    classify_batch(&mut model, &meta_shape, batch);
                }
            })
        };
        let slot = ResponseSlot::new();
        queue
            .submit(Pending::new(image(3), Arc::clone(&slot)))
            .unwrap();
        let outcome = slot
            .wait(Duration::from_secs(5))
            .expect("filled")
            .expect("ok");
        assert_eq!(outcome.scores.len(), 3);
        let total: f32 = outcome.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-5, "softmax sums to 1, got {total}");
        queue.close();
        worker.join().unwrap();
    }
}
