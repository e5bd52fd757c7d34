//! # xbar-serve
//!
//! Batched non-ideal inference serving over persisted mapped-model
//! artifacts (`XBARMDL1`, see `xbar_core::artifact`).
//!
//! The paper's Fig. 2 pipeline prices every mapped layer in circuit
//! solves; serving amortises that one-off cost across requests. This crate
//! loads a mapped `W'` network once and exposes it over HTTP/1.1 built
//! directly on `std::net` (the workspace builds hermetically — no external
//! dependencies):
//!
//! * `POST /v1/classify` — one image (JSON float array or base64 LE f32),
//!   answered with the argmax class, softmax scores, the micro-batch size
//!   the request rode in, and the mapping provenance. A `"tier"` field
//!   other than `"exact"` (the name older clients use for `W'`) is
//!   answered `400`: the server never answers a request for other weights
//!   from `W'` untold;
//! * `GET /healthz` — liveness plus queue depth;
//! * `GET /metrics` — the process-wide `xbar_obs` metrics registry in
//!   Prometheus text format;
//! * `GET /v1/model` — the artifact's mapping summary and the published
//!   model version;
//! * `POST /admin/shutdown` — CI-friendly graceful stop (SIGTERM and
//!   SIGINT do the same);
//! * `POST /admin/reload` — hot artifact swap through the versioned model
//!   slot ([`lifecycle`]): in-flight requests finish on the old weights,
//!   nothing is dropped;
//! * `POST /admin/advance-time` — test-only drift fast-forward (enabled by
//!   [`lifecycle::LifecycleConfig::test_hooks`], otherwise `404`).
//!
//! All sockets live on a single readiness-driven event loop
//! (`event_loop`): raw `epoll` on Linux (a portable short-poll fallback
//! elsewhere), non-blocking accept/read/write, and a per-connection state
//! machine instead of a thread per connection, so thousands of keep-alive
//! connections cost file descriptors rather than stacks.
//! `/healthz`, `/metrics`, and `/v1/model` are answered directly on that
//! fast path and are never shed. Artifacts load via `mmap`, with one copy
//! of the weights, from the mapped file into the model's tensors.
//!
//! Concurrent classify requests are micro-batched ([`batcher`]) and
//! executed by a pool of [`server::ServeConfig::replicas`] inference
//! threads: an idle replica takes whatever is queued at once, so requests
//! share one `Sequential::forward` whenever they queue up while the
//! replicas are busy, and both batching and replication are bit-exact
//! with respect to single-replica single-request execution.
//!
//! Overload is layered and always an explicit answer, never a silent
//! drop: admission control sheds classifies *before* body parsing with a
//! cheap `429` + `Retry-After` once admitted-but-unanswered requests reach
//! [`server::ServeConfig::admission_limit`] (the connection stays open);
//! the bounded batch queue behind it answers `503` on overflow; requests
//! that out-wait their deadline are answered `504`.
//! [`client::RetryingClient`] honours the `Retry-After` hint for both
//! `429` and `503`.
//!
//! [`lifecycle`] adds the device-drift story: a deterministic retention
//! model of the served conductances, periodic health sweeps over a probe
//! set, and a re-program → re-map → hot-swap mitigation ladder.
//!
//! Start a server with [`server::Server::start`]; drive one with
//! [`client::Client`] or the `loadgen` binary in `crates/bench`.

pub mod base64;
pub mod batcher;
pub mod client;
pub(crate) mod event_loop;
pub mod http;
pub mod lifecycle;
pub mod server;

pub use batcher::{BatchQueue, ClassifyOutcome, Pending, ResponseSlot, SubmitError};
pub use client::{Client, RetryPolicy, RetryingClient};
pub use lifecycle::{DriftController, LifecycleConfig, LifecycleStatus, ModelSlot, SweepReport};
pub use server::{signals, ServeConfig, Server};
