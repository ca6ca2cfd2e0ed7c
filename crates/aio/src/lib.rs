//! Async block I/O: latency-faithful network backends with pipelined,
//! bounded-in-flight block operations.
//!
//! The paper's repair story is fundamentally about *remote* blocks — §V
//! measures entanglement repair against backends that are a network away
//! — but the sync [`ae_api::BlockSource`] family completes every
//! operation at call time, so a naive port pays `blocks × RTT` for any
//! multi-block operation. This crate supplies the missing layer in four
//! pieces, all vendored (zero external dependencies beyond the
//! workspace):
//!
//! * **Executor + timer wheel** ([`Runtime`], [`Clock`], [`Sleep`]): a
//!   minimal single- or multi-threaded executor whose time source is
//!   either real (benchmarks) or virtual (tests). On the virtual clock
//!   the runtime advances time *exactly* to the next timer deadline
//!   whenever nothing is runnable and panics on a deadlocked future
//!   instead of hanging.
//! * **Latency model** ([`LatencyStore`], [`LinkSpec`], [`Tiering`],
//!   [`RetryPolicy`]): wraps any sync backend behind simulated per-tier
//!   links — RTT, seeded jitter, bandwidth caps — with typed
//!   timeout/retry/backoff so a dead remote degrades to
//!   [`ae_api::StoreError::TimedOut`] (or `None`/`false`), never a hang.
//!   Integrity sweeps verify blocks where they live: a batch ships one
//!   status per id over each link instead of the blocks.
//!   Composes with `ae_store::FaultyStore` for flaky *and* distant.
//! * **Bounded-in-flight pipelining** ([`windowed`], [`windowed_map`],
//!   [`OrderedWindow`]): at most [`in_flight_window`] operations in
//!   flight, results collected in issue order.
//! * **Phase replay** ([`Replay`], [`Recorder`]): runs the unmodified
//!   sync repair algorithms against an async backend by recording their
//!   block demands, resolving them through the window, and rerunning to
//!   a fixed point — provably byte-identical to the serial path. An
//!   unanswered read is provisionally absent, unless a verification
//!   sweep proved the block present: then it reads as a zero-filled
//!   stand-in, so a planner's first pass already picks the repair option
//!   the faithful pass will, and only that option's blocks are fetched.
//!
//! [`BlockOn`] closes the loop: it adapts a natively-async backend back
//! into the sync family and advertises the async interior through
//! [`ae_api::BlockSource::as_async`], which is how the archive's
//! degraded reads and scrubs discover that pipelining is available.
//!
//! # Determinism contract
//!
//! Runs are reproducible when three conditions hold, and every test in
//! this subsystem relies on them:
//!
//! 1. **Virtual clock** ([`Clock::virtual_time`]): time is a counter the
//!    executor advances to exact timer deadlines; wall-clock never leaks
//!    in.
//! 2. **Single-threaded driving** ([`Runtime::new`], not
//!    [`Runtime::with_workers`]): one thread interleaves all futures, so
//!    polling order is a pure function of deadlines and issue order.
//! 3. **Eager planning** (the latency model): every operation's queueing,
//!    transfer and per-attempt jitter draws are fixed at *future
//!    creation* from the seeded generator, so issue order alone pins the
//!    random stream; replay resolves misses in sorted-id order so even
//!    the parallel repair planner's thread interleaving cannot perturb
//!    issue order. A batch verification
//!    ([`ae_api::AsyncBlockSource::verify_batch_async`]) is one plan per
//!    link per batch, drawn at creation in link order (local tier first)
//!    under the same lock, each charging a fixed per-id status size
//!    under the bandwidth cap; the blocks' bytes never cross the link.
//!
//! Under the contract, a pipelined repair is byte-identical to its
//! serial counterpart and every simulated timestamp replays exactly;
//! with a real clock the same code measures genuine wall time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod latency;
mod pipeline;
mod replay;
mod time;

pub use exec::{JoinHandle, Runtime};
pub use latency::{BlockOn, LatencyStore, LinkSpec, RetryPolicy, Tier, Tiering};
pub use pipeline::{windowed, windowed_map, OpFactory, OrderedWindow};
pub use replay::{Recorder, Replay};
pub use time::{Clock, Sleep};

/// The bounded in-flight window for pipelined block operations.
///
/// Defaults to 8; overridden by the `AE_AIO_WINDOW` environment variable
/// (read on every call, so benchmarks can vary it per case), and pinned
/// to 1 by the `serial-aio` feature — the CI leg proving the pipelined
/// and serial paths agree (the env var is ignored under the feature).
pub fn in_flight_window() -> usize {
    if cfg!(feature = "serial-aio") {
        return 1;
    }
    std::env::var("AE_AIO_WINDOW")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&w| w > 0)
        .unwrap_or(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_default_env_and_feature_pinning() {
        if cfg!(feature = "serial-aio") {
            assert_eq!(in_flight_window(), 1);
        } else {
            // Serialize env mutation against other tests via a lock.
            static ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());
            let _guard = ENV.lock().unwrap();
            std::env::remove_var("AE_AIO_WINDOW");
            assert_eq!(in_flight_window(), 8);
            std::env::set_var("AE_AIO_WINDOW", "32");
            assert_eq!(in_flight_window(), 32, "env var read per call");
            std::env::set_var("AE_AIO_WINDOW", "0");
            assert_eq!(in_flight_window(), 8, "zero falls back to default");
            std::env::remove_var("AE_AIO_WINDOW");
        }
    }
}
