//! Low-level concurrency and memory hints for the flatwalk runtime.
//!
//! * [`StealQueues`] — per-worker index queues with a steal path, so a
//!   skewed grid (one 10x-cost cell) no longer strands the other
//!   workers behind a static partition. Each queue is a range of
//!   indices packed in one atomic word, and one compare-and-swap claims
//!   each index.
//! * [`prefetch_read`] — a read-prefetch hint for the cache model's
//!   tag slabs.
//!
//! The shared maps the runtime consults (the setup cache, the serve
//! result cache and the store index) see one probe per cell or served
//! cell, so they use `std::sync::Mutex` and live beside their users.
//!
//! This is the one flatwalk library that uses `unsafe` (the prefetch
//! intrinsic); the other libraries keep `#![forbid(unsafe_code)]`.

mod prefetch;
mod steal;

pub use prefetch::prefetch_read;
pub use steal::StealQueues;
