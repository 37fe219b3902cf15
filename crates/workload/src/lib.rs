#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Workload generation and measurement helpers for the evaluation harness.
//!
//! * [`pairs`] — random communicating-pair selection (Section 6.1).
//! * [`stream`] — fixed-rate event schedules (packets/second,
//!   requests/second).
//! * [`zipf`] — the Zipfian URL popularity distribution of Section 6.2.
//! * [`measure`] — CDFs, growth rates and unit conversions used when
//!   printing the paper's figures.

pub mod measure;
pub mod pairs;
pub mod stream;
pub mod zipf;

pub use measure::{mb, mbps, Cdf};
pub use pairs::random_pairs;
pub use stream::Schedule;
pub use zipf::Zipf;
