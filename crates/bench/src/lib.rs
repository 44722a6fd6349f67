//! # lc-bench — the paper's figures, reproduced on the simulator
//!
//! One function per figure of the paper's evaluation (Figures 1, 3, 4, 5, 6,
//! 8, 9, 10, 11 and 12), each returning the series the paper plots as plain
//! rows and printable as CSV.  The `figures` binary multiplexes them:
//!
//! ```text
//! cargo run --release -p lc-bench --bin figures -- fig01
//! cargo run --release -p lc-bench --bin figures -- all
//! cargo run --release -p lc-bench --bin figures -- fig11 --quick
//! ```
//!
//! ```
//! use lc_bench::{fmt, FIGURES};
//!
//! // Every runner is registered under the figure id the paper uses.
//! assert!(FIGURES.iter().any(|(id, _)| *id == "fig01"));
//! // CSV cells: two decimals for small magnitudes, none for large.
//! assert_eq!(fmt(3.14159), "3.14");
//! assert_eq!(fmt(12345.6), "12346");
//! ```

#![warn(missing_docs)]

pub mod figures;

pub use figures::{FigureResult, FigureRunner, FIGURES};

/// Formats a floating-point cell for CSV output.
pub fn fmt(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}
