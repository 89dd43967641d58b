//! The paper's "unrealistic OOO" model and a standalone superscalar
//! timing model.
//!
//! §5 of the paper introduces an idealized out-of-order execution model to
//! show that the dynamic behaviour of memory dependences is not an
//! artifact of the Multiscalar organization: *"a processor that is capable
//! of establishing a perfect, continuous window of a given size. Under
//! this model and for a window size of n, a load is always mis-speculated
//! if a preceding store, on which it is data dependent, appears within
//! less than n instructions apart in the sequential execution order."*
//!
//! [`WindowAnalyzer`] implements exactly that over a committed instruction
//! stream, for many window sizes at once, and feeds the paper's
//! measurements:
//!
//! - table 3 — mis-speculation counts per window size,
//! - table 4 — how many static edges cover 99.9 % of mis-speculations,
//! - table 5 — DDC miss rates per window size and DDC size.
//!
//! [`timing`] adds a small superscalar timing model with the same
//! speculation policies as the Multiscalar simulator — the paper's
//! "other processing models" direction (§6) — used by the ablation
//! benches.
//!
//! # Examples
//!
//! ```
//! use mds_isa::{ProgramBuilder, Reg};
//! use mds_emu::Emulator;
//! use mds_ooo::{WindowAnalyzer, WindowConfig};
//!
//! // A loop with a tight store->load recurrence through memory.
//! let mut b = ProgramBuilder::new();
//! b.alloc("cell", 1);
//! b.la(Reg::S0, "cell");
//! b.li(Reg::T0, 100);
//! b.label("loop");
//! b.ld(Reg::T1, Reg::S0, 0);
//! b.addi(Reg::T1, Reg::T1, 1);
//! b.sd(Reg::T1, Reg::S0, 0);
//! b.addi(Reg::T0, Reg::T0, -1);
//! b.bne(Reg::T0, Reg::ZERO, "loop");
//! b.halt();
//! let program = b.build()?;
//!
//! let mut analyzer = WindowAnalyzer::new(WindowConfig::default());
//! Emulator::new(&program).run_with(|d| analyzer.observe(d))?;
//! let report = analyzer.finish();
//! // The recurrence is 5 instructions apart: visible in every window >= 8.
//! assert!(report.for_window(8).unwrap().misspeculations > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;
pub mod window;

pub use timing::{OooConfig, OooResult, OooSim};
pub use window::{WindowAnalyzer, WindowConfig, WindowReport, WindowStats};
