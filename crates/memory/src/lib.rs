//! In-package stacked DRAM for the `wimnet` multichip systems.
//!
//! §IV of the paper: "We considered the memory module to be vertically
//! stacked 4-layered DRAM memory mounted on top of a base logic die.
//! Each memory stack is assumed to have four channels.  The base logic
//! die works as an interface between the memory stacks and multicore
//! chips … The layers of the memory stacks are interconnected using
//! TSVs."
//!
//! The network-level evaluation treats stacks as endpoints (the paper
//! explicitly ignores intra-stack transfer energy because it is the same
//! in all configurations), but the reproduction still models the stack
//! properly so that request/reply workloads see realistic service times:
//!
//! * [`address`] — block-interleaved mapping of physical addresses onto
//!   (stack, channel, bank, row).
//! * [`tsv`] — the through-silicon-via bundle: per-bit energy and layer
//!   crossing latency.
//! * [`stack`] — the closed-form service model: one access per channel
//!   behind a `busy_until` scalar, open-page row-buffer semantics with
//!   hit / empty / miss distinguished, read/write-differentiated CAS
//!   and array energy.
//! * [`controller`] — the cycle-accurate queued controller the engine
//!   drives: bounded per-channel request queues, per-bank state
//!   machines, FR-FCFS / FCFS scheduling, per-stack statistics, and
//!   the idle fast-forward contract (`docs/memory.md`).  Reduces to
//!   the closed-form model for a single outstanding request
//!   (proptest-proven in `tests/controller_equivalence.rs`).
//! * [`wideio`] — the HBM-style 128-bit 1 GHz wide I/O interface used by
//!   the substrate architecture (128 Gbps, 6.5 pJ/bit, paper ref \[19\]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod controller;
pub mod stack;
pub mod tsv;
pub mod wideio;

pub use address::AddressMap;
pub use controller::{
    BankState, Completion, ControllerConfig, MemRequest, MemoryController,
    MemoryControllerState, MemoryStackStats, SchedulerPolicy,
};
pub use stack::{AccessKind, AccessResult, MemoryStack, PageOutcome, StackConfig};
pub use wideio::WideIoSpec;
