//! `perfbench` — the design-query benchmark for Aved.
//!
//! Every Aved run answers one question: what is the minimum-cost design
//! meeting this requirement? The benchmark asks that question in a closed
//! loop — one client, the next query sent only after the previous answer
//! has returned — through the entry point the `aved design` command uses
//! ([`aved::Aved::design_with_health`], configured as the command
//! configures it). It checks every answer and reports latency, throughput,
//! CPU time and memory. A separate traced run of the same queries breaks
//! query time down by layer, with timing decorators that sit outside the
//! program ([`trace`]).
//!
//! * [`workload`] — the three workloads and their configurations;
//! * [`queries`] — the seeded query generator;
//! * [`check`] — the output checker and the canonical form of an answer;
//! * [`reference`] — the answers recorded for every pooled query;
//! * [`stats`] — medians and the tail percentile;
//! * [`trace`] — timing decorators, in-memory spans, Chrome trace output;
//! * [`sys`] — process CPU time, peak memory and the machine description.

pub mod check;
pub mod queries;
pub mod reference;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;
