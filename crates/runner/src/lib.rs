//! # plab-runner — fleet orchestration for PacketLab
//!
//! The paper's premise is that one experimenter logic runs unchanged
//! across many measurement endpoints (§1); this crate supplies the layer
//! that premise is useless without: a scheduler that fans a single
//! **experiment spec** (certificate chain + Cpf monitor + measurement
//! program, [`spec`]) over a **roster** of thousands of simulated
//! endpoints ([`plab_netsim::roster`]) under a **scheduler config**
//! ([`config`]: concurrency cap, token-bucket launch rate limit,
//! retry/backoff budget), one task per roster pair, and emits a machine-readable **run report** ([`report`]:
//! JSON-SEQ event stream, aggregate summary with percentile histograms).
//!
//! The experiment code itself is the measurement library every
//! single-endpoint run uses (`packetlab::controller::experiments` driven
//! through [`packetlab::controller::robust::RobustController`]): it is
//! written once, as `async fn`, and this crate is its second driver. Each
//! in-flight experiment is a future the scheduler polls on its own thread
//! — no worker threads, no channels — so **only the task being polled
//! runs**, the scheduler's interleaving is a pure function of virtual
//! time, and the run report is bit-identical across replays — including
//! replays where chaos fault schedules ([`chaos`]) crash and restart
//! endpoints mid-experiment. See [`exec`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod config;
pub mod exec;
pub mod report;
pub mod spec;

pub use chaos::{schedule_fleet_faults, FleetFaultPlan};
pub use config::{RateLimit, SchedulerConfig};
pub use exec::{build_fleet, run_fleet, FleetRun, FleetWorld};
pub use report::{Detail, Outcome, RunReport, TaskResult};
pub use spec::{ExperimentSpec, Program};
