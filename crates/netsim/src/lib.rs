//! # plab-netsim — a deterministic Internet simulator
//!
//! The PacketLab paper's experiments run on the real Internet: endpoints on
//! access links behind NATs, routers that decrement TTL and emit ICMP Time
//! Exceeded, remote servers that answer echo requests, and an access link
//! whose bandwidth the §4 experiment estimates. This crate is the
//! reproduction's substitute for all of that (see DESIGN.md): a
//! discrete-event network simulator with
//!
//! - **virtual time** in nanoseconds ([`SimTime`]), fully deterministic;
//! - **links** with propagation latency, serialization bandwidth, drop-tail
//!   queues, and optional random loss ([`link`]);
//! - **routers** that forward by longest-prefix/static routes, decrement
//!   TTL, and generate ICMP Time Exceeded ([`sim`], [`routing`]);
//! - **NAT** middleboxes rewriting addresses/ports with a mapping table
//!   ([`nat`]) — so the paper's internal-vs-external address distinction
//!   (§3.1, Endpoint Information) is observable;
//! - **hosts** with OS behaviour: ICMP echo responder, UDP port
//!   unreachable, TCP RST for unknown ports — the exact interference §3.1's
//!   *consume* filter disposition exists to suppress ([`node`]);
//! - **sockets**: raw IP, UDP, and a small reliable TCP with handshake,
//!   retransmission, cumulative ACKs, and receive-window flow control — the
//!   backpressure §3.1 relies on when capture buffers fill ([`tcp`]);
//! - **scheduled transmission**: packets queued to leave a host at an exact
//!   future virtual time, the primitive `nsend` maps onto;
//! - **drop accounting**: every discarded packet is counted by
//!   [`DropReason`] ([`Sim::drops`]) and emitted to `plab-obs`, the one
//!   recorder; the simulator keeps no per-packet log of its own;
//! - **fault injection**: scheduled link flaps, Gilbert–Elliott burst
//!   loss, and endpoint crash/restart, all replayable from a seed
//!   ([`fault`]).
//!
//! The simulator is single-threaded and runs in lockstep with the code
//! driving it: [`Sim::step`] processes one event, [`Sim::run_until`] pumps
//! to a deadline. Endpoint agents integrate via socket inboxes, scheduled
//! sends, and named timers ([`Sim::schedule_timer`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod link;
pub mod nat;
pub mod node;
pub mod pool;
pub mod roster;
pub mod routing;
pub mod shard;
pub mod sim;
pub mod tcp;
pub mod time;
pub mod topology;
mod world;

pub use fault::{FaultAction, GilbertElliott, ScheduledFault};
pub use link::LinkParams;
pub use node::{NodeId, RawDisposition};
pub use pool::{BufPool, Frame};
pub use shard::ShardedSim;
pub use sim::{DropReason, NodeTransition, Sim};
pub use time::{SimTime, MICROSECOND, MILLISECOND, SECOND};
pub use topology::TopologyBuilder;
