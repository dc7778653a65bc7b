//! Exact heap-allocation counts of the simulated data and control paths.
//!
//! A counting global allocator (the `crates/filter/tests/no_alloc.rs`
//! pattern, counted per thread so tests running side by side do not see
//! each other) pins three numbers:
//!
//! - allocations per steady bulk TCP data segment between two netsim
//!   hosts, the receiver draining as it goes, once in one shard and once
//!   with the hosts on either side of a 2-shard cut;
//! - allocations per steady `mread` round trip through `Controller` →
//!   `SimChannel` → netsim TCP → the harness's servicing pass → reactor →
//!   agent and back.
//!
//! All are totals over many steady repetitions, so any allocation added
//! to or removed from the path moves them. A change that means to move
//! them updates the pin and says why in EXPERIMENTS. Debug builds run the
//! harness's servicing self-check, which allocates, so the pins hold for
//! release builds (`cargo test --release -p packetlab --test alloc_pins`).
//!
//! The counts include allocations made inside std (`Vec` and `VecDeque`
//! growth, hash-table resizes, `format!`), so a toolchain whose growth
//! policy differs can move them with no change to this repo's code. All
//! were read under rustc 1.95.0; a moved count under another toolchain is
//! first checked against the parent commit built with that same toolchain.

use packetlab::cert::Restrictions;
use packetlab::controller::{ControlPlane, Controller, Credentials};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{SimChannel, SimNet};
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::{LinkParams, ShardedSim, TopologyBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn a(x: u8, y: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, x, y)
}

/// Segments per measured transfer.
const SEGMENTS: usize = 1_000;
/// Allocations over one steady transfer of [`SEGMENTS`] full segments:
/// the reads' own buffers and what the rings and queues grow by. Each
/// segment is built once in a pooled frame; when a segment cost three
/// byte vectors and a frame of its own this read 9,071. Read under
/// rustc 1.95.0.
const BULK_ALLOCATIONS: u64 = 1_080;
/// The same transfer with the two hosts on either side of a 2-shard
/// cut, every segment and acknowledgement a cross-shard handoff. When a
/// handoff copied the datagram out of one shard's pool and into the
/// other's this read 6,135. Read under rustc 1.95.0.
const CROSS_SHARD_BULK_ALLOCATIONS: u64 = 1_156;

/// Allocations over one steady bulk transfer of [`SEGMENTS`] segments
/// from `h1` to `h2`, the two hosts placed on shards by `shard_of`.
fn bulk_transfer_allocations(shard_of: &[usize]) -> u64 {
    let mut t = TopologyBuilder::new();
    let h1 = t.host("h1", a(0, 1));
    let h2 = t.host("h2", a(1, 1));
    t.link(h1, h2, LinkParams::new(5, 100));
    let mut sim = t.build_sharded(shard_of, 1);
    sim.tcp_listen(h2, 80);
    let c1 = sim.tcp_connect(h1, a(1, 1), 80);
    sim.run_until(sim.now() + 50 * plab_netsim::MILLISECOND);
    let c2 = sim.tcp_accept(h2, 80).expect("accepted");
    let data = vec![0x5a; SEGMENTS * plab_netsim::tcp::MSS];
    let transfer = |sim: &mut ShardedSim| {
        sim.tcp_send(h1, c1, &data);
        let mut got = 0;
        while got < data.len() {
            assert!(sim.step(), "transfer stalled at {got} bytes");
            if sim.tcp_readable(h2, c2) > 0 {
                got += sim.tcp_recv(h2, c2, usize::MAX).len();
            }
        }
        sim.run_until(sim.now() + 50 * plab_netsim::MILLISECOND);
        let backlog = sim.shard_mut(h1).tcp_send_backlog(h1, c1);
        assert_eq!(backlog, 0, "every byte acknowledged");
    };
    // The first transfer grows every ring, queue and free list to size.
    transfer(&mut sim);
    allocations(|| transfer(&mut sim))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "pinned for release builds")]
fn bulk_data_segment_allocations_are_pinned() {
    let n = bulk_transfer_allocations(&[0, 0]);
    println!("bulk: {n} allocations over {SEGMENTS} segments");
    assert_eq!(n, BULK_ALLOCATIONS, "allocations per {SEGMENTS} bulk data segments moved \
         (a code change, or a toolchain other than rustc 1.95.0 growing std collections differently)");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "pinned for release builds")]
fn cross_shard_bulk_allocations_are_pinned() {
    let n = bulk_transfer_allocations(&[0, 1]);
    println!("cross-shard bulk: {n} allocations over {SEGMENTS} segments");
    assert_eq!(n, CROSS_SHARD_BULK_ALLOCATIONS, "allocations per {SEGMENTS} bulk data segments \
         across a shard cut moved (a code change, or a toolchain other than rustc 1.95.0 growing \
         std collections differently)");
}

/// Round trips per measured run.
const ROUND_TRIPS: u64 = 1_000;
/// Allocations over [`ROUND_TRIPS`] steady `mread` round trips. 34,669
/// when every TCP segment cost three byte vectors and every servicing
/// pass collected what it drained into fresh vectors. Read under rustc
/// 1.95.0.
const MREAD_ALLOCATIONS: u64 = 7_019;

#[test]
#[cfg_attr(debug_assertions, ignore = "pinned for release builds")]
fn mread_round_trip_allocations_are_pinned() {
    let operator = Keypair::from_seed(&[1; 32]);
    let experimenter = Keypair::from_seed(&[42; 32]);
    let mut t = TopologyBuilder::new();
    let controller = t.host("controller", a(9, 1));
    let r = t.router("r", a(0, 254));
    let endpoint = t.host("endpoint", a(0, 1));
    t.link(endpoint, r, LinkParams::new(5, 0));
    t.link(r, controller, LinkParams::new(5, 0));
    let mut net = SimNet::new(t.build());
    net.add_endpoint(
        endpoint,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            ..Default::default()
        },
    );
    let net = Rc::new(RefCell::new(net));
    let descriptor = ExperimentDescriptor {
        name: "alloc-pin".into(),
        controller_addr: "10.0.9.1:7000".into(),
        info_url: "https://example.org/alloc-pin".into(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    let creds =
        Credentials::issue(&operator, &experimenter, descriptor, Restrictions::none(), 10);
    let chan = SimChannel::connect(&net, controller, a(0, 1));
    let mut ctrl = Controller::connect(chan, &creds).expect("connect");
    let mut round_trips = |n: u64| {
        for _ in 0..n {
            assert_eq!(ctrl.mread(0, 8).expect("mread").len(), 8);
        }
    };
    round_trips(100);
    let n = allocations(|| round_trips(ROUND_TRIPS));
    println!("mread: {n} allocations over {ROUND_TRIPS} round trips");
    assert_eq!(n, MREAD_ALLOCATIONS, "allocations per {ROUND_TRIPS} mread round trips moved \
         (a code change, or a toolchain other than rustc 1.95.0 growing std collections differently)");
}
