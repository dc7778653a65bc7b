//! Exact heap-allocation counts of the simulated data and control paths.
//!
//! A counting global allocator (the `crates/filter/tests/no_alloc.rs`
//! pattern, counted per thread so tests running side by side do not see
//! each other) pins these counts:
//!
//! - allocations per steady bulk TCP data segment between two netsim
//!   hosts, the receiver draining as it goes, once in one shard and once
//!   with the hosts on either side of a 2-shard cut;
//! - allocations per steady `mread` round trip through `Controller` →
//!   `SimChannel` → netsim TCP → the harness's servicing pass → reactor →
//!   agent and back;
//! - allocations per steady `mread` in each stage of a reactor turn over
//!   an in-memory stack: `pump`, `dispatch` and `flush`;
//! - allocations in `dispatch` per command refused with `Suspended` on
//!   that same reactor.
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
use packetlab::netstack::MemStack;
use packetlab::reactor::EndpointReactor;
use packetlab::wire::{Command, ErrCode, FrameDecoder, Message, Response};
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
    assert_eq!(
        n, CROSS_SHARD_BULK_ALLOCATIONS,
        "allocations per {SEGMENTS} bulk data segments \
         across a shard cut moved (a code change, or a toolchain other than rustc 1.95.0 growing \
         std collections differently)"
    );
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
    let creds = Credentials::issue(
        &operator,
        &experimenter,
        descriptor,
        Restrictions::none(),
        10,
    );
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

/// Sessions on the reactor whose stages are pinned: one in control, the
/// rest authenticated and suspended behind it.
const STAGE_SESSIONS: u64 = 16;
/// Steady turns counted, one `mread` each.
const TURNS: u64 = 2_000;
/// Allocations in [`EndpointReactor::pump`] over [`TURNS`] turns: the
/// owned `Vec` each `tcp_recv` returns. Read under rustc 1.95.0.
const PUMP_ALLOCATIONS: u64 = 2_000;
/// Allocations in [`EndpointReactor::dispatch`] over [`TURNS`] turns: the
/// agent's `Out`, the `mread` data and the replay cache's copy of the
/// answer. Read under rustc 1.95.0.
const DISPATCH_ALLOCATIONS: u64 = 6_000;
/// Allocations in [`EndpointReactor::flush`] over [`TURNS`] turns: what
/// `MemStack::tcp_send` keeps of the reply (the test takes it out of the
/// outbox every turn). Read under rustc 1.95.0.
const FLUSH_ALLOCATIONS: u64 = 2_000;

/// Every frame `conn` has been sent since the last call, decoded.
fn replies(stack: &mut MemStack, conn: u64) -> Vec<Message> {
    let mut decoder = FrameDecoder::new();
    decoder.extend(&stack.outbox.remove(&conn).unwrap_or_default());
    let mut got = Vec::new();
    while let Some(frame) = decoder.next_frame().expect("replies frame") {
        got.push(Message::decode(&frame).expect("replies decode"));
    }
    got
}

/// A reactor over a `MemStack` with [`STAGE_SESSIONS`] authenticated
/// sessions: connection 1 holds the endpoint and the rest are suspended.
fn stage_world() -> (EndpointReactor, MemStack) {
    let operator = Keypair::from_seed(&[1; 32]);
    let experimenter = Keypair::from_seed(&[42; 32]);
    let descriptor = ExperimentDescriptor {
        name: "alloc-pin-stages".into(),
        controller_addr: "10.0.9.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    let creds = Credentials::issue(
        &operator,
        &experimenter,
        descriptor,
        Restrictions::none(),
        10,
    );
    let mut stack = MemStack {
        clock: 1_000,
        ..Default::default()
    };
    let mut reactor = EndpointReactor::new(EndpointConfig {
        trusted_keys: vec![KeyHash::of(&operator.public)],
        ..Default::default()
    });
    let turn = |reactor: &mut EndpointReactor, stack: &mut MemStack| {
        stack.clock += 1_000_000;
        reactor.pump(stack);
        reactor.dispatch(stack);
        reactor.flush(stack);
    };
    let hello = Message::Hello {
        version: packetlab::PROTOCOL_VERSION,
    }
    .to_frame();
    for conn in 1..=STAGE_SESSIONS {
        reactor.accept(conn);
        stack.feed(conn, &hello);
    }
    turn(&mut reactor, &mut stack);
    for conn in 1..=STAGE_SESSIONS {
        let Some(Message::HelloAck { nonce, .. }) = replies(&mut stack, conn).pop() else {
            panic!("conn {conn} got no HelloAck");
        };
        // The first connection asks for more than the rest, so it holds
        // the endpoint whichever order the `Auth`s run in.
        let mut creds = creds.clone();
        creds.priority = if conn == 1 { 10 } else { 5 };
        stack.feed(conn, &creds.auth_message(&nonce).to_frame());
    }
    turn(&mut reactor, &mut stack);
    for conn in 1..=STAGE_SESSIONS {
        assert!(
            replies(&mut stack, conn).contains(&Message::AuthOk),
            "conn {conn} authenticated"
        );
    }
    assert_eq!(reactor.agent().session_count(), STAGE_SESSIONS as usize);
    (reactor, stack)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "pinned for release builds")]
fn reactor_stage_allocations_are_pinned() {
    let (mut reactor, mut stack) = stage_world();
    let mut seq = 0;
    let mut run = |turns: u64, counts: &mut [u64; 3]| {
        for _ in 0..turns {
            seq += 1;
            let cmd = Command::MRead {
                memaddr: 0,
                bytecnt: 8,
            };
            stack.feed(1, &Message::CmdSeq { seq, cmd }.to_frame());
            stack.clock += 1_000_000;
            counts[0] += allocations(|| reactor.pump(&mut stack));
            counts[1] += allocations(|| assert_eq!(reactor.dispatch(&mut stack), 1));
            counts[2] += allocations(|| assert!(reactor.flush(&mut stack).is_empty()));
            let got = replies(&mut stack, 1);
            assert!(
                matches!(&got[..], [Message::RespSeq { seq: q, resp: Response::Mem { data } }]
                    if *q == seq && data.len() == 8),
                "{got:?}"
            );
        }
    };
    run(100, &mut [0; 3]);
    let mut counts = [0; 3];
    run(TURNS, &mut counts);
    let [pump, dispatch, flush] = counts;
    println!("reactor stages: pump {pump}, dispatch {dispatch}, flush {flush} allocations over {TURNS} turns");
    assert_eq!(
        counts,
        [PUMP_ALLOCATIONS, DISPATCH_ALLOCATIONS, FLUSH_ALLOCATIONS],
        "allocations per {TURNS} steady reactor turns moved, [pump, dispatch, flush] (a code \
         change, or a toolchain other than rustc 1.95.0 growing std collections differently)"
    );
}

/// Allocations in [`EndpointReactor::dispatch`] per command refused with
/// `Suspended`: the agent's `Out`. The fixed refusal text is borrowed, in
/// the answer and in the replay cache's copy, and the cache evicts before
/// it caches, so its ring stays at its slots. Read under rustc 1.95.0
/// (3 while the text was allocated and then copied into the cache).
const REFUSAL_ALLOCATIONS: u64 = 1;

#[test]
#[cfg_attr(debug_assertions, ignore = "pinned for release builds")]
fn suspended_refusal_allocations_are_pinned() {
    let (mut reactor, mut stack) = stage_world();
    // Every suspended session refused in turn, more times over than its
    // replay ring holds answers, before and while counting.
    let mut t = 0;
    let mut run = |turns: u64| {
        let mut n = 0;
        for _ in 0..turns {
            let conn = 2 + t % (STAGE_SESSIONS - 1);
            let seq = 1 + t / (STAGE_SESSIONS - 1);
            let cmd = Command::MRead {
                memaddr: 0,
                bytecnt: 8,
            };
            stack.feed(conn, &Message::CmdSeq { seq, cmd }.to_frame());
            stack.clock += 1_000_000;
            reactor.pump(&mut stack);
            n += allocations(|| assert_eq!(reactor.dispatch(&mut stack), 1));
            assert!(reactor.flush(&mut stack).is_empty());
            let got = replies(&mut stack, conn);
            let msg = "preempted by higher priority".into();
            let refused = Response::Err {
                code: ErrCode::Suspended,
                msg,
            };
            assert_eq!(got, [Message::RespSeq { seq, resp: refused }]);
            t += 1;
        }
        n
    };
    run(100 * (STAGE_SESSIONS - 1));
    let n = run(TURNS);
    println!("suspended refusals: dispatch {n} allocations over {TURNS} refusals");
    assert_eq!(
        n,
        REFUSAL_ALLOCATIONS * TURNS,
        "allocations per {TURNS} refused commands moved in dispatch (a code change, or a \
         toolchain other than rustc 1.95.0 growing std collections differently)"
    );
}
