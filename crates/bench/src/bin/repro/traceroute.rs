//! E2 — §4 traceroute experiment reproduction.
//!
//! "To reproduce the traceroute tool, an experiment controller creates a
//! series of ICMP echo request packets with incrementing TTL values
//! starting from 1 and the payload set to contain a two-byte sequence
//! number." Sweeps the true path length and verifies the discovered path
//! matches the simulated topology hop-for-hop, with RTTs increasing
//! monotonically.

use packetlab::controller::experiments;
use plab_bench::{build_world, connect};

pub fn run(_: &crate::Opts) -> i32 {
    println!("E2: §4 traceroute (ICMP echo, TTL 1.., 2-byte sequence payload)\n");
    println!(
        "{:>10} {:>12} {:>12} {:>10} {:>14}",
        "true hops", "discovered", "path match", "reached", "last-hop rtt"
    );
    println!("{}", "-".repeat(64));

    for routers in [1usize, 2, 3, 5, 8, 12] {
        let world = build_world(10, 0, routers);
        let mut ctrl = connect(&world);
        let result = experiments::traceroute(&mut ctrl, world.target_addr, 40).unwrap();

        let discovered: Vec<_> = result.hops.iter().filter_map(|h| h.addr).collect();
        let mut expected = world.path.clone();
        expected.push(world.target_addr);
        let matches = discovered == expected;
        let rtts: Vec<u64> = result.hops.iter().filter_map(|h| h.rtt).collect();
        let monotonic = rtts.windows(2).all(|w| w[0] < w[1]);
        assert!(matches, "hop mismatch: {discovered:?} vs {expected:?}");
        assert!(monotonic, "rtts not monotonic: {rtts:?}");
        println!(
            "{:>10} {:>12} {:>12} {:>10} {:>11.1} ms",
            routers + 1,
            discovered.len(),
            if matches { "exact" } else { "MISMATCH" },
            result.reached,
            *rtts.last().unwrap() as f64 / 1e6,
        );
    }

    println!(
        "\nShape check: every hop on the simulated path is discovered in order,\n\
         the destination is always reached within the paper's TTL budget (40),\n\
         and per-hop RTTs increase monotonically — computed purely from\n\
         endpoint-side timestamps (tsnd from the send log, trcv from capture)."
    );
    0
}
