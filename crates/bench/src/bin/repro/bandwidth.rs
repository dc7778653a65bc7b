//! E1 — §4 uplink bandwidth experiment reproduction.
//!
//! Regenerates the experiment the paper prototypes: "To measure an
//! endpoint's uplink bandwidth, we make it send a sequence of UDP packets
//! to our server as quickly as possible, and then record the rate at which
//! they arrive at the server."
//!
//! Sweeps the true access-link bandwidth and the burst size, reporting the
//! estimate, and includes the ablation column: what a controller *without*
//! scheduled sends would measure (each datagram commanded individually
//! over the control channel).

use packetlab::controller::experiments;
use plab_bench::{build_world, connect};

pub fn run(_: &crate::Opts) -> i32 {
    println!("E1: §4 uplink bandwidth measurement (scheduled burst at t0+δ)");
    println!("    control RTT: 30 ms; payload 1172 B (1200 B IP datagrams)\n");
    println!(
        "{:>12} {:>8} {:>14} {:>9} {:>18}",
        "true uplink", "burst", "measured", "error", "unscheduled (naive)"
    );
    println!("{}", "-".repeat(66));

    for true_mbps in [1u64, 2, 5, 10, 25, 50, 100] {
        for burst in [10u32, 50, 200] {
            let world = build_world(10, true_mbps, 2);
            let mut ctrl = connect(&world);
            let est = experiments::measure_uplink_bandwidth(
                &mut ctrl,
                9000,
                burst,
                1172,
                300_000_000,
            )
            .expect("bandwidth experiment");
            let measured = est.bits_per_sec / 1e6;
            let err = (measured - true_mbps as f64).abs() / true_mbps as f64 * 100.0;

            // Ablation only for the middle burst size (it is slow by
            // design: one control RTT per datagram).
            let naive = if burst == 50 {
                let world2 = build_world(10, true_mbps, 2);
                let mut ctrl2 = connect(&world2);
                let naive_est = experiments::measure_uplink_bandwidth_unscheduled(
                    &mut ctrl2, 9001, 20, 1172,
                )
                .expect("naive variant");
                format!("{:>13.2} Mbps", naive_est.bits_per_sec / 1e6)
            } else {
                String::from("")
            };

            println!(
                "{:>9} Mbps {:>8} {:>9.2} Mbps {:>8.2}% {naive}",
                true_mbps, burst, measured, err
            );
        }
    }

    println!(
        "\nShape check (paper's claim): the scheduled-burst estimate tracks the\n\
         true link bandwidth across the sweep; the naive variant collapses to\n\
         ~(datagram size)/(control RTT) regardless of the actual link — the\n\
         reason nsend takes a time parameter."
    );
    0
}
