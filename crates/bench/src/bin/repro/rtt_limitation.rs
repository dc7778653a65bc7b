//! L1 — §3.5 limitation: controller-RTT dependence of reactive
//! experiments vs RTT-immunity of scheduled ones.
//!
//! "Experiments that require fast endpoint response times will be at a
//! disadvantage, because the time between when an endpoint receives a
//! packet and when it can generate a response that depends on the received
//! packet will include the round-trip time between endpoint and
//! controller. ... We note, however, that a round trip is only necessary
//! if a sent packet depends on a received packet."
//!
//! Sweeps the controller↔endpoint link latency and reports:
//! - the peer-observed response time of a *reactive* exchange (request →
//!   endpoint → controller decides → endpoint → response), and
//! - the timing error of a *pre-scheduled* send (|actual − requested|).

use packetlab::controller::ControlPlane;
use plab_bench::{build_world, connect, reactive_response_time, scheduled_send_error};

pub fn run(_: &crate::Opts) -> i32 {
    println!("L1: §3.5 reactive-vs-scheduled under controller RTT sweep\n");
    println!(
        "{:>14} {:>14} {:>22} {:>22}",
        "control link", "control RTT", "reactive response", "scheduled-send error"
    );
    println!("{}", "-".repeat(76));

    for latency_ms in [1u64, 5, 10, 25, 50, 100, 250] {
        let world = build_world(latency_ms, 0, 1);
        let mut ctrl = connect(&world);
        let sync = ctrl.sync_clock(3).unwrap();
        let reactive = reactive_response_time(&world, &mut ctrl);
        let sched_err = scheduled_send_error(&world, &mut ctrl);
        println!(
            "{:>11} ms {:>11.1} ms {:>19.1} ms {:>19.3} ms",
            latency_ms,
            sync.min_rtt as f64 / 1e6,
            reactive as f64 / 1e6,
            sched_err as f64 / 1e6,
        );
        // Shape assertions: reactive grows with the control RTT; the
        // scheduled error does not.
        assert!(reactive as f64 >= sync.min_rtt as f64);
        assert_eq!(sched_err, 0, "scheduled sends fire exactly on time");
    }

    println!(
        "\nShape check: the reactive response time is ≥ one controller round\n\
         trip and grows linearly with it; the scheduled send executes at the\n\
         requested endpoint-clock instant (error 0) at every control latency —\n\
         the paper's argument that timing measurements need precise\n\
         timestamps, not fast endpoint response."
    );
    0
}
