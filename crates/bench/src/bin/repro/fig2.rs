//! F2 — Figure 2 monitor reproduction: compile the paper's Cpf program and
//! adjudicate a deck of packets, printing each decision; then measure the
//! per-packet monitor overhead (its wall time goes to stderr).

use plab_filter::{Verdict, Vm};
use plab_packet::{builder, layout};
use std::net::Ipv4Addr;
use std::time::Instant;

pub fn run(_: &crate::Opts) -> i32 {
    let me: Ipv4Addr = "10.0.0.1".parse().unwrap();
    let target: Ipv4Addr = "10.0.99.1".parse().unwrap();
    let router: Ipv4Addr = "10.0.1.254".parse().unwrap();
    let stranger: Ipv4Addr = "10.0.66.6".parse().unwrap();

    let program = plab_cpf::compile(plab_bench::FIGURE2_MONITOR).expect("Figure 2 compiles");
    println!(
        "F2: Figure 2 monitor — compiled from Cpf: {} instructions, {} B persistent\n",
        program.code.len(),
        program.persistent_size
    );
    let mut vm = Vm::new(program.clone()).unwrap();

    let mut info = vec![0u8; layout::INFO_SIZE];
    layout::resolve_info("addr.ip")
        .unwrap()
        .write_le(&mut info, u32::from(me) as u64);

    let probe = builder::icmp_echo_request(me, target, 5, 1, 1, &[0, 1]);
    let deck: Vec<(&str, &str, Vec<u8>, bool)> = vec![
        (
            "send",
            "echo request, me → target",
            probe.clone(),
            true,
        ),
        (
            "send",
            "echo request, spoofed source",
            builder::icmp_echo_request(stranger, target, 5, 1, 1, &[]),
            false,
        ),
        (
            "send",
            "UDP datagram, me → target",
            builder::udp_datagram(me, target, 1, 53, b"?"),
            false,
        ),
        (
            "send",
            "TCP SYN, me → target",
            builder::tcp_segment(
                me,
                target,
                plab_packet::tcp::TcpHeader {
                    src_port: 1,
                    dst_port: 80,
                    seq: 0,
                    ack: 0,
                    flags: plab_packet::tcp::flags::SYN,
                    window: 0,
                },
                &[],
            ),
            false,
        ),
        (
            "recv",
            "echo reply from target (= ping_dst)",
            builder::icmp_echo_reply(target, me, 1, 1, &[0, 1]),
            true,
        ),
        (
            "recv",
            "echo reply from stranger",
            builder::icmp_echo_reply(stranger, me, 1, 1, &[]),
            false,
        ),
        (
            "recv",
            "time exceeded quoting my probe",
            builder::icmp_time_exceeded(router, me, &probe),
            true,
        ),
        (
            "recv",
            "time exceeded quoting a stranger's probe",
            builder::icmp_time_exceeded(
                router,
                me,
                &builder::icmp_echo_request(stranger, target, 5, 1, 1, &[]),
            ),
            false,
        ),
    ];

    println!("{:<5} {:<42} {:>8} {:>9}", "entry", "packet", "verdict", "expected");
    println!("{}", "-".repeat(68));
    for (entry, desc, pkt, expect_allow) in &deck {
        let verdict = if *entry == "send" {
            vm.check_send(pkt, &info)
        } else {
            vm.check_recv(pkt, &info)
        };
        let allowed = matches!(verdict, Verdict::Allow(_));
        println!(
            "{:<5} {:<42} {:>8} {:>9}",
            entry,
            desc,
            if allowed { "allow" } else { "deny" },
            if *expect_allow { "allow" } else { "deny" },
        );
        assert_eq!(allowed, *expect_allow, "{desc}");
    }

    // Overhead: adjudications per second, Cpf-compiled Figure 2.
    let n = 200_000u32;
    let start = Instant::now();
    let mut allowed = 0u32;
    for i in 0..n {
        let v = if i % 2 == 0 {
            vm.check_send(&probe, &info)
        } else {
            vm.check_recv(&probe, &info)
        };
        if v.allowed() {
            allowed += 1;
        }
    }
    let elapsed = start.elapsed();
    let per = elapsed / n;
    println!(
        "\nmonitor overhead: {n} adjudications; vm executed {} instructions total",
        vm.insns_executed,
    );
    eprintln!(
        "monitor overhead: {n} adjudications in {elapsed:.2?} ({per:?}/packet, \
         {:.2} M packets/s)",
        1e9 / per.as_nanos() as f64 / 1e6,
    );
    let _ = allowed;
    0
}
