//! Real-time loopback deployment: the same endpoint agent and controller
//! that run in the simulator, here running over real `std::net` sockets —
//! the endpoint as an unprivileged software agent (no raw sockets, exactly
//! the case §3.1 discusses) on 127.0.0.1.
//!
//! ```text
//! cargo run --example loopback_realtime
//! ```

use packetlab::cert::Restrictions;
use packetlab::controller::{ControlPlane, Controller, Credentials};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::transport::{EndpointServer, TcpChannel};
use plab_crypto::{KeyHash, Keypair};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() {
    let operator = Keypair::from_seed(&[1; 32]);
    let experimenter = Keypair::from_seed(&[2; 32]);

    // A real endpoint server on an ephemeral loopback port.
    let server = EndpointServer::bind(
        "127.0.0.1:0".parse().unwrap(),
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            ..Default::default()
        },
    )
    .expect("bind endpoint");
    let control_addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let server_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || server.run(stop))
    };
    println!("endpoint agent listening on {control_addr} (real TCP)");

    // A "remote peer": a real UDP echo server on another loopback port.
    let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
    let peer_addr = peer.local_addr().unwrap();
    let peer_stop = Arc::new(AtomicBool::new(false));
    let peer_thread = {
        let stop = Arc::clone(&peer_stop);
        peer.set_read_timeout(Some(std::time::Duration::from_millis(20)))
            .unwrap();
        std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            while !stop.load(Ordering::Relaxed) {
                if let Ok((n, from)) = peer.recv_from(&mut buf) {
                    let _ = peer.send_to(&buf[..n], from);
                }
            }
        })
    };
    println!("udp echo peer on {peer_addr}\n");

    // Authenticate over the real control channel.
    let descriptor = ExperimentDescriptor {
        name: "loopback-realtime".into(),
        controller_addr: control_addr.to_string(),
        info_url: String::new(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    let creds = Credentials::issue(
        &operator,
        &experimenter,
        descriptor,
        Restrictions::none(),
        5,
    );
    let chan = TcpChannel::connect(control_addr).expect("dial endpoint");
    let mut ctrl = Controller::connect(chan, &creds).expect("authenticate");
    println!("authenticated (Ed25519 chain verified by the endpoint)");

    // Real clock sync over loopback.
    let sync = ctrl.sync_clock(8).unwrap();
    println!(
        "clock sync: offset {:.3} ms, min control RTT {:.3} ms",
        sync.offset as f64 / 1e6,
        sync.min_rtt as f64 / 1e6
    );

    // Raw sockets are honestly unavailable without privilege.
    match ctrl.nopen_raw(9) {
        Err(e) => println!("nopen(raw) refused as expected: {e}"),
        Ok(_) => unreachable!(),
    }

    // UDP round trip through the real peer, with a scheduled send.
    let peer_ip = match peer_addr.ip() {
        std::net::IpAddr::V4(ip) => ip,
        _ => unreachable!(),
    };
    ctrl.nopen_udp(1, 39_000, peer_ip, peer_addr.port())
        .unwrap();
    let t0 = ctrl.read_clock().unwrap();
    let when = t0 + 50_000_000; // 50 ms ahead, on the endpoint's clock
    let tag = ctrl
        .nsend(1, when, b"hello through a real socket".to_vec())
        .unwrap();

    let poll = ctrl.npoll(when + 2_000_000_000).unwrap();
    assert_eq!(poll.packets.len(), 1, "echo came back");
    let (_, trcv, data) = &poll.packets[0];
    let tsnd = ctrl.read_send_time(tag).unwrap().expect("send logged");
    println!(
        "udp echo: {:?} — scheduled at +50 ms, sent {:.3} ms late, peer RTT {:.3} ms",
        String::from_utf8_lossy(data),
        (tsnd as f64 - when as f64) / 1e6,
        (*trcv as f64 - tsnd as f64) / 1e6,
    );

    ctrl.yield_endpoint().unwrap();
    stop.store(true, Ordering::Relaxed);
    peer_stop.store(true, Ordering::Relaxed);
    server_thread.join().unwrap();
    peer_thread.join().unwrap();
    println!("\ndone: same agent, same protocol, real sockets.");
}
