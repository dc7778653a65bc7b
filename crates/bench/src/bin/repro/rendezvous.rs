//! S1 — §3.2 rendezvous scaling: publish fan-out and subscribe replay as
//! the endpoint population grows ("We believe that two or three rendezvous
//! servers can be maintained by the measurement community").

use packetlab::cert::{CertPayload, Certificate, Restrictions};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::rendezvous::{RendezvousServer, RvMessage};
use plab_crypto::{Keypair, KeyHash};
use std::time::Instant;

pub fn run(opts: &crate::Opts) -> i32 {
    let json = opts.json;
    if !json {
        println!("S1: §3.2 rendezvous server scaling\n");
    }
    let rv_operator = Keypair::from_seed(&[1; 32]);
    let experimenter = Keypair::from_seed(&[2; 32]);
    let mut scale_rows: Vec<(usize, u32, usize, f64)> = Vec::new();

    // One authorization chain reused across publishes.
    let deleg = Certificate::sign(
        &rv_operator,
        CertPayload::Delegation(KeyHash::of(&experimenter.public)),
        Restrictions::none(),
    );

    if !json {
        println!(
            "{:>12} {:>12} {:>16} {:>18}",
            "subscribers", "publishes", "fan-out msgs", "publish rate"
        );
        println!("{}", "-".repeat(62));
    }
    for n_subs in [10usize, 100, 1_000, 10_000] {
        let mut server =
            RendezvousServer::new(vec![KeyHash::of(&rv_operator.public)], 1_700_000_000);
        // Endpoints subscribe on the operator channel.
        for sid in 0..n_subs as u64 {
            server.on_message(
                sid,
                RvMessage::Subscribe { channels: vec![KeyHash::of(&rv_operator.public).0] },
            );
        }
        let publishes = 50u32;
        let mut fanout = 0usize;
        let start = Instant::now();
        for i in 0..publishes {
            let descriptor = ExperimentDescriptor {
                name: format!("exp-{i}"),
                controller_addr: "10.0.0.1:7000".into(),
                info_url: String::new(),
                experimenter: KeyHash::of(&experimenter.public),
            };
            let leaf = Certificate::sign(
                &experimenter,
                CertPayload::Experiment(descriptor.hash()),
                Restrictions::none(),
            );
            let out = server.on_message(
                1_000_000 + i as u64,
                RvMessage::Publish {
                    descriptor: descriptor.encode(),
                    chain: vec![deleg.encode(), leaf.encode()],
                    keys: vec![*rv_operator.public.as_bytes(), *experimenter.public.as_bytes()],
                },
            );
            fanout += out.len() - 1; // minus the PublishOk
        }
        let elapsed = start.elapsed();
        let rate = publishes as f64 / elapsed.as_secs_f64();
        if !json {
            println!("{n_subs:>12} {publishes:>12} {fanout:>16} {rate:>13.1}/s");
        }
        assert_eq!(fanout, n_subs * publishes as usize);
        scale_rows.push((n_subs, publishes, fanout, rate));
    }

    // Late-subscriber replay cost.
    if !json {
        println!("\nlate-subscriber replay (existing experiments resent on subscribe):");
    }
    let mut server = RendezvousServer::new(vec![KeyHash::of(&rv_operator.public)], 1_700_000_000);
    for i in 0..1_000u32 {
        let descriptor = ExperimentDescriptor {
            name: format!("exp-{i}"),
            controller_addr: "10.0.0.1:7000".into(),
            info_url: String::new(),
            experimenter: KeyHash::of(&experimenter.public),
        };
        let leaf = Certificate::sign(
            &experimenter,
            CertPayload::Experiment(descriptor.hash()),
            Restrictions::none(),
        );
        server.on_message(
            i as u64,
            RvMessage::Publish {
                descriptor: descriptor.encode(),
                chain: vec![deleg.encode(), leaf.encode()],
                keys: vec![*rv_operator.public.as_bytes(), *experimenter.public.as_bytes()],
            },
        );
    }
    let start = Instant::now();
    let replay = server.on_message(
        9_999_999,
        RvMessage::Subscribe { channels: vec![KeyHash::of(&rv_operator.public).0] },
    );
    let replay_elapsed = start.elapsed();
    assert_eq!(replay.len(), 1_000);

    if json {
        let mut out = String::from("{\n  \"bench\": \"rendezvous\",\n  \"scaling\": [\n");
        for (i, (n_subs, publishes, fanout, rate)) in scale_rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"subscribers\": {n_subs}, \"publishes\": {publishes}, \
                 \"fanout_msgs\": {fanout}, \"publishes_per_sec\": {rate:.1}}}{}\n",
                if i + 1 < scale_rows.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"late_subscriber_replay\": {{\"experiments\": {}, \"wall_ns\": {}}}\n}}\n",
            replay.len(),
            replay_elapsed.as_nanos()
        ));
        print!("{out}");
        return 0;
    }

    println!(
        "  {} retained experiments replayed in {:.2?}",
        replay.len(),
        replay_elapsed
    );

    println!(
        "\nShape check: fan-out is exactly subscribers × publishes and the\n\
         publish rate stays in the hundreds-per-second range even at 10k\n\
         subscribers — consistent with the paper's claim that a couple of\n\
         community-run rendezvous servers suffice."
    );
    0
}
