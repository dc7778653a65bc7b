//! Bandwidth-estimation suite smoke tests: run the full `plab-bwest`
//! probe pipeline (TCP bulk drain + UDP dispersion over a
//! RobustController) against a few ground-truth corpus topologies and
//! check the estimates land within the 20% accuracy budget. The full
//! 20-topology accuracy table is `repro bwest`'s job; these entries are
//! the fast representatives of each regime (clean asymmetric, symmetric,
//! burst loss, multi-destination).

use packetlab::controller::experiments::bwest::Confidence;
use plab_bench::bwest;
use plab_netsim::roster::bw_corpus;

fn run(name: &str) -> bwest::BwestPoint {
    let corpus = bw_corpus();
    let spec = corpus
        .iter()
        .find(|s| s.name == name)
        .expect("corpus entry exists");
    bwest::point(spec)
}

#[test]
fn clean_asymmetric_access_within_budget() {
    let p = run("cable_30_5");
    assert_eq!(p.report.dests.len(), 1);
    assert!(
        p.worst_error_pct() <= 20.0,
        "cable_30_5: {:.1}% error (est {} vs truth {})",
        p.worst_error_pct(),
        p.report.dests[0].bits_per_sec,
        p.truth[0]
    );
    assert!(p.report.dests[0].tcp.is_some(), "TCP probe ran");
    assert!(
        p.report.dests[0].dispersion.is_some(),
        "dispersion probe ran"
    );
}

#[test]
fn symmetric_fiber_within_budget() {
    let p = run("fiber_sym_20");
    assert!(
        p.worst_error_pct() <= 20.0,
        "fiber_sym_20: {:.1}% error (est {} vs truth {})",
        p.worst_error_pct(),
        p.report.dests[0].bits_per_sec,
        p.truth[0]
    );
}

#[test]
fn burst_loss_falls_back_to_dispersion() {
    let p = run("lossy_adsl");
    let d = &p.report.dests[0];
    // Under Gilbert–Elliott burst loss the TCP probe's retransmission
    // counter must trip and the combiner must not report High confidence
    // off a collapsed bulk transfer.
    if let Some(tcp) = &d.tcp {
        if tcp.retrans > 2 || tcp.stalled {
            assert!(
                d.dispersion.is_some(),
                "fallback needs the dispersion estimate"
            );
        }
    }
    assert!(
        p.worst_error_pct() <= 20.0,
        "lossy_adsl: {:.1}% error (est {} vs truth {})",
        p.worst_error_pct(),
        d.bits_per_sec,
        p.truth[0]
    );
}

#[test]
fn multiple_destinations_rank_correctly() {
    let p = run("multi_dest_trio");
    assert_eq!(p.report.dests.len(), 3);
    assert!(
        p.worst_error_pct() <= 20.0,
        "multi_dest_trio: {:.1}% error",
        p.worst_error_pct()
    );
    // Dest 1 (8 Mbit/s link) is the slowest path; the estimates must
    // order the destinations like the configured truths do.
    let est: Vec<u64> = p.report.dests.iter().map(|d| d.bits_per_sec).collect();
    assert!(
        est[1] < est[0] && est[1] < est[2],
        "8 Mbit/s dest ranks slowest: {est:?}"
    );
    // A clean probe pair on the fast dest should agree to High confidence.
    assert!(
        p.report
            .dests
            .iter()
            .any(|d| d.confidence == Confidence::High),
        "no destination reached High confidence"
    );
}
