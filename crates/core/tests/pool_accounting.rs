//! Corpus-wide packet-pool leak check.
//!
//! Every frame the simulator materialises is drawn from (or adopted
//! into) the node-shared [`plab_netsim::BufPool`]; refcounted sharing
//! means a buffer reaches end-of-life exactly once, when its last clone
//! drops. [`packetlab::chaos::run`] reads the pool counters *after*
//! dropping the world, so at that point `taken == recycled` must hold
//! exactly — any imbalance is a leaked or double-recycled buffer.
//!
//! Running the whole chaos corpus makes this a strong invariant: the
//! schedules include link flaps (frames dying in flight), loss bursts,
//! TCP resets, and node crash/restart cycles (inboxes and retransmit
//! queues wiped mid-experiment), so frames are destroyed on every path
//! that exists, not just the happy one.

use packetlab::chaos;

#[test]
fn pool_symmetric_across_chaos_corpus() {
    let corpus = chaos::corpus();
    assert!(corpus.len() >= 50, "corpus shrank: {}", corpus.len());
    for (scenario, seed) in corpus {
        let out = chaos::run(scenario, seed);
        assert_eq!(
            out.pool_taken,
            out.pool_recycled,
            "pool leak: taken={} recycled={} in {}",
            out.pool_taken,
            out.pool_recycled,
            out.report()
        );
        assert!(
            out.pool_taken > 0,
            "no pool traffic — accounting is not wired: {}",
            out.report()
        );
    }
}
