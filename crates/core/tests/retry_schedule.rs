//! `RobustController`'s retry schedule, instant by instant: a scripted
//! dialer and channel over a fake clock that records every `wait_until`,
//! driven through three failed dials (no channel, a `Busy` refusal, a
//! handshake that times out), a connect, three `Suspended` refusals and
//! an answer. The chaos corpus never takes either backoff (no row has a
//! failed dial or a suspended wait), so this is where a change to the
//! backoff arithmetic, the jitter draws or the retry bookkeeping shows.
//! Closing a channel takes [`CLOSE_NS`] of the fake clock, as closing a
//! simulated connection advances the simulator, so the events' stamps
//! also pin when a failed dial's channel closes: after its record.

use packetlab::cert::Restrictions;
use packetlab::controller::robust::{self, RetryPolicy, RetryStats, RobustController};
use packetlab::controller::{aio, ControlChannel, ControlPlane, Credentials};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::wire::{ErrCode, Message, Response};
use plab_crypto::{KeyHash, Keypair};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Virtual time a channel takes to close.
const CLOSE_NS: u64 = 1_000_000;

/// Move the fake clock, and the obs recorder's stamp with it.
fn set_clock(clock: &Cell<u64>, time: u64) {
    clock.set(time);
    plab_obs::set_virtual_time(time);
}

/// A channel that answers from its script whatever the deadline, takes
/// no time but to close, and reads the dialer's clock.
struct Scripted {
    clock: Rc<Cell<u64>>,
    script: VecDeque<Message>,
}

impl Drop for Scripted {
    fn drop(&mut self) {
        set_clock(&self.clock, self.clock.get() + CLOSE_NS);
    }
}

impl aio::Channel for Scripted {
    async fn send(&mut self, _: &Message) {}
    async fn recv(&mut self, _: Option<u64>) -> Option<Message> {
        self.script.pop_front()
    }
    fn now(&self) -> u64 {
        self.clock.get()
    }
}

impl ControlChannel for Scripted {}

/// One scripted channel per dial (`None`: the dial fails); every
/// `wait_until` instant is recorded and moves the clock there.
struct ScriptedDialer {
    clock: Rc<Cell<u64>>,
    dials: VecDeque<Option<Vec<Message>>>,
    waits: Rc<RefCell<Vec<u64>>>,
}

impl aio::Dialer for ScriptedDialer {
    type Chan = Scripted;
    async fn dial(&mut self) -> Option<Scripted> {
        let script = self.dials.pop_front().flatten()?;
        Some(Scripted {
            clock: self.clock.clone(),
            script: script.into(),
        })
    }
    fn now(&self) -> u64 {
        self.clock.get()
    }
    async fn wait_until(&mut self, time: u64) {
        self.waits.borrow_mut().push(time);
        set_clock(&self.clock, time.max(self.clock.get()));
    }
}

impl robust::Dialer for ScriptedDialer {}

fn refusal(code: ErrCode) -> Response {
    Response::Err {
        code,
        msg: "".into(),
    }
}

#[test]
fn failed_dials_then_suspended_refusals_back_off_on_the_pinned_schedule() {
    const START: u64 = 1_000_000_000;
    let clock = Rc::new(Cell::new(START));
    let waits = Rc::new(RefCell::new(Vec::new()));
    let hello = Message::HelloAck {
        version: packetlab::PROTOCOL_VERSION,
        nonce: [0; 32],
    };
    let suspended = (1..=3).map(|seq| Message::RespSeq {
        seq,
        resp: refusal(ErrCode::Suspended),
    });
    let answer = Message::RespSeq {
        seq: 4,
        resp: Response::Mem { data: vec![7] },
    };
    let session = [hello, Message::AuthOk]
        .into_iter()
        .chain(suspended)
        .chain([answer]);
    let dials = [
        None,
        Some(vec![Message::Resp(refusal(ErrCode::Busy))]),
        Some(Vec::new()),
        Some(session.collect()),
    ];
    let dialer = ScriptedDialer {
        clock: clock.clone(),
        dials: dials.into(),
        waits: waits.clone(),
    };
    let operator = Keypair::from_seed(&[1; 32]);
    let experimenter = Keypair::from_seed(&[2; 32]);
    let descriptor = ExperimentDescriptor {
        name: "retry-schedule".into(),
        controller_addr: "10.9.0.1:7000".into(),
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
    let policy = RetryPolicy {
        request_timeout: 1_000_000_000,
        base_backoff: 100_000_000,
        max_backoff: 300_000_000,
        unreachable_budget: 60_000_000_000,
        jitter_seed: 7,
    };

    plab_obs::enable();
    plab_obs::reset();
    plab_obs::set_virtual_time(START);
    let mut rc =
        RobustController::connect(dialer, creds, policy).expect("the fourth dial connects");
    assert_eq!(rc.mread(0, 1), Ok(vec![7]));
    let events: Vec<String> = plab_obs::tail_for(plab_obs::Component::Controller, 64)
        .iter()
        .map(|e| {
            e.line()
                .split_once('@')
                .expect("#seq@t prefix")
                .1
                .to_string()
        })
        .collect();
    plab_obs::disable();

    // Ceilings 100, 200, 300 (capped) ms for the dials, and the same for
    // the refusals: half fixed, half from one jitter draw each. Each sleep
    // starts where the last one ended, plus CLOSE_NS after the two dials
    // that opened a channel.
    let sleeps = [
        75_888_176,
        142_543_580,
        280_295_316,
        55_132_401,
        120_705_478,
        244_817_264,
    ];
    let instants = [
        1_075_888_176,
        1_219_431_756,
        1_500_727_072,
        1_555_859_473,
        1_676_564_951,
        1_921_382_215,
    ];
    assert_eq!(*waits.borrow(), instants);
    let closes = [0, CLOSE_NS, CLOSE_NS, 0, 0, 0];
    let starts = [START]
        .into_iter()
        .chain(instants)
        .zip(closes)
        .map(|(t, c)| t + c);
    assert!(starts.zip(sleeps).map(|(t, s)| t + s).eq(instants));
    let stats = RetryStats {
        connects: 1,
        failed_dials: 3,
        timeouts: 0,
        replays: 0,
        suspended_waits: 3,
    };
    assert_eq!(rc.stats, stats);
    assert!(rc.notifications.is_empty());
    assert_eq!(plab_obs::metrics::counter("controller.busy_rejections"), 1);
    assert_eq!(plab_obs::metrics::counter("controller.failed_dials"), 3);
    assert_eq!(plab_obs::metrics::counter("controller.suspended_waits"), 3);
    let expected = [
        "1000000000ns controller.dial.fail failures=0".to_string(),
        format!(
            "1000000000ns controller.backoff sleep_ns={} failures=1",
            sleeps[0]
        ),
        "1075888176ns controller.dial.busy failures=1".to_string(),
        format!(
            "1076888176ns controller.backoff sleep_ns={} failures=2",
            sleeps[1]
        ),
        "1219431756ns controller.dial.fail failures=2".to_string(),
        format!(
            "1220431756ns controller.backoff sleep_ns={} failures=3",
            sleeps[2]
        ),
        "1500727072ns controller.connect failures=3".to_string(),
        "1500727072ns controller.suspended.wait seq=1 waits=1".to_string(),
        "1555859473ns controller.suspended.wait seq=2 waits=2".to_string(),
        "1676564951ns controller.suspended.wait seq=3 waits=3".to_string(),
    ];
    assert_eq!(events, expected);
}
