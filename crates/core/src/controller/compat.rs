//! The PlanetLab-model compatibility layer (§3.5 future work).
//!
//! "Most measurement platforms today follow the PlanetLab model, where
//! experiments run on the endpoint rather than on a separate controller.
//! Developers will need to adjust to the PacketLab model ... We plan to
//! develop libraries and VPN-style drivers to allow developers to code
//! experiments to the old model but run them on PacketLab nodes."
//!
//! [`CompatSocket`] is that library: it looks like a plain blocking socket
//! ("I am running on the endpoint"), but every call is translated into
//! PacketLab commands over the control channel. `send` becomes an
//! immediate `nsend`; `recv` becomes an `npoll` loop; the socket's clock
//! is the *endpoint's* clock. The §3.5 caveat applies and is now
//! mechanical: each blocking call costs a controller round trip, which is
//! precisely what `repro rtt_limitation` quantifies.

use super::{ControlChannel, ControlPlane, Controller, ControllerError};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// A blocking-socket façade over a PacketLab endpoint socket.
///
/// Borrow the controller for the socket's lifetime; drop (or
/// [`CompatSocket::close`]) releases the endpoint socket.
pub struct CompatSocket<'a, C: ControlChannel> {
    ctrl: &'a mut Controller<C>,
    sktid: u32,
    /// Received payloads not yet handed to the caller.
    pending: VecDeque<(u64, Vec<u8>)>,
    closed: bool,
}

impl<'a, C: ControlChannel> CompatSocket<'a, C> {
    /// "socket(AF_INET, SOCK_DGRAM)" + "connect(remote)" on the endpoint:
    /// opens a UDP socket bound to `locport`, associated with `remote`.
    pub fn udp(
        ctrl: &'a mut Controller<C>,
        sktid: u32,
        locport: u16,
        remote: Ipv4Addr,
        remport: u16,
    ) -> Result<Self, ControllerError> {
        ctrl.nopen_udp(sktid, locport, remote, remport)?;
        Ok(CompatSocket { ctrl, sktid, pending: VecDeque::new(), closed: false })
    }

    /// A raw IP socket on the endpoint (requires privilege there).
    pub fn raw(ctrl: &'a mut Controller<C>, sktid: u32) -> Result<Self, ControllerError> {
        ctrl.nopen_raw(sktid)?;
        Ok(CompatSocket { ctrl, sktid, pending: VecDeque::new(), closed: false })
    }

    /// The endpoint-local time, ns — "gettimeofday() on the endpoint".
    pub fn now(&mut self) -> Result<u64, ControllerError> {
        self.ctrl.read_clock()
    }

    /// Blocking send, as if written on the endpoint: the datagram/stream
    /// bytes leave immediately (one control round trip later).
    pub fn send(&mut self, data: &[u8]) -> Result<(), ControllerError> {
        self.ctrl.nsend(self.sktid, 0, data.to_vec())?;
        Ok(())
    }

    /// Install a capture filter (raw sockets; Cpf source).
    pub fn set_filter(&mut self, cpf_source: &str) -> Result<(), ControllerError> {
        self.ctrl.ncap_cpf(self.sktid, u64::MAX, cpf_source)
    }

    /// Blocking receive with a timeout in *endpoint* nanoseconds: returns
    /// the next payload for this socket, or `None` on timeout. A poll
    /// returns the session's captures for every socket: this socket's are
    /// queued here, and the others' are dropped. Only one `CompatSocket`
    /// can borrow a `Controller` at a time, so the model serves
    /// single-socket experiments.
    pub fn recv(&mut self, timeout: u64) -> Result<Option<(u64, Vec<u8>)>, ControllerError> {
        if let Some(item) = self.pending.pop_front() {
            return Ok(Some(item));
        }
        let deadline = self.ctrl.read_clock()?.saturating_add(timeout);
        loop {
            let poll = self.ctrl.npoll(deadline)?;
            let mut got_mine = false;
            for (skt, time, data) in poll.packets {
                if skt == self.sktid {
                    self.pending.push_back((time, data));
                    got_mine = true;
                }
                // Other sockets' data is dropped here; single-socket
                // experiments (the compat model's target) are unaffected.
            }
            if got_mine {
                return Ok(self.pending.pop_front());
            }
            if self.ctrl.read_clock()? >= deadline {
                return Ok(None);
            }
        }
    }

    /// Close the endpoint socket.
    pub fn close(mut self) -> Result<(), ControllerError> {
        self.closed = true;
        self.ctrl.nclose(self.sktid)
    }
}

impl<C: ControlChannel> Drop for CompatSocket<'_, C> {
    fn drop(&mut self) {
        if !self.closed {
            let _ = self.ctrl.nclose(self.sktid);
        }
    }
}
