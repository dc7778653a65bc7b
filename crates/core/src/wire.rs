//! The PacketLab control protocol: framing and message codec.
//!
//! Every controller↔endpoint exchange is a length-prefixed frame carrying
//! one [`Message`]. The command set is exactly the paper's Table 1 plus
//! the session-management messages the paper describes in prose (hello,
//! authentication, priority contention notifications, yield).
//!
//! The codec is a hand-written binary format (length-prefixed strings and
//! byte blobs, little-endian integers) — a measurement protocol should own
//! its wire representation rather than inherit one from a serialization
//! framework.

use std::borrow::Cow;

/// Frame length prefix size.
pub const FRAME_HEADER: usize = 4;
/// Maximum frame size accepted (guards allocation).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;
/// Protocol limit on certificates in an [`Message::Auth`] chain. Real
/// delegation chains are a handful of links (Figure 1 uses two); the limit
/// exists so a hostile peer cannot make the decoder loop on an
/// attacker-chosen count.
pub const MAX_CHAIN: usize = 64;
/// Protocol limit on raw public keys in an [`Message::Auth`] message.
pub const MAX_KEYS: usize = 64;
/// Smallest possible encoding of one Poll packet entry:
/// sktid (4) + time (8) + length prefix (4).
const POLL_ENTRY_MIN: usize = 16;
/// Protocol limit on packets in one Poll response batch: the most entries
/// a maximum-size frame can structurally carry.
pub const MAX_POLL_PACKETS: usize = MAX_FRAME / POLL_ENTRY_MIN;

/// Socket protocol selector for `nopen` (Table 1: "opens a raw IP socket
/// ... or a TCP or UDP socket").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// Raw IP: send/capture whole datagrams.
    Raw,
    /// Native UDP socket serviced by the endpoint's OS.
    Udp,
    /// Native TCP socket serviced by the endpoint's OS.
    Tcp,
}

impl Proto {
    fn to_u8(self) -> u8 {
        match self {
            Proto::Raw => 0,
            Proto::Udp => 1,
            Proto::Tcp => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Proto> {
        Some(match v {
            0 => Proto::Raw,
            1 => Proto::Udp,
            2 => Proto::Tcp,
            _ => return None,
        })
    }
}

/// Commands a controller issues to an endpoint (Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Open a socket. For `Raw`, `locport`/`remaddr`/`remport` are unused.
    NOpen {
        /// Controller-chosen socket id.
        sktid: u32,
        /// Protocol.
        proto: Proto,
        /// Local port (TCP/UDP).
        locport: u16,
        /// Remote IPv4 address as u32 (TCP/UDP).
        remaddr: u32,
        /// Remote port (TCP/UDP).
        remport: u16,
    },
    /// Close a socket.
    NClose {
        /// Socket id.
        sktid: u32,
    },
    /// Queue data to be sent on a socket at a particular endpoint-clock
    /// time ("To send immediately, the controller specifies a time in the
    /// past").
    NSend {
        /// Socket id.
        sktid: u32,
        /// Endpoint-clock transmit time, ns.
        time: u64,
        /// Raw: complete IP datagram. UDP: one datagram payload. TCP:
        /// stream bytes.
        data: Vec<u8>,
    },
    /// Install a packet filter on a raw socket; captures until `time`.
    NCap {
        /// Socket id.
        sktid: u32,
        /// Endpoint-clock expiry, ns ("can be arbitrarily far in the
        /// future").
        time: u64,
        /// Encoded PFVM program (see `plab-filter`).
        filt: Vec<u8>,
    },
    /// Poll for received data; endpoint replies immediately if data is
    /// buffered, otherwise when data arrives or at `time`. A session has
    /// one pending poll: an `npoll` that arrives while another is waiting
    /// first completes that one with whatever is buffered (possibly
    /// nothing), so answers leave in the order their polls came and every
    /// sequenced poll gets its own `RespSeq`.
    NPoll {
        /// Endpoint-clock deadline, ns.
        time: u64,
    },
    /// Read endpoint virtual memory.
    MRead {
        /// Byte offset.
        memaddr: u32,
        /// Byte count.
        bytecnt: u32,
    },
    /// Write endpoint virtual memory (controller-writable region only).
    MWrite {
        /// Byte offset.
        memaddr: u32,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// Voluntarily yield the endpoint (ends the session, resumes any
    /// suspended lower-priority experiment).
    Yield,
}

/// Endpoint responses. Each command gets exactly one response, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Command succeeded.
    Ok,
    /// `nsend` accepted: the scheduled send was assigned this tag; its
    /// actual transmit time becomes readable via `mread` in the send-time
    /// log region (see `memory`).
    SendQueued {
        /// Send-log tag.
        tag: u64,
    },
    /// `mread` result.
    Mem {
        /// The bytes read.
        data: Vec<u8>,
    },
    /// `npoll` result: captured data plus drop accounting ("the npoll
    /// command also returns the number of packets and bytes dropped due to
    /// buffer exhaustion").
    Poll {
        /// Captured (sktid, endpoint receive time, bytes) tuples.
        packets: Vec<(u32, u64, Vec<u8>)>,
        /// Packets dropped since the last poll.
        dropped_packets: u64,
        /// Bytes dropped since the last poll.
        dropped_bytes: u64,
    },
    /// Command failed.
    Err {
        /// Machine-readable code.
        code: ErrCode,
        /// Human-readable detail: borrowed when it is a fixed text, so a
        /// refusal allocates nothing; decoding yields an owned one.
        msg: Cow<'static, str>,
    },
}

/// Error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Authentication / certificate problem.
    Auth,
    /// Socket id unknown or already in use.
    BadSocket,
    /// Operation denied by a monitor.
    Denied,
    /// Malformed command or filter program.
    Malformed,
    /// Memory access out of range or read-only.
    BadMemory,
    /// Session is suspended by a higher-priority experiment.
    Suspended,
    /// Capability unavailable (e.g. raw sockets without privilege).
    Unsupported,
    /// Resource limits exceeded.
    Limit,
    /// Endpoint at session capacity: admission refused, retry after
    /// backoff (the connection is closed after this response).
    Busy,
}

impl ErrCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrCode::Auth => 0,
            ErrCode::BadSocket => 1,
            ErrCode::Denied => 2,
            ErrCode::Malformed => 3,
            ErrCode::BadMemory => 4,
            ErrCode::Suspended => 5,
            ErrCode::Unsupported => 6,
            ErrCode::Limit => 7,
            ErrCode::Busy => 8,
        }
    }

    fn from_u8(v: u8) -> Option<ErrCode> {
        Some(match v {
            0 => ErrCode::Auth,
            1 => ErrCode::BadSocket,
            2 => ErrCode::Denied,
            3 => ErrCode::Malformed,
            4 => ErrCode::BadMemory,
            5 => ErrCode::Suspended,
            6 => ErrCode::Unsupported,
            7 => ErrCode::Limit,
            8 => ErrCode::Busy,
            _ => return None,
        })
    }
}

/// Asynchronous endpoint→controller notifications (§3.3 contention).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Notification {
    /// "the endpoint notifies the experiment controller of the current
    /// experiment that its experiment has been interrupted".
    Interrupted {
        /// Priority of the preempting experiment.
        by_priority: u8,
    },
    /// Control returned to this controller.
    Resumed,
}

/// Every frame carries one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Controller → endpoint: protocol hello.
    Hello {
        /// Protocol version.
        version: u8,
    },
    /// Endpoint → controller: hello response with an anti-replay nonce
    /// the controller must sign during authentication.
    HelloAck {
        /// Protocol version.
        version: u8,
        /// 32-byte nonce.
        nonce: [u8; 32],
    },
    /// Controller → endpoint: present the experiment and prove key
    /// possession. `chain`/`keys` establish authorization (Figure 1 ➐–➑);
    /// `proof` is an Ed25519 signature over `nonce ‖ sha256(descriptor)`
    /// by the experiment certificate's signing key.
    Auth {
        /// Encoded experiment descriptor.
        descriptor: Vec<u8>,
        /// Encoded certificate chain, root first.
        chain: Vec<Vec<u8>>,
        /// Raw public keys referenced by hash in the chain.
        keys: Vec<[u8; 32]>,
        /// Requested priority (must not exceed the chain's ceiling).
        priority: u8,
        /// Possession proof signature.
        proof: [u8; 64],
    },
    /// Endpoint → controller: session established.
    AuthOk,
    /// Endpoint → controller refusal of what has no seq to echo: `Busy`,
    /// or a `Hello`, `Auth` or controller-bound message out of phase.
    Resp(Response),
    /// Endpoint → controller async notification.
    Notify(Notification),
    /// Controller → endpoint command carrying an idempotency sequence
    /// number. The endpoint caches the response keyed by `seq`; a command
    /// replayed after a control-channel reconnect returns the cached
    /// response instead of re-executing, so ops are exactly-once even when
    /// the response was lost in flight.
    CmdSeq {
        /// Monotone per-session sequence number.
        seq: u64,
        /// The command.
        cmd: Command,
    },
    /// Endpoint → controller response to a [`Message::CmdSeq`], echoing
    /// its sequence number.
    RespSeq {
        /// Sequence number of the command this answers.
        seq: u64,
        /// The response.
        resp: Response,
    },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Little-endian field writer over the payload being built: the encode
/// half of [`Reader`]. Shared with the rendezvous codec.
pub(crate) struct Writer(Vec<u8>);

impl Writer {
    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Fixed-size field: the bytes as they are.
    pub(crate) fn raw(&mut self, data: &[u8]) {
        self.0.extend_from_slice(data);
    }

    /// Variable-size field: `u32` length, then the bytes.
    pub(crate) fn bytes(&mut self, data: &[u8]) {
        self.u32(data.len() as u32);
        self.raw(data);
    }

    /// An experiment bundle — descriptor, certificate chain, raw keys —
    /// as [`Message::Auth`] and the rendezvous `Publish`/`Announce` carry
    /// it.
    pub(crate) fn bundle(&mut self, descriptor: &[u8], chain: &[Vec<u8>], keys: &[[u8; 32]]) {
        self.bytes(descriptor);
        self.u16(chain.len() as u16);
        for c in chain {
            self.bytes(c);
        }
        self.u16(keys.len() as u16);
        for k in keys {
            self.raw(k);
        }
    }
}

/// Capacity a payload buffer starts with: every command and every response
/// without a data blob fits, so the common message is one allocation.
const SMALL_MESSAGE: usize = 64;

/// The payload `write` produces, alone.
pub(crate) fn payload(write: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(SMALL_MESSAGE));
    write(&mut w);
    w.0
}

/// The payload `write` produces behind its length prefix, in a buffer of
/// its own.
pub(crate) fn framed(write: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + SMALL_MESSAGE);
    frame_into(&mut out, write);
    out
}

/// Append the payload `write` produces behind its length prefix, built in
/// place: the header is a placeholder until the payload's size is known.
fn frame_into(out: &mut Vec<u8>, write: impl FnOnce(&mut Writer)) {
    let at = out.len();
    let mut w = Writer(std::mem::take(out));
    w.raw(&[0; FRAME_HEADER]);
    write(&mut w);
    let len = (w.0.len() - at - FRAME_HEADER) as u32;
    w.0[at..at + FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
    *out = w.0;
}

/// Codec errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Frame or field truncated.
    Truncated,
    /// Unknown tag or enum value.
    BadTag,
    /// Length field exceeds limits.
    TooLarge,
    /// Invalid UTF-8 in a string field.
    BadString,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadTag => write!(f, "unknown message tag"),
            WireError::TooLarge => write!(f, "length field too large"),
            WireError::BadString => write!(f, "invalid string"),
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded experiment bundle: (descriptor, certificate chain, raw keys).
pub(crate) type Bundle = (Vec<u8>, Vec<Vec<u8>>, Vec<[u8; 32]>);

/// Advancing little-endian field reader over one payload.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// The next `N` bytes.
    pub(crate) fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.buf.split_first_chunk::<N>().ok_or(WireError::Truncated)?;
        self.buf = rest;
        Ok(*head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take::<1>()?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME {
            return Err(WireError::TooLarge);
        }
        let (head, rest) = self.buf.split_at_checked(len).ok_or(WireError::Truncated)?;
        self.buf = rest;
        Ok(head.to_vec())
    }

    pub(crate) fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::BadString)
    }

    /// The decode half of [`Writer::bundle`]. Counts are
    /// attacker-controlled: reject above the protocol limit instead of
    /// looping an attacker-chosen number of times (clamping only the Vec
    /// *capacity* still loops).
    pub(crate) fn bundle(&mut self) -> Result<Bundle, WireError> {
        let descriptor = self.bytes()?;
        let n_chain = self.u16()? as usize;
        if n_chain > MAX_CHAIN {
            return Err(WireError::TooLarge);
        }
        let mut chain = Vec::with_capacity(n_chain);
        for _ in 0..n_chain {
            chain.push(self.bytes()?);
        }
        let n_keys = self.u16()? as usize;
        if n_keys > MAX_KEYS {
            return Err(WireError::TooLarge);
        }
        let mut keys = Vec::with_capacity(n_keys);
        for _ in 0..n_keys {
            keys.push(self.take()?);
        }
        Ok((descriptor, chain, keys))
    }

    /// The payload must end where the message does.
    pub(crate) fn done(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::BadTag)
        }
    }
}

impl Message {
    /// Encode into a payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        payload(|w| self.write(w))
    }

    fn write(&self, b: &mut Writer) {
        match self {
            Message::Hello { version } => {
                b.u8(0);
                b.u8(*version);
            }
            Message::HelloAck { version, nonce } => {
                b.u8(1);
                b.u8(*version);
                b.raw(nonce);
            }
            Message::Auth { descriptor, chain, keys, priority, proof } => {
                b.u8(2);
                b.bundle(descriptor, chain, keys);
                b.u8(*priority);
                b.raw(proof);
            }
            Message::AuthOk => b.u8(3),
            Message::Resp(resp) => {
                b.u8(5);
                encode_response(b, resp);
            }
            Message::Notify(n) => {
                b.u8(6);
                match n {
                    Notification::Interrupted { by_priority } => {
                        b.u8(0);
                        b.u8(*by_priority);
                    }
                    Notification::Resumed => b.u8(1),
                }
            }
            Message::CmdSeq { seq, cmd } => {
                b.u8(7);
                b.u64(*seq);
                encode_command(b, cmd);
            }
            Message::RespSeq { seq, resp } => {
                b.u8(8);
                b.u64(*seq);
                encode_response(b, resp);
            }
        }
    }

    /// Decode from a payload.
    pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            0 => Message::Hello { version: r.u8()? },
            1 => Message::HelloAck { version: r.u8()?, nonce: r.take()? },
            2 => {
                let (descriptor, chain, keys) = r.bundle()?;
                Message::Auth { descriptor, chain, keys, priority: r.u8()?, proof: r.take()? }
            }
            3 => Message::AuthOk,
            5 => Message::Resp(decode_response(&mut r)?),
            6 => match r.u8()? {
                0 => Message::Notify(Notification::Interrupted { by_priority: r.u8()? }),
                1 => Message::Notify(Notification::Resumed),
                _ => return Err(WireError::BadTag),
            },
            7 => Message::CmdSeq { seq: r.u64()?, cmd: decode_command(&mut r)? },
            8 => Message::RespSeq { seq: r.u64()?, resp: decode_response(&mut r)? },
            _ => return Err(WireError::BadTag),
        };
        r.done()?;
        Ok(msg)
    }

    /// Encode as a complete frame (length prefix + payload).
    pub fn to_frame(&self) -> Vec<u8> {
        framed(|w| self.write(w))
    }

    /// Append as a complete frame to `out`: what [`Message::to_frame`]
    /// returns, encoded into a buffer the caller keeps.
    pub fn write_frame(&self, out: &mut Vec<u8>) {
        frame_into(out, |w| self.write(w))
    }
}

fn encode_command(b: &mut Writer, cmd: &Command) {
    match cmd {
        Command::NOpen { sktid, proto, locport, remaddr, remport } => {
            b.u8(0);
            b.u32(*sktid);
            b.u8(proto.to_u8());
            b.u16(*locport);
            b.u32(*remaddr);
            b.u16(*remport);
        }
        Command::NClose { sktid } => {
            b.u8(1);
            b.u32(*sktid);
        }
        Command::NSend { sktid, time, data } => {
            b.u8(2);
            b.u32(*sktid);
            b.u64(*time);
            b.bytes(data);
        }
        Command::NCap { sktid, time, filt } => {
            b.u8(3);
            b.u32(*sktid);
            b.u64(*time);
            b.bytes(filt);
        }
        Command::NPoll { time } => {
            b.u8(4);
            b.u64(*time);
        }
        Command::MRead { memaddr, bytecnt } => {
            b.u8(5);
            b.u32(*memaddr);
            b.u32(*bytecnt);
        }
        Command::MWrite { memaddr, data } => {
            b.u8(6);
            b.u32(*memaddr);
            b.bytes(data);
        }
        Command::Yield => b.u8(7),
    }
}

fn decode_command(r: &mut Reader) -> Result<Command, WireError> {
    Ok(match r.u8()? {
        0 => Command::NOpen {
            sktid: r.u32()?,
            proto: Proto::from_u8(r.u8()?).ok_or(WireError::BadTag)?,
            locport: r.u16()?,
            remaddr: r.u32()?,
            remport: r.u16()?,
        },
        1 => Command::NClose { sktid: r.u32()? },
        2 => Command::NSend { sktid: r.u32()?, time: r.u64()?, data: r.bytes()? },
        3 => Command::NCap { sktid: r.u32()?, time: r.u64()?, filt: r.bytes()? },
        4 => Command::NPoll { time: r.u64()? },
        5 => Command::MRead { memaddr: r.u32()?, bytecnt: r.u32()? },
        6 => Command::MWrite { memaddr: r.u32()?, data: r.bytes()? },
        7 => Command::Yield,
        _ => return Err(WireError::BadTag),
    })
}

fn encode_response(b: &mut Writer, resp: &Response) {
    match resp {
        Response::Ok => b.u8(0),
        Response::SendQueued { tag } => {
            b.u8(1);
            b.u64(*tag);
        }
        Response::Mem { data } => {
            b.u8(2);
            b.bytes(data);
        }
        Response::Poll { packets, dropped_packets, dropped_bytes } => {
            b.u8(3);
            b.u32(packets.len() as u32);
            for (sktid, time, data) in packets {
                b.u32(*sktid);
                b.u64(*time);
                b.bytes(data);
            }
            b.u64(*dropped_packets);
            b.u64(*dropped_bytes);
        }
        Response::Err { code, msg } => {
            b.u8(4);
            b.u8(code.to_u8());
            b.bytes(msg.as_bytes());
        }
    }
}

fn decode_response(r: &mut Reader) -> Result<Response, WireError> {
    Ok(match r.u8()? {
        0 => Response::Ok,
        1 => Response::SendQueued { tag: r.u64()? },
        2 => Response::Mem { data: r.bytes()? },
        3 => {
            // The batch count is attacker-controlled. Besides the protocol
            // ceiling, bound it by what the remaining bytes can structurally
            // hold (each entry encodes to at least POLL_ENTRY_MIN bytes), so
            // a short message with a huge count is rejected before looping.
            let n = r.u32()? as usize;
            if n > MAX_POLL_PACKETS || n > r.buf.len() / POLL_ENTRY_MIN {
                return Err(WireError::TooLarge);
            }
            let mut packets = Vec::with_capacity(n);
            for _ in 0..n {
                packets.push((r.u32()?, r.u64()?, r.bytes()?));
            }
            Response::Poll {
                packets,
                dropped_packets: r.u64()?,
                dropped_bytes: r.u64()?,
            }
        }
        4 => Response::Err {
            code: ErrCode::from_u8(r.u8()?).ok_or(WireError::BadTag)?,
            msg: r.string()?.into(),
        },
        _ => return Err(WireError::BadTag),
    })
}

/// Incremental frame extractor for a byte stream.
///
/// Hardened against hostile peers:
///
/// - Frame headers are validated *eagerly* in [`FrameDecoder::extend`], so
///   a length prefix above [`MAX_FRAME`] poisons the stream immediately —
///   the unparseable tail a peer can force us to buffer is bounded by
///   `MAX_FRAME + FRAME_HEADER` (one partial frame), not by how much the
///   peer sends.
/// - Errors are *sticky*: once poisoned, `extend` drops further input and
///   `next_frame` keeps returning the error after draining the complete
///   frames received before the poisoned header. There is no resync — a
///   byte stream with a corrupt length prefix has no recoverable framing.
/// - Frames are consumed via a cursor with periodic compaction instead of
///   an O(buffered) `drain` per frame, so many small frames cost amortized
///   O(bytes) rather than O(bytes × frames).
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix: bytes before `start` belong to returned frames.
    start: usize,
    /// Bytes before `scanned` are complete, size-checked frames.
    scanned: usize,
    /// First error encountered; sticky.
    failed: Option<WireError>,
}

impl FrameDecoder {
    /// Fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently buffered and not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Drop the consumed prefix when it is at least as large as the live
    /// remainder (amortized O(1) per buffered byte).
    fn compact(&mut self) {
        if self.start > 0 && self.start >= self.buf.len() - self.start {
            self.buf.copy_within(self.start.., 0);
            let live = self.buf.len() - self.start;
            self.buf.truncate(live);
            self.scanned -= self.start;
            self.start = 0;
        }
    }

    /// Feed stream bytes.
    pub fn extend(&mut self, data: &[u8]) {
        if self.failed.is_some() {
            // Poisoned: nothing past the bad header will ever parse, so
            // don't let a hostile peer grow the buffer.
            return;
        }
        self.compact();
        self.buf.extend_from_slice(data);
        // Validate every newly completed frame header now. A frame that
        // fits entirely is skipped over in O(1); the final partial frame's
        // declared length bounds how much more this stream may buffer.
        while self.scanned + FRAME_HEADER <= self.buf.len() {
            // Infallible: the loop condition guarantees 4 bytes at
            // `scanned`.
            let len = u32::from_le_bytes(
                self.buf[self.scanned..self.scanned + FRAME_HEADER]
                    .try_into()
                    .unwrap(),
            ) as usize;
            if len > MAX_FRAME {
                self.failed = Some(WireError::TooLarge);
                // Keep the already-validated frames, drop the garbage tail.
                self.buf.truncate(self.scanned);
                break;
            }
            match self.scanned.checked_add(FRAME_HEADER + len) {
                Some(end) if end <= self.buf.len() => self.scanned = end,
                _ => break,
            }
        }
    }

    /// Feed everything `read` has: it is called, each time for at most
    /// that many bytes, until it returns none. True if any byte arrived.
    pub fn fill(&mut self, mut read: impl FnMut(usize) -> Vec<u8>) -> bool {
        let mut any = false;
        loop {
            let data = read(65536);
            if data.is_empty() {
                return any;
            }
            self.extend(&data);
            any = true;
        }
    }

    /// Consume the next complete frame and return its payload, or the
    /// sticky error once every frame before it went; `extend` compacts.
    fn take_payload(&mut self) -> Result<Option<&[u8]>, WireError> {
        if self.start < self.scanned {
            // A complete, size-checked frame is buffered ahead of any
            // poisoned header: deliver frames in order first.
            // Infallible: `extend` validated 4 header bytes at `start`.
            let at = self.start + FRAME_HEADER;
            let len = u32::from_le_bytes(self.buf[self.start..at].try_into().unwrap()) as usize;
            self.start = at + len;
            return Ok(Some(&self.buf[at..self.start]));
        }
        match self.failed {
            Some(e) => Err(e),
            None => Ok(None),
        }
    }

    /// Extract the next complete frame payload, if any.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        Ok(self.take_payload()?.map(<[u8]>::to_vec))
    }

    /// Decode the next message in place, if a full frame is buffered. A
    /// payload that fails [`Message::decode`] poisons the stream.
    pub fn next_message(&mut self) -> Result<Option<Message>, WireError> {
        let Some(payload) = self.take_payload()? else { return Ok(None) };
        match Message::decode(payload) {
            Ok(m) => Ok(Some(m)),
            Err(e) => {
                // A peer that framed an undecodable payload is broken
                // or hostile; don't resync onto later frames. This
                // overwrites any error `extend` found *later* in the
                // stream (e.g. an oversized header past this frame):
                // the first error in stream order is the one every
                // subsequent call must keep reporting.
                self.failed = Some(e);
                self.buf.clear();
                self.start = 0;
                self.scanned = 0;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let enc = msg.encode();
        assert_eq!(Message::decode(&enc), Ok(msg));
    }

    #[test]
    fn roundtrip_hello() {
        roundtrip(Message::Hello { version: 1 });
        roundtrip(Message::HelloAck { version: 1, nonce: [7; 32] });
    }

    #[test]
    fn roundtrip_auth() {
        roundtrip(Message::Auth {
            descriptor: vec![1, 2, 3],
            chain: vec![vec![4, 5], vec![6]],
            keys: vec![[1; 32], [2; 32]],
            priority: 9,
            proof: [3; 64],
        });
        roundtrip(Message::AuthOk);
    }

    #[test]
    fn roundtrip_all_commands() {
        for cmd in [
            Command::NOpen {
                sktid: 1,
                proto: Proto::Raw,
                locport: 0,
                remaddr: 0,
                remport: 0,
            },
            Command::NOpen {
                sktid: 2,
                proto: Proto::Tcp,
                locport: 1234,
                remaddr: 0x0a000001,
                remport: 80,
            },
            Command::NOpen {
                sktid: 3,
                proto: Proto::Udp,
                locport: 5000,
                remaddr: 0x0a000002,
                remport: 53,
            },
            Command::NClose { sktid: 2 },
            Command::NSend { sktid: 1, time: u64::MAX, data: vec![0; 100] },
            Command::NCap { sktid: 1, time: 1 << 40, filt: vec![9; 30] },
            Command::NPoll { time: 12345 },
            Command::MRead { memaddr: 0, bytecnt: 8 },
            Command::MWrite { memaddr: 64, data: vec![1, 2, 3, 4] },
            Command::Yield,
        ] {
            roundtrip(Message::CmdSeq { seq: u64::MAX, cmd });
        }
    }

    #[test]
    fn roundtrip_all_responses() {
        for resp in [
            Response::Ok,
            Response::SendQueued { tag: 42 },
            Response::Mem { data: vec![0xde, 0xad] },
            Response::Poll {
                packets: vec![(1, 100, vec![1, 2]), (2, 200, vec![])],
                dropped_packets: 3,
                dropped_bytes: 4096,
            },
            Response::Err { code: ErrCode::Denied, msg: "monitor denied send".into() },
        ] {
            roundtrip(Message::Resp(resp));
        }
    }

    /// A borrowed refusal text and the owned string a decoder yields are
    /// one message: the same bytes on the wire, equal after a round trip.
    #[test]
    fn borrowed_and_owned_error_texts_agree_on_the_wire() {
        let text = "preempted by higher priority";
        let borrowed = Message::RespSeq {
            seq: 9,
            resp: Response::Err { code: ErrCode::Suspended, msg: Cow::Borrowed(text) },
        };
        let owned = Message::RespSeq {
            seq: 9,
            resp: Response::Err { code: ErrCode::Suspended, msg: Cow::Owned(text.to_string()) },
        };
        assert_eq!(borrowed.encode(), owned.encode());
        assert_eq!(borrowed, owned);
        let decoded = Message::decode(&borrowed.encode()).expect("decodes");
        let Message::RespSeq { resp: Response::Err { msg, .. }, .. } = &decoded else {
            panic!("{decoded:?}");
        };
        assert!(matches!(msg, Cow::Owned(_)), "a decoded text is owned");
        assert_eq!(decoded, borrowed);
        assert_eq!(decoded, owned);
    }

    #[test]
    fn roundtrip_notifications() {
        roundtrip(Message::Notify(Notification::Interrupted { by_priority: 200 }));
        roundtrip(Message::Notify(Notification::Resumed));
    }

    #[test]
    fn roundtrip_sequenced() {
        roundtrip(Message::RespSeq {
            seq: 7,
            resp: Response::Poll {
                packets: vec![(1, 100, vec![1, 2])],
                dropped_packets: 1,
                dropped_bytes: 60,
            },
        });
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut enc = Message::Hello { version: 1 }.encode();
        enc.push(0xff);
        assert!(Message::decode(&enc).is_err());
    }

    #[test]
    fn decode_rejects_bad_tag() {
        assert_eq!(Message::decode(&[99]), Err(WireError::BadTag));
    }

    /// Every command is a `CmdSeq`: a payload tagged 4 with a command
    /// after it is no message.
    #[test]
    fn the_unsequenced_command_tag_is_a_bad_tag() {
        let seq = Message::CmdSeq { seq: 1, cmd: Command::NPoll { time: 7 } }.encode();
        let unsequenced = [&[4], &seq[9..]].concat();
        assert_eq!(Message::decode(&unsequenced), Err(WireError::BadTag));
    }

    #[test]
    fn decode_rejects_truncation() {
        let enc = Message::CmdSeq {
            seq: 3,
            cmd: Command::NSend { sktid: 1, time: 2, data: vec![1; 50] },
        }
        .encode();
        for cut in 1..enc.len() {
            assert!(Message::decode(&enc[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn frame_decoder_reassembles_split_frames() {
        let m1 = Message::Hello { version: 1 };
        let m2 = Message::CmdSeq { seq: 1, cmd: Command::NPoll { time: 7 } };
        let mut stream = m1.to_frame();
        stream.extend(m2.to_frame());
        let mut dec = FrameDecoder::new();
        // Feed byte by byte.
        let mut got = Vec::new();
        for b in stream {
            dec.extend(&[b]);
            while let Some(m) = dec.next_message().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, vec![m1, m2]);
    }

    #[test]
    fn frame_decoder_rejects_oversized() {
        let mut dec = FrameDecoder::new();
        dec.extend(&(u32::MAX).to_le_bytes());
        assert_eq!(dec.next_frame(), Err(WireError::TooLarge));
    }

    #[test]
    fn frame_decoder_error_is_sticky_and_bounds_buffering() {
        let mut dec = FrameDecoder::new();
        dec.extend(&(u32::MAX).to_le_bytes());
        assert_eq!(dec.next_frame(), Err(WireError::TooLarge));
        // Further input is dropped, not buffered.
        for _ in 0..100 {
            dec.extend(&[0u8; 1024]);
        }
        assert!(dec.buffered() <= FRAME_HEADER);
        assert_eq!(dec.next_frame(), Err(WireError::TooLarge));
    }

    #[test]
    fn frame_decoder_delivers_good_frames_before_poisoned_header() {
        let m = Message::Hello { version: 3 };
        let mut stream = m.to_frame();
        stream.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.extend(&stream);
        // The complete frame ahead of the bad header still comes out.
        assert_eq!(dec.next_message(), Ok(Some(m)));
        assert_eq!(dec.next_frame(), Err(WireError::TooLarge));
        assert_eq!(dec.next_frame(), Err(WireError::TooLarge));
    }

    #[test]
    fn frame_decoder_poisons_on_undecodable_payload() {
        let mut dec = FrameDecoder::new();
        let mut stream = 1u32.to_le_bytes().to_vec();
        stream.push(0xee); // bad message tag
        stream.extend_from_slice(&Message::Hello { version: 1 }.to_frame());
        dec.extend(&stream);
        assert_eq!(dec.next_message(), Err(WireError::BadTag));
        // Sticky: the stream does not resync onto the following frame.
        assert_eq!(dec.next_message(), Err(WireError::BadTag));
    }

    #[test]
    fn frame_decoder_many_small_frames_compact() {
        // Exercises the cursor + compaction path across many frames.
        let m = Message::CmdSeq { seq: 9, cmd: Command::NPoll { time: 9 } };
        let frame = m.to_frame();
        let mut dec = FrameDecoder::new();
        for chunk in 0..200 {
            dec.extend(&frame);
            if chunk % 3 == 0 {
                // Drain a batch, leaving some buffered.
                while let Some(got) = dec.next_message().unwrap() {
                    assert_eq!(got, m);
                }
            }
        }
        let mut n = 0;
        while dec.next_message().unwrap().is_some() {
            n += 1;
        }
        assert!(n > 0);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn auth_chain_count_over_limit_rejected() {
        // Hand-craft an Auth with a huge chain count but no chain bytes.
        let mut enc = vec![2u8];
        enc.extend_from_slice(&0u32.to_le_bytes()); // empty descriptor
        enc.extend_from_slice(&u16::MAX.to_le_bytes()); // n_chain
        assert_eq!(Message::decode(&enc), Err(WireError::TooLarge));
    }

    #[test]
    fn auth_key_count_over_limit_rejected() {
        let mut enc = vec![2u8];
        enc.extend_from_slice(&0u32.to_le_bytes()); // empty descriptor
        enc.extend_from_slice(&0u16.to_le_bytes()); // no chain
        enc.extend_from_slice(&u16::MAX.to_le_bytes()); // n_keys
        assert_eq!(Message::decode(&enc), Err(WireError::TooLarge));
    }

    #[test]
    fn auth_chain_at_limit_roundtrips() {
        roundtrip(Message::Auth {
            descriptor: vec![],
            chain: vec![vec![1]; MAX_CHAIN],
            keys: vec![[0; 32]; MAX_KEYS],
            priority: 0,
            proof: [0; 64],
        });
    }

    #[test]
    fn poll_count_over_structural_bound_rejected() {
        // Response::Poll claiming u32::MAX packets with an empty body.
        let mut enc = vec![5u8, 3u8];
        enc.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Message::decode(&enc), Err(WireError::TooLarge));
    }

    #[test]
    fn empty_poll_roundtrip() {
        roundtrip(Message::Resp(Response::Poll {
            packets: vec![],
            dropped_packets: 0,
            dropped_bytes: 0,
        }));
    }
}
