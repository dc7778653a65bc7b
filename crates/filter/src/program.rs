//! PFVM program container and its certificate-embeddable serialization.
//!
//! Monitors travel inside PacketLab certificates (§3.3–3.4: "The endpoint
//! operator would compile and attach this monitor to the experiment
//! certificate"), so programs need a compact, versioned byte encoding.

use crate::insn::{Insn, INSN_SIZE};
use plab_packet::codec::{Reader, WireError, Writer};
use std::collections::BTreeMap;

/// Well-known entry point: run once when the monitor is instantiated.
pub const ENTRY_INIT: &str = "init";
/// Well-known entry point: adjudicate an outgoing packet.
pub const ENTRY_SEND: &str = "send";
/// Well-known entry point: adjudicate a captured packet.
pub const ENTRY_RECV: &str = "recv";
/// Well-known entry point: adjudicate an `nopen` call (extension).
pub const ENTRY_OPEN: &str = "open";
/// Well-known entry point: select packets for capture mirroring (used by
/// the endpoint's `ncap` path).
pub const ENTRY_MIRROR: &str = "mirror";

/// Well-known entry points, resolvable to program counters once at VM
/// instantiation so per-packet adjudication never does a string-keyed map
/// lookup. The discriminant indexes the VM's pre-resolved PC table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum EntryPoint {
    /// [`ENTRY_INIT`]: run once when the monitor is instantiated.
    Init = 0,
    /// [`ENTRY_SEND`]: adjudicate an outgoing packet.
    Send = 1,
    /// [`ENTRY_RECV`]: adjudicate a captured packet.
    Recv = 2,
    /// [`ENTRY_OPEN`]: adjudicate an `nopen` call.
    Open = 3,
    /// [`ENTRY_MIRROR`]: select packets for capture mirroring.
    Mirror = 4,
}

impl EntryPoint {
    /// Number of well-known entry points (size of the PC table).
    pub const COUNT: usize = 5;

    /// All well-known entry points, in discriminant order.
    pub const ALL: [EntryPoint; EntryPoint::COUNT] = [
        EntryPoint::Init,
        EntryPoint::Send,
        EntryPoint::Recv,
        EntryPoint::Open,
        EntryPoint::Mirror,
    ];

    /// Each entry's name as it appears in a program's entry map, in
    /// discriminant order.
    const NAMES: [&'static str; EntryPoint::COUNT] =
        [ENTRY_INIT, ENTRY_SEND, ENTRY_RECV, ENTRY_OPEN, ENTRY_MIRROR];

    /// The entry's name as it appears in a program's entry map.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// Map a name to its well-known entry, if any.
    pub fn from_name(name: &str) -> Option<EntryPoint> {
        Self::NAMES
            .iter()
            .position(|n| *n == name)
            .map(|i| Self::ALL[i])
    }
}

/// The one rule for entry and label names, `[A-Za-z_][A-Za-z0-9_]*`: what
/// Cpf and the assembler produce, and all [`Program::decode`] accepts, so a
/// name from the wire cannot print as anything else in a listing.
pub(crate) fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Serialization magic, then the format version.
const HEADER: &[u8; 5] = b"PFVM\x01";

/// Hard ceiling on persistent memory a program may declare (bytes).
pub const MAX_PERSISTENT: u32 = 64 * 1024;
/// Hard ceiling on scratch memory a program may declare (bytes).
pub const MAX_SCRATCH: u32 = 64 * 1024;
/// Hard ceiling on code size (instructions).
pub const MAX_CODE: usize = 64 * 1024;

/// A complete PFVM program: code plus named entry points and memory
/// declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Instruction stream.
    pub code: Vec<Insn>,
    /// Entry-point name → program counter.
    pub entries: BTreeMap<String, u32>,
    /// Persistent memory size in bytes (survives across invocations).
    pub persistent_size: u32,
    /// Scratch memory size in bytes (fresh each invocation).
    pub scratch_size: u32,
}

/// Errors from [`Program::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Missing or wrong magic/version.
    BadHeader,
    /// Structure inconsistent with byte length.
    Truncated,
    /// An instruction failed to decode.
    BadInsn(usize),
    /// A declared size exceeds the format ceiling.
    TooLarge,
    /// Entry name is not a name (see [`crate::asm`]): `[A-Za-z_][A-Za-z0-9_]*`.
    BadEntryName,
    /// An entry name repeats or follows a greater one: [`Program::encode`]
    /// writes them once each, in ascending order.
    EntryOrder,
    /// Bytes follow the last instruction.
    TrailingBytes,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::BadHeader => write!(f, "bad PFVM header"),
            DecodeError::Truncated => write!(f, "truncated PFVM program"),
            DecodeError::BadInsn(i) => write!(f, "undecodable instruction at {i}"),
            DecodeError::TooLarge => write!(f, "declared size exceeds ceiling"),
            DecodeError::BadEntryName => write!(f, "invalid entry point name"),
            DecodeError::EntryOrder => write!(f, "entry names repeated or out of order"),
            DecodeError::TrailingBytes => write!(f, "bytes after the last instruction"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The program format reads only fixed-size fields, whose one failure is
/// running out of bytes.
impl From<WireError> for DecodeError {
    fn from(_: WireError) -> Self {
        DecodeError::Truncated
    }
}

impl Program {
    /// An empty program (no entries): monitors treat missing entry points
    /// as "allow", so this is the identity monitor.
    pub fn empty() -> Program {
        Program {
            code: Vec::new(),
            entries: BTreeMap::new(),
            persistent_size: 0,
            scratch_size: 0,
        }
    }

    /// Look up an entry point.
    pub fn entry(&self, name: &str) -> Option<u32> {
        self.entries.get(name).copied()
    }

    /// Serialize to the certificate-embeddable byte format.
    pub fn encode(&self) -> Vec<u8> {
        Writer::build(0, |w| {
            w.raw(HEADER);
            w.u32(self.persistent_size);
            w.u32(self.scratch_size);
            w.u16(self.entries.len() as u16);
            for (name, pc) in &self.entries {
                w.u8(name.len() as u8);
                w.raw(name.as_bytes());
                w.u32(*pc);
            }
            w.u32(self.code.len() as u32);
            for insn in &self.code {
                insn.write(w);
            }
        })
    }

    /// Deserialize; performs structural checks only (use [`crate::validate()`](crate::validate::validate)
    /// before execution). Only [`Program::encode`]'s output is accepted, so
    /// one program has one encoding: entry names ascend without repeats, a
    /// reserved instruction byte is zero and nothing follows the code.
    pub fn decode(bytes: &[u8]) -> Result<Program, DecodeError> {
        let mut r = Reader::new(bytes);
        if r.take()? != *HEADER {
            return Err(DecodeError::BadHeader);
        }
        let persistent_size = r.u32()?;
        let scratch_size = r.u32()?;
        if persistent_size > MAX_PERSISTENT || scratch_size > MAX_SCRATCH {
            return Err(DecodeError::TooLarge);
        }
        let n_entries = r.u16()?;
        let mut entries = BTreeMap::new();
        for _ in 0..n_entries {
            let len = r.u8()? as usize;
            let name = core::str::from_utf8(r.slice(len)?)
                .ok()
                .filter(|name| is_name(name))
                .ok_or(DecodeError::BadEntryName)?
                .to_string();
            if entries
                .last_key_value()
                .is_some_and(|(last, _)| *last >= name)
            {
                return Err(DecodeError::EntryOrder);
            }
            entries.insert(name, r.u32()?);
        }
        let n_code = r.u32()? as usize;
        if n_code > MAX_CODE {
            return Err(DecodeError::TooLarge);
        }
        let mut code = Vec::with_capacity(n_code);
        for i in 0..n_code {
            let insn = Insn::decode(&r.take::<INSN_SIZE>()?).ok_or(DecodeError::BadInsn(i))?;
            code.push(insn);
        }
        if r.remaining() > 0 {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(Program {
            code,
            entries,
            persistent_size,
            scratch_size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Op;

    fn sample() -> Program {
        let mut entries = BTreeMap::new();
        entries.insert("send".to_string(), 0);
        entries.insert("recv".to_string(), 2);
        Program {
            code: vec![
                Insn::new(Op::MovI, 0, 0, 1),
                Insn::new(Op::Ret, 0, 0, 0),
                Insn::new(Op::MovI, 0, 0, 0),
                Insn::new(Op::Ret, 0, 0, 0),
            ],
            entries,
            persistent_size: 64,
            scratch_size: 32,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = sample();
        assert_eq!(Program::decode(&p.encode()), Ok(p));
    }

    #[test]
    fn empty_roundtrip() {
        let p = Program::empty();
        assert_eq!(Program::decode(&p.encode()), Ok(p));
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(Program::decode(&bytes), Err(DecodeError::BadHeader));
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut bytes = sample().encode();
        bytes[4] = 99;
        assert_eq!(Program::decode(&bytes), Err(DecodeError::BadHeader));
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let r = Program::decode(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn decode_rejects_oversized_persistent() {
        let mut p = sample();
        p.persistent_size = MAX_PERSISTENT + 1;
        assert_eq!(Program::decode(&p.encode()), Err(DecodeError::TooLarge));
    }

    #[test]
    fn decode_rejects_undecodable_insn() {
        let p = sample();
        let mut bytes = p.encode();
        // Corrupt the opcode of the first instruction. Code starts after
        // header(5)+sizes(8)+count(2)+entries.
        let entries_len: usize = p.entries.keys().map(|k| 1 + k.len() + 4).sum();
        let code_start = 5 + 8 + 2 + entries_len + 4;
        bytes[code_start] = 0xee;
        assert_eq!(Program::decode(&bytes), Err(DecodeError::BadInsn(0)));
    }

    #[test]
    fn decode_refuses_a_nonzero_reserved_byte() {
        let mut bytes = sample().encode();
        // The first instruction's reserved byte: after the header, the
        // sizes, the entries (`recv`, `send`: 9 bytes each) and the count.
        bytes[5 + 8 + 2 + 18 + 4 + 3] = 1;
        assert_eq!(Program::decode(&bytes), Err(DecodeError::BadInsn(0)));
    }

    #[test]
    fn decode_refuses_entries_repeated_or_out_of_order() {
        let bytes = sample().encode();
        let (recv, send) = (15..24, 24..33);
        let mut swapped = bytes.clone();
        swapped[recv.clone()].copy_from_slice(&bytes[send.clone()]);
        swapped[send.clone()].copy_from_slice(&bytes[recv.clone()]);
        let mut repeated = bytes.clone();
        repeated[send].copy_from_slice(&bytes[recv]);
        for forged in [swapped, repeated] {
            assert_eq!(Program::decode(&forged), Err(DecodeError::EntryOrder));
        }
    }

    #[test]
    fn decode_refuses_bytes_after_the_last_instruction() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert_eq!(Program::decode(&bytes), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn decode_refuses_entry_names_that_are_not_names() {
        // This one would list as an allowing `send` entry.
        let forged = "send:\n    mov.i r0, 1\n    ret r0\nentry x";
        for name in [forged, "", "9lives", "a-b", "é"] {
            let mut p = sample();
            p.entries.insert(name.to_string(), 0);
            assert_eq!(
                Program::decode(&p.encode()),
                Err(DecodeError::BadEntryName),
                "{name:?}"
            );
        }
        let mut p = sample();
        p.entries.insert("_Entry_9".to_string(), 0);
        assert_eq!(Program::decode(&p.encode()), Ok(p));
    }

    #[test]
    fn entry_lookup() {
        let p = sample();
        assert_eq!(p.entry("send"), Some(0));
        assert_eq!(p.entry("recv"), Some(2));
        assert_eq!(p.entry("open"), None);
    }
}
