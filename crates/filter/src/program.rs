//! PFVM program container and its certificate-embeddable serialization.
//!
//! Monitors travel inside PacketLab certificates (§3.3–3.4: "The endpoint
//! operator would compile and attach this monitor to the experiment
//! certificate"), so programs need a compact, versioned byte encoding.

use crate::insn::{Insn, INSN_SIZE};
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

    /// The entry's name as it appears in a program's entry map.
    pub fn name(self) -> &'static str {
        match self {
            EntryPoint::Init => ENTRY_INIT,
            EntryPoint::Send => ENTRY_SEND,
            EntryPoint::Recv => ENTRY_RECV,
            EntryPoint::Open => ENTRY_OPEN,
            EntryPoint::Mirror => ENTRY_MIRROR,
        }
    }

    /// Map a name to its well-known entry, if any.
    pub fn from_name(name: &str) -> Option<EntryPoint> {
        match name {
            ENTRY_INIT => Some(EntryPoint::Init),
            ENTRY_SEND => Some(EntryPoint::Send),
            ENTRY_RECV => Some(EntryPoint::Recv),
            ENTRY_OPEN => Some(EntryPoint::Open),
            ENTRY_MIRROR => Some(EntryPoint::Mirror),
            _ => None,
        }
    }
}

/// The one rule for entry and label names, `[A-Za-z_][A-Za-z0-9_]*`: what
/// Cpf and the assembler produce, and all [`Program::decode`] accepts, so a
/// name from the wire cannot print as anything else in a listing.
pub(crate) fn is_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Serialization magic.
const MAGIC: &[u8; 4] = b"PFVM";
/// Current format version.
const VERSION: u8 = 1;

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
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::BadHeader => write!(f, "bad PFVM header"),
            DecodeError::Truncated => write!(f, "truncated PFVM program"),
            DecodeError::BadInsn(i) => write!(f, "undecodable instruction at {i}"),
            DecodeError::TooLarge => write!(f, "declared size exceeds ceiling"),
            DecodeError::BadEntryName => write!(f, "invalid entry point name"),
        }
    }
}

impl std::error::Error for DecodeError {}

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
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&self.persistent_size.to_le_bytes());
        out.extend_from_slice(&self.scratch_size.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u16).to_le_bytes());
        for (name, pc) in &self.entries {
            out.push(name.len() as u8);
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&pc.to_le_bytes());
        }
        out.extend_from_slice(&(self.code.len() as u32).to_le_bytes());
        for insn in &self.code {
            out.extend_from_slice(&insn.encode());
        }
        out
    }

    /// Deserialize; performs structural checks only (use [`crate::validate()`](crate::validate::validate)
    /// before execution).
    pub fn decode(bytes: &[u8]) -> Result<Program, DecodeError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], DecodeError> {
            if bytes.len() < *pos + n {
                return Err(DecodeError::Truncated);
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 5)? != [MAGIC.as_slice(), &[VERSION]].concat() {
            return Err(DecodeError::BadHeader);
        }
        // SAFETY-COMMENT: every `take(.., N)?.try_into().unwrap()` below is
        // infallible — `take` either returns exactly N bytes or errors.
        let persistent_size = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let scratch_size = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        if persistent_size > MAX_PERSISTENT || scratch_size > MAX_SCRATCH {
            return Err(DecodeError::TooLarge);
        }
        let n_entries = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap());
        let mut entries = BTreeMap::new();
        for _ in 0..n_entries {
            let len = take(&mut pos, 1)?[0] as usize;
            let name = core::str::from_utf8(take(&mut pos, len)?)
                .ok()
                .filter(|name| is_name(name))
                .ok_or(DecodeError::BadEntryName)?
                .to_string();
            let pc = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
            entries.insert(name, pc);
        }
        let n_code = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        if n_code > MAX_CODE {
            return Err(DecodeError::TooLarge);
        }
        let mut code = Vec::with_capacity(n_code);
        for i in 0..n_code {
            let insn =
                Insn::decode(take(&mut pos, INSN_SIZE)?).ok_or(DecodeError::BadInsn(i))?;
            code.push(insn);
        }
        Ok(Program { code, entries, persistent_size, scratch_size })
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
        let entries_len: usize = p
            .entries
            .keys()
            .map(|k| 1 + k.len() + 4)
            .sum();
        let code_start = 5 + 8 + 2 + entries_len + 4;
        bytes[code_start] = 0xee;
        assert_eq!(Program::decode(&bytes), Err(DecodeError::BadInsn(0)));
    }

    #[test]
    fn decode_refuses_entry_names_that_are_not_names() {
        // This one would list as an allowing `send` entry.
        let forged = "send:\n    mov.i r0, 1\n    ret r0\nentry x";
        for name in [forged, "", "9lives", "a-b", "é"] {
            let mut p = sample();
            p.entries.insert(name.to_string(), 0);
            assert_eq!(Program::decode(&p.encode()), Err(DecodeError::BadEntryName), "{name:?}");
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
