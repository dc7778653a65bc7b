//! # plab-filter — PFVM, the PacketLab filter/monitor virtual machine
//!
//! §3.4 of the PacketLab paper specifies that both *experiment monitors*
//! (operator-imposed policy attached to certificates) and *packet filters*
//! (controller-supplied capture predicates passed to `ncap`) are programs
//! "executing in a specialized virtual machine, a design borrowed from the
//! BSD Packet Filter". The paper notes BPF's two limitations for this role —
//! no persistent scratch memory across packets (so no stateful filtering)
//! and mandatory acyclicity — and calls for a scheme that overcomes them.
//!
//! PFVM is that scheme, realized:
//!
//! - **Registers**: 16 × 64-bit general registers. `r0` is the return value,
//!   `r1` is initialized with the packet length on entry.
//! - **Address spaces**: the packet under adjudication (read-only), the
//!   endpoint *info block* (read-only; §3.1's "structured block of memory"),
//!   a *persistent* memory segment that survives across invocations for the
//!   lifetime of the experiment (the paper's extension over BPF — this is
//!   what lets Figure 2's monitor latch `ping_dst`), and a per-invocation
//!   scratch segment for locals.
//! - **Entry points**: named (`init`, `send`, `recv`, `open`), mirroring the
//!   paper's monitor structure where the endpoint invokes `send` before
//!   transmitting a packet and `recv` before forwarding a captured one.
//! - **Termination**: programs may contain loops (unlike BPF); the
//!   interpreter enforces a *fuel* bound so every invocation terminates in
//!   bounded time. The [`validate()`](validate::validate) pass statically checks everything that
//!   can be checked (jump targets, register indices, memory declarations).
//! - **Return convention**: from `send`/`recv`, a non-zero value permits
//!   the operation (conventionally the permitted length, as in Figure 2);
//!   zero denies it.
//!
//! The [`asm`] module provides a small assembly language, and the
//! `plab-cpf` crate compiles the paper's C-like Cpf language to PFVM.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod builder;
pub mod disasm;
pub mod fuse;
pub mod insn;
pub mod lower;
pub mod program;
pub mod validate;
pub mod vm;

pub use fuse::{FuseStats, FusedVm};
pub use insn::{Insn, Op};
pub use lower::{LowerStats, Lowered};
pub use program::{
    EntryPoint, Program, ENTRY_INIT, ENTRY_MIRROR, ENTRY_OPEN, ENTRY_RECV, ENTRY_SEND,
};
pub use validate::{validate, ValidateError};
pub use vm::{Trap, Vm, VmConfig};

/// Outcome of asking a monitor/filter about an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Operation allowed; value is the (non-zero) return, conventionally a
    /// permitted length.
    Allow(u64),
    /// Operation denied (program returned zero).
    Deny,
    /// Program trapped (fault or out of fuel); treated as deny by endpoints,
    /// but distinguished for diagnostics.
    Fault(Trap),
}

impl Verdict {
    /// True if the operation is permitted.
    pub fn allowed(&self) -> bool {
        matches!(self, Verdict::Allow(_))
    }
}
