//! Static validation of PFVM programs.
//!
//! The endpoint validates every monitor/filter before instantiating it:
//! decode errors or validation failures reject the certificate or `ncap`
//! call outright. Validation guarantees that execution can only end in
//! `Ret`, a runtime trap (bounds/fuel/div-zero), — never in undefined
//! behaviour. Unlike BPF, cyclic control flow is *allowed*; termination is
//! enforced at runtime by fuel (§3.4 calls BPF's acyclicity a limitation).

use crate::insn::Op;
use crate::program::{Program, MAX_CODE, MAX_PERSISTENT, MAX_SCRATCH};

/// Number of general-purpose registers.
pub const NUM_REGS: u8 = 16;

/// Validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// Code longer than [`MAX_CODE`].
    CodeTooLong,
    /// Declared memory exceeds ceilings.
    MemoryTooLarge,
    /// Entry point `name` points outside the code.
    BadEntry(String),
    /// Instruction at pc uses a register >= [`NUM_REGS`].
    BadRegister(usize),
    /// Jump at pc targets outside the code.
    BadJumpTarget(usize),
    /// Execution can fall off the end of the code from pc.
    FallsOffEnd(usize),
    /// Shift amount immediate exceeds 63.
    BadShift(usize),
}

impl core::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ValidateError::CodeTooLong => write!(f, "code too long"),
            ValidateError::MemoryTooLarge => write!(f, "memory declaration too large"),
            ValidateError::BadEntry(name) => write!(f, "entry `{name}` out of bounds"),
            ValidateError::BadRegister(pc) => write!(f, "bad register at pc {pc}"),
            ValidateError::BadJumpTarget(pc) => write!(f, "jump out of bounds at pc {pc}"),
            ValidateError::FallsOffEnd(pc) => write!(f, "fall-through past end at pc {pc}"),
            ValidateError::BadShift(pc) => write!(f, "shift amount > 63 at pc {pc}"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Validate a program. Returns `Ok(())` if the program is safe to hand to
/// the interpreter.
pub fn validate(p: &Program) -> Result<(), ValidateError> {
    if p.code.len() > MAX_CODE {
        return Err(ValidateError::CodeTooLong);
    }
    if p.persistent_size > MAX_PERSISTENT || p.scratch_size > MAX_SCRATCH {
        return Err(ValidateError::MemoryTooLarge);
    }
    for (name, &pc) in &p.entries {
        if pc as usize >= p.code.len() && !(p.code.is_empty() && pc == 0) {
            return Err(ValidateError::BadEntry(name.clone()));
        }
        if p.code.is_empty() {
            return Err(ValidateError::BadEntry(name.clone()));
        }
    }
    let len = p.code.len() as i64;
    for (pc, insn) in p.code.iter().enumerate() {
        if insn.dst >= NUM_REGS || insn.src >= NUM_REGS {
            return Err(ValidateError::BadRegister(pc));
        }
        if insn.op.is_jump() {
            // `branch()` is attacker-controlled (a decoded `Ja` carries the
            // full i64 immediate), so the addition must not overflow.
            let target = (pc as i64 + 1).checked_add(insn.branch());
            match target {
                Some(t) if (0..len).contains(&t) => {}
                _ => return Err(ValidateError::BadJumpTarget(pc)),
            }
        }
        if matches!(insn.op, Op::ShlI | Op::ShrI) && !(0..64).contains(&insn.imm) {
            return Err(ValidateError::BadShift(pc));
        }
        // The final instruction must not fall off the end: it has to be a
        // return or an unconditional jump. Conditional jumps fall through.
        if pc as i64 == len - 1 && !matches!(insn.op, Op::Ret | Op::Ja) {
            return Err(ValidateError::FallsOffEnd(pc));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Insn;
    use std::collections::BTreeMap;

    fn prog(code: Vec<Insn>) -> Program {
        let mut entries = BTreeMap::new();
        entries.insert("send".to_string(), 0);
        Program {
            code,
            entries,
            persistent_size: 8,
            scratch_size: 8,
        }
    }

    #[test]
    fn minimal_valid() {
        let p = prog(vec![
            Insn::new(Op::MovI, 0, 0, 1),
            Insn::new(Op::Ret, 0, 0, 0),
        ]);
        assert_eq!(validate(&p), Ok(()));
    }

    #[test]
    fn rejects_bad_register() {
        let p = prog(vec![
            Insn::new(Op::MovI, 16, 0, 1),
            Insn::new(Op::Ret, 0, 0, 0),
        ]);
        assert_eq!(validate(&p), Err(ValidateError::BadRegister(0)));
    }

    #[test]
    fn rejects_jump_past_end() {
        let p = prog(vec![
            Insn::new(Op::Ja, 0, 0, 5),
            Insn::new(Op::Ret, 0, 0, 0),
        ]);
        assert_eq!(validate(&p), Err(ValidateError::BadJumpTarget(0)));
    }

    #[test]
    fn rejects_jump_with_overflowing_offset() {
        // Found by fuzzing: `pc + 1 + branch()` overflowed i64 and panicked
        // in debug builds for a decoded `Ja` with imm near i64::MAX.
        let p = prog(vec![
            Insn::new(Op::Ja, 0, 0, i64::MAX),
            Insn::new(Op::Ret, 0, 0, 0),
        ]);
        assert_eq!(validate(&p), Err(ValidateError::BadJumpTarget(0)));
        let p = prog(vec![
            Insn::new(Op::Ja, 0, 0, i64::MIN),
            Insn::new(Op::Ret, 0, 0, 0),
        ]);
        assert_eq!(validate(&p), Err(ValidateError::BadJumpTarget(0)));
    }

    #[test]
    fn rejects_jump_before_start() {
        let p = prog(vec![
            Insn::new(Op::Ja, 0, 0, -2),
            Insn::new(Op::Ret, 0, 0, 0),
        ]);
        assert_eq!(validate(&p), Err(ValidateError::BadJumpTarget(0)));
    }

    #[test]
    fn accepts_backward_loop() {
        // Loops are legal in PFVM (fuel bounds them at runtime).
        let p = prog(vec![
            Insn::new(Op::AddI, 2, 0, 1),
            Insn::pack_cmp(Op::JneI, 2, 10, -2),
            Insn::new(Op::Ret, 0, 0, 0),
        ]);
        assert_eq!(validate(&p), Ok(()));
    }

    #[test]
    fn rejects_fallthrough_end() {
        let p = prog(vec![Insn::new(Op::MovI, 0, 0, 1)]);
        assert_eq!(validate(&p), Err(ValidateError::FallsOffEnd(0)));
    }

    #[test]
    fn conditional_jump_as_last_insn_rejected() {
        let p = prog(vec![Insn::pack_cmp(Op::JeqI, 0, 0, -1)]);
        assert_eq!(validate(&p), Err(ValidateError::FallsOffEnd(0)));
    }

    #[test]
    fn rejects_entry_out_of_bounds() {
        let mut p = prog(vec![Insn::new(Op::Ret, 0, 0, 0)]);
        p.entries.insert("recv".to_string(), 9);
        assert_eq!(validate(&p), Err(ValidateError::BadEntry("recv".into())));
    }

    #[test]
    fn rejects_entry_into_empty_code() {
        let mut p = prog(vec![]);
        p.entries.insert("send".to_string(), 0);
        assert!(matches!(validate(&p), Err(ValidateError::BadEntry(_))));
    }

    #[test]
    fn empty_program_with_no_entries_is_valid() {
        let p = Program::empty();
        assert_eq!(validate(&p), Ok(()));
    }

    #[test]
    fn rejects_oversized_shift() {
        let p = prog(vec![
            Insn::new(Op::ShlI, 1, 0, 64),
            Insn::new(Op::Ret, 0, 0, 0),
        ]);
        assert_eq!(validate(&p), Err(ValidateError::BadShift(0)));
    }

    #[test]
    fn rejects_memory_over_ceiling() {
        let mut p = prog(vec![Insn::new(Op::Ret, 0, 0, 0)]);
        p.persistent_size = MAX_PERSISTENT + 1;
        assert_eq!(validate(&p), Err(ValidateError::MemoryTooLarge));
    }

    #[test]
    fn last_insn_unconditional_jump_ok() {
        // Infinite loop: valid statically, fuel kills it at runtime.
        let p = prog(vec![Insn::new(Op::Ja, 0, 0, -1)]);
        assert_eq!(validate(&p), Ok(()));
    }
}
