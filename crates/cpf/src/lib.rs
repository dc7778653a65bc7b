//! # plab-cpf — the Cpf monitor language
//!
//! §3.4 of the PacketLab paper: "Writing a monitor in a (virtual) machine
//! language is cumbersome. To make this task easier, we propose a simple
//! C-like language we call Cpf that would be compiled to the representation
//! interpreted by the endpoints. Cpf uses C syntax and semantics, but omits
//! features like function pointers that are not necessary for creating
//! monitor programs."
//!
//! This crate is that compiler, targeting PFVM (`plab-filter`). The
//! supported subset is exactly what monitor programs need — and is a strict
//! superset of what the paper's Figure 2 monitor uses:
//!
//! - Global variables (lowered to PFVM *persistent* memory, so they survive
//!   across packets — this is how `ping_dst` latches state).
//! - Functions named after monitor entry points (`send`, `recv`, `init`,
//!   `open`), with the conventional `(const union packet *pkt, uint32_t
//!   len)` parameter list.
//! - `if`/`else`, `while`, `for` (with correct `continue`-runs-the-step
//!   semantics), `break`, `continue`, `return`; the full C integer operator
//!   set with C precedence, short-circuit `&&`/`||`, and compound
//!   assignment (`+=`, `<<=`, ...).
//! - Packet field access `pkt->ip.icmp.orig.ip.src` and endpoint info
//!   access `info->addr.ip`, resolved against [`plab_packet::layout`].
//! - The `netinet/in.h` constants monitors need (`IPPROTO_*`, `ICMP_*`),
//!   predeclared.
//!
//! Deliberately omitted (documented limitations, not TODOs): user function
//! calls (monitors are single-function entry points; PFVM has no call
//! stack), pointers beyond the two builtin objects, arrays, structs, and
//! floating point. The omissions match the paper's intent of a minimal,
//! analyzable policy language.
//!
//! ## Example
//!
//! ```
//! use plab_cpf::compile;
//! use plab_filter::{Vm, Verdict};
//!
//! let program = compile(r#"
//!     uint32_t send(const union packet *pkt, uint32_t len) {
//!         if (pkt->ip.ver == 4 && pkt->ip.proto == IPPROTO_ICMP)
//!             return len;   // allow
//!         return 0;         // deny
//!     }
//! "#).unwrap();
//! let mut vm = Vm::new(program).unwrap();
//! let pkt = plab_packet::builder::icmp_echo_request(
//!     "10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap(), 64, 1, 1, &[]);
//! assert!(vm.check_send(&pkt, &[]).allowed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod codegen;
pub mod lex;
pub mod parse;
pub mod sema;

use plab_filter::Program;

/// A compile error with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Message.
    pub msg: String,
}

impl core::fmt::Display for CompileError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for CompileError {}

/// Compile Cpf source into a validated PFVM program.
pub fn compile(source: &str) -> Result<Program, CompileError> {
    let tokens = lex::lex(source)?;
    let ast = parse::parse(&tokens)?;
    let checked = sema::check(&ast)?;
    let program = codegen::generate(&checked);
    // The code generator must always produce *structurally* valid PFVM;
    // validate as a defense-in-depth invariant. Resource-ceiling failures
    // are different: source with enough globals or statements can honestly
    // exceed MAX_PERSISTENT/MAX_CODE, so those map to a compile error
    // rather than a panic (found by fuzzing: a program with >8192 globals
    // used to panic here).
    if let Err(err) = plab_filter::validate(&program) {
        use plab_filter::ValidateError::*;
        match err {
            CodeTooLong | MemoryTooLarge => {
                return Err(CompileError {
                    line: 0,
                    col: 0,
                    msg: format!("monitor too large for PFVM: {err}"),
                })
            }
            other => panic!("codegen produced invalid PFVM: {other}"),
        }
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plab_filter::Vm;
    use plab_packet::builder;
    use std::net::Ipv4Addr;

    fn a(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    #[test]
    fn minimal_allow_all() {
        let p = compile("uint32_t send(const union packet *pkt, uint32_t len) { return len; }")
            .unwrap();
        let mut vm = Vm::new(p).unwrap();
        assert!(vm.check_send(&[0u8; 40], &[]).allowed());
    }

    #[test]
    fn deny_all() {
        let p =
            compile("uint32_t send(const union packet *pkt, uint32_t len) { return 0; }").unwrap();
        let mut vm = Vm::new(p).unwrap();
        assert!(!vm.check_send(&[0u8; 40], &[]).allowed());
    }

    #[test]
    fn icmp_only_monitor() {
        let p = compile(
            r#"
            uint32_t send(const union packet *pkt, uint32_t len) {
                if (pkt->ip.proto == IPPROTO_ICMP)
                    return len;
                return 0;
            }
            "#,
        )
        .unwrap();
        let mut vm = Vm::new(p).unwrap();
        let icmp = builder::icmp_echo_request(a(1), a(2), 64, 1, 1, &[]);
        let udp = builder::udp_datagram(a(1), a(2), 1, 2, &[]);
        assert!(vm.check_send(&icmp, &[]).allowed());
        assert!(!vm.check_send(&udp, &[]).allowed());
    }

    #[test]
    fn globals_persist_across_invocations() {
        let p = compile(
            r#"
            uint32_t counter = 0;
            uint32_t send(const union packet *pkt, uint32_t len) {
                counter = counter + 1;
                return counter;
            }
            "#,
        )
        .unwrap();
        let mut vm = Vm::new(p).unwrap();
        vm.init(&[]);
        assert_eq!(vm.run("send", &[], &[]), Ok(1));
        assert_eq!(vm.run("send", &[], &[]), Ok(2));
        assert_eq!(vm.run("send", &[], &[]), Ok(3));
    }

    #[test]
    fn nonzero_global_initializer() {
        let p = compile(
            r#"
            uint32_t quota = 5;
            uint32_t send(const union packet *pkt, uint32_t len) {
                if (quota == 0)
                    return 0;
                quota = quota - 1;
                return len;
            }
            "#,
        )
        .unwrap();
        let mut vm = Vm::new(p).unwrap();
        vm.init(&[]); // runs the synthesized init entry
        let pkt = [0u8; 10];
        for _ in 0..5 {
            assert!(vm.check_send(&pkt, &[]).allowed());
        }
        assert!(!vm.check_send(&pkt, &[]).allowed(), "quota exhausted");
    }

    #[test]
    fn while_loop_and_arithmetic() {
        let p = compile(
            r#"
            uint32_t send(const union packet *pkt, uint32_t len) {
                uint32_t i = 0;
                uint32_t sum = 0;
                while (i < 10) {
                    sum = sum + i;
                    i = i + 1;
                }
                return sum;   // 45
            }
            "#,
        )
        .unwrap();
        let mut vm = Vm::new(p).unwrap();
        assert_eq!(vm.run("send", &[], &[]), Ok(45));
    }

    #[test]
    fn break_and_continue() {
        let p = compile(
            r#"
            uint32_t send(const union packet *pkt, uint32_t len) {
                uint32_t i = 0;
                uint32_t n = 0;
                while (1) {
                    i = i + 1;
                    if (i > 20) break;
                    if (i % 2 == 0) continue;
                    n = n + 1;   // counts odd i in 1..20
                }
                return n;   // 10
            }
            "#,
        )
        .unwrap();
        let mut vm = Vm::new(p).unwrap();
        assert_eq!(vm.run("send", &[], &[]), Ok(10));
    }

    #[test]
    fn operator_precedence_matches_c() {
        let p = compile(
            r#"
            uint32_t send(const union packet *pkt, uint32_t len) {
                return 2 + 3 * 4 - 10 / 2 | 1 << 4;   // (14-5) | 16 = 25
            }
            "#,
        )
        .unwrap();
        let mut vm = Vm::new(p).unwrap();
        assert_eq!(vm.run("send", &[], &[]), Ok(25));
    }

    #[test]
    fn short_circuit_and_does_not_divide_by_zero() {
        let p = compile(
            r#"
            uint32_t send(const union packet *pkt, uint32_t len) {
                uint32_t zero = 0;
                if (zero != 0 && 10 / zero > 1)
                    return 1;
                return 2;
            }
            "#,
        )
        .unwrap();
        let mut vm = Vm::new(p).unwrap();
        // Division must be skipped by short-circuit; no DivByZero trap.
        assert_eq!(vm.run("send", &[], &[]), Ok(2));
    }

    #[test]
    fn info_field_access() {
        let p = compile(
            r#"
            uint32_t send(const union packet *pkt, uint32_t len) {
                if (pkt->ip.src == info->addr.ip)
                    return len;
                return 0;
            }
            "#,
        )
        .unwrap();
        let mut vm = Vm::new(p).unwrap();
        let pkt = builder::icmp_echo_request(a(7), a(2), 64, 1, 1, &[]);
        // Info block with addr.ip = 10.0.0.7 at the layout's offset.
        let mut info = vec![0u8; plab_packet::layout::INFO_SIZE];
        let ip: u32 = u32::from(a(7));
        info[8..12].copy_from_slice(&ip.to_le_bytes());
        assert!(vm.check_send(&pkt, &info).allowed());
        // Different source: denied.
        let pkt2 = builder::icmp_echo_request(a(8), a(2), 64, 1, 1, &[]);
        assert!(!vm.check_send(&pkt2, &info).allowed());
    }

    #[test]
    fn figure2_monitor_compiles_and_enforces() {
        // The paper's Figure 2 traceroute monitor, verbatim except for the
        // paper's own dead-code bug (the `ping_dst` assignment appeared
        // *after* `return len;`): here the state is latched before
        // returning, as the authors clearly intended.
        let p = compile(
            r#"
            in_addr_t ping_dst = 0;   // destination of traceroute

            uint32_t send(const union packet *pkt, uint32_t len) {
                if (pkt->ip.ver == 4 && pkt->ip.ihl == 5 &&
                    pkt->ip.proto == IPPROTO_ICMP &&
                    pkt->ip.src == info->addr.ip &&
                    pkt->ip.icmp.type == ICMP_ECHO_REQUEST)
                {
                    ping_dst = pkt->ip.dst;
                    return len;   // allow
                } else
                    return 0;     // deny
            }

            uint32_t recv(const union packet *pkt, uint32_t len) {
                if (pkt->ip.ver == 4 && pkt->ip.ihl == 5 &&
                    pkt->ip.proto == IPPROTO_ICMP && (
                    (pkt->ip.icmp.type == ICMP_ECHO_REPLY &&
                     pkt->ip.src == ping_dst) ||
                    (pkt->ip.icmp.type == ICMP_TIME_EXCEEDED &&
                     pkt->ip.icmp.orig.ip.src == info->addr.ip &&
                     pkt->ip.icmp.orig.ip.dst == ping_dst)))
                    return len;   // allow
                else
                    return 0;     // deny
            }
            "#,
        )
        .unwrap();
        let mut vm = Vm::new(p).unwrap();
        vm.init(&[]);

        let me = a(1);
        let target = a(99);
        let router = a(50);
        let mut info = vec![0u8; plab_packet::layout::INFO_SIZE];
        info[8..12].copy_from_slice(&u32::from(me).to_le_bytes());

        // 1. Echo request from me: allowed, latches ping_dst.
        let probe = builder::icmp_echo_request(me, target, 3, 1, 1, &[0, 1]);
        assert!(vm.check_send(&probe, &info).allowed());

        // 2. UDP from me: denied.
        let udp = builder::udp_datagram(me, target, 1, 2, &[]);
        assert!(!vm.check_send(&udp, &info).allowed());

        // 3. Echo request spoofing another source: denied.
        let spoof = builder::icmp_echo_request(a(66), target, 3, 1, 1, &[]);
        assert!(!vm.check_send(&spoof, &info).allowed());

        // 4. Time exceeded from a router quoting my probe: allowed.
        let te = builder::icmp_time_exceeded(router, me, &probe);
        assert!(vm.check_recv(&te, &info).allowed());

        // 5. Echo reply from the target: allowed.
        let reply = builder::icmp_echo_reply(target, me, 1, 1, &[0, 1]);
        assert!(vm.check_recv(&reply, &info).allowed());

        // 6. Echo reply from some other host: denied.
        let stray = builder::icmp_echo_reply(a(77), me, 1, 1, &[]);
        assert!(!vm.check_recv(&stray, &info).allowed());

        // 7. Time exceeded quoting someone else's packet: denied.
        let other_probe = builder::icmp_echo_request(a(66), target, 3, 1, 1, &[]);
        let te_other = builder::icmp_time_exceeded(router, me, &other_probe);
        assert!(!vm.check_recv(&te_other, &info).allowed());
    }

    #[test]
    fn unary_operators() {
        let p = compile(
            r#"
            uint32_t send(const union packet *pkt, uint32_t len) {
                uint32_t x = 5;
                if (!(x == 6) && ~x != 0 && -x != 0)
                    return 1;
                return 0;
            }
            "#,
        )
        .unwrap();
        let mut vm = Vm::new(p).unwrap();
        assert_eq!(vm.run("send", &[], &[]), Ok(1));
    }

    #[test]
    fn compile_error_has_position() {
        let e = compile(
            "uint32_t send(const union packet *pkt, uint32_t len) {\n  return undeclared_var;\n}",
        )
        .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("undeclared_var"));
    }

    #[test]
    fn too_many_globals_is_error_not_panic() {
        // Found by fuzzing: >8192 globals exceed MAX_PERSISTENT and used to
        // hit the `expect("codegen produced invalid PFVM")` panic.
        let mut src = String::new();
        for i in 0..9000 {
            src.push_str(&format!("uint64_t g{i} = 0;\n"));
        }
        src.push_str("uint32_t send(const union packet *pkt, uint32_t len) { return len; }\n");
        let e = compile(&src).unwrap_err();
        assert!(e.msg.contains("too large"), "{}", e.msg);
    }

    #[test]
    fn error_on_function_call() {
        let e = compile("uint32_t send(const union packet *pkt, uint32_t len) { return foo(1); }")
            .unwrap_err();
        assert!(e.msg.contains("call"), "{}", e.msg);
    }

    #[test]
    fn error_on_unknown_field() {
        let e = compile(
            "uint32_t send(const union packet *pkt, uint32_t len) { return pkt->ip.bogus; }",
        )
        .unwrap_err();
        assert!(e.msg.contains("ip.bogus"), "{}", e.msg);
    }

    #[test]
    fn len_parameter_is_packet_length() {
        let p = compile("uint32_t send(const union packet *pkt, uint32_t len) { return len + 1; }")
            .unwrap();
        let mut vm = Vm::new(p).unwrap();
        assert_eq!(vm.run("send", &[0u8; 28], &[]), Ok(29));
    }

    #[test]
    fn comparison_operators_all() {
        let p = compile(
            r#"
            uint32_t send(const union packet *pkt, uint32_t len) {
                uint32_t ok = 1;
                if (!(1 < 2)) ok = 0;
                if (!(2 <= 2)) ok = 0;
                if (!(3 > 2)) ok = 0;
                if (!(3 >= 3)) ok = 0;
                if (!(1 == 1)) ok = 0;
                if (!(1 != 2)) ok = 0;
                if (2 < 1) ok = 0;
                if (2 <= 1) ok = 0;
                if (1 > 2) ok = 0;
                if (1 >= 2) ok = 0;
                return ok;
            }
            "#,
        )
        .unwrap();
        let mut vm = Vm::new(p).unwrap();
        assert_eq!(vm.run("send", &[], &[]), Ok(1));
    }
}

#[cfg(test)]
mod for_loop_tests {
    use super::*;
    use plab_filter::Vm;

    fn run(src: &str) -> u64 {
        let p = compile(src).unwrap();
        let mut vm = Vm::new(p).unwrap();
        vm.run("send", &[], &[]).unwrap()
    }

    #[test]
    fn basic_for_loop() {
        let v = run(r#"
            uint32_t send(const union packet *pkt, uint32_t len) {
                uint32_t sum = 0;
                for (uint32_t i = 0; i < 10; i += 1)
                    sum += i;
                return sum;   // 45
            }
            "#);
        assert_eq!(v, 45);
    }

    #[test]
    fn for_with_continue_runs_step() {
        // continue in a for loop must still execute the step — the classic
        // desugaring bug this AST node exists to avoid.
        let v = run(r#"
            uint32_t send(const union packet *pkt, uint32_t len) {
                uint32_t n = 0;
                for (uint32_t i = 0; i < 10; i += 1) {
                    if (i % 2 == 0) continue;
                    n += 1;
                }
                return n;   // odd values of i: 5
            }
            "#);
        assert_eq!(v, 5);
    }

    #[test]
    fn for_with_break() {
        let v = run(r#"
            uint32_t send(const union packet *pkt, uint32_t len) {
                uint32_t i = 0;
                for (i = 0; i < 100; i += 1) {
                    if (i == 7) break;
                }
                return i;
            }
            "#);
        assert_eq!(v, 7);
    }

    #[test]
    fn for_without_cond_breaks_out() {
        let v = run(r#"
            uint32_t send(const union packet *pkt, uint32_t len) {
                uint32_t i = 0;
                for (;;) {
                    i += 1;
                    if (i >= 4) break;
                }
                return i;
            }
            "#);
        assert_eq!(v, 4);
    }

    #[test]
    fn compound_assignments_all_ops() {
        let v = run(r#"
            uint32_t send(const union packet *pkt, uint32_t len) {
                uint32_t x = 100;
                x += 10;   // 110
                x -= 20;   // 90
                x *= 2;    // 180
                x /= 3;    // 60
                x %= 50;   // 10
                x <<= 3;   // 80
                x >>= 1;   // 40
                x |= 5;    // 45
                x &= 60;   // 44
                x ^= 7;    // 43
                return x;
            }
            "#);
        assert_eq!(v, 43);
    }

    #[test]
    fn nested_for_loops() {
        let v = run(r#"
            uint32_t send(const union packet *pkt, uint32_t len) {
                uint32_t acc = 0;
                for (uint32_t i = 0; i < 4; i += 1)
                    for (uint32_t j = 0; j < 3; j += 1)
                        acc += i * j;
                return acc;   // sum over i of i*(0+1+2) = 3*(0+1+2+3) = 18
            }
            "#);
        assert_eq!(v, 18);
    }

    #[test]
    fn rate_limiting_monitor_with_for() {
        // A realistic monitor pattern using the new syntax: a token bucket
        // over persistent memory.
        let p = compile(
            r#"
            uint64_t tokens = 5;
            uint32_t send(const union packet *pkt, uint32_t len) {
                if (tokens == 0) return 0;
                tokens -= 1;
                return len;
            }
            "#,
        )
        .unwrap();
        let mut vm = Vm::new(p).unwrap();
        vm.init(&[]);
        let pkt = [0u8; 20];
        let mut allowed = 0;
        for _ in 0..10 {
            if vm.check_send(&pkt, &[]).allowed() {
                allowed += 1;
            }
        }
        assert_eq!(allowed, 5);
    }
}
