//! Proof of the hot-path invariant: after instantiation, `check_send` and
//! `check_recv` perform **zero heap allocations** — the scratch buffer is
//! reused, entry PCs are pre-resolved, and no temporary collections are
//! built per adjudication. A counting global allocator makes any regression
//! an immediate test failure.

use plab_filter::builder::Asm;
use plab_filter::{Insn, Op, Program, Vm};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A monitor touching every memory class the hot path can reach: packet
/// loads, scratch spill/reload, and a persistent counter.
fn busy_monitor() -> Program {
    let mut a = Asm::new();
    // send: r2 = pkt[0..4]; spill to scratch; reload; bump a persistent
    // counter; allow with the packet length.
    a.mov_i(3, 0);
    a.ld_pkt32(2, 3, 0);
    a.mov_i(4, 0);
    a.st_scr(4, 2, 0);
    a.ld_scr(5, 4, 8);
    a.ld_mem(6, 4, 0);
    a.emit(Insn::new(Op::AddI, 6, 0, 1));
    a.st_mem(4, 6, 0);
    a.ret(1);
    let code = a.finish();
    let mut entries = BTreeMap::new();
    entries.insert("send".to_string(), 0);
    entries.insert("recv".to_string(), 0);
    Program { code, entries, persistent_size: 64, scratch_size: 64 }
}

#[test]
fn adjudication_is_allocation_free() {
    let mut vm = Vm::new(busy_monitor()).expect("valid program");
    let packet = vec![0xAAu8; 64];
    let info = vec![0u8; 32];

    // Warm up once (nothing should allocate even here, but the invariant
    // we promise starts after instantiation).
    assert!(vm.check_send(&packet, &info).allowed());
    assert!(vm.check_recv(&packet, &info).allowed());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1000 {
        assert!(vm.check_send(&packet, &info).allowed());
        assert!(vm.check_recv(&packet, &info).allowed());
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "check_send/check_recv allocated on the hot path"
    );

    // Missing-entry fast path (allow-by-convention) is also free.
    let mut empty = Vm::new(Program {
        code: busy_monitor().code,
        entries: {
            let mut e = BTreeMap::new();
            e.insert("open".to_string(), 0);
            e
        },
        persistent_size: 0,
        scratch_size: 0,
    })
    .expect("valid program");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1000 {
        assert!(empty.check_send(&packet, &info).allowed());
    }
    assert_eq!(ALLOCATIONS.load(Ordering::Relaxed) - before, 0);
}
