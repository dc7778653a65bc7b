//! The endpoint virtual address space accessed by `mread`/`mwrite` (§3.1).
//!
//! "A PacketLab endpoint makes this information such as its IP address,
//! DHCP parameters, and the current socket state available to the
//! controller via a structured block of memory that is accessed using the
//! mread and mwrite commands. ... an endpoint makes its clock available as
//! a read-only 64-bit value."
//!
//! Layout (all little-endian):
//!
//! | range | contents | writable |
//! |-------|----------|----------|
//! | `0 .. 64` | info block: clock, addresses, MTU, flags, buffer stats (see [`plab_packet::layout::INFO_FIELDS`]) | no |
//! | `64 .. 128` | controller scratch (visible to monitors as info fields `scratch0..3`) | yes |
//! | `128 .. 1152` | send-time log: 64 × (tag u64, actual send time u64) ring, slot = tag % 64 | no |
//! | `1152 .. 1536` | socket-state table: 16 × (sktid u32, flags u32, send backlog u64, peer window u64) ring, slot = sktid % 16 | no |
//!
//! The same `0..128` prefix is what monitor programs see as their *info*
//! address space, so a controller can pass parameters to a stateful
//! monitor through the scratch words.

use plab_packet::codec::Reader;
use plab_packet::layout;

/// Total size of the controller-visible memory.
pub const MEMORY_SIZE: usize = SOCKSTAT_OFFSET + SOCKSTAT_SLOTS * SOCKSTAT_ENTRY;
/// Offset of the send-time log.
pub const SENDLOG_OFFSET: usize = layout::INFO_SIZE;
/// Entries in the send-time log ring.
pub const SENDLOG_SLOTS: usize = 64;
/// Bytes per send-log entry (tag, time).
pub const SENDLOG_ENTRY: usize = 16;
/// Offset of the socket-state table ("the current socket state \[is\]
/// available to the controller via a structured block of memory", §3.1).
pub const SOCKSTAT_OFFSET: usize = SENDLOG_OFFSET + SENDLOG_SLOTS * SENDLOG_ENTRY;
/// Entries in the socket-state ring.
pub const SOCKSTAT_SLOTS: usize = 16;
/// Bytes per socket-state entry (sktid u32, flags u32, backlog u64,
/// peer window u64).
pub const SOCKSTAT_ENTRY: usize = 24;
/// Socket-state flag: the slot describes a currently open socket.
pub const SOCKSTAT_FLAG_OPEN: u32 = 1;
/// Socket-state flag: the connection is established and not reset.
pub const SOCKSTAT_FLAG_ALIVE: u32 = 2;

/// One parsed socket-state entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SockStat {
    /// Socket id the slot describes (slot = sktid % [`SOCKSTAT_SLOTS`]).
    pub sktid: u32,
    /// [`SOCKSTAT_FLAG_OPEN`] | [`SOCKSTAT_FLAG_ALIVE`] in the low half;
    /// the cumulative retransmission count (saturating u16, the TCP_INFO
    /// `tcpi_total_retrans` analog) in the high half.
    pub flags: u32,
    /// Bytes queued for sending but not yet acknowledged by the peer.
    pub backlog: u64,
    /// The peer's advertised receive window, as last heard.
    pub peer_window: u64,
}

impl SockStat {
    /// The slot describes a currently open socket.
    pub fn is_open(&self) -> bool {
        self.flags & SOCKSTAT_FLAG_OPEN != 0
    }

    /// The connection is established and not reset.
    pub fn is_alive(&self) -> bool {
        self.flags & SOCKSTAT_FLAG_ALIVE != 0
    }

    /// Cumulative retransmissions (saturating at 65535).
    pub fn retrans(&self) -> u32 {
        self.flags >> 16
    }
}

/// The endpoint memory image.
pub struct EndpointMemory {
    bytes: Vec<u8>,
}

impl Default for EndpointMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl EndpointMemory {
    /// Zeroed memory.
    pub fn new() -> Self {
        EndpointMemory {
            bytes: vec![0; MEMORY_SIZE],
        }
    }

    /// The monitor-visible info region (`0..INFO_SIZE`).
    pub fn info(&self) -> &[u8] {
        &self.bytes[..layout::INFO_SIZE]
    }

    /// Read for `mread`; `None` when out of range.
    pub fn read(&self, addr: u32, len: u32) -> Option<&[u8]> {
        let addr = addr as usize;
        let len = len as usize;
        if addr + len > self.bytes.len() {
            return None;
        }
        Some(&self.bytes[addr..addr + len])
    }

    /// Write for `mwrite`; only the controller scratch region is writable.
    /// Returns false on a read-only or out-of-range write.
    pub fn write(&mut self, addr: u32, data: &[u8]) -> bool {
        let addr = addr as usize;
        let end = addr + data.len();
        if addr < layout::INFO_RW_OFFSET || end > layout::INFO_SIZE {
            return false;
        }
        self.bytes[addr..end].copy_from_slice(data);
        true
    }

    /// Endpoint-side setter for an info field (ignores writability).
    pub fn set_info(&mut self, field: &str, value: u64) {
        let spec = layout::resolve_info(field).expect("known info field");
        spec.write_le(&mut self.bytes, value);
    }

    /// `clock`, `addr.ip`, `addr.ext_ip`, `mtu` and `flags` (offsets 0-24),
    /// which every `mread` and service pass rewrites: no lookup by name.
    pub fn set_stack_info(&mut self, clock: u64, ip: u32, ext_ip: u32, mtu: u32, flags: u32) {
        self.bytes[0..8].copy_from_slice(&clock.to_le_bytes());
        for (at, v) in [(8, ip), (12, ext_ip), (16, mtu), (20, flags)] {
            self.bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// `buffer.capacity` and `buffer.used` (offsets 24 and 32), which every
    /// service pass rewrites: no lookup by name.
    pub fn set_buffer_info(&mut self, capacity: u64, used: u64) {
        self.bytes[24..32].copy_from_slice(&capacity.to_le_bytes());
        self.bytes[32..40].copy_from_slice(&used.to_le_bytes());
    }

    /// Record a scheduled send's actual transmission time (the `nsend`
    /// timestamp the paper says is retrieved via `mread`).
    pub fn record_send(&mut self, tag: u64, time: u64) {
        let slot = (tag as usize % SENDLOG_SLOTS) * SENDLOG_ENTRY + SENDLOG_OFFSET;
        self.bytes[slot..slot + 8].copy_from_slice(&tag.to_le_bytes());
        self.bytes[slot + 8..slot + 16].copy_from_slice(&time.to_le_bytes());
    }

    /// Byte offset of the send-log slot for `tag` (for controllers).
    pub fn sendlog_slot(tag: u64) -> u32 {
        (SENDLOG_OFFSET + (tag as usize % SENDLOG_SLOTS) * SENDLOG_ENTRY) as u32
    }

    /// Parse a send-log entry read back via `mread`.
    pub fn parse_sendlog_entry(data: &[u8]) -> Option<(u64, u64)> {
        let mut r = Reader::new(data);
        Some((r.u64().ok()?, r.u64().ok()?))
    }

    /// Endpoint-side update of a socket's state slot. Called each service
    /// pass so `mread` always sees the current send backlog and peer
    /// window for recently used sockets.
    pub fn record_sockstat(&mut self, sktid: u32, flags: u32, backlog: u64, peer_window: u64) {
        let slot = (sktid as usize % SOCKSTAT_SLOTS) * SOCKSTAT_ENTRY + SOCKSTAT_OFFSET;
        self.bytes[slot..slot + 4].copy_from_slice(&sktid.to_le_bytes());
        self.bytes[slot + 4..slot + 8].copy_from_slice(&flags.to_le_bytes());
        self.bytes[slot + 8..slot + 16].copy_from_slice(&backlog.to_le_bytes());
        self.bytes[slot + 16..slot + 24].copy_from_slice(&peer_window.to_le_bytes());
    }

    /// Clear a socket's state slot (on close/teardown), but only if the
    /// slot still describes `sktid` — a ring collision must not erase a
    /// newer socket's entry.
    pub fn clear_sockstat(&mut self, sktid: u32) {
        let slot = (sktid as usize % SOCKSTAT_SLOTS) * SOCKSTAT_ENTRY + SOCKSTAT_OFFSET;
        if Reader::new(&self.bytes[slot..]).u32() == Ok(sktid) {
            self.bytes[slot..slot + SOCKSTAT_ENTRY].fill(0);
        }
    }

    /// Byte offset of the socket-state slot for `sktid` (for controllers).
    pub fn sockstat_slot(sktid: u32) -> u32 {
        (SOCKSTAT_OFFSET + (sktid as usize % SOCKSTAT_SLOTS) * SOCKSTAT_ENTRY) as u32
    }

    /// Parse a socket-state entry read back via `mread`.
    pub fn parse_sockstat_entry(data: &[u8]) -> Option<SockStat> {
        let mut r = Reader::new(data);
        Some(SockStat {
            sktid: r.u32().ok()?,
            flags: r.u32().ok()?,
            backlog: r.u64().ok()?,
            peer_window: r.u64().ok()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_field_roundtrips() {
        let mut m = EndpointMemory::new();
        m.set_info("clock", 123_456_789);
        // Readable via mread at offset 0.
        let raw = m.read(0, 8).unwrap();
        assert_eq!(u64::from_le_bytes(raw.try_into().unwrap()), 123_456_789);
    }

    #[test]
    fn buffer_info_writes_the_named_fields() {
        let mut by_name = EndpointMemory::new();
        by_name.set_info("buffer.capacity", 0x0102_0304_0506_0708);
        by_name.set_info("buffer.used", 65_536);
        let mut direct = EndpointMemory::new();
        direct.set_buffer_info(0x0102_0304_0506_0708, 65_536);
        assert_eq!(direct.info(), by_name.info());
    }

    #[test]
    fn stack_info_writes_the_named_fields() {
        let mut by_name = EndpointMemory::new();
        by_name.set_info("clock", 0x0102_0304_0506_0708);
        by_name.set_info("addr.ip", 0x0a00_0001);
        by_name.set_info("addr.ext_ip", 0xcb00_7101);
        by_name.set_info("mtu", 1500);
        by_name.set_info("flags", 3);
        let mut direct = EndpointMemory::new();
        direct.set_stack_info(0x0102_0304_0506_0708, 0x0a00_0001, 0xcb00_7101, 1500, 3);
        assert_eq!(direct.info(), by_name.info());
    }

    #[test]
    fn mwrite_only_in_scratch_region() {
        let mut m = EndpointMemory::new();
        assert!(!m.write(0, &[1]), "clock is read-only");
        assert!(!m.write(8, &[1, 2, 3, 4]), "addresses are read-only");
        assert!(m.write(64, &[9; 8]), "scratch is writable");
        assert_eq!(m.read(64, 8).unwrap(), &[9; 8]);
        assert!(!m.write(124, &[0; 8]), "write may not cross into send log");
        assert!(!m.write(200, &[1]), "send log is read-only");
    }

    #[test]
    fn mread_bounds_checked() {
        let m = EndpointMemory::new();
        assert!(m.read(0, MEMORY_SIZE as u32).is_some());
        assert!(m.read(0, MEMORY_SIZE as u32 + 1).is_none());
        assert!(m.read(u32::MAX, 1).is_none());
        assert!(
            m.read(MEMORY_SIZE as u32, 0).is_some(),
            "empty read at end ok"
        );
    }

    #[test]
    fn send_log_records_and_reads_back() {
        let mut m = EndpointMemory::new();
        m.record_send(5, 111);
        m.record_send(77, 222);
        let slot = EndpointMemory::sendlog_slot(5);
        let entry = m.read(slot, SENDLOG_ENTRY as u32).unwrap();
        assert_eq!(EndpointMemory::parse_sendlog_entry(entry), Some((5, 111)));
        let slot = EndpointMemory::sendlog_slot(77);
        let entry = m.read(slot, SENDLOG_ENTRY as u32).unwrap();
        assert_eq!(EndpointMemory::parse_sendlog_entry(entry), Some((77, 222)));
    }

    #[test]
    fn send_log_ring_wraps() {
        let mut m = EndpointMemory::new();
        m.record_send(1, 100);
        m.record_send(1 + SENDLOG_SLOTS as u64, 200); // same slot
        let slot = EndpointMemory::sendlog_slot(1);
        let entry = m.read(slot, SENDLOG_ENTRY as u32).unwrap();
        assert_eq!(
            EndpointMemory::parse_sendlog_entry(entry),
            Some((1 + SENDLOG_SLOTS as u64, 200)),
            "newer entry overwrites the slot"
        );
    }

    #[test]
    fn sockstat_records_and_reads_back() {
        let mut m = EndpointMemory::new();
        m.record_sockstat(3, SOCKSTAT_FLAG_OPEN | SOCKSTAT_FLAG_ALIVE, 48_000, 65_535);
        let slot = EndpointMemory::sockstat_slot(3);
        let entry = m.read(slot, SOCKSTAT_ENTRY as u32).unwrap();
        assert_eq!(
            EndpointMemory::parse_sockstat_entry(entry),
            Some(SockStat {
                sktid: 3,
                flags: SOCKSTAT_FLAG_OPEN | SOCKSTAT_FLAG_ALIVE,
                backlog: 48_000,
                peer_window: 65_535,
            })
        );
    }

    #[test]
    fn sockstat_region_read_only_and_in_bounds() {
        let mut m = EndpointMemory::new();
        assert!(
            !m.write(SOCKSTAT_OFFSET as u32, &[1]),
            "sockstat is read-only"
        );
        assert!(m
            .read(
                SOCKSTAT_OFFSET as u32,
                (SOCKSTAT_SLOTS * SOCKSTAT_ENTRY) as u32
            )
            .is_some());
        assert_eq!(
            MEMORY_SIZE,
            SOCKSTAT_OFFSET + SOCKSTAT_SLOTS * SOCKSTAT_ENTRY
        );
    }

    #[test]
    fn sockstat_clear_respects_ring_collisions() {
        let mut m = EndpointMemory::new();
        m.record_sockstat(2, SOCKSTAT_FLAG_OPEN, 10, 20);
        // Newer socket collides into the same slot (2 + 16).
        m.record_sockstat(2 + SOCKSTAT_SLOTS as u32, SOCKSTAT_FLAG_OPEN, 30, 40);
        // Closing the old socket must not erase the newer entry.
        m.clear_sockstat(2);
        let slot = EndpointMemory::sockstat_slot(2);
        let entry =
            EndpointMemory::parse_sockstat_entry(m.read(slot, SOCKSTAT_ENTRY as u32).unwrap())
                .unwrap();
        assert_eq!(entry.sktid, 2 + SOCKSTAT_SLOTS as u32);
        assert_eq!(entry.backlog, 30);
        // Closing the live one does clear it.
        m.clear_sockstat(2 + SOCKSTAT_SLOTS as u32);
        let entry = m.read(slot, SOCKSTAT_ENTRY as u32).unwrap();
        assert!(entry.iter().all(|&b| b == 0));
    }

    #[test]
    fn info_slice_is_monitor_visible_prefix() {
        let mut m = EndpointMemory::new();
        m.set_info("addr.ip", 0x0a000001);
        m.write(64, &42u64.to_le_bytes());
        let info = m.info();
        assert_eq!(info.len(), plab_packet::layout::INFO_SIZE);
        // Monitors see both endpoint fields and controller scratch.
        assert_eq!(
            plab_packet::layout::resolve_info("addr.ip")
                .unwrap()
                .read_le(info),
            Some(0x0a000001)
        );
        assert_eq!(
            plab_packet::layout::resolve_info("scratch0")
                .unwrap()
                .read_le(info),
            Some(42)
        );
    }
}
