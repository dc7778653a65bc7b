//! # plab-packet
//!
//! Packet construction and parsing for the PacketLab reproduction.
//!
//! PacketLab endpoints expose *raw IP* sockets (§3.1 of the paper): the
//! experiment controller crafts complete IPv4 datagrams (e.g. ICMP echo
//! requests with increasing TTLs for traceroute) and parses the replies. The
//! experiment monitor VM likewise adjudicates raw packet bytes. This crate
//! provides:
//!
//! - [`checksum`] — the Internet checksum (RFC 1071) and pseudo-header sums.
//! - [`ipv4`] — IPv4 header parsing and serialization.
//! - [`icmp`] — ICMP echo / time-exceeded / destination-unreachable messages.
//! - [`udp`], [`tcp`] — transport headers with pseudo-header checksums.
//! - [`builder`] — ergonomic one-call constructors for whole datagrams.
//! - [`codec`] — the little-endian field reader and writer every PacketLab
//!   byte format (control messages, certificates, descriptors, PFVM
//!   programs, endpoint-memory records) is read and written with.
//! - [`layout`] — the symbolic field model (`ip.proto`, `ip.icmp.orig.ip.src`,
//!   ...) shared by the PFVM filter machine and the Cpf compiler, mirroring
//!   the `union packet` the paper's Figure 2 monitor is written against.
//!
//! The parsing API follows the smoltcp idiom: lightweight typed views over
//! byte slices, with explicit error types and no panics on malformed input.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod checksum;
pub mod codec;
pub mod icmp;
pub mod ipv4;
pub mod layout;
pub mod tcp;
pub mod udp;

pub use ipv4::{Ipv4Header, Ipv4View};

/// IP protocol numbers used throughout the workspace.
pub mod proto {
    /// ICMP (RFC 792).
    pub const ICMP: u8 = 1;
    /// TCP (RFC 793).
    pub const TCP: u8 = 6;
    /// UDP (RFC 768).
    pub const UDP: u8 = 17;
}

/// Errors produced when parsing packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// A length field disagrees with the buffer.
    BadLength,
    /// Version or other structural field invalid.
    Malformed,
    /// Checksum verification failed.
    BadChecksum,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParseError::Truncated => write!(f, "packet truncated"),
            ParseError::BadLength => write!(f, "length field inconsistent"),
            ParseError::Malformed => write!(f, "malformed header"),
            ParseError::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for ParseError {}
