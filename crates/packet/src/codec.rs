//! The one byte layout of every PacketLab format — little-endian integers,
//! fixed-size fields as they are, variable-size fields behind a `u32`
//! length — written by [`Writer`] and read by [`Reader`]. A reader borrows
//! what it reads: each format checks its own length limit in
//! [`Reader::bytes`] before it copies anything out, and maps [`WireError`]
//! onto its own error type.

/// Codec errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Frame or field truncated.
    Truncated,
    /// Unknown tag or enum value, or bytes past the end of a message.
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

/// Little-endian field writer appending to the buffer it holds: the
/// encode half of [`Reader`].
pub struct Writer<'a>(pub &'a mut Vec<u8>);

impl Writer<'_> {
    /// A `capacity`-byte buffer holding what `write` writes.
    #[inline]
    pub fn build(capacity: usize, write: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut out = Vec::with_capacity(capacity);
        write(&mut Writer(&mut out));
        out
    }

    /// Fixed-size field: the bytes as they are.
    #[inline]
    pub fn raw(&mut self, data: &[u8]) {
        self.0.extend_from_slice(data);
    }

    /// Variable-size field: `u32` length, then the bytes.
    #[inline]
    pub fn bytes(&mut self, data: &[u8]) {
        self.u32(data.len() as u32);
        self.raw(data);
    }
}

/// The integer fields, written and read little-endian.
macro_rules! integers {
    ($($t:ident),*) => {
        impl Writer<'_> {
            $(
                #[doc = concat!("A `", stringify!($t), "`.")]
                #[inline]
                pub fn $t(&mut self, v: $t) {
                    self.raw(&v.to_le_bytes());
                }
            )*
        }

        impl Reader<'_> {
            $(
                #[doc = concat!("A `", stringify!($t), "`.")]
                #[inline]
                pub fn $t(&mut self) -> Result<$t, WireError> {
                    Ok($t::from_le_bytes(self.take()?))
                }
            )*
        }
    };
}

integers!(u8, u16, u32, u64);

/// Advancing little-endian field reader over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read `buf` from its start.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// What `read` reads from all of `buf`: bytes left after it are
    /// [`WireError::BadTag`].
    #[inline]
    pub fn all<T>(
        buf: &'a [u8],
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut r = Reader::new(buf);
        let v = read(&mut r)?;
        r.done()?;
        Ok(v)
    }

    /// Bytes not read yet.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `N` bytes.
    #[inline]
    pub fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(WireError::Truncated)?;
        self.buf = rest;
        Ok(*head)
    }

    /// The next `len` bytes.
    #[inline]
    pub fn slice(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self.buf.split_at_checked(len).ok_or(WireError::Truncated)?;
        self.buf = rest;
        Ok(head)
    }

    /// A one-byte tag, as the index of its value in `table`.
    #[inline]
    pub fn tag<T: Copy>(&mut self, table: &[T]) -> Result<T, WireError> {
        table
            .get(self.u8()? as usize)
            .copied()
            .ok_or(WireError::BadTag)
    }

    /// A variable-size field of at most `max` bytes: a longer length is
    /// [`WireError::TooLarge`] whatever follows it.
    #[inline]
    pub fn bytes(&mut self, max: usize) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        if len > max {
            return Err(WireError::TooLarge);
        }
        self.slice(len)
    }

    /// A variable-size UTF-8 field of at most `max` bytes, owned.
    #[inline]
    pub fn string(&mut self, max: usize) -> Result<String, WireError> {
        String::from_utf8(self.bytes(max)?.to_vec()).map_err(|_| WireError::BadString)
    }

    /// The input must end here.
    #[inline]
    pub fn done(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::BadTag)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_reader_agree_field_by_field() {
        let enc = Writer::build(0, |w| {
            w.u8(1);
            w.u16(0x0302);
            w.u32(0x0706_0504);
            w.u64(0x0f0e_0d0c_0b0a_0908);
            w.raw(&[0x10]);
            w.bytes(b"ab");
        });
        assert_eq!(
            enc,
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0x10, 2, 0, 0, 0, b'a', b'b']
        );
        let mut r = Reader::new(&enc);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u16(), Ok(0x0302));
        assert_eq!(r.u32(), Ok(0x0706_0504));
        assert_eq!(r.u64(), Ok(0x0f0e_0d0c_0b0a_0908));
        assert_eq!(r.take(), Ok([0x10]));
        assert_eq!(r.remaining(), 6);
        assert_eq!(r.bytes(2), Ok(&b"ab"[..]));
        assert_eq!(r.done(), Ok(()));
        assert_eq!(r.u8(), Err(WireError::Truncated));
    }

    #[test]
    fn a_length_over_its_limit_is_too_large_before_it_is_short() {
        let enc = Writer::build(0, |w| w.bytes(b"abc"));
        assert_eq!(Reader::new(&enc).bytes(2), Err(WireError::TooLarge));
        assert_eq!(Reader::new(&enc[..6]).bytes(3), Err(WireError::Truncated));
        assert_eq!(Reader::new(&enc[..6]).bytes(2), Err(WireError::TooLarge));
        assert_eq!(
            Reader::new(&[1, 0, 0, 0, 0xff]).string(1),
            Err(WireError::BadString)
        );
    }

    #[test]
    fn tags_index_their_table_and_all_refuses_a_tail() {
        assert_eq!(Reader::new(&[2]).tag(&['a', 'b', 'c']), Ok('c'));
        assert_eq!(
            Reader::new(&[3]).tag(&['a', 'b', 'c']),
            Err(WireError::BadTag)
        );
        assert_eq!(Reader::all(&[7], Reader::u8), Ok(7));
        assert_eq!(Reader::all(&[7, 0], Reader::u8), Err(WireError::BadTag));
        assert_eq!(Reader::all(&[], Reader::u8), Err(WireError::Truncated));
    }
}
