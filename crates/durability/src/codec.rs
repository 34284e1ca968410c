//! The byte codec both durable formats are written in: little-endian
//! fixed-width integers, `len u32 + UTF-8` strings and one type tag per
//! [`DataType`], shared by the WAL record bodies ([`crate::record`]) and the
//! checkpoint's column segments ([`crate::checkpoint`]).
//!
//! Reading is total: every read is bounds-checked and answers `None` past
//! the end or on malformed input, it never panics.

use htap_storage::DataType;

/// The tag byte a value or a column segment of type `dt` is written under.
pub(crate) fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::I64 => 1,
        DataType::F64 => 2,
        DataType::I32 => 3,
        DataType::Str => 4,
    }
}

/// Inverse of [`dtype_tag`]; `None` for a byte no type is written under.
pub(crate) fn tag_dtype(tag: u8) -> Option<DataType> {
    [DataType::I64, DataType::F64, DataType::I32, DataType::Str]
        .into_iter()
        .find(|&dt| dtype_tag(dt) == tag)
}

/// Append a string as `len u32 + bytes`.
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Append a slice of fixed-width values, each as the `N` bytes `to_le`
/// gives: one resize, then a straight copy loop (no per-value capacity check).
pub(crate) fn put_le<T: Copy, const N: usize>(
    buf: &mut Vec<u8>,
    values: &[T],
    to_le: impl Fn(T) -> [u8; N],
) {
    let start = buf.len();
    buf.resize(start + values.len() * N, 0);
    for (dst, &value) in buf[start..].chunks_exact_mut(N).zip(values) {
        dst.copy_from_slice(&to_le(value));
    }
}

/// Bounds-checked little-endian reader over a byte slice.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.array().map(|[b]| b)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    /// `count` fixed-width values of `N` bytes each, the inverse of
    /// [`put_le`]. The byte range is bounds-checked before anything is
    /// allocated for it.
    pub(crate) fn le_vec<T, const N: usize>(
        &mut self,
        count: usize,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Option<Vec<T>> {
        let bytes = self.take(count.checked_mul(N)?)?;
        Some(
            bytes
                .chunks_exact(N)
                .map(|chunk| {
                    let mut le = [0u8; N];
                    le.copy_from_slice(chunk);
                    from_le(le)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip_and_unknown_tags_are_rejected() {
        for dt in [DataType::I64, DataType::F64, DataType::I32, DataType::Str] {
            assert_eq!(tag_dtype(dtype_tag(dt)), Some(dt));
        }
        assert_eq!(tag_dtype(0), None);
        assert_eq!(tag_dtype(5), None);
    }

    #[test]
    fn slices_and_strings_round_trip_and_reads_stop_at_the_end() {
        let mut buf = Vec::new();
        put_le(&mut buf, &[1i64, -2, i64::MIN], i64::to_le_bytes);
        put_str(&mut buf, "héllo");
        put_le(&mut buf, &[7i32], i32::to_le_bytes);
        let mut r = Reader::new(&buf);
        assert_eq!(r.le_vec(3, i64::from_le_bytes), Some(vec![1, -2, i64::MIN]));
        assert_eq!(r.str().as_deref(), Some("héllo"));
        assert_eq!(r.u32(), Some(7));
        assert_eq!(r.pos(), buf.len());
        assert_eq!(r.u8(), None);
        assert_eq!(r.le_vec(1, i64::from_le_bytes), None);
        // A count whose byte length overflows is rejected, not allocated.
        assert_eq!(
            Reader::new(&buf).le_vec(usize::MAX, i64::from_le_bytes),
            None
        );
        // A string whose bytes are not UTF-8 is malformed input.
        assert_eq!(Reader::new(&[1, 0, 0, 0, 0xFF]).str(), None);
    }
}
