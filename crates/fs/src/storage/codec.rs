//! The one binary record codec both durable formats share.
//!
//! Every [`Delta`] is one fixed-layout, little-endian record:
//!
//! ```text
//! Upsert  [tag 0][id u32][owner u32][size u64][atime i64][ctime i64]
//!         [stripes u8][access_count u32][path_len u32][path: path_len UTF-8 bytes]
//! Touch   [tag 1][id u32][atime i64][access_count u32]
//! Remove  [tag 2][id u32]
//! ```
//!
//! A WAL batch payload is `[count u32][count records]`
//! ([`encode_batch`], [`decode_batch`]); a checkpoint and a snapshot are
//! sealed images: a magic, a version, a header, records and a CRC32
//! footer ([`open_sealed`], [`seal`]). Decoding is total: truncation, an
//! unknown tag, a non-UTF-8 path, an Upsert path that is empty or not
//! canonical (the only paths the index keys) and trailing bytes are each
//! a [`DecodeError`], never a panic, and no capacity is sized from a
//! count that the remaining bytes cannot back.

use super::checksum::crc32;
use super::StorageError;
use crate::changelog::{is_canonical, Delta};
use crate::meta::FileMeta;
use crate::trie::NodeId;
use activedr_core::convert;
use activedr_core::time::Timestamp;
use activedr_core::user::UserId;

const TAG_UPSERT: u8 = 0;
const TAG_TOUCH: u8 = 1;
const TAG_REMOVE: u8 = 2;

/// Bytes of an Upsert record ahead of its path: the shortest an index
/// entry in a checkpoint can be.
pub(crate) const UPSERT_FIXED_LEN: usize = 1 + 4 + 4 + 8 + 8 + 8 + 1 + 4 + 4;

/// The shortest record of any kind (a Remove).
pub(crate) const MIN_RECORD_LEN: usize = 1 + 4;

/// Why a byte stream failed to decode. Offsets are relative to the
/// start of the stream handed to the [`Reader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DecodeError {
    /// A `needed`-byte field starts at `at`, but only `left` bytes remain.
    Truncated {
        at: usize,
        needed: usize,
        left: usize,
    },
    /// A record at `at` starts with a tag no variant uses.
    UnknownTag { at: usize, tag: u8 },
    /// The path bytes starting at `at` are not UTF-8.
    PathNotUtf8 { at: usize },
    /// The Upsert path starting at `at` is empty or not canonical (a
    /// leading `/` before each component, none empty or `.`).
    PathNotCanonical { at: usize },
    /// `extra` bytes follow the last record, from `at` on.
    TrailingBytes { at: usize, extra: usize },
    /// A sealed image does not start with the magic of the kind its
    /// decoder reads (another kind of image, or a v1 JSONL checkpoint).
    NoMagic,
    /// A sealed image's footer is not the CRC32 of the bytes before it.
    ChecksumMismatch,
    /// A sealed image names a version this build does not write.
    UnsupportedVersion(u32),
    /// File entry number `entry` of a checkpoint or snapshot is not an
    /// Upsert.
    IndexEntryNotUpsert { entry: usize },
    /// Checkpoint index entry number `entry` does not sort after the one
    /// before it by (owner, path in component order).
    IndexOutOfOrder { entry: usize },
    /// Checkpoint index entry number `entry` repeats an earlier entry's
    /// path.
    DuplicateIndexPath { entry: usize },
    /// Checkpoint index entry number `entry` repeats an earlier entry's
    /// id.
    DuplicateIndexId { entry: usize },
    /// File entry number `entry` of a checkpoint or snapshot takes the
    /// entries' byte total past `u64::MAX`.
    IndexBytesOverflow { entry: usize },
    /// Checkpoint buffer record number `entry` does not have a larger id
    /// than the one before it.
    BufferOutOfOrder { entry: usize },
    /// Checkpoint buffer record number `entry` is an Upsert whose size
    /// takes the index byte total plus the pending Upsert sizes past
    /// `u64::MAX`.
    BufferBytesOverflow { entry: usize },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { at, needed, left } => write!(
                f,
                "truncated at byte {at}: a {needed}-byte field with {left} byte(s) left"
            ),
            DecodeError::UnknownTag { at, tag } => {
                write!(f, "unknown record tag {tag} at byte {at}")
            }
            DecodeError::PathNotUtf8 { at } => write!(f, "path at byte {at} is not UTF-8"),
            DecodeError::PathNotCanonical { at } => {
                write!(f, "path at byte {at} is empty or not canonical")
            }
            DecodeError::TrailingBytes { at, extra } => {
                write!(f, "{extra} trailing byte(s) from byte {at}")
            }
            DecodeError::NoMagic => write!(f, "no magic of this image kind"),
            DecodeError::ChecksumMismatch => write!(f, "footer checksum mismatch"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::IndexEntryNotUpsert { entry } => {
                write!(f, "file entry {entry} is not an upsert")
            }
            DecodeError::IndexOutOfOrder { entry } => {
                write!(f, "index entry {entry} is out of (owner, path) order")
            }
            DecodeError::DuplicateIndexPath { entry } => {
                write!(f, "index entry {entry} repeats an earlier path")
            }
            DecodeError::DuplicateIndexId { entry } => {
                write!(f, "index entry {entry} repeats an earlier id")
            }
            DecodeError::IndexBytesOverflow { entry } => {
                write!(f, "file entry {entry} overflows the byte total")
            }
            DecodeError::BufferOutOfOrder { entry } => {
                write!(f, "buffer record {entry} is out of id order")
            }
            DecodeError::BufferBytesOverflow { entry } => {
                write!(f, "buffer record {entry} overflows the byte total")
            }
        }
    }
}

/// Append one Upsert record. The checkpoint writer calls this straight
/// from the index's borrowed view, so no [`Delta`] is built per file.
pub(crate) fn encode_upsert(
    out: &mut Vec<u8>,
    path: &str,
    id: NodeId,
    meta: &FileMeta,
) -> Result<(), StorageError> {
    let path_len = u32::try_from(path.len())
        .map_err(|_| StorageError::Encode(format!("path of {} bytes", path.len())))?;
    out.push(TAG_UPSERT);
    out.extend_from_slice(&id.0.to_le_bytes());
    out.extend_from_slice(&meta.owner.0.to_le_bytes());
    out.extend_from_slice(&meta.size.to_le_bytes());
    out.extend_from_slice(&meta.atime.secs().to_le_bytes());
    out.extend_from_slice(&meta.ctime.secs().to_le_bytes());
    out.push(meta.stripes);
    out.extend_from_slice(&meta.access_count.to_le_bytes());
    out.extend_from_slice(&path_len.to_le_bytes());
    out.extend_from_slice(path.as_bytes());
    Ok(())
}

/// Append one record of any kind.
pub(crate) fn encode_delta(out: &mut Vec<u8>, delta: &Delta) -> Result<(), StorageError> {
    match delta {
        Delta::Upsert { path, id, meta } => return encode_upsert(out, path, *id, meta),
        Delta::Touch {
            id,
            atime,
            access_count,
        } => {
            out.push(TAG_TOUCH);
            out.extend_from_slice(&id.0.to_le_bytes());
            out.extend_from_slice(&atime.secs().to_le_bytes());
            out.extend_from_slice(&access_count.to_le_bytes());
        }
        Delta::Remove { id } => {
            out.push(TAG_REMOVE);
            out.extend_from_slice(&id.0.to_le_bytes());
        }
    }
    Ok(())
}

/// Append a WAL batch payload: `[count u32]` then the records.
pub(crate) fn encode_batch(out: &mut Vec<u8>, deltas: &[Delta]) -> Result<(), StorageError> {
    let count = u32::try_from(deltas.len())
        .map_err(|_| StorageError::Encode(format!("batch of {} deltas", deltas.len())))?;
    out.extend_from_slice(&count.to_le_bytes());
    deltas.iter().try_for_each(|delta| encode_delta(out, delta))
}

/// Decode a whole WAL batch payload; bytes past the announced records
/// are an error.
pub(crate) fn decode_batch(payload: &[u8]) -> Result<Vec<Delta>, DecodeError> {
    let mut reader = Reader::new(payload);
    let count = reader.u32()?;
    let deltas = reader.records(u64::from(count), MIN_RECORD_LEN)?;
    reader.finish()?;
    Ok(deltas)
}

/// Open a sealed image of the kind named by `magic`: check the magic
/// first, so an image of another kind says so, then the footer, then
/// the version. Returns a reader over the bytes ahead of the footer,
/// positioned after the version.
pub(crate) fn open_sealed<'a>(
    image: &'a [u8],
    magic: &[u8; 8],
    version: u32,
) -> Result<Reader<'a>, DecodeError> {
    if image.first_chunk::<8>() != Some(magic) {
        return Err(DecodeError::NoMagic);
    }
    let (body, footer) = image
        .split_last_chunk::<4>()
        .ok_or(DecodeError::ChecksumMismatch)?;
    if crc32(body) != u32::from_le_bytes(*footer) {
        return Err(DecodeError::ChecksumMismatch);
    }
    let mut reader = Reader::new(body);
    reader.array::<8>()?;
    let found = reader.u32()?;
    if found != version {
        return Err(DecodeError::UnsupportedVersion(found));
    }
    Ok(reader)
}

/// Close a sealed image: append the CRC32 of every byte before it.
pub(crate) fn seal(image: &mut Vec<u8>) {
    let footer = crc32(image);
    image.extend_from_slice(&footer.to_le_bytes());
}

/// A bounds-checked little-endian cursor over an encoded byte stream.
pub(crate) struct Reader<'a> {
    rest: &'a [u8],
    len: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader {
            rest: bytes,
            len: bytes.len(),
        }
    }

    /// Offset of the next unread byte.
    fn at(&self) -> usize {
        self.len.saturating_sub(self.rest.len())
    }

    fn truncated(&self, needed: usize) -> DecodeError {
        DecodeError::Truncated {
            at: self.at(),
            needed,
            left: self.rest.len(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (field, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or_else(|| self.truncated(n))?;
        self.rest = rest;
        Ok(field)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (field, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or_else(|| self.truncated(N))?;
        self.rest = rest;
        Ok(*field)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(u8::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn timestamp(&mut self) -> Result<Timestamp, DecodeError> {
        self.array().map(|b| Timestamp(i64::from_le_bytes(b)))
    }

    /// Decode one record.
    fn delta(&mut self) -> Result<Delta, DecodeError> {
        let at = self.at();
        match self.u8()? {
            TAG_UPSERT => {
                let id = NodeId(self.u32()?);
                let owner = UserId(self.u32()?);
                let size = self.u64()?;
                let atime = self.timestamp()?;
                let ctime = self.timestamp()?;
                let stripes = self.u8()?;
                let access_count = self.u32()?;
                let path_len = convert::usize_from_u32(self.u32()?);
                let path_at = self.at();
                let path = std::str::from_utf8(self.take(path_len)?)
                    .map_err(|_| DecodeError::PathNotUtf8 { at: path_at })?;
                if !is_canonical(path) {
                    return Err(DecodeError::PathNotCanonical { at: path_at });
                }
                Ok(Delta::Upsert {
                    path: path.to_owned(),
                    id,
                    meta: FileMeta {
                        owner,
                        size,
                        atime,
                        ctime,
                        stripes,
                        access_count,
                    },
                })
            }
            TAG_TOUCH => {
                let id = NodeId(self.u32()?);
                let atime = self.timestamp()?;
                let access_count = self.u32()?;
                Ok(Delta::Touch {
                    id,
                    atime,
                    access_count,
                })
            }
            TAG_REMOVE => Ok(Delta::Remove {
                id: NodeId(self.u32()?),
            }),
            tag => Err(DecodeError::UnknownTag { at, tag }),
        }
    }

    /// Decode `count` records, each at least `min_len` bytes long. The
    /// count comes from the input, so it sizes the vector only as far as
    /// the remaining bytes could back it.
    pub(crate) fn records(
        &mut self,
        count: u64,
        min_len: usize,
    ) -> Result<Vec<Delta>, DecodeError> {
        let backed = self.rest.len() / min_len.max(1);
        let mut records = Vec::with_capacity(convert::usize_from_u64(count).min(backed));
        for _ in 0..count {
            records.push(self.delta()?);
        }
        Ok(records)
    }

    /// Decode `count` file entries: Upsert records, split into their
    /// parts. Any other record is [`DecodeError::IndexEntryNotUpsert`].
    pub(crate) fn upserts(
        &mut self,
        count: u64,
    ) -> Result<Vec<(String, NodeId, FileMeta)>, DecodeError> {
        self.records(count, UPSERT_FIXED_LEN)?
            .into_iter()
            .enumerate()
            .map(|(entry, delta)| match delta {
                Delta::Upsert { path, id, meta } => Ok((path, id, meta)),
                _ => Err(DecodeError::IndexEntryNotUpsert { entry }),
            })
            .collect()
    }

    /// Succeed only if every byte was consumed.
    pub(crate) fn finish(self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                at: self.at(),
                extra: self.rest.len(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn upsert(id: u32, path: &str) -> Delta {
        Delta::Upsert {
            path: path.to_string(),
            id: NodeId(id),
            meta: FileMeta::new(UserId(7), 4096, Timestamp::from_days(3))
                .with_ctime(Timestamp::from_days(-2))
                .with_stripes(4),
        }
    }

    /// A payload holding every record kind, a non-ASCII path included.
    fn sample_batch() -> Vec<Delta> {
        vec![
            upsert(1, "/scratch/u7/run/out.h5"),
            Delta::Touch {
                id: NodeId(1),
                atime: Timestamp::from_days(9),
                access_count: 3,
            },
            upsert(2, "/proj/données/中/🦀"),
            Delta::Remove { id: NodeId(2) },
        ]
    }

    fn encoded(deltas: &[Delta]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_batch(&mut out, deltas).expect("encode");
        out
    }

    /// Byte offset of record `n` (0-based) in `payload`.
    fn record_offset(deltas: &[Delta], n: usize) -> usize {
        encoded(deltas.get(..n).expect("prefix")).len()
    }

    #[test]
    fn batch_round_trips() {
        let deltas = sample_batch();
        assert_eq!(decode_batch(&encoded(&deltas)), Ok(deltas));
        assert_eq!(decode_batch(&encoded(&[])), Ok(Vec::new()));
    }

    #[test]
    fn record_lengths_match_the_documented_layout() {
        let mut out = Vec::new();
        encode_delta(&mut out, &upsert(1, "/a")).expect("encode");
        assert_eq!(out.len(), UPSERT_FIXED_LEN + 2);
        out.clear();
        encode_delta(&mut out, &Delta::Remove { id: NodeId(1) }).expect("encode");
        assert_eq!(out.len(), MIN_RECORD_LEN);
        out.clear();
        let touch = Delta::Touch {
            id: NodeId(1),
            atime: Timestamp::EPOCH,
            access_count: 0,
        };
        encode_delta(&mut out, &touch).expect("encode");
        assert_eq!(out.len(), 1 + 4 + 8 + 4);
    }

    #[test]
    fn every_cut_of_a_real_batch_is_a_truncation() {
        let payload = encoded(&sample_batch());
        for cut in 0..payload.len() {
            let prefix = payload.get(..cut).expect("cut");
            assert!(
                matches!(decode_batch(prefix), Err(DecodeError::Truncated { .. })),
                "cut at {cut}: {:?}",
                decode_batch(prefix)
            );
        }
    }

    #[test]
    fn hostile_counts_and_lengths_are_typed_errors() {
        let deltas = sample_batch();
        let payload = encoded(&deltas);

        // A count of u32::MAX over four real records: the decoder runs
        // out of bytes instead of reserving four billion slots.
        let mut huge = payload.clone();
        huge.splice(0..4, u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_batch(&huge),
            Err(DecodeError::Truncated { .. })
        ));

        // A path length of u32::MAX on the first upsert.
        let mut long_path = payload.clone();
        let len_at = 4 + UPSERT_FIXED_LEN - 4;
        long_path.splice(len_at..len_at + 4, u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_batch(&long_path),
            Err(DecodeError::Truncated { needed, .. }) if needed == convert::usize_from_u32(u32::MAX)
        ));

        // An unknown tag on the second record.
        let mut bad_tag = payload.clone();
        let second = record_offset(&deltas, 1);
        if let Some(tag) = bad_tag.get_mut(second) {
            *tag = 9;
        }
        assert_eq!(
            decode_batch(&bad_tag),
            Err(DecodeError::UnknownTag { at: second, tag: 9 })
        );

        // A non-UTF-8 byte inside the third record's path.
        let mut bad_path = payload.clone();
        let path_at = record_offset(&deltas, 2) + UPSERT_FIXED_LEN;
        if let Some(byte) = bad_path.get_mut(path_at + 1) {
            *byte = 0xFF;
        }
        assert_eq!(
            decode_batch(&bad_path),
            Err(DecodeError::PathNotUtf8 { at: path_at })
        );

        // An Upsert path the index could not key: empty, or not what
        // `canonical_path` makes of it (the encoder writes any string).
        for bad in ["", "/", "rel/a", "/a//b", "/a/./b", "/a/"] {
            let mut deltas = sample_batch();
            deltas.insert(0, upsert(3, bad));
            assert_eq!(
                decode_batch(&encoded(&deltas)),
                Err(DecodeError::PathNotCanonical {
                    at: 4 + UPSERT_FIXED_LEN
                }),
                "{bad:?}"
            );
        }

        // One byte past the announced records.
        let mut trailing = payload.clone();
        trailing.push(0);
        assert_eq!(
            decode_batch(&trailing),
            Err(DecodeError::TrailingBytes {
                at: payload.len(),
                extra: 1
            })
        );

        // A count one short of the records present leaves a whole record
        // trailing.
        let mut short_count = payload.clone();
        short_count.splice(0..4, 3u32.to_le_bytes());
        assert!(matches!(
            decode_batch(&short_count),
            Err(DecodeError::TrailingBytes { .. })
        ));
    }

    /// Canonical paths of printable, partly non-ASCII components (the
    /// only Upsert paths the decoder admits).
    fn arb_path() -> impl Strategy<Value = String> {
        prop::collection::vec("\\PC{1,8}", 1..4).prop_map(|comps| {
            let path = crate::changelog::canonical_path(&comps.join("/"));
            if path.is_empty() {
                "/_".to_string()
            } else {
                path
            }
        })
    }

    fn arb_delta() -> impl Strategy<Value = Delta> {
        prop_oneof![
            (
                arb_path(),
                0u32..=u32::MAX,
                0u32..=u32::MAX,
                0u64..=u64::MAX,
                (i64::MIN..=i64::MAX, i64::MIN..=i64::MAX),
                (0u8..=u8::MAX, 0u32..=u32::MAX),
            )
                .prop_map(
                    |(path, id, owner, size, (atime, ctime), (stripes, access_count))| {
                        Delta::Upsert {
                            path,
                            id: NodeId(id),
                            meta: FileMeta {
                                owner: UserId(owner),
                                size,
                                atime: Timestamp(atime),
                                ctime: Timestamp(ctime),
                                stripes,
                                access_count,
                            },
                        }
                    }
                ),
            (0u32..=u32::MAX, i64::MIN..=i64::MAX, 0u32..=u32::MAX).prop_map(
                |(id, atime, access_count)| Delta::Touch {
                    id: NodeId(id),
                    atime: Timestamp(atime),
                    access_count,
                }
            ),
            (0u32..=u32::MAX).prop_map(|id| Delta::Remove { id: NodeId(id) }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// encode → decode is the identity over all three variants, with
        /// full-range fields and non-ASCII paths.
        #[test]
        fn encode_decode_is_the_identity(deltas in prop::collection::vec(arb_delta(), 0..12)) {
            prop_assert_eq!(decode_batch(&encoded(&deltas)), Ok(deltas));
        }
    }
}
