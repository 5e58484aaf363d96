//! Immutable sorted segments and the recovery manifest.
//!
//! A segment is one memtable flush, laid out for positioned reads:
//!
//! ```text
//! offset 0   magic "MSEG"
//!        4   n_entries u32-le
//!        8   n_blobs   u32-le
//!       12   entries   n_entries × 45 bytes, sorted by key:
//!              [key_len u8][key padded to 16][sha1 20]
//!              [blob_off u32-le][slice_len u32-le]
//!            blob dir  n_blobs × 32 bytes:
//!              [sha1 20][file_off u64-le][blob_len u32-le]
//!            blob data (raw bytes, file_off points here)
//!            bloom     [len u32-le][serialized filter]
//! tail       crc32 of everything above, u32-le
//! ```
//!
//! Entries do not carry values; they reference a content-addressed
//! *blob* (a shared backing buffer — the sequence a block's window view
//! is cut from) by SHA-1 plus an `(offset, len)` slice into it. Blobs whose
//! digest is already durable in an older segment are not rewritten:
//! the engine's global blob directory resolves them (dedup).
//!
//! A [`SegmentReader`] keeps only the bloom filter, the blob directory,
//! and the entry count in memory. Key lookups binary-search the entry
//! region with `read_at`, and the bloom filter answers misses first —
//! a negative lookup performs zero file reads.
//!
//! The manifest (`MANIFEST`) lists live segments with their whole-file
//! checksums and is replaced atomically (`.tmp` + sync + rename).
//! Segments on disk but not in the manifest are half-flushed orphans
//! from a crash; the engine deletes them at open.

use crate::bloom::Bloom;
use crate::crc::{crc32, Crc32};
use crate::vfs::{Vfs, VfsError, VfsFile, VfsResult};
use crate::wal::read_exact_at;
use std::sync::Arc;

/// Segment file magic.
const SEG_MAGIC: &[u8; 4] = b"MSEG";
/// Manifest file magic.
const MAN_MAGIC: &[u8; 4] = b"MMFT";
/// Manifest format version.
const MAN_VERSION: u8 = 1;
/// Fixed on-disk entry size.
const ENTRY_SIZE: usize = 45;
/// Fixed on-disk blob-directory record size.
const BLOB_DIR_SIZE: usize = 32;
/// Entries begin after magic + two counts.
const ENTRIES_OFF: u64 = 12;
/// Longest key a segment entry can hold.
pub const MAX_KEY: usize = 16;

/// One key entry: a slice of a content-addressed blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// The lookup key (≤ [`MAX_KEY`] bytes).
    pub key: Vec<u8>,
    /// Digest of the backing blob.
    pub blob: [u8; 20],
    /// Slice start within the blob.
    pub offset: u32,
    /// Slice length.
    pub len: u32,
}

/// A blob recorded in a segment's directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobRef {
    /// Content digest.
    pub sha: [u8; 20],
    /// Absolute offset of the bytes within the segment file.
    pub file_off: u64,
    /// Blob length in bytes.
    pub len: u32,
}

/// Durable facts about a written segment, for the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File name relative to the store root.
    pub name: String,
    /// Whole-file CRC-32 (the footer value).
    pub crc: u32,
    /// Number of key entries.
    pub entries: u32,
}

/// Build one segment file from a flushed memtable.
///
/// `entries` must be sorted by key and hold unique keys; `blobs` are
/// the backing buffers not yet durable in older segments.
pub fn write_segment(
    vfs: &dyn Vfs,
    name: &str,
    entries: &[SegmentEntry],
    blobs: &[([u8; 20], Arc<[u8]>)],
) -> VfsResult<SegmentMeta> {
    debug_assert!(entries.windows(2).all(|w| w[0].key < w[1].key));
    let mut bloom = Bloom::with_capacity(entries.len());
    for e in entries {
        bloom.insert(&e.key);
    }

    let blob_dir_off = ENTRIES_OFF as usize + entries.len() * ENTRY_SIZE;
    let mut data_off = (blob_dir_off + blobs.len() * BLOB_DIR_SIZE) as u64;

    let mut buf = Vec::with_capacity(data_off as usize + 64);
    buf.extend_from_slice(SEG_MAGIC);
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(blobs.len() as u32).to_le_bytes());
    for e in entries {
        debug_assert!(e.key.len() <= MAX_KEY);
        buf.push(e.key.len() as u8);
        buf.extend_from_slice(&e.key);
        buf.extend(std::iter::repeat_n(0u8, MAX_KEY - e.key.len()));
        buf.extend_from_slice(&e.blob);
        buf.extend_from_slice(&e.offset.to_le_bytes());
        buf.extend_from_slice(&e.len.to_le_bytes());
    }
    for (sha, bytes) in blobs {
        buf.extend_from_slice(sha);
        buf.extend_from_slice(&data_off.to_le_bytes());
        buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        data_off += bytes.len() as u64;
    }
    for (_, bytes) in blobs {
        buf.extend_from_slice(bytes);
    }
    let bloom_bytes = bloom.to_bytes();
    buf.extend_from_slice(&(bloom_bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(&bloom_bytes);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());

    let mut file = vfs.create(name)?;
    let mut off = 0;
    while off < buf.len() {
        let n = file.append(&buf[off..])?;
        if n == 0 {
            return Err(VfsError::Io(format!("{name}: zero-byte append")));
        }
        off += n;
    }
    file.sync()?;
    Ok(SegmentMeta {
        name: name.to_string(),
        crc,
        entries: entries.len() as u32,
    })
}

/// An open, checksum-verified segment.
pub struct SegmentReader {
    file: Box<dyn VfsFile>,
    name: String,
    n_entries: u32,
    bloom: Bloom,
    blob_dir: Vec<BlobRef>,
}

impl SegmentReader {
    /// Open `name`, verify its whole-file checksum (and, when given,
    /// that it matches the manifest's recorded `expect_crc`), and load
    /// the in-memory side tables (bloom + blob directory).
    pub fn open(vfs: &dyn Vfs, name: &str, expect_crc: Option<u32>) -> VfsResult<SegmentReader> {
        let file = vfs.open(name)?;
        let file_len = file.len()?;
        if file_len < ENTRIES_OFF + 4 {
            return Err(VfsError::Io(format!("{name}: segment too short")));
        }
        let mut raw = vec![0u8; file_len as usize];
        read_exact_at(file.as_ref(), 0, &mut raw)?;
        let (body, tail) = raw.split_at(raw.len() - 4);
        let stored = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
        let mut hasher = Crc32::new();
        hasher.update(body);
        let actual = hasher.finalize();
        if stored != actual {
            return Err(VfsError::Io(format!(
                "{name}: segment checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
            )));
        }
        if let Some(want) = expect_crc {
            if want != stored {
                return Err(VfsError::Io(format!(
                    "{name}: manifest expects crc {want:#010x}, file has {stored:#010x}"
                )));
            }
        }
        if &body[..4] != SEG_MAGIC {
            return Err(VfsError::Io(format!("{name}: bad segment magic")));
        }
        let n_entries = u32::from_le_bytes([body[4], body[5], body[6], body[7]]);
        let n_blobs = u32::from_le_bytes([body[8], body[9], body[10], body[11]]);
        let dir_off = ENTRIES_OFF as usize + n_entries as usize * ENTRY_SIZE;
        let dir_end = dir_off + n_blobs as usize * BLOB_DIR_SIZE;
        if dir_end + 4 > body.len() {
            return Err(VfsError::Io(format!("{name}: segment tables overrun file")));
        }
        let mut blob_dir = Vec::with_capacity(n_blobs as usize);
        for rec in body[dir_off..dir_end].chunks_exact(BLOB_DIR_SIZE) {
            let mut sha = [0u8; 20];
            sha.copy_from_slice(&rec[..20]);
            let file_off = u64::from_le_bytes([
                rec[20], rec[21], rec[22], rec[23], rec[24], rec[25], rec[26], rec[27],
            ]);
            let len = u32::from_le_bytes([rec[28], rec[29], rec[30], rec[31]]);
            if file_off + len as u64 > body.len() as u64 {
                return Err(VfsError::Io(format!("{name}: blob overruns file")));
            }
            blob_dir.push(BlobRef { sha, file_off, len });
        }
        let bloom_off = blob_dir
            .last()
            .map_or(dir_end, |b| (b.file_off + b.len as u64) as usize);
        if bloom_off + 4 > body.len() {
            return Err(VfsError::Io(format!("{name}: bloom region overruns file")));
        }
        let bloom_len = u32::from_le_bytes([
            body[bloom_off],
            body[bloom_off + 1],
            body[bloom_off + 2],
            body[bloom_off + 3],
        ]) as usize;
        let bloom_bytes = body
            .get(bloom_off + 4..bloom_off + 4 + bloom_len)
            .ok_or_else(|| VfsError::Io(format!("{name}: bloom truncated")))?;
        let bloom = Bloom::from_bytes(bloom_bytes)
            .ok_or_else(|| VfsError::Io(format!("{name}: bloom malformed")))?;
        Ok(SegmentReader {
            file,
            name: name.to_string(),
            n_entries,
            bloom,
            blob_dir,
        })
    }

    /// Segment file name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of key entries.
    pub fn entries(&self) -> u32 {
        self.n_entries
    }

    /// The in-memory blob directory.
    pub fn blob_dir(&self) -> &[BlobRef] {
        &self.blob_dir
    }

    /// Memory-only membership pre-check; `false` is authoritative.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.bloom.may_contain(key)
    }

    /// Binary-search the on-disk entry region for `key`. The caller is
    /// expected to consult [`Self::may_contain`] first; this touches
    /// the file.
    pub fn lookup(&self, key: &[u8]) -> VfsResult<Option<SegmentEntry>> {
        let mut lo = 0u32;
        let mut hi = self.n_entries;
        let mut rec = [0u8; ENTRY_SIZE];
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            read_exact_at(
                self.file.as_ref(),
                ENTRIES_OFF + mid as u64 * ENTRY_SIZE as u64,
                &mut rec,
            )?;
            let klen = rec[0] as usize;
            if klen > MAX_KEY {
                return Err(VfsError::Io(format!("{}: entry key overlong", self.name)));
            }
            let k = &rec[1..1 + klen];
            match k.cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    let mut blob = [0u8; 20];
                    blob.copy_from_slice(&rec[17..37]);
                    let offset = u32::from_le_bytes([rec[37], rec[38], rec[39], rec[40]]);
                    let len = u32::from_le_bytes([rec[41], rec[42], rec[43], rec[44]]);
                    return Ok(Some(SegmentEntry {
                        key: key.to_vec(),
                        blob,
                        offset,
                        len,
                    }));
                }
            }
        }
        Ok(None)
    }

    /// Read the whole entry region — recovery's bulk path when a node
    /// rebuilds its in-memory indexes from the store.
    pub fn load_entries(&self) -> VfsResult<Vec<SegmentEntry>> {
        let mut raw = vec![0u8; self.n_entries as usize * ENTRY_SIZE];
        read_exact_at(self.file.as_ref(), ENTRIES_OFF, &mut raw)?;
        let mut out = Vec::with_capacity(self.n_entries as usize);
        for rec in raw.chunks_exact(ENTRY_SIZE) {
            let klen = rec[0] as usize;
            if klen > MAX_KEY {
                return Err(VfsError::Io(format!("{}: entry key overlong", self.name)));
            }
            let mut blob = [0u8; 20];
            blob.copy_from_slice(&rec[17..37]);
            out.push(SegmentEntry {
                key: rec[1..1 + klen].to_vec(),
                blob,
                offset: u32::from_le_bytes([rec[37], rec[38], rec[39], rec[40]]),
                len: u32::from_le_bytes([rec[41], rec[42], rec[43], rec[44]]),
            });
        }
        Ok(out)
    }

    /// Read `len` blob bytes at absolute file offset `file_off`.
    pub fn read_range(&self, file_off: u64, len: u32) -> VfsResult<Vec<u8>> {
        let mut out = vec![0u8; len as usize];
        read_exact_at(self.file.as_ref(), file_off, &mut out)?;
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

/// The durable list of live segments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Next segment generation number.
    pub generation: u64,
    /// Live segments, oldest first.
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// Serialize: magic, version, generation, segment list, CRC footer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAN_MAGIC);
        buf.push(MAN_VERSION);
        buf.extend_from_slice(&self.generation.to_le_bytes());
        buf.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for s in &self.segments {
            debug_assert!(s.name.len() <= u8::MAX as usize);
            buf.push(s.name.len() as u8);
            buf.extend_from_slice(s.name.as_bytes());
            buf.extend_from_slice(&s.crc.to_le_bytes());
            buf.extend_from_slice(&s.entries.to_le_bytes());
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    fn from_bytes(buf: &[u8], path: &str) -> VfsResult<Manifest> {
        let corrupt = |what: &str| VfsError::Io(format!("{path}: manifest {what}"));
        if buf.len() < 21 {
            return Err(corrupt("too short"));
        }
        let (body, tail) = buf.split_at(buf.len() - 4);
        let stored = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
        if crc32(body) != stored {
            return Err(corrupt("checksum mismatch"));
        }
        if &body[..4] != MAN_MAGIC {
            return Err(corrupt("bad magic"));
        }
        if body[4] != MAN_VERSION {
            return Err(corrupt("unknown version"));
        }
        let generation = u64::from_le_bytes([
            body[5], body[6], body[7], body[8], body[9], body[10], body[11], body[12],
        ]);
        let n = u32::from_le_bytes([body[13], body[14], body[15], body[16]]);
        let mut pos = 17usize;
        let mut segments = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let name_len = *body.get(pos).ok_or_else(|| corrupt("truncated"))? as usize;
            let rec_end = pos + 1 + name_len + 8;
            if rec_end > body.len() {
                return Err(corrupt("truncated"));
            }
            let name = std::str::from_utf8(&body[pos + 1..pos + 1 + name_len])
                .map_err(|_| corrupt("segment name not utf-8"))?
                .to_string();
            let crc = u32::from_le_bytes([
                body[rec_end - 8],
                body[rec_end - 7],
                body[rec_end - 6],
                body[rec_end - 5],
            ]);
            let entries = u32::from_le_bytes([
                body[rec_end - 4],
                body[rec_end - 3],
                body[rec_end - 2],
                body[rec_end - 1],
            ]);
            segments.push(SegmentMeta { name, crc, entries });
            pos = rec_end;
        }
        if pos != body.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(Manifest {
            generation,
            segments,
        })
    }

    /// Load the manifest at `path`; `Ok(None)` when none exists yet
    /// (a fresh store). A present-but-corrupt manifest is an error —
    /// the rename protocol never leaves one, so this is real damage
    /// and the store fails loudly instead of silently dropping data.
    pub fn load(vfs: &dyn Vfs, path: &str) -> VfsResult<Option<Manifest>> {
        if !vfs.exists(path)? {
            return Ok(None);
        }
        let file = vfs.open(path)?;
        let len = file.len()?;
        let mut raw = vec![0u8; len as usize];
        read_exact_at(file.as_ref(), 0, &mut raw)?;
        Manifest::from_bytes(&raw, path).map(Some)
    }

    /// Durably replace the manifest at `path`: write `path.tmp`, sync
    /// it, rename over `path`. A crash anywhere leaves either the old
    /// or the new manifest, never a torn one.
    pub fn store(&self, vfs: &dyn Vfs, path: &str) -> VfsResult<()> {
        let tmp = format!("{path}.tmp");
        let bytes = self.to_bytes();
        let mut f = vfs.create(&tmp)?;
        let mut off = 0;
        while off < bytes.len() {
            let n = f.append(&bytes[off..])?;
            if n == 0 {
                return Err(VfsError::Io(format!("{tmp}: zero-byte append")));
            }
            off += n;
        }
        f.sync()?;
        drop(f);
        vfs.rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use mendel_dht::sha1::sha1;

    fn sample_segment(vfs: &dyn Vfs, name: &str) -> (SegmentMeta, Vec<SegmentEntry>) {
        let blob_a: Arc<[u8]> = Arc::from(&b"ACGTACGTACGTACGT"[..]);
        let blob_b: Arc<[u8]> = Arc::from(&b"TTTTGGGGCCCCAAAA"[..]);
        let (sa, sb) = (sha1(&blob_a), sha1(&blob_b));
        let mut entries = vec![
            SegmentEntry {
                key: b"a".to_vec(),
                blob: sa,
                offset: 0,
                len: 8,
            },
            SegmentEntry {
                key: b"b".to_vec(),
                blob: sa,
                offset: 4,
                len: 12,
            },
            SegmentEntry {
                key: b"c".to_vec(),
                blob: sb,
                offset: 0,
                len: 16,
            },
        ];
        entries.sort_by(|x, y| x.key.cmp(&y.key));
        let meta = write_segment(vfs, name, &entries, &[(sa, blob_a), (sb, blob_b)]).unwrap();
        (meta, entries)
    }

    #[test]
    fn write_then_read_back_every_entry() {
        let vfs = MemVfs::plain(31);
        let (meta, entries) = sample_segment(&vfs, "seg-000001");
        let r = SegmentReader::open(&vfs, "seg-000001", Some(meta.crc)).unwrap();
        assert_eq!(r.entries(), 3);
        assert_eq!(r.blob_dir().len(), 2);
        for e in &entries {
            assert!(r.may_contain(&e.key));
            let got = r.lookup(&e.key).unwrap().unwrap();
            assert_eq!(&got, e);
            let blob = r
                .blob_dir()
                .iter()
                .find(|b| b.sha == e.blob)
                .copied()
                .unwrap();
            let bytes = r
                .read_range(blob.file_off + e.offset as u64, e.len)
                .unwrap();
            assert_eq!(bytes.len(), e.len as usize);
        }
        assert_eq!(r.lookup(b"zz").unwrap(), None);
    }

    #[test]
    fn blob_slices_reconstruct_content() {
        let vfs = MemVfs::plain(37);
        sample_segment(&vfs, "s");
        let r = SegmentReader::open(&vfs, "s", None).unwrap();
        let e = r.lookup(b"b").unwrap().unwrap();
        let blob = r.blob_dir().iter().find(|b| b.sha == e.blob).unwrap();
        let bytes = r
            .read_range(blob.file_off + e.offset as u64, e.len)
            .unwrap();
        assert_eq!(&bytes, b"ACGTACGTACGT", "slice [4..16] of blob A");
    }

    #[test]
    fn any_corrupted_byte_fails_open() {
        let vfs = MemVfs::plain(41);
        let (meta, _) = sample_segment(&vfs, "s");
        let len = vfs.file_len("s").unwrap();
        // Flip every 7th byte (whole sweep is slow-ish; stride covers
        // header, entries, dir, data, bloom, and footer regions).
        for off in (0..len).step_by(7) {
            vfs.corrupt("s", off as usize).unwrap();
            assert!(
                SegmentReader::open(&vfs, "s", Some(meta.crc)).is_err(),
                "flip at {off} must fail the checksum"
            );
            vfs.corrupt("s", off as usize).unwrap(); // restore
        }
        SegmentReader::open(&vfs, "s", Some(meta.crc)).unwrap();
    }

    #[test]
    fn crc_disagreement_with_manifest_fails_open() {
        let vfs = MemVfs::plain(43);
        let (meta, _) = sample_segment(&vfs, "s");
        assert!(SegmentReader::open(&vfs, "s", Some(meta.crc ^ 1)).is_err());
    }

    #[test]
    fn bloom_rejects_absent_keys_without_reads() {
        let vfs = MemVfs::plain(47);
        sample_segment(&vfs, "s");
        let r = SegmentReader::open(&vfs, "s", None).unwrap();
        let misses = (0u32..1000)
            .filter(|i| r.may_contain(&i.to_le_bytes()))
            .count();
        assert!(
            misses < 50,
            "bloom should reject most absent keys: {misses}"
        );
    }

    #[test]
    fn empty_segment_roundtrips() {
        let vfs = MemVfs::plain(53);
        let meta = write_segment(&vfs, "s", &[], &[]).unwrap();
        let r = SegmentReader::open(&vfs, "s", Some(meta.crc)).unwrap();
        assert_eq!(r.entries(), 0);
        assert_eq!(r.lookup(b"k").unwrap(), None);
    }

    #[test]
    fn manifest_roundtrip_and_atomic_replace() {
        let vfs = MemVfs::plain(59);
        assert_eq!(Manifest::load(&vfs, "MANIFEST").unwrap(), None);
        let m1 = Manifest {
            generation: 3,
            segments: vec![SegmentMeta {
                name: "seg-000001".into(),
                crc: 0xDEAD_BEEF,
                entries: 10,
            }],
        };
        m1.store(&vfs, "MANIFEST").unwrap();
        assert_eq!(Manifest::load(&vfs, "MANIFEST").unwrap(), Some(m1.clone()));
        let mut m2 = m1.clone();
        m2.generation = 4;
        m2.segments.push(SegmentMeta {
            name: "seg-000002".into(),
            crc: 7,
            entries: 2,
        });
        m2.store(&vfs, "MANIFEST").unwrap();
        assert_eq!(Manifest::load(&vfs, "MANIFEST").unwrap(), Some(m2));
        assert!(!vfs.exists("MANIFEST.tmp").unwrap(), "tmp renamed away");
    }

    #[test]
    fn corrupt_manifest_is_an_error_not_a_reset() {
        let vfs = MemVfs::plain(61);
        Manifest::default().store(&vfs, "MANIFEST").unwrap();
        let len = vfs.file_len("MANIFEST").unwrap();
        for off in 0..len {
            vfs.corrupt("MANIFEST", off as usize).unwrap();
            assert!(
                Manifest::load(&vfs, "MANIFEST").is_err(),
                "flip at {off} must not parse"
            );
            vfs.corrupt("MANIFEST", off as usize).unwrap();
        }
    }

    #[test]
    fn truncated_manifest_is_rejected_at_every_cut() {
        let vfs = MemVfs::plain(67);
        let m = Manifest {
            generation: 9,
            segments: vec![
                SegmentMeta {
                    name: "seg-000007".into(),
                    crc: 1,
                    entries: 5,
                },
                SegmentMeta {
                    name: "seg-000008".into(),
                    crc: 2,
                    entries: 6,
                },
            ],
        };
        m.store(&vfs, "MANIFEST").unwrap();
        let len = vfs.file_len("MANIFEST").unwrap();
        for cut in 0..len {
            vfs.truncate("MANIFEST", cut).unwrap();
            assert!(Manifest::load(&vfs, "MANIFEST").is_err(), "cut at {cut}");
            m.store(&vfs, "MANIFEST").unwrap();
        }
    }
}
