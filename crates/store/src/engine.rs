//! The durable block store: WAL + memtable + immutable segments.
//!
//! Write path: every `put` is framed into the WAL first (crash safety),
//! then applied to the in-memory memtable. Values are slices of
//! content-addressed *blobs* — shared backing buffers keyed by their
//! from-scratch SHA-1 — so the overlapping windows Mendel cuts from one
//! sequence share a single copy on disk exactly as their window views
//! share one buffer in memory. A blob already durable anywhere in the
//! store is never
//! written again (dedup).
//!
//! When the memtable reaches its flush threshold it becomes an
//! immutable sorted segment. The flush ordering is crash-safe at every
//! step:
//!
//! 1. write + fsync the new segment file;
//! 2. write + fsync `MANIFEST.tmp`, rename over `MANIFEST`;
//! 3. truncate the WAL.
//!
//! A crash between 1–2 leaves an orphan segment (deleted at next open,
//! WAL replays the data); a crash between 2–3 leaves the records in
//! both the segment and the WAL (replay is idempotent). Acknowledged
//! writes are never lost; torn tails are never resurrected.
//!
//! Read path: memtable, then segments newest → oldest, consulting each
//! segment's bloom filter first so negative lookups cost zero file
//! reads.
//!
//! Error handling is deliberately brittle: any I/O failure (including a
//! failed fsync — data of unknowable durability) poisons the store.
//! Every later call fails with [`StoreError::Broken`] until the caller
//! reopens, which re-establishes truth from disk. Fail loudly, never
//! serve maybe-lost data.

use crate::segment::{write_segment, Manifest, SegmentEntry, SegmentMeta, SegmentReader, MAX_KEY};
use crate::vfs::{Vfs, VfsError};
use crate::wal::{Wal, WalReplay};
use mendel_dht::sha1::sha1;
use mendel_obs::{Counter, Registry};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// When appended records are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every record: a returned `Ok` means durable.
    Always,
    /// Sync after every `n` records (group commit).
    EveryN(u32),
    /// Sync only at memtable flush (fastest, widest loss window).
    OnFlush,
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Fsync cadence for the WAL.
    pub fsync: FsyncPolicy,
    /// Memtable entries that trigger a segment flush.
    pub memtable_max_entries: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            fsync: FsyncPolicy::Always,
            memtable_max_entries: 1024,
        }
    }
}

/// Failures surfaced by the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying disk failure (includes simulated crashes).
    Io(VfsError),
    /// The store hit an I/O error earlier and refuses further work
    /// until reopened; the string says what broke it.
    Broken(String),
    /// Key exceeds the segment format's [`MAX_KEY`] bytes.
    KeyTooLong(usize),
    /// Durable state failed validation (checksum, dangling blob, …).
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o: {e}"),
            StoreError::Broken(why) => write!(f, "store poisoned by earlier failure: {why}"),
            StoreError::KeyTooLong(n) => {
                write!(
                    f,
                    "key of {n} bytes exceeds the {MAX_KEY}-byte segment limit"
                )
            }
            StoreError::Corrupt(what) => write!(f, "durable state corrupt: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<VfsError> for StoreError {
    fn from(e: VfsError) -> Self {
        StoreError::Io(e)
    }
}

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// Counters the engine maintains; attach them to a [`Registry`] with
/// [`StoreMetrics::registered`] to surface them in cluster snapshots.
#[derive(Debug, Clone)]
pub struct StoreMetrics {
    /// Records framed into the WAL.
    pub wal_appends: Arc<Counter>,
    /// Successful WAL fsyncs.
    pub wal_fsyncs: Arc<Counter>,
    /// Records rebuilt from the WAL at open.
    pub replayed_records: Arc<Counter>,
    /// Lookups short-circuited by a segment bloom filter.
    pub bloom_negatives: Arc<Counter>,
    /// Memtable flushes (segments written).
    pub segment_flushes: Arc<Counter>,
    /// Blob writes avoided because the digest was already stored.
    pub dedup_hits: Arc<Counter>,
    /// `get` calls served.
    pub lookups: Arc<Counter>,
    /// Binary searches that actually touched a segment file.
    pub segment_reads: Arc<Counter>,
}

impl StoreMetrics {
    /// Standalone counters (not visible in any registry snapshot).
    pub fn detached() -> Self {
        StoreMetrics {
            wal_appends: Arc::new(Counter::new()),
            wal_fsyncs: Arc::new(Counter::new()),
            replayed_records: Arc::new(Counter::new()),
            bloom_negatives: Arc::new(Counter::new()),
            segment_flushes: Arc::new(Counter::new()),
            dedup_hits: Arc::new(Counter::new()),
            lookups: Arc::new(Counter::new()),
            segment_reads: Arc::new(Counter::new()),
        }
    }

    /// Counters registered under `<prefix>.<name>` in `reg`.
    pub fn registered(reg: &Registry, prefix: &str) -> Self {
        let c = |name: &str| reg.counter(&format!("{prefix}.{name}"));
        StoreMetrics {
            wal_appends: c("wal_appends"),
            wal_fsyncs: c("wal_fsyncs"),
            replayed_records: c("replayed_records"),
            bloom_negatives: c("bloom_negatives"),
            segment_flushes: c("segment_flushes"),
            dedup_hits: c("dedup_hits"),
            lookups: c("lookups"),
            segment_reads: c("segment_reads"),
        }
    }
}

/// What [`DurableStore::open`] found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact WAL records replayed into the memtable.
    pub replayed_records: u64,
    /// Torn-tail bytes truncated off the WAL.
    pub truncated_wal_bytes: u64,
    /// Segments opened (checksum-verified) from the manifest.
    pub segments: usize,
    /// Key entries across those segments.
    pub segment_entries: u64,
    /// Orphan files (half-flushed segments, stale tmp files) removed.
    pub orphans_removed: usize,
    /// WAL size after tail repair.
    pub wal_bytes: u64,
}

/// One record from [`DurableStore::scan`]: a key plus its slice of a
/// shared backing buffer.
#[derive(Debug, Clone)]
pub struct ScannedBlock {
    /// The record key.
    pub key: Vec<u8>,
    /// The full backing blob (shared across keys that slice it).
    pub backing: Arc<[u8]>,
    /// Slice start within `backing`.
    pub offset: u32,
    /// Slice length.
    pub len: u32,
}

/// Where a durable blob's bytes live.
#[derive(Debug, Clone, Copy)]
struct BlobLoc {
    /// Index into `DurableStore::segments`.
    segment: usize,
    file_off: u64,
    len: u32,
}

#[derive(Debug, Clone)]
struct MemEntry {
    blob: [u8; 20],
    offset: u32,
    len: u32,
}

/// WAL payload: one key pointing into a blob, with the blob bytes
/// inline the first time that digest is seen.
fn encode_record(key: &[u8], entry: &MemEntry, blob_bytes: Option<&[u8]>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32 + key.len() + blob_bytes.map_or(0, |b| b.len()));
    buf.push(key.len() as u8);
    buf.extend_from_slice(key);
    buf.extend_from_slice(&entry.blob);
    buf.extend_from_slice(&entry.offset.to_le_bytes());
    buf.extend_from_slice(&entry.len.to_le_bytes());
    match blob_bytes {
        Some(b) => {
            buf.push(1);
            buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
            buf.extend_from_slice(b);
        }
        None => buf.push(0),
    }
    buf
}

fn decode_record(payload: &[u8]) -> StoreResult<(Vec<u8>, MemEntry, Option<Vec<u8>>)> {
    let corrupt = |what: &str| StoreError::Corrupt(format!("wal record: {what}"));
    let klen = *payload.first().ok_or_else(|| corrupt("empty"))? as usize;
    if klen > MAX_KEY {
        return Err(corrupt("key overlong"));
    }
    let fixed_end = 1 + klen + 20 + 4 + 4 + 1;
    if payload.len() < fixed_end {
        return Err(corrupt("short"));
    }
    let key = payload[1..1 + klen].to_vec();
    let mut blob = [0u8; 20];
    blob.copy_from_slice(&payload[1 + klen..21 + klen]);
    let offset = u32::from_le_bytes([
        payload[21 + klen],
        payload[22 + klen],
        payload[23 + klen],
        payload[24 + klen],
    ]);
    let len = u32::from_le_bytes([
        payload[25 + klen],
        payload[26 + klen],
        payload[27 + klen],
        payload[28 + klen],
    ]);
    let entry = MemEntry { blob, offset, len };
    match payload[fixed_end - 1] {
        0 => {
            if payload.len() != fixed_end {
                return Err(corrupt("trailing bytes"));
            }
            Ok((key, entry, None))
        }
        1 => {
            if payload.len() < fixed_end + 4 {
                return Err(corrupt("short blob header"));
            }
            let blen = u32::from_le_bytes([
                payload[fixed_end],
                payload[fixed_end + 1],
                payload[fixed_end + 2],
                payload[fixed_end + 3],
            ]) as usize;
            let bytes = payload
                .get(fixed_end + 4..fixed_end + 4 + blen)
                .ok_or_else(|| corrupt("short blob"))?;
            if payload.len() != fixed_end + 4 + blen {
                return Err(corrupt("trailing bytes"));
            }
            Ok((key, entry, Some(bytes.to_vec())))
        }
        _ => Err(corrupt("bad blob flag")),
    }
}

/// The durable block store for one node.
pub struct DurableStore {
    vfs: Arc<dyn Vfs>,
    root: String,
    opts: StoreOptions,
    metrics: StoreMetrics,
    wal: Wal,
    memtable: BTreeMap<Vec<u8>, MemEntry>,
    /// Blobs referenced by the memtable but not yet in any segment.
    mem_blobs: HashMap<[u8; 20], Arc<[u8]>>,
    /// Open segments, oldest first. Never reordered, so [`BlobLoc`]
    /// indices stay valid (no compaction in this engine).
    segments: Vec<SegmentReader>,
    manifest: Manifest,
    blob_locations: HashMap<[u8; 20], BlobLoc>,
    appends_since_sync: u32,
    broken: Option<String>,
}

impl DurableStore {
    /// Open (or create) the store rooted at `root/` on `vfs`, running
    /// full recovery: verify the manifest and every segment checksum,
    /// delete orphans, replay the WAL, and truncate its torn tail.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        root: &str,
        opts: StoreOptions,
        metrics: StoreMetrics,
    ) -> StoreResult<(DurableStore, RecoveryReport)> {
        let manifest_path = format!("{root}/MANIFEST");
        let wal_path = format!("{root}/wal");
        let manifest = Manifest::load(vfs.as_ref(), &manifest_path)?.unwrap_or_default();

        // Open every live segment, verifying checksums against the
        // manifest. Oldest first: blob dedup resolves to the first
        // (oldest) copy of each digest.
        let mut segments = Vec::with_capacity(manifest.segments.len());
        let mut blob_locations = HashMap::new();
        let mut segment_entries = 0u64;
        for meta in &manifest.segments {
            let reader = SegmentReader::open(
                vfs.as_ref(),
                &format!("{root}/{}", meta.name),
                Some(meta.crc),
            )?;
            segment_entries += reader.entries() as u64;
            for blob in reader.blob_dir() {
                blob_locations.entry(blob.sha).or_insert(BlobLoc {
                    segment: segments.len(),
                    file_off: blob.file_off,
                    len: blob.len,
                });
            }
            segments.push(reader);
        }

        // Everything under root/ that recovery does not recognise is a
        // half-flushed orphan (or stale tmp) from a crash: delete it.
        let mut orphans_removed = 0usize;
        let live: Vec<String> = manifest
            .segments
            .iter()
            .map(|s| format!("{root}/{}", s.name))
            .collect();
        for path in vfs.list(&format!("{root}/"))? {
            if path == manifest_path || path == wal_path || live.contains(&path) {
                continue;
            }
            vfs.remove(&path)?;
            orphans_removed += 1;
        }

        // Replay the WAL into a fresh memtable; the torn tail (if any)
        // was already truncated by `Wal::open`.
        let (wal, replay): (Wal, WalReplay) = Wal::open(vfs.clone(), &wal_path)?;
        let mut memtable = BTreeMap::new();
        let mut mem_blobs: HashMap<[u8; 20], Arc<[u8]>> = HashMap::new();
        for payload in &replay.records {
            let (key, entry, blob_bytes) = decode_record(payload)?;
            if let Some(bytes) = blob_bytes {
                if sha1(&bytes) != entry.blob {
                    return Err(StoreError::Corrupt(
                        "wal blob bytes do not match their digest".into(),
                    ));
                }
                // Skip blobs that a completed flush already made
                // durable (crash between manifest update and WAL
                // truncation replays them redundantly).
                if !blob_locations.contains_key(&entry.blob) {
                    mem_blobs
                        .entry(entry.blob)
                        .or_insert_with(|| Arc::from(bytes));
                }
            } else if !blob_locations.contains_key(&entry.blob)
                && !mem_blobs.contains_key(&entry.blob)
            {
                return Err(StoreError::Corrupt(
                    "wal record references an unknown blob".into(),
                ));
            }
            memtable.insert(key, entry);
        }
        metrics.replayed_records.add(replay.records.len() as u64);

        let report = RecoveryReport {
            replayed_records: replay.records.len() as u64,
            truncated_wal_bytes: replay.truncated_bytes,
            segments: segments.len(),
            segment_entries,
            orphans_removed,
            wal_bytes: wal.len_bytes(),
        };
        Ok((
            DurableStore {
                vfs,
                root: root.to_string(),
                opts,
                metrics,
                wal,
                memtable,
                mem_blobs,
                segments,
                manifest,
                blob_locations,
                appends_since_sync: 0,
                broken: None,
            },
            report,
        ))
    }

    fn ensure_live(&self) -> StoreResult<()> {
        match &self.broken {
            Some(why) => Err(StoreError::Broken(why.clone())),
            None => Ok(()),
        }
    }

    /// Poison the store on `err` and return it.
    fn poison<T>(&mut self, err: StoreError) -> StoreResult<T> {
        self.broken = Some(err.to_string());
        Err(err)
    }

    /// Store `key` → the slice `[offset, offset+len)` of `backing`.
    /// The backing buffer is content-addressed: many keys sharing one
    /// buffer (windows of one sequence) store its bytes exactly once.
    pub fn put_block(
        &mut self,
        key: &[u8],
        backing: &Arc<[u8]>,
        offset: u32,
        len: u32,
    ) -> StoreResult<()> {
        self.ensure_live()?;
        if key.len() > MAX_KEY {
            return Err(StoreError::KeyTooLong(key.len()));
        }
        if offset as usize + len as usize > backing.len() {
            return Err(StoreError::Corrupt(format!(
                "slice [{offset}, {offset}+{len}) exceeds {}-byte backing buffer",
                backing.len()
            )));
        }
        let digest = sha1(backing);
        let known =
            self.mem_blobs.contains_key(&digest) || self.blob_locations.contains_key(&digest);
        let entry = MemEntry {
            blob: digest,
            offset,
            len,
        };
        let record = if known {
            self.metrics.dedup_hits.inc();
            encode_record(key, &entry, None)
        } else {
            encode_record(key, &entry, Some(backing))
        };
        if let Err(e) = self.wal.append(&record) {
            return self.poison(e.into());
        }
        self.metrics.wal_appends.inc();
        if !known {
            self.mem_blobs.insert(digest, backing.clone());
        }
        self.memtable.insert(key.to_vec(), entry);

        let should_sync = match self.opts.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => {
                self.appends_since_sync += 1;
                self.appends_since_sync >= n
            }
            FsyncPolicy::OnFlush => false,
        };
        if should_sync {
            if let Err(e) = self.wal.sync() {
                return self.poison(e.into());
            }
            self.metrics.wal_fsyncs.inc();
            self.appends_since_sync = 0;
        }
        if self.memtable.len() >= self.opts.memtable_max_entries {
            self.flush()?;
        }
        Ok(())
    }

    /// Store a standalone value (its own backing buffer).
    // audit:allow(unreached): this file's tests and crates/store/tests/crash_matrix.rs write single records with it
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> StoreResult<()> {
        let backing: Arc<[u8]> = Arc::from(value);
        let len = value.len() as u32;
        self.put_block(key, &backing, 0, len)
    }

    /// Force all appended records durable regardless of policy.
    pub fn sync(&mut self) -> StoreResult<()> {
        self.ensure_live()?;
        if self.wal.unsynced_bytes() == 0 {
            return Ok(());
        }
        if let Err(e) = self.wal.sync() {
            return self.poison(e.into());
        }
        self.metrics.wal_fsyncs.inc();
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Flush the memtable into a new immutable segment (see the module
    /// docs for the crash-ordering argument), then clear the WAL.
    pub fn flush(&mut self) -> StoreResult<()> {
        self.ensure_live()?;
        if self.memtable.is_empty() {
            return Ok(());
        }
        let entries: Vec<SegmentEntry> = self
            .memtable
            .iter()
            .map(|(k, e)| SegmentEntry {
                key: k.clone(),
                blob: e.blob,
                offset: e.offset,
                len: e.len,
            })
            .collect();
        // Only blobs not yet durable go into the new segment,
        // deterministically ordered by digest.
        let mut new_blobs: Vec<([u8; 20], Arc<[u8]>)> = self
            .mem_blobs
            .iter()
            .filter(|(sha, _)| !self.blob_locations.contains_key(*sha))
            .map(|(sha, b)| (*sha, b.clone()))
            .collect();
        new_blobs.sort_by_key(|(sha, _)| *sha);

        let name = format!("seg-{:06}", self.manifest.generation);
        let path = format!("{}/{name}", self.root);
        let meta: SegmentMeta = match write_segment(self.vfs.as_ref(), &path, &entries, &new_blobs)
        {
            Ok(m) => m,
            Err(e) => return self.poison(e.into()),
        };

        let mut next = self.manifest.clone();
        next.generation += 1;
        next.segments.push(SegmentMeta {
            name,
            ..meta.clone()
        });
        if let Err(e) = next.store(self.vfs.as_ref(), &format!("{}/MANIFEST", self.root)) {
            return self.poison(e.into());
        }
        self.manifest = next;

        // From here the segment is authoritative; register it and drop
        // the WAL. (Reopening re-reads the file we just wrote — cheap,
        // and it double-checks the checksum round-trip.)
        let reader = match SegmentReader::open(self.vfs.as_ref(), &path, Some(meta.crc)) {
            Ok(r) => r,
            Err(e) => return self.poison(e.into()),
        };
        for blob in reader.blob_dir() {
            self.blob_locations.entry(blob.sha).or_insert(BlobLoc {
                segment: self.segments.len(),
                file_off: blob.file_off,
                len: blob.len,
            });
        }
        self.segments.push(reader);
        if let Err(e) = self.wal.reset() {
            return self.poison(e.into());
        }
        self.memtable.clear();
        self.mem_blobs.clear();
        self.appends_since_sync = 0;
        self.metrics.segment_flushes.inc();
        Ok(())
    }

    fn read_entry(&self, entry: &MemEntry) -> StoreResult<Vec<u8>> {
        if let Some(bytes) = self.mem_blobs.get(&entry.blob) {
            let start = entry.offset as usize;
            return Ok(bytes[start..start + entry.len as usize].to_vec());
        }
        let loc = self
            .blob_locations
            .get(&entry.blob)
            .ok_or_else(|| StoreError::Corrupt("entry references an unknown blob".into()))?;
        if entry.offset + entry.len > loc.len {
            return Err(StoreError::Corrupt("entry slice exceeds its blob".into()));
        }
        let seg = &self.segments[loc.segment];
        Ok(seg.read_range(loc.file_off + entry.offset as u64, entry.len)?)
    }

    /// Look up `key`; `Ok(None)` when absent.
    pub fn get(&self, key: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        self.ensure_live()?;
        self.metrics.lookups.inc();
        if let Some(entry) = self.memtable.get(key) {
            return self.read_entry(entry).map(Some);
        }
        for seg in self.segments.iter().rev() {
            if !seg.may_contain(key) {
                self.metrics.bloom_negatives.inc();
                continue;
            }
            self.metrics.segment_reads.inc();
            if let Some(found) = seg.lookup(key)? {
                let entry = MemEntry {
                    blob: found.blob,
                    offset: found.offset,
                    len: found.len,
                };
                return self.read_entry(&entry).map(Some);
            }
        }
        Ok(None)
    }

    /// Does `key` exist?
    pub fn contains(&self, key: &[u8]) -> StoreResult<bool> {
        Ok(self.get(key)?.is_some())
    }

    /// Every live record, key-ordered, with backing buffers shared the
    /// way they were written: all keys slicing one blob return clones
    /// of a single `Arc`. This is recovery's bulk path — a node
    /// rebuilds its vp-tree state from it after a restart.
    pub fn scan(&self) -> StoreResult<Vec<ScannedBlock>> {
        self.ensure_live()?;
        // Oldest → newest so later writes shadow earlier ones.
        let mut live: BTreeMap<Vec<u8>, MemEntry> = BTreeMap::new();
        for seg in &self.segments {
            for e in seg.load_entries()? {
                live.insert(
                    e.key,
                    MemEntry {
                        blob: e.blob,
                        offset: e.offset,
                        len: e.len,
                    },
                );
            }
        }
        for (k, e) in &self.memtable {
            live.insert(k.clone(), e.clone());
        }
        let mut blobs: HashMap<[u8; 20], Arc<[u8]>> = HashMap::new();
        let mut out = Vec::with_capacity(live.len());
        for (key, e) in live {
            let backing = match blobs.get(&e.blob) {
                Some(b) => b.clone(),
                None => {
                    let b: Arc<[u8]> = match self.mem_blobs.get(&e.blob) {
                        Some(b) => b.clone(),
                        None => {
                            let loc = self.blob_locations.get(&e.blob).ok_or_else(|| {
                                StoreError::Corrupt("scan: entry references an unknown blob".into())
                            })?;
                            Arc::from(self.segments[loc.segment].read_range(loc.file_off, loc.len)?)
                        }
                    };
                    blobs.insert(e.blob, b.clone());
                    b
                }
            };
            if e.offset as usize + e.len as usize > backing.len() {
                return Err(StoreError::Corrupt("scan: entry slice exceeds blob".into()));
            }
            out.push(ScannedBlock {
                key,
                backing,
                offset: e.offset,
                len: e.len,
            });
        }
        Ok(out)
    }

    /// Engine counters.
    // audit:allow(unreached): this file's tests read the engine counters with it
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// Live segment count.
    // audit:allow(unreached): the flush tests in this file count segments with it
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Records currently only in WAL + memtable.
    // audit:allow(unreached): the flush tests in this file read the memtable size with it
    pub fn memtable_len(&self) -> usize {
        self.memtable.len()
    }

    /// Has an earlier failure poisoned this handle?
    // audit:allow(unreached): the failure tests in this file check a store is poisoned with it
    pub fn is_broken(&self) -> bool {
        self.broken.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    fn open_mem(vfs: &Arc<MemVfs>, opts: StoreOptions) -> (DurableStore, RecoveryReport) {
        DurableStore::open(
            vfs.clone() as Arc<dyn Vfs>,
            "node-0",
            opts,
            StoreMetrics::detached(),
        )
        .unwrap()
    }

    #[test]
    fn put_get_roundtrip_through_reopen() {
        let vfs = Arc::new(MemVfs::plain(71));
        {
            let (mut s, _) = open_mem(&vfs, StoreOptions::default());
            for i in 0..50u32 {
                s.put(&i.to_le_bytes(), format!("value-{i}").as_bytes())
                    .unwrap();
            }
            assert_eq!(s.get(&7u32.to_le_bytes()).unwrap().unwrap(), b"value-7");
            assert_eq!(s.get(b"missing").unwrap(), None);
        }
        let (s, report) = open_mem(&vfs, StoreOptions::default());
        assert_eq!(report.replayed_records, 50);
        assert_eq!(report.truncated_wal_bytes, 0);
        for i in 0..50u32 {
            assert_eq!(
                s.get(&i.to_le_bytes()).unwrap().unwrap(),
                format!("value-{i}").as_bytes()
            );
        }
    }

    #[test]
    fn flush_moves_records_to_segments_and_clears_wal() {
        let vfs = Arc::new(MemVfs::plain(73));
        let opts = StoreOptions {
            memtable_max_entries: 10,
            ..StoreOptions::default()
        };
        let (mut s, _) = open_mem(&vfs, opts);
        for i in 0..25u32 {
            s.put(&i.to_le_bytes(), &[i as u8; 30]).unwrap();
        }
        assert_eq!(s.segment_count(), 2, "two flushes at 10 entries each");
        assert_eq!(s.memtable_len(), 5);
        drop(s);
        let (s, report) = open_mem(&vfs, opts);
        assert_eq!(report.segments, 2);
        assert_eq!(report.segment_entries, 20);
        assert_eq!(report.replayed_records, 5);
        for i in 0..25u32 {
            assert_eq!(s.get(&i.to_le_bytes()).unwrap().unwrap(), vec![i as u8; 30]);
        }
    }

    #[test]
    fn shared_backing_is_stored_once() {
        let vfs = Arc::new(MemVfs::plain(79));
        let (mut s, _) = open_mem(&vfs, StoreOptions::default());
        let backing: Arc<[u8]> = Arc::from(vec![9u8; 4096].as_slice());
        for i in 0..64u32 {
            s.put_block(&i.to_le_bytes(), &backing, i * 64, 64).unwrap();
        }
        assert_eq!(s.metrics().dedup_hits.get(), 63, "one write, 63 dedups");
        s.flush().unwrap();
        // The segment holds one 4 KiB blob, not 64 copies.
        let seg_len = vfs.file_len("node-0/seg-000000").unwrap();
        assert!(
            seg_len < 4096 * 3,
            "segment should hold one shared blob, got {seg_len} bytes"
        );
        drop(s);
        let (s, _) = open_mem(&vfs, StoreOptions::default());
        for i in 0..64u32 {
            assert_eq!(s.get(&i.to_le_bytes()).unwrap().unwrap(), vec![9u8; 64]);
        }
    }

    #[test]
    fn overwrites_resolve_to_newest_value() {
        let vfs = Arc::new(MemVfs::plain(83));
        let opts = StoreOptions {
            memtable_max_entries: 4,
            ..StoreOptions::default()
        };
        let (mut s, _) = open_mem(&vfs, opts);
        for round in 0..3u8 {
            for i in 0..4u32 {
                s.put(&i.to_le_bytes(), &[round; 8]).unwrap();
            }
        }
        s.put(&0u32.to_le_bytes(), b"newest").unwrap();
        assert_eq!(s.get(&0u32.to_le_bytes()).unwrap().unwrap(), b"newest");
        assert_eq!(s.get(&1u32.to_le_bytes()).unwrap().unwrap(), vec![2u8; 8]);
        drop(s);
        let (s, _) = open_mem(&vfs, opts);
        assert_eq!(s.get(&0u32.to_le_bytes()).unwrap().unwrap(), b"newest");
        assert_eq!(s.get(&3u32.to_le_bytes()).unwrap().unwrap(), vec![2u8; 8]);
    }

    #[test]
    fn bloom_filters_short_circuit_negative_lookups() {
        let vfs = Arc::new(MemVfs::plain(89));
        let (mut s, _) = open_mem(&vfs, StoreOptions::default());
        for i in 0..100u32 {
            s.put(&i.to_le_bytes(), b"x").unwrap();
        }
        s.flush().unwrap();
        let before_reads = s.metrics().segment_reads.get();
        for i in 1000..2000u32 {
            assert_eq!(s.get(&i.to_le_bytes()).unwrap(), None);
        }
        let negatives = s.metrics().bloom_negatives.get();
        let reads = s.metrics().segment_reads.get() - before_reads;
        assert!(
            negatives > 950,
            "most misses must be answered by the bloom filter: {negatives}"
        );
        assert!(reads < 50, "only bloom false positives may read: {reads}");
    }

    #[test]
    fn poisoned_store_refuses_everything_until_reopen() {
        let vfs = Arc::new(MemVfs::new(
            crate::vfs::DiskFaultConfig::none(97).crash_at(40),
        ));
        let (mut s, _) = open_mem(&vfs, StoreOptions::default());
        let mut failed = false;
        for i in 0..100u32 {
            if s.put(&i.to_le_bytes(), b"v").is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "the crash point must fire mid-ingest");
        assert!(s.is_broken());
        assert!(matches!(s.get(b"k"), Err(StoreError::Broken(_))));
        assert!(matches!(s.put(b"k", b"v"), Err(StoreError::Broken(_))));
        vfs.recover();
        let (s, _) = open_mem(&vfs, StoreOptions::default());
        assert!(!s.is_broken());
    }

    #[test]
    fn oversized_key_is_rejected_cleanly() {
        let vfs = Arc::new(MemVfs::plain(103));
        let (mut s, _) = open_mem(&vfs, StoreOptions::default());
        let long = [0u8; 17];
        assert!(matches!(
            s.put(&long, b"v"),
            Err(StoreError::KeyTooLong(17))
        ));
        assert!(!s.is_broken(), "a bad argument must not poison the store");
    }

    #[test]
    fn orphan_segment_is_removed_at_open() {
        let vfs = Arc::new(MemVfs::plain(107));
        let (mut s, _) = open_mem(&vfs, StoreOptions::default());
        s.put(b"k", b"v").unwrap();
        s.flush().unwrap();
        drop(s);
        // Fake a half-flushed segment: a file not in the manifest.
        let mut f = vfs.create("node-0/seg-000099").unwrap();
        f.append(b"torn garbage").unwrap();
        f.sync().unwrap();
        drop(f);
        let (s, report) = open_mem(&vfs, StoreOptions::default());
        assert_eq!(report.orphans_removed, 1);
        assert!(!vfs.exists("node-0/seg-000099").unwrap());
        assert_eq!(s.get(b"k").unwrap().unwrap(), b"v");
    }

    #[test]
    fn scan_returns_live_records_with_shared_backings() {
        let vfs = Arc::new(MemVfs::plain(113));
        let opts = StoreOptions {
            memtable_max_entries: 8,
            ..StoreOptions::default()
        };
        let (mut s, _) = open_mem(&vfs, opts);
        let backing: Arc<[u8]> = Arc::from(vec![5u8; 256].as_slice());
        for i in 0..10u32 {
            s.put_block(&i.to_le_bytes(), &backing, i * 16, 16).unwrap();
        }
        s.put(&3u32.to_le_bytes(), b"overridden").unwrap();
        let scan = s.scan().unwrap();
        assert_eq!(scan.len(), 10);
        let shared: Vec<&ScannedBlock> = scan
            .iter()
            .filter(|b| b.key != 3u32.to_le_bytes())
            .collect();
        for b in &shared {
            assert!(
                Arc::ptr_eq(&b.backing, &shared[0].backing),
                "windows of one blob share one backing"
            );
            assert_eq!(b.len, 16);
        }
        let over = scan.iter().find(|b| b.key == 3u32.to_le_bytes()).unwrap();
        assert_eq!(
            &over.backing[over.offset as usize..(over.offset + over.len) as usize],
            b"overridden"
        );
        // Scan must agree with get() after reopen too.
        drop(s);
        let (s, _) = open_mem(&vfs, opts);
        let scan2 = s.scan().unwrap();
        assert_eq!(scan2.len(), 10);
        for b in &scan2 {
            let got = s.get(&b.key).unwrap().unwrap();
            assert_eq!(
                got,
                &b.backing[b.offset as usize..(b.offset + b.len) as usize]
            );
        }
    }

    #[test]
    fn fsync_policies_count_fsyncs_differently() {
        for (policy, expect_fsyncs) in [
            (FsyncPolicy::Always, 20),
            (FsyncPolicy::EveryN(5), 4),
            (FsyncPolicy::OnFlush, 0),
        ] {
            let vfs = Arc::new(MemVfs::plain(109));
            let opts = StoreOptions {
                fsync: policy,
                memtable_max_entries: 1000,
            };
            let (mut s, _) = open_mem(&vfs, opts);
            for i in 0..20u32 {
                s.put(&i.to_le_bytes(), b"v").unwrap();
            }
            assert_eq!(s.metrics().wal_fsyncs.get(), expect_fsyncs, "{policy:?}");
        }
    }
}
