//! An append-only, CRC-verified, versioned checkpoint log on disk.
//!
//! This is the reproduction's "reliable storage medium" (§4.4). The design
//! is a classic write-ahead log:
//!
//! ```text
//! record := MAGIC(u32) | name(u128) | version(u64) | tomb(u8) | len(u32) | crc(u32) | payload
//! ```
//!
//! * Writes append a record and (optionally) fsync; the record becomes
//!   visible in the index only after a fully successful append, so `put`
//!   is atomic with respect to crashes. The header and the payload go out
//!   in one vectored write, without first being copied into one buffer.
//!   A write or fsync that fails cuts the file back to the last whole
//!   record, so a partly written record never sits under later ones.
//! * The in-memory index holds one entry per live object: its latest
//!   version, where that record's payload lies, the payload's CRC, and the
//!   log offset at which the object's current life began (its first record
//!   after its last tombstone). `put`, `latest`, `delete` and `names` use
//!   that entry alone, so the index is bounded by the live objects, not by
//!   the checkpoints ever written.
//! * History lives in the log. `get` of a superseded version and
//!   `versions` read the log forward from the start of the object's life;
//!   `compact` makes one streaming pass over the whole log.
//! * Opening a store scans the log through a fixed-size buffer, so
//!   recovery costs the log's length in time, not in memory. A record with
//!   a bad magic, a bad CRC, or a truncated payload ends the scan and the
//!   tail is truncated — the torn-write recovery rule.
//! * Every read is verified: a payload that no longer matches the CRC it
//!   was written with (kept in the index for the latest record, read from
//!   the record's header otherwise) is reported as [`StoreError::Corrupt`]
//!   rather than handed to reincarnation. The four-lane slicing-by-16
//!   kernel in [`crate::crc`] makes the check cheap enough to run on every
//!   checkpoint and read. `put` computes its CRC before it takes the
//!   store lock, and a read of an object's latest version checks its CRC
//!   after releasing it, so a large checkpoint's checksum holds up no
//!   other caller.
//! * Deletions append a tombstone record (`tomb = 1`), so the log remains
//!   append-only; `compact` rewrites live records to a fresh log.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, IoSlice, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use eden_capability::ObjName;
use eden_obs::{now_ns, Histogram, ObsRegistry};
use parking_lot::{Mutex, RwLock};

use crate::crc::{crc32, Crc32};
use crate::{CheckpointStore, StoreError};

const MAGIC: u32 = 0xEDE1_1981;
const HEADER_LEN: usize = 4 + 16 + 8 + 1 + 4 + 4;
/// The read buffer of every pass over the log (recovery, history,
/// compaction); records longer than it are streamed through it.
const SCAN_BUF: usize = 64 * 1024;

/// Durability policy for [`DiskStore`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every checkpoint (highest reliability level).
    Always,
    /// Let the OS schedule writeback (faster; survives process crash but
    /// not power failure).
    Never,
}

/// Where one record's payload lives, and the CRC it must match on read.
#[derive(Clone, Copy)]
struct Indexed {
    offset: u64,
    len: u32,
    crc: u32,
}

/// The index entry of one live object.
#[derive(Clone, Copy)]
struct Entry {
    /// The latest version, whose payload `at` locates.
    version: u64,
    at: Indexed,
    /// Offset of the object's first record after its last tombstone: every
    /// record of the object from here on belongs to its current life.
    life: u64,
}

/// The latest record of every live object, rebuilt by the recovery scan.
type Index = HashMap<ObjName, Entry>;

/// One record's header.
struct Header {
    name: ObjName,
    version: u64,
    tomb: u8,
    len: u32,
    crc: u32,
}

impl Header {
    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut raw = [0u8; HEADER_LEN];
        raw[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        raw[4..20].copy_from_slice(&self.name.to_u128().to_le_bytes());
        raw[20..28].copy_from_slice(&self.version.to_le_bytes());
        raw[28] = self.tomb;
        raw[29..33].copy_from_slice(&self.len.to_le_bytes());
        raw[33..37].copy_from_slice(&self.crc.to_le_bytes());
        raw
    }

    /// The header in `raw`, or `None` if its magic is wrong.
    fn decode(raw: &[u8; HEADER_LEN]) -> Option<Header> {
        fn le<const N: usize>(raw: &[u8], at: usize) -> [u8; N] {
            raw[at..at + N].try_into().unwrap()
        }
        if u32::from_le_bytes(le(raw, 0)) != MAGIC {
            return None;
        }
        Some(Header {
            name: ObjName::from_u128(u128::from_le_bytes(le(raw, 4))),
            version: u64::from_le_bytes(le(raw, 20)),
            tomb: raw[28],
            len: u32::from_le_bytes(le(raw, 29)),
            crc: u32::from_le_bytes(le(raw, 33)),
        })
    }
}

/// Reads records front to back through a [`SCAN_BUF`]-sized buffer.
struct LogReader<'f> {
    buf: BufReader<&'f File>,
    /// Offset one past the last whole record returned.
    at: u64,
    /// Offset one past the last byte to read.
    end: u64,
    /// Payload bytes of the last record not yet read.
    unread: u32,
}

impl<'f> LogReader<'f> {
    fn new(mut file: &'f File, from: u64, end: u64) -> io::Result<Self> {
        // Appends use the cursor implicitly (O_APPEND), so an explicit seek
        // for reading is safe here.
        file.seek(SeekFrom::Start(from))?;
        Ok(LogReader {
            buf: BufReader::with_capacity(SCAN_BUF, file),
            at: from,
            end,
            unread: 0,
        })
    }

    /// The next record's starting offset and header, skipping whatever
    /// payload of the previous record was not read. `None` at the end, and
    /// at a header that is torn, has a bad magic or claims a payload
    /// running past the end.
    fn next(&mut self) -> io::Result<Option<(u64, Header)>> {
        self.buf
            .seek_relative(i64::from(std::mem::take(&mut self.unread)))?;
        let start = self.at;
        if start + HEADER_LEN as u64 > self.end {
            return Ok(None);
        }
        let mut raw = [0u8; HEADER_LEN];
        self.buf.read_exact(&mut raw)?;
        let Some(header) = Header::decode(&raw) else {
            return Ok(None);
        };
        let next = start + HEADER_LEN as u64 + u64::from(header.len);
        if next > self.end {
            return Ok(None);
        }
        self.at = next;
        self.unread = header.len;
        Ok(Some((start, header)))
    }

    /// Streams the last record's payload through `sink` and returns its
    /// CRC.
    fn payload(&mut self, mut sink: impl FnMut(&[u8]) -> io::Result<()>) -> io::Result<u32> {
        let mut crc = Crc32::new();
        while self.unread > 0 {
            let chunk = self.buf.fill_buf()?;
            if chunk.is_empty() {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let n = chunk.len().min(self.unread as usize);
            crc.update(&chunk[..n]);
            sink(&chunk[..n])?;
            self.buf.consume(n);
            self.unread -= n as u32;
        }
        Ok(crc.finish())
    }

    /// Fails unless every record up to the end was read: a walk over
    /// records the recovery scan accepted must not stop short.
    fn finished(&self) -> Result<(), StoreError> {
        if self.at == self.end {
            return Ok(());
        }
        Err(StoreError::Io(format!(
            "damaged record header at log offset {}",
            self.at
        )))
    }
}

/// Makes the record `h`, which starts at `start`, its object's latest.
fn index_record(index: &mut Index, start: u64, h: &Header) {
    let life = index.get(&h.name).map_or(start, |e| e.life);
    let at = Indexed {
        offset: start + HEADER_LEN as u64,
        len: h.len,
        crc: h.crc,
    };
    index.insert(
        h.name,
        Entry {
            version: h.version,
            at,
            life,
        },
    );
}

/// Checks a payload read at `idx` against the CRC recorded when it was
/// written. Reads call this after releasing the store lock, so a large
/// payload's checksum holds up no other caller.
fn verify(
    payload: Vec<u8>,
    idx: Indexed,
    name: ObjName,
    version: u64,
) -> Result<Bytes, StoreError> {
    if crc32(&payload) != idx.crc {
        return Err(StoreError::Corrupt { name, version });
    }
    Ok(Bytes::from(payload))
}

/// `write_all` over several buffers, one vectored write per attempt.
fn write_all_vectored(file: &mut File, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !bufs.is_empty() {
        match file.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

struct Inner {
    file: File,
    /// Byte offset one past the last valid record.
    end: u64,
    index: Index,
    /// Test seam: the next append writes this many bytes of its record
    /// and then fails, as a full disk or a device error would.
    #[cfg(test)]
    fail_after: Option<usize>,
}

impl Inner {
    /// Appends `bufs` to the log file.
    fn write(&mut self, bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
        #[cfg(test)]
        if let Some(n) = self.fail_after.take() {
            let record: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
            self.file.write_all(&record[..n.min(record.len())])?;
            return Err(io::Error::other("injected write failure"));
        }
        write_all_vectored(&mut self.file, bufs)
    }
}

/// A durable [`CheckpointStore`] backed by a single append-only log file.
///
/// # Examples
///
/// ```no_run
/// use eden_store::{CheckpointStore, DiskStore};
/// use eden_store::disk::SyncPolicy;
/// use eden_capability::{NameGenerator, NodeId};
///
/// let store = DiskStore::open("/tmp/eden-ckpt.log", SyncPolicy::Always).unwrap();
/// let name = NameGenerator::new(NodeId(0)).next_name();
/// store.put(name, b"representation bytes").unwrap();
/// ```
pub struct DiskStore {
    path: PathBuf,
    sync: SyncPolicy,
    /// Retain at most this many versions per object (0 = unlimited): the
    /// most recent ones of its current life. Superseded records remain in
    /// the log until [`DiskStore::compact`] rewrites it.
    retain: usize,
    /// The `store.write` / `store.fsync` duration histograms of the
    /// attached observability registry, resolved once at attach.
    obs: RwLock<Option<Arc<StoreObs>>>,
    inner: Mutex<Inner>,
}

struct StoreObs {
    write: Arc<Histogram>,
    fsync: Arc<Histogram>,
}

impl DiskStore {
    /// Opens (creating if needed) the log at `path`, scanning and
    /// recovering existing records.
    pub fn open(path: impl AsRef<Path>, sync: SyncPolicy) -> Result<Self, StoreError> {
        Self::open_with_retention(path, sync, 0)
    }

    /// Opens the log retaining only the `retain` most recent versions of
    /// each object (0 = unlimited). Space is reclaimed at the next
    /// [`DiskStore::compact`].
    pub fn open_with_retention(
        path: impl AsRef<Path>,
        sync: SyncPolicy,
        retain: usize,
    ) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&path)?;
        let (index, end) = Self::scan(&file)?;
        // Truncate any torn tail so future appends start at a clean edge.
        let file_len = file.metadata()?.len();
        if file_len > end {
            file.set_len(end)?;
        }
        Ok(DiskStore {
            path,
            sync,
            retain,
            obs: RwLock::new(None),
            inner: Mutex::new(Inner {
                file,
                end,
                index,
                #[cfg(test)]
                fail_after: None,
            }),
        })
    }

    /// The path of the backing log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Scans the log from the start, checking every record's CRC, and
    /// returns the rebuilt index and the offset one past the last intact
    /// record.
    fn scan(file: &File) -> Result<(Index, u64), StoreError> {
        let mut index = Index::new();
        let mut log = LogReader::new(file, 0, file.metadata()?.len())?;
        let mut end = 0;
        while let Some((start, h)) = log.next()? {
            if log.payload(|_| Ok(()))? != h.crc {
                break; // Corrupt tail.
            }
            match h.tomb {
                0 => index_record(&mut index, start, &h),
                1 => {
                    index.remove(&h.name);
                }
                _ => break, // Unknown record kind: treat as corruption.
            }
            end = log.at;
        }
        Ok((index, end))
    }

    /// Whether `version` of the object `e` indexes is retained.
    fn retained(&self, e: &Entry, version: u64) -> bool {
        version <= e.version && (self.retain == 0 || version + self.retain as u64 > e.version)
    }

    /// Appends the record that `h` heads, whose `len` and `crc` the
    /// caller computed from `payload`, and returns where the payload
    /// landed together with its CRC.
    fn append(
        inner: &mut Inner,
        sync: SyncPolicy,
        obs: Option<&StoreObs>,
        h: Header,
        payload: &[u8],
    ) -> Result<Indexed, StoreError> {
        debug_assert_eq!(h.len as usize, payload.len());
        let header = h.encode();
        let mut write = || -> io::Result<()> {
            let write_start = now_ns();
            inner.write(&mut [IoSlice::new(&header), IoSlice::new(payload)])?;
            let write_end = now_ns();
            if sync == SyncPolicy::Always {
                inner.file.sync_data()?;
                if let Some(obs) = obs {
                    obs.fsync.record(now_ns().saturating_sub(write_end));
                }
            }
            if let Some(obs) = obs {
                obs.write.record(write_end.saturating_sub(write_start));
            }
            Ok(())
        };
        if let Err(e) = write() {
            // Part of the record may have reached the file. Cut the log
            // back to its last whole record, so the next append lands
            // where the index expects it and recovery meets no torn tail.
            inner.file.set_len(inner.end)?;
            return Err(e.into());
        }
        let offset = inner.end + HEADER_LEN as u64;
        inner.end = offset + u64::from(h.len);
        Ok(Indexed {
            offset,
            len: h.len,
            crc: h.crc,
        })
    }

    /// Reads the payload `idx` points at, unchecked: the caller passes
    /// it to [`verify`] once the store lock is released.
    fn read_at(inner: &mut Inner, idx: Indexed) -> io::Result<Vec<u8>> {
        let mut payload = vec![0u8; idx.len as usize];
        // Appends use the cursor implicitly (O_APPEND), so an explicit seek
        // for reading is safe here.
        inner.file.seek(SeekFrom::Start(idx.offset))?;
        inner.file.read_exact(&mut payload)?;
        Ok(payload)
    }

    /// Rewrites the log keeping only retained records, reclaiming space
    /// from superseded versions, earlier lives and tombstones, in one
    /// streaming pass. Each payload is verified on the way out and keeps
    /// its stored CRC. Returns bytes reclaimed.
    pub fn compact(&self) -> Result<u64, StoreError> {
        let mut inner = self.inner.lock();
        let old_end = inner.end;
        let tmp_path = self.path.with_extension("compact");
        let mut tmp = BufWriter::with_capacity(
            SCAN_BUF,
            OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp_path)?,
        );
        let mut index = Index::with_capacity(inner.index.len());
        let mut end = 0u64;
        let mut log = LogReader::new(&inner.file, 0, old_end)?;
        while let Some((start, h)) = log.next()? {
            let live = inner
                .index
                .get(&h.name)
                .is_some_and(|e| h.tomb == 0 && start >= e.life && self.retained(e, h.version));
            if !live {
                continue;
            }
            tmp.write_all(&h.encode())?;
            if log.payload(|chunk| tmp.write_all(chunk))? != h.crc {
                return Err(StoreError::Corrupt {
                    name: h.name,
                    version: h.version,
                });
            }
            index_record(&mut index, end, &h);
            end += HEADER_LEN as u64 + u64::from(h.len);
        }
        log.finished()?;
        tmp.flush()?;
        tmp.get_ref().sync_data()?;
        drop(tmp);
        std::fs::rename(&tmp_path, &self.path)?;
        inner.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)?;
        inner.index = index;
        inner.end = end;
        Ok(old_end - end)
    }

    /// Size of the log file in bytes.
    pub fn log_bytes(&self) -> u64 {
        self.inner.lock().end
    }

    /// The number of index entries: one per live object.
    #[cfg(test)]
    fn index_entries(&self) -> usize {
        self.inner.lock().index.len()
    }
}

impl CheckpointStore for DiskStore {
    fn put(&self, name: ObjName, image: &[u8]) -> Result<u64, StoreError> {
        let obs = self.obs.read().clone();
        // The CRC needs no store state: compute it before taking the lock,
        // so a large checkpoint does not hold up other puts and reads.
        let crc = crc32(image);
        let mut inner = self.inner.lock();
        let (version, life) = match inner.index.get(&name) {
            Some(e) => (e.version + 1, e.life),
            None => (1, inner.end),
        };
        let h = Header {
            name,
            version,
            tomb: 0,
            len: image.len() as u32,
            crc,
        };
        let at = Self::append(&mut inner, self.sync, obs.as_deref(), h, image)?;
        inner.index.insert(name, Entry { version, at, life });
        Ok(version)
    }

    fn latest(&self, name: ObjName) -> Result<Option<(u64, Bytes)>, StoreError> {
        let (e, payload) = {
            let mut inner = self.inner.lock();
            let Some(e) = inner.index.get(&name).copied() else {
                return Ok(None);
            };
            (e, Self::read_at(&mut inner, e.at)?)
        };
        Ok(Some((e.version, verify(payload, e.at, name, e.version)?)))
    }

    fn get(&self, name: ObjName, version: u64) -> Result<Option<Bytes>, StoreError> {
        let mut inner = self.inner.lock();
        let Some(e) = inner.index.get(&name).copied() else {
            return Ok(None);
        };
        if version == e.version {
            let payload = Self::read_at(&mut inner, e.at)?;
            drop(inner);
            return verify(payload, e.at, name, version).map(Some);
        }
        if !self.retained(&e, version) {
            return Ok(None);
        }
        let mut log = LogReader::new(&inner.file, e.life, inner.end)?;
        while let Some((_, h)) = log.next()? {
            if h.name == name && h.tomb == 0 && h.version == version {
                let mut payload = Vec::with_capacity(h.len as usize);
                let crc = log.payload(|chunk| {
                    payload.extend_from_slice(chunk);
                    Ok(())
                })?;
                if crc != h.crc {
                    return Err(StoreError::Corrupt { name, version });
                }
                return Ok(Some(Bytes::from(payload)));
            }
        }
        log.finished()?;
        Ok(None)
    }

    fn versions(&self, name: ObjName) -> Result<Vec<u64>, StoreError> {
        let inner = self.inner.lock();
        let Some(e) = inner.index.get(&name) else {
            return Ok(Vec::new());
        };
        let mut versions = Vec::new();
        let mut log = LogReader::new(&inner.file, e.life, inner.end)?;
        while let Some((_, h)) = log.next()? {
            if h.name == name && h.tomb == 0 && self.retained(e, h.version) {
                versions.push(h.version);
            }
        }
        log.finished()?;
        Ok(versions)
    }

    fn delete(&self, name: ObjName) -> Result<(), StoreError> {
        let obs = self.obs.read().clone();
        let mut inner = self.inner.lock();
        // The tombstone goes first: an object whose tombstone failed to
        // reach the log stays live here, as it will after a reopen.
        if inner.index.contains_key(&name) {
            let h = Header {
                name,
                version: 0,
                tomb: 1,
                len: 0,
                crc: crc32(&[]),
            };
            Self::append(&mut inner, self.sync, obs.as_deref(), h, &[])?;
            inner.index.remove(&name);
        }
        Ok(())
    }

    fn names(&self) -> Result<Vec<ObjName>, StoreError> {
        Ok(self.inner.lock().index.keys().copied().collect())
    }

    fn flush(&self) -> Result<(), StoreError> {
        let obs = self.obs.read().clone();
        let start = now_ns();
        self.inner.lock().file.sync_data()?;
        if let Some(obs) = obs {
            obs.fsync.record(now_ns().saturating_sub(start));
        }
        Ok(())
    }

    fn attach_obs(&self, obs: Arc<ObsRegistry>) {
        *self.obs.write() = Some(Arc::new(StoreObs {
            write: obs.histogram("store.write"),
            fsync: obs.histogram("store.fsync"),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_capability::{NameGenerator, NodeId};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_log() -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("eden-store-test-{}-{}.log", std::process::id(), n))
    }

    fn gen() -> NameGenerator {
        NameGenerator::with_epoch(NodeId(1), 0xfeed)
    }

    #[test]
    fn disk_store_satisfies_contract() {
        let path = temp_log();
        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        crate::contract::exercise_store_contract(&store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failed_append_leaves_no_partial_record() {
        let path = temp_log();
        let g = gen();
        let (a, b, c) = (g.next_name(), g.next_name(), g.next_name());
        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        store.put(a, b"alpha").unwrap();
        let end = store.log_bytes();
        store.inner.lock().fail_after = Some(HEADER_LEN + 3);
        assert!(store.put(b, b"beta-payload").is_err());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), end);
        assert_eq!(store.latest(b).unwrap(), None);
        // The next record lands where the index says it does.
        store.put(c, b"gamma").unwrap();
        assert_eq!(&store.latest(c).unwrap().unwrap().1[..], b"gamma");
        drop(store);
        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(&store.latest(a).unwrap().unwrap().1[..], b"alpha");
        assert_eq!(&store.latest(c).unwrap().unwrap().1[..], b"gamma");
        assert_eq!(store.latest(b).unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failed_tombstone_keeps_the_object() {
        let path = temp_log();
        let a = gen().next_name();
        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        store.put(a, b"alpha").unwrap();
        store.inner.lock().fail_after = Some(HEADER_LEN / 2);
        assert!(store.delete(a).is_err());
        assert_eq!(&store.latest(a).unwrap().unwrap().1[..], b"alpha");
        drop(store);
        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(&store.latest(a).unwrap().unwrap().1[..], b"alpha");
        store.delete(a).unwrap();
        drop(store);
        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(store.latest(a).unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn state_survives_reopen() {
        let path = temp_log();
        let g = gen();
        let a = g.next_name();
        let b = g.next_name();
        {
            let store = DiskStore::open(&path, SyncPolicy::Always).unwrap();
            store.put(a, b"alpha-1").unwrap();
            store.put(a, b"alpha-2").unwrap();
            store.put(b, b"beta").unwrap();
            store.delete(b).unwrap();
        }
        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(&store.latest(a).unwrap().unwrap().1[..], b"alpha-2");
        assert_eq!(store.versions(a).unwrap(), vec![1, 2]);
        assert_eq!(store.latest(b).unwrap(), None, "tombstone must survive");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_recovery() {
        let path = temp_log();
        let g = gen();
        let a = g.next_name();
        {
            let store = DiskStore::open(&path, SyncPolicy::Always).unwrap();
            store.put(a, b"good record").unwrap();
            store.put(a, b"will be torn").unwrap();
        }
        // Tear the last record by chopping bytes off the end.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        let (v, data) = store.latest(a).unwrap().unwrap();
        assert_eq!(v, 1);
        assert_eq!(&data[..], b"good record");
        // The store stays writable after recovery.
        let v2 = store.put(a, b"after recovery").unwrap();
        assert_eq!(v2, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_payload_ends_the_scan() {
        let path = temp_log();
        let g = gen();
        let a = g.next_name();
        {
            let store = DiskStore::open(&path, SyncPolicy::Always).unwrap();
            store.put(a, b"first").unwrap();
            store.put(a, b"second").unwrap();
        }
        // Flip a byte inside the second record's payload.
        let mut contents = std::fs::read(&path).unwrap();
        let n = contents.len();
        contents[n - 2] ^= 0xff;
        std::fs::write(&path, &contents).unwrap();

        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(&store.latest(a).unwrap().unwrap().1[..], b"first");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damaged_record_fails_its_read_and_spares_the_rest() {
        let path = temp_log();
        let g = gen();
        let (a, b, c) = (g.next_name(), g.next_name(), g.next_name());
        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        store.put(a, b"alpha-1").unwrap();
        store.put(b, b"beta").unwrap();
        store.put(a, b"alpha-2").unwrap();
        store.put(c, b"gamma").unwrap();

        // Damage one byte of `a` v2's payload, mid-log, behind the open
        // store's back.
        let contents = std::fs::read(&path).unwrap();
        let at = contents
            .windows(7)
            .position(|w| w == b"alpha-2")
            .expect("payload is in the log");
        let mut other = OpenOptions::new().write(true).open(&path).unwrap();
        other.seek(SeekFrom::Start(at as u64 + 3)).unwrap();
        other.write_all(&[contents[at + 3] ^ 0x01]).unwrap();
        drop(other);

        let corrupt = StoreError::Corrupt {
            name: a,
            version: 2,
        };
        assert_eq!(store.latest(a), Err(corrupt.clone()));
        assert_eq!(store.get(a, 2), Err(corrupt));
        assert_eq!(&store.get(a, 1).unwrap().unwrap()[..], b"alpha-1");
        assert_eq!(&store.latest(b).unwrap().unwrap().1[..], b"beta");
        assert_eq!(&store.latest(c).unwrap().unwrap().1[..], b"gamma");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_reclaims_space_and_preserves_live_data() {
        let path = temp_log();
        let g = gen();
        let a = g.next_name();
        let b = g.next_name();
        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        for i in 0..10u8 {
            store.put(a, &[i; 64]).unwrap();
        }
        store.put(b, b"doomed").unwrap();
        store.delete(b).unwrap();
        let before = store.log_bytes();
        // Drop old versions of `a` by rebuilding through retention: compact
        // keeps all indexed versions, so first delete and re-put to shrink.
        let reclaimed = store.compact().unwrap();
        assert!(reclaimed > 0, "tombstoned data must be reclaimed");
        assert!(store.log_bytes() < before);
        assert_eq!(store.versions(a).unwrap().len(), 10);
        assert_eq!(&store.latest(a).unwrap().unwrap().1[..], &[9u8; 64][..]);
        assert_eq!(store.latest(b).unwrap(), None);

        // And the compacted log must survive reopen.
        drop(store);
        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(store.versions(a).unwrap().len(), 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn attached_registry_sees_write_and_fsync_timings() {
        let path = temp_log();
        let store = DiskStore::open(&path, SyncPolicy::Always).unwrap();
        let obs = Arc::new(ObsRegistry::new(0));
        store.attach_obs(obs.clone());
        let g = gen();
        store.put(g.next_name(), b"timed").unwrap();
        let hists = obs.histograms_snapshot();
        assert_eq!(hists["store.write"].count, 1);
        assert_eq!(hists["store.fsync"].count, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_payloads_are_legal() {
        let path = temp_log();
        let g = gen();
        let a = g.next_name();
        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        store.put(a, b"").unwrap();
        assert_eq!(&store.latest(a).unwrap().unwrap().1[..], b"");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_file_recovers_to_empty_store() {
        let path = temp_log();
        std::fs::write(&path, b"this is not a checkpoint log at all").unwrap();
        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        assert!(store.names().unwrap().is_empty());
        // Must be writable after recovering from garbage.
        let g = gen();
        store.put(g.next_name(), b"fresh").unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn index_holds_one_entry_per_object_while_the_log_keeps_history() {
        let path = temp_log();
        let a = gen().next_name();
        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        for i in 1..=10_000u32 {
            store.put(a, &i.to_le_bytes()).unwrap();
        }
        assert_eq!(store.index_entries(), 1);
        assert_eq!(
            store.versions(a).unwrap(),
            (1..=10_000).collect::<Vec<u64>>()
        );
        assert_eq!(&store.get(a, 1).unwrap().unwrap()[..], &1u32.to_le_bytes());
        assert_eq!(
            &store.get(a, 5_000).unwrap().unwrap()[..],
            &5_000u32.to_le_bytes()
        );
        assert_eq!(
            &store.latest(a).unwrap().unwrap().1[..],
            &10_000u32.to_le_bytes()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_streams_records_larger_than_its_buffer() {
        let path = temp_log();
        let g = gen();
        let (a, b) = (g.next_name(), g.next_name());
        let big = |seed: u8| -> Vec<u8> {
            (0..3 * SCAN_BUF + 7)
                .map(|i| (i as u8).wrapping_mul(31) ^ seed)
                .collect()
        };
        {
            let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
            store.put(a, &big(1)).unwrap();
            store.put(b, b"small").unwrap();
            store.put(a, &big(2)).unwrap();
            store.put(a, &big(3)).unwrap();
        }
        // Tear the last record in the middle of its payload.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - SCAN_BUF as u64).unwrap();
        drop(f);

        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        let (v, data) = store.latest(a).unwrap().unwrap();
        assert_eq!((v, &data[..]), (2, &big(2)[..]));
        assert_eq!(store.versions(a).unwrap(), vec![1, 2]);
        assert_eq!(&store.get(a, 1).unwrap().unwrap()[..], &big(1)[..]);
        assert_eq!(&store.latest(b).unwrap().unwrap().1[..], b"small");
        assert_eq!(store.log_bytes(), std::fs::metadata(&path).unwrap().len());
        assert_eq!(store.put(a, b"after recovery").unwrap(), 3);
        drop(store);
        let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
        assert_eq!(store.versions(a).unwrap(), vec![1, 2, 3]);
        std::fs::remove_file(&path).ok();
    }

    /// Every retained version of every object, as the store must report it.
    type Model = HashMap<ObjName, BTreeMap<u64, Vec<u8>>>;

    fn check_against_model(store: &DiskStore, model: &Model, universe: &[ObjName], step: usize) {
        for &name in universe {
            let Some(versions) = model.get(&name) else {
                assert_eq!(store.latest(name).unwrap(), None, "step {step}");
                assert!(store.versions(name).unwrap().is_empty(), "step {step}");
                assert_eq!(store.get(name, 1).unwrap(), None, "step {step}");
                continue;
            };
            let (&last, bytes) = versions.iter().next_back().unwrap();
            let (v, latest) = store.latest(name).unwrap().unwrap();
            assert_eq!((v, &latest[..]), (last, &bytes[..]), "step {step}");
            let listed: Vec<u64> = versions.keys().copied().collect();
            assert_eq!(store.versions(name).unwrap(), listed, "step {step}");
            for (&v, bytes) in versions {
                let got = store.get(name, v).unwrap();
                assert_eq!(got.as_deref(), Some(&bytes[..]), "step {step} v{v}");
            }
            let first = *versions.keys().next().unwrap();
            for v in [0, first.wrapping_sub(1), last + 1] {
                if !versions.contains_key(&v) {
                    assert_eq!(store.get(name, v).unwrap(), None, "step {step} v{v}");
                }
            }
        }
        let mut names = store.names().unwrap();
        names.sort();
        let mut expect: Vec<ObjName> = model.keys().copied().collect();
        expect.sort();
        assert_eq!(names, expect, "step {step}");
    }

    fn run_model(retain: usize, seed: u64) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let path = temp_log();
        let g = gen();
        let universe: Vec<ObjName> = (0..4).map(|_| g.next_name()).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut model = Model::new();
        let mut store = DiskStore::open_with_retention(&path, SyncPolicy::Never, retain).unwrap();
        for step in 0..400 {
            let name = universe[rng.random_range(0..universe.len())];
            match rng.random_range(0..100u32) {
                0..=69 => {
                    let len = if rng.random_bool(0.02) {
                        SCAN_BUF + 11
                    } else {
                        rng.random_range(0..64usize)
                    };
                    let bytes: Vec<u8> = (0..len).map(|_| rng.random()).collect();
                    let versions = model.entry(name).or_default();
                    let next = versions.keys().next_back().map_or(1, |v| v + 1);
                    assert_eq!(store.put(name, &bytes).unwrap(), next, "step {step}");
                    versions.insert(next, bytes);
                    while retain > 0 && versions.len() > retain {
                        versions.pop_first();
                    }
                }
                70..=84 => {
                    store.delete(name).unwrap();
                    model.remove(&name);
                }
                85..=92 => {
                    store.compact().unwrap();
                }
                _ => {
                    drop(store);
                    store =
                        DiskStore::open_with_retention(&path, SyncPolicy::Never, retain).unwrap();
                }
            }
            assert_eq!(store.index_entries(), model.len(), "step {step}");
            check_against_model(&store, &model, &universe, step);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn random_histories_match_a_model_of_every_retained_version() {
        for seed in 1..=4 {
            run_model(0, seed);
            run_model(2, seed);
        }
    }
}

#[cfg(test)]
mod retention_tests {
    use super::*;
    use crate::CheckpointStore;
    use eden_capability::{NameGenerator, NodeId};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_log() -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(1000);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "eden-store-retain-{}-{}.log",
            std::process::id(),
            n
        ))
    }

    #[test]
    fn retention_caps_indexed_versions_and_compaction_reclaims() {
        let path = temp_log();
        let store = DiskStore::open_with_retention(&path, SyncPolicy::Never, 2).unwrap();
        let g = NameGenerator::with_epoch(NodeId(4), 4);
        let name = g.next_name();
        for i in 0..6u8 {
            store.put(name, &[i; 128]).unwrap();
        }
        assert_eq!(store.versions(name).unwrap(), vec![5, 6]);
        assert_eq!(store.get(name, 1).unwrap(), None);
        assert_eq!(&store.latest(name).unwrap().unwrap().1[..], &[5u8; 128][..]);

        let before = store.log_bytes();
        let reclaimed = store.compact().unwrap();
        assert!(reclaimed > 0, "dropped versions must be reclaimed");
        assert!(store.log_bytes() < before);
        assert_eq!(store.versions(name).unwrap(), vec![5, 6]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retention_applies_on_reopen() {
        let path = temp_log();
        let g = NameGenerator::with_epoch(NodeId(4), 5);
        let name = g.next_name();
        {
            let store = DiskStore::open(&path, SyncPolicy::Never).unwrap();
            for i in 0..5u8 {
                store.put(name, &[i; 16]).unwrap();
            }
        }
        let store = DiskStore::open_with_retention(&path, SyncPolicy::Never, 1).unwrap();
        assert_eq!(store.versions(name).unwrap(), vec![5]);
        // New puts keep the cap and the monotone numbering.
        assert_eq!(store.put(name, b"next").unwrap(), 6);
        assert_eq!(store.versions(name).unwrap(), vec![6]);
        std::fs::remove_file(&path).ok();
    }
}
