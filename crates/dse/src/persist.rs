//! Append-only on-disk snapshot of a [`PointCache`].
//!
//! The `chain-nn serve` daemon (and anything else that wants sweeps to
//! be incremental *across* processes) persists every fresh evaluation
//! as one self-checking record in a cache file and replays the file at
//! startup. Design constraints, in order:
//!
//! * **Append-only.** A flush never rewrites history — it appends the
//!   cache's dirty journal ([`PointCache::take_dirty`]) and syncs. A
//!   crash can only lose the unflushed tail, never corrupt old records.
//! * **Self-checking.** Each record carries its payload length and an
//!   FNV-1a checksum; the payload carries the point's content hash,
//!   which the loader recomputes from the decoded point. A flipped bit
//!   fails the checksum; a decoder mismatch fails the hash cross-check.
//! * **Corruption-tolerant load.** The loader keeps every record up to
//!   the first framing/checksum failure and truncates the rest away
//!   (the framing has no resync marker, so bytes after a bad record
//!   cannot be trusted, and leaving them would strand later appends
//!   behind an unreadable tail). A truncated tail — the expected
//!   result of a crash mid-append — therefore costs only the torn
//!   record.
//! * **Compactable.** Append-only means superseded records accrete —
//!   a bounded cache ([`PointCache::bounded`]) that evicts a flushed
//!   point and later re-evaluates it appends a second record for the
//!   same point. [`CacheFile::compact`] rewrites the snapshot keeping
//!   only each point's first record (the one load semantics honor);
//!   [`CacheFile::load_into`] runs it automatically when more than
//!   half the records on disk are dead.
//!
//! The format is deliberately dependency-free binary, little-endian
//! throughout, versioned by the magic line:
//!
//! ```text
//! file   := magic record*
//! magic  := b"chain-nn dse cache v2\n"
//! record := len:u32 checksum:u64 payload[len]   (checksum = FNV-1a of payload)
//! payload:= hash:u64 point outcome
//! point  := pes:u64 freq_bits:u64 kmem:u64 imem:u64 omem:u64
//!           word_bits:u32 batch:u64 net_len:u32 net[net_len]
//! outcome:= 0:u8 reason_len:u32 reason[reason_len]              (infeasible)
//!         | 1:u8 fps achieved peak chip dram gates sram sqnr    (feasible, f64 bits each)
//! ```
//!
//! **Version history.** v1 files (magic `chain-nn dse cache v1`) are
//! identical except that feasible outcomes carry seven f64 fields — no
//! `sqnr`. The loader still reads them: v1 feasible records are
//! upgraded in place by recomputing the (deterministic) accuracy
//! measurement for the record's `(net, word_bits)` pair, and a v1 file
//! is rewritten as v2 on first load (via [`CacheFile::compact`], which
//! always writes the current version), so appends never mix versions.
//! The same corruption tolerance applies to both versions.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};

use crate::eval::{PointOutcome, PointResult};
use crate::spec::DesignPoint;
use crate::PointCache;

/// Version-bearing first bytes of every cache file (current version).
pub const MAGIC: &[u8] = b"chain-nn dse cache v2\n";

/// The previous format's magic line: feasible records carry no SQNR
/// field. Still readable; rewritten as v2 on first load.
pub const MAGIC_V1: &[u8] = b"chain-nn dse cache v1\n";

/// On-disk format versions this loader understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Version {
    V1,
    V2,
}

/// Identifies the snapshot version from the file's first bytes.
fn detect_version(bytes: &[u8]) -> Option<Version> {
    if bytes.len() < MAGIC.len() {
        return None;
    }
    match &bytes[..MAGIC.len()] {
        m if m == MAGIC => Some(Version::V2),
        m if m == MAGIC_V1 => Some(Version::V1),
        _ => None,
    }
}

/// Hard upper bound on one record's payload (a point plus an error
/// string); anything larger is framing corruption, not data.
const MAX_PAYLOAD: u32 = 1 << 16;

/// What a [`CacheFile::load_into`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadReport {
    /// Records decoded, verified and inserted.
    pub loaded: usize,
    /// Valid records that repeated an earlier point (first wins; the
    /// repeat is dead weight on disk).
    pub duplicates: usize,
    /// Records whose checksum passed but whose content hash did not
    /// match the decoded point (skipped individually).
    pub rejected: usize,
    /// Bytes abandoned after the first framing/checksum failure (0 for
    /// a clean file).
    pub corrupt_tail_bytes: u64,
    /// Whether the loader compacted the file because dead records
    /// (duplicates + rejected) exceeded half of it.
    pub compacted: bool,
}

impl LoadReport {
    /// Records that occupy disk without contributing cache state.
    pub fn dead(&self) -> usize {
        self.duplicates + self.rejected
    }
}

/// What a [`CacheFile::compact`] rewrite dropped and kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactReport {
    /// Live records written back (first occurrence of each point).
    pub kept: usize,
    /// Later records repeating an already-kept point.
    pub dropped_duplicates: usize,
    /// Records failing the decode or content-hash cross-check.
    pub dropped_rejected: usize,
    /// Unreadable tail bytes discarded (framing/checksum failure).
    pub dropped_tail_bytes: u64,
}

/// Handle to one on-disk cache snapshot (the file may not exist yet).
///
/// # Example
///
/// ```
/// use chain_nn_dse::{CacheFile, DesignPoint, PointCache, PointOutcome};
///
/// let path = std::env::temp_dir().join(format!("dse_doc_{}.cache", std::process::id()));
/// # let _ = std::fs::remove_file(&path);
/// let file = CacheFile::new(&path);
/// let cache = PointCache::new();
/// cache.insert(
///     &DesignPoint::paper_alexnet(),
///     PointOutcome::Infeasible("demo".into()),
/// );
/// assert_eq!(file.flush_dirty(&cache).unwrap(), 1);
/// // A fresh process (here: a fresh cache) replays the snapshot.
/// let reloaded = PointCache::new();
/// assert_eq!(file.load_into(&reloaded).unwrap().loaded, 1);
/// assert!(reloaded.probe(&DesignPoint::paper_alexnet()).is_some());
/// # std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct CacheFile {
    path: PathBuf,
}

/// FNV-1a of one whole buffer: the record checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    crate::spec::fnv1a(crate::spec::FNV_OFFSET, bytes)
}

/// Writes `entries` as framed records to `file`, after the magic line
/// when `magic` is set, then syncs the file's data.
fn write_records(
    file: &mut File,
    magic: bool,
    entries: &[(DesignPoint, PointOutcome)],
) -> std::io::Result<()> {
    let mut w = BufWriter::new(&mut *file);
    if magic {
        w.write_all(MAGIC)?;
    }
    for (point, outcome) in entries {
        let payload = encode_payload(point, outcome);
        w.write_all(&(payload.len() as u32).to_le_bytes())?;
        w.write_all(&fnv1a(&payload).to_le_bytes())?;
        w.write_all(&payload)?;
    }
    w.flush()?;
    drop(w);
    file.sync_data()
}

/// The outcome of walking one snapshot's frames.
struct Scan {
    version: Version,
    /// Offset where the readable prefix ends.
    end: usize,
    /// File length.
    len: usize,
}

fn encode_payload(point: &DesignPoint, outcome: &PointOutcome) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(&point.content_hash().to_le_bytes());
    out.extend_from_slice(&(point.pes as u64).to_le_bytes());
    out.extend_from_slice(&point.freq_mhz.to_bits().to_le_bytes());
    out.extend_from_slice(&(point.kmem_depth as u64).to_le_bytes());
    out.extend_from_slice(&(point.imem_kb as u64).to_le_bytes());
    out.extend_from_slice(&(point.omem_kb as u64).to_le_bytes());
    out.extend_from_slice(&point.word_bits.to_le_bytes());
    out.extend_from_slice(&(point.batch as u64).to_le_bytes());
    out.extend_from_slice(&(point.net.len() as u32).to_le_bytes());
    out.extend_from_slice(point.net.as_bytes());
    match outcome {
        PointOutcome::Infeasible(reason) => {
            out.push(0);
            out.extend_from_slice(&(reason.len() as u32).to_le_bytes());
            out.extend_from_slice(reason.as_bytes());
        }
        PointOutcome::Feasible(r) => {
            out.push(1);
            for v in [
                r.fps,
                r.achieved_gops,
                r.peak_gops,
                r.chip_mw,
                r.dram_mw,
                r.gates_k,
                r.sram_kb,
                r.sqnr_db,
            ] {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    out
}

/// Cursor-style reader over one payload; every method fails `None` on
/// underrun, which the loader treats as a rejected record.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let slice = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(slice)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

fn decode_payload(payload: &[u8], version: Version) -> Option<(DesignPoint, PointOutcome)> {
    let mut c = Cursor {
        bytes: payload,
        at: 0,
    };
    let stored_hash = c.u64()?;
    let point = DesignPoint {
        pes: c.u64()? as usize,
        freq_mhz: f64::from_bits(c.u64()?),
        kmem_depth: c.u64()? as usize,
        imem_kb: c.u64()? as usize,
        omem_kb: c.u64()? as usize,
        word_bits: c.u32()?,
        batch: c.u64()? as usize,
        net: c.string()?,
    };
    let outcome = match c.take(1)?[0] {
        0 => PointOutcome::Infeasible(c.string()?),
        1 => {
            let mut result = PointResult {
                fps: c.f64()?,
                achieved_gops: c.f64()?,
                peak_gops: c.f64()?,
                chip_mw: c.f64()?,
                dram_mw: c.f64()?,
                gates_k: c.f64()?,
                sram_kb: c.f64()?,
                sqnr_db: f64::NAN,
            };
            match version {
                // v1 records predate the accuracy model; the
                // measurement is deterministic, so recomputing it
                // upgrades the record losslessly. An unmeasurable
                // record (a net this build no longer knows) is
                // rejected like any other undecodable payload.
                Version::V1 => {
                    result.sqnr_db = crate::accuracy::sqnr_for(&point.net, point.word_bits).ok()?;
                }
                Version::V2 => result.sqnr_db = c.f64()?,
            }
            PointOutcome::Feasible(result)
        }
        _ => return None,
    };
    if !c.done() || point.content_hash() != stored_hash {
        return None;
    }
    Some((point, outcome))
}

impl CacheFile {
    /// A handle to `path`. Nothing is touched until the first
    /// [`CacheFile::load_into`] / [`CacheFile::append`].
    pub fn new(path: impl AsRef<Path>) -> Self {
        CacheFile {
            path: path.as_ref().to_path_buf(),
        }
    }

    /// The file this handle points at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The refusal of a file whose magic line is foreign.
    fn foreign(&self) -> std::io::Error {
        std::io::Error::new(
            ErrorKind::InvalidData,
            format!("{} is not a chain-nn dse cache file", self.path.display()),
        )
    }

    /// Reads the snapshot and hands each frame's decoded record
    /// (`None` for one that fails to decode) to `on_record`, up to the
    /// first frame that fails its framing or checksum. `Ok(None)` for a
    /// missing or empty file.
    fn scan(
        &self,
        mut on_record: impl FnMut(Option<(DesignPoint, PointOutcome)>),
    ) -> std::io::Result<Option<Scan>> {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        if bytes.is_empty() {
            return Ok(None);
        }
        let version = detect_version(&bytes).ok_or_else(|| self.foreign())?;
        let mut at = MAGIC.len();
        while let Some((payload, next)) = read_frame(&bytes, at) {
            on_record(decode_payload(payload, version));
            at = next;
        }
        Ok(Some(Scan {
            version,
            end: at,
            len: bytes.len(),
        }))
    }

    /// Replays the snapshot into `cache` via
    /// [`PointCache::insert_loaded`] (loaded entries are not
    /// re-journaled, so a later flush appends only genuinely new work).
    ///
    /// A missing file is an empty snapshot, not an error. Damage is
    /// tolerated per the module contract and reported in the
    /// [`LoadReport`].
    ///
    /// # Errors
    ///
    /// I/O failures other than "not found", and a present file whose
    /// magic line does not match [`MAGIC`] (that is *someone else's
    /// file*; refusing protects it from our appends).
    pub fn load_into(&self, cache: &PointCache) -> std::io::Result<LoadReport> {
        let mut report = LoadReport::default();
        let scan = self.scan(|record| match record {
            Some((point, outcome)) => {
                // Pre-seed the process-wide accuracy memo: a daemon
                // restarted on this file must not re-measure pairs
                // its snapshot already knows.
                if let PointOutcome::Feasible(r) = &outcome {
                    crate::accuracy::seed(&point.net, point.word_bits, r.sqnr_db);
                }
                if cache.insert_loaded(&point, outcome) {
                    report.loaded += 1;
                } else {
                    report.duplicates += 1;
                }
            }
            None => report.rejected += 1,
        })?;
        let Some(Scan { version, end, len }) = scan else {
            return Ok(report);
        };
        report.corrupt_tail_bytes = (len - end) as u64;
        if report.corrupt_tail_bytes > 0 {
            // WAL-style recovery: drop the unreadable tail so the next
            // append extends the valid prefix instead of writing records
            // beyond bytes no loader will ever cross.
            OpenOptions::new()
                .write(true)
                .open(&self.path)?
                .set_len(end as u64)?;
        }
        // Append-only files accrete dead weight (duplicates from
        // evict-then-reevaluate cycles, hash-rejected records). Once
        // the majority of the file is dead, rewrite it in place — the
        // loader already owns the file at this point in a daemon's
        // life, and the cache contents are unaffected. A v1 file is
        // always rewritten (compact emits the current version), so a
        // later append never mixes record schemas in one file.
        let total = report.loaded + report.dead();
        if (total > 0 && report.dead() * 2 > total) || version == Version::V1 {
            self.compact()?;
            report.compacted = true;
        }
        Ok(report)
    }

    /// Rewrites the snapshot keeping only the **first** record of each
    /// distinct point (matching load semantics, where the first record
    /// wins) and dropping rejected records and any unreadable tail.
    /// The rewrite goes through a sibling temp file and an atomic
    /// rename, so a crash mid-compaction leaves the original intact.
    ///
    /// Callers must own the file: compacting a snapshot a live daemon
    /// is appending to would lose the daemon's writes.
    ///
    /// # Errors
    ///
    /// I/O failures, and a present file whose magic line is foreign.
    /// A missing file is an empty snapshot: nothing to do.
    pub fn compact(&self) -> std::io::Result<CompactReport> {
        let mut report = CompactReport::default();
        let seen = PointCache::new();
        let mut live = Vec::new();
        let scan = self.scan(|record| match record {
            Some((point, outcome)) if seen.insert_loaded(&point, outcome.clone()) => {
                live.push((point, outcome));
                report.kept += 1;
            }
            Some(_) => report.dropped_duplicates += 1,
            None => report.dropped_rejected += 1,
        })?;
        let Some(Scan { end, len, .. }) = scan else {
            return Ok(report);
        };
        report.dropped_tail_bytes = (len - end) as u64;
        let tmp_path = {
            let mut p = self.path.clone().into_os_string();
            p.push(".compact-tmp");
            PathBuf::from(p)
        };
        write_records(&mut File::create(&tmp_path)?, true, &live)?;
        std::fs::rename(&tmp_path, &self.path)?;
        Ok(report)
    }

    /// Appends `entries` as one batch of records, creating the file
    /// (with its magic line) on first use, then syncs file data to
    /// disk. Appending nothing is a no-op that touches nothing. A
    /// present v1 snapshot is upgraded (via [`CacheFile::compact`])
    /// before the first append, so one file never mixes versions; a
    /// file with a foreign magic line is refused.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (open, write, sync) and refuses foreign
    /// files.
    pub fn append(&self, entries: &[(DesignPoint, PointOutcome)]) -> std::io::Result<usize> {
        if entries.is_empty() {
            return Ok(0);
        }
        let mut head = Vec::new();
        match File::open(&self.path) {
            Ok(existing) => {
                existing.take(MAGIC.len() as u64).read_to_end(&mut head)?;
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        match detect_version(&head) {
            _ if head.is_empty() => {}
            Some(Version::V2) => {}
            // Upgrade in place; compact always writes the current
            // version.
            Some(Version::V1) => {
                self.compact()?;
            }
            None => return Err(self.foreign()),
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let need_magic = file.metadata()?.len() == 0;
        write_records(&mut file, need_magic, entries)?;
        Ok(entries.len())
    }

    /// Drains `cache`'s dirty journal into the file: the daemon's
    /// write-batch/shutdown flush. Returns how many records were
    /// appended.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheFile::append`] failures. The drained entries
    /// are re-inserted into the journal on failure, so a retried flush
    /// loses nothing.
    pub fn flush_dirty(&self, cache: &PointCache) -> std::io::Result<usize> {
        let started = std::time::Instant::now();
        let dirty = cache.take_dirty();
        match self.append(&dirty) {
            Ok(n) => {
                let obs = chain_nn_obs::global();
                obs.histogram("dse_persist_flush_ns")
                    .record_duration(started.elapsed());
                obs.counter("dse_persist_flushed_points_total")
                    .add(n as u64);
                Ok(n)
            }
            Err(e) => {
                // Put the journal back so a retried flush still sees
                // these entries. (Not via `insert`: its duplicate check
                // would skip re-journaling points still in the map.)
                cache.restore_dirty(dirty);
                Err(e)
            }
        }
    }
}

/// One frame at `at`: returns `(payload, next_offset)` when the length,
/// bounds and checksum all validate.
fn read_frame(bytes: &[u8], at: usize) -> Option<(&[u8], usize)> {
    let len_end = at.checked_add(4)?;
    let len = u32::from_le_bytes(bytes.get(at..len_end)?.try_into().ok()?);
    if len == 0 || len > MAX_PAYLOAD {
        return None;
    }
    let sum_end = len_end.checked_add(8)?;
    let sum = u64::from_le_bytes(bytes.get(len_end..sum_end)?.try_into().ok()?);
    let payload_end = sum_end.checked_add(len as usize)?;
    let payload = bytes.get(sum_end..payload_end)?;
    if fnv1a(payload) != sum {
        return None;
    }
    Some((payload, payload_end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("chain_nn_persist_{tag}_{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn feasible(fps: f64) -> PointOutcome {
        PointOutcome::Feasible(PointResult {
            fps,
            achieved_gops: 2.0 * fps,
            peak_gops: 3.0 * fps,
            chip_mw: 500.0,
            dram_mw: 50.0,
            gates_k: 1000.0,
            sram_kb: 300.5,
            sqnr_db: 74.25,
        })
    }

    fn points(n: usize) -> Vec<DesignPoint> {
        (0..n)
            .map(|i| DesignPoint {
                pes: 121 + i,
                ..DesignPoint::paper_alexnet()
            })
            .collect()
    }

    #[test]
    fn round_trips_feasible_and_infeasible() {
        let path = temp_path("roundtrip");
        let file = CacheFile::new(&path);
        let pts = points(3);
        let entries = vec![
            (pts[0].clone(), feasible(123.456)),
            (pts[1].clone(), PointOutcome::Infeasible("too small".into())),
            (pts[2].clone(), feasible(0.25)),
        ];
        assert_eq!(file.append(&entries).unwrap(), 3);

        let cache = PointCache::new();
        let report = file.load_into(&cache).unwrap();
        assert_eq!(
            report,
            LoadReport {
                loaded: 3,
                ..LoadReport::default()
            }
        );
        for (p, o) in &entries {
            assert_eq!(cache.probe(p), Some(o.clone()));
        }
        // Loaded entries are not dirty: nothing to flush back out.
        assert_eq!(file.flush_dirty(&cache).unwrap(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty_snapshot() {
        let file = CacheFile::new(temp_path("missing"));
        let cache = PointCache::new();
        assert_eq!(file.load_into(&cache).unwrap(), LoadReport::default());
        assert!(cache.is_empty());
    }

    #[test]
    fn foreign_file_is_refused() {
        let path = temp_path("foreign");
        std::fs::write(&path, b"definitely,not,a,cache\n1,2,3\n").unwrap();
        let err = CacheFile::new(&path).load_into(&PointCache::new());
        assert!(err.is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_keeps_whole_records() {
        let path = temp_path("truncated");
        let file = CacheFile::new(&path);
        let pts = points(2);
        file.append(&[
            (pts[0].clone(), feasible(10.0)),
            (pts[1].clone(), feasible(20.0)),
        ])
        .unwrap();
        // Tear the file mid-way through the second record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 11]).unwrap();

        let cache = PointCache::new();
        let report = file.load_into(&cache).unwrap();
        assert_eq!(report.loaded, 1);
        assert!(report.corrupt_tail_bytes > 0);
        assert_eq!(cache.probe(&pts[0]), Some(feasible(10.0)));
        assert!(cache.probe(&pts[1]).is_none());

        // The tear was truncated away, so an append after recovery is
        // visible to the next load.
        file.append(&[(pts[1].clone(), feasible(20.0))]).unwrap();
        let reloaded = PointCache::new();
        let report = file.load_into(&reloaded).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(report.corrupt_tail_bytes, 0);
        assert_eq!(reloaded.probe(&pts[1]), Some(feasible(20.0)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_bit_fails_checksum_and_stops() {
        let path = temp_path("bitflip");
        let file = CacheFile::new(&path);
        let pts = points(3);
        file.append(&[
            (pts[0].clone(), feasible(1.0)),
            (pts[1].clone(), feasible(2.0)),
            (pts[2].clone(), feasible(3.0)),
        ])
        .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload bit inside the second record (skip magic +
        // record 1 exactly).
        let rec1_payload =
            u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap()) as usize;
        let rec2_start = MAGIC.len() + 4 + 8 + rec1_payload;
        bytes[rec2_start + 4 + 8 + 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let cache = PointCache::new();
        let report = file.load_into(&cache).unwrap();
        assert_eq!(report.loaded, 1, "only the record before the flip");
        assert!(report.corrupt_tail_bytes > 0, "rest of file abandoned");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_flush_keeps_the_journal_for_retry() {
        // A path inside a directory that does not exist: append fails.
        let mut bad_path = std::env::temp_dir();
        bad_path.push(format!("chain_nn_no_such_dir_{}", std::process::id()));
        bad_path.push("cache.bin");
        let bad = CacheFile::new(&bad_path);

        let cache = PointCache::new();
        let pts = points(2);
        cache.insert(&pts[0], feasible(1.0));
        cache.insert(&pts[1], PointOutcome::Infeasible("x".into()));
        assert!(bad.flush_dirty(&cache).is_err());

        // The drained entries were restored: a retry against a good
        // path flushes all of them, losing nothing.
        let good_path = temp_path("retry");
        let good = CacheFile::new(&good_path);
        assert_eq!(good.flush_dirty(&cache).unwrap(), 2);
        let reloaded = PointCache::new();
        assert_eq!(good.load_into(&reloaded).unwrap().loaded, 2);
        assert_eq!(reloaded.probe(&pts[0]), Some(feasible(1.0)));
        std::fs::remove_file(&good_path).unwrap();
    }

    #[test]
    fn compact_drops_duplicates_and_keeps_first_records() {
        let path = temp_path("compact");
        let file = CacheFile::new(&path);
        let pts = points(3);
        // Three live records, then the first two again (superseded
        // repeats, as an evict-then-reevaluate daemon produces).
        file.append(&[
            (pts[0].clone(), feasible(1.0)),
            (pts[1].clone(), feasible(2.0)),
            (pts[2].clone(), PointOutcome::Infeasible("x".into())),
        ])
        .unwrap();
        file.append(&[
            (pts[0].clone(), feasible(91.0)),
            (pts[1].clone(), feasible(92.0)),
        ])
        .unwrap();
        let before = std::fs::metadata(&path).unwrap().len();

        let report = file.compact().unwrap();
        assert_eq!(
            report,
            CompactReport {
                kept: 3,
                dropped_duplicates: 2,
                ..CompactReport::default()
            }
        );
        assert!(std::fs::metadata(&path).unwrap().len() < before);

        // Load semantics are unchanged: the FIRST record of each point
        // survived, and the compacted file is clean.
        let cache = PointCache::new();
        let load = file.load_into(&cache).unwrap();
        assert_eq!(load.loaded, 3);
        assert_eq!(load.dead(), 0);
        assert!(!load.compacted);
        assert_eq!(cache.probe(&pts[0]), Some(feasible(1.0)));
        assert_eq!(cache.probe(&pts[1]), Some(feasible(2.0)));
        // Idempotent: compacting a compacted file drops nothing.
        let again = file.compact().unwrap();
        assert_eq!(again.kept, 3);
        assert_eq!(again.dropped_duplicates, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_auto_compacts_when_most_records_are_dead() {
        let path = temp_path("autocompact");
        let file = CacheFile::new(&path);
        let pts = points(2);
        let entries = vec![
            (pts[0].clone(), feasible(1.0)),
            (pts[1].clone(), feasible(2.0)),
        ];
        // 2 live + 4 duplicate records: 66 % dead, over the 50 %
        // threshold.
        file.append(&entries).unwrap();
        file.append(&entries).unwrap();
        file.append(&entries).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();

        let cache = PointCache::new();
        let report = file.load_into(&cache).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(report.duplicates, 4);
        assert!(report.compacted, "4/6 dead must trigger compaction");
        assert!(std::fs::metadata(&path).unwrap().len() < before);

        // Exactly-half dead does NOT trigger (threshold is strict).
        file.append(&entries).unwrap();
        let report = file.load_into(&PointCache::new()).unwrap();
        assert_eq!(report.duplicates, 2);
        assert!(!report.compacted);
        std::fs::remove_file(&path).unwrap();
    }

    /// Hand-writes a v1-format snapshot (seven f64 fields, v1 magic):
    /// what a pre-accuracy-model daemon left on disk.
    fn write_v1_file(path: &std::path::Path, entries: &[(DesignPoint, PointOutcome)]) {
        let mut bytes = MAGIC_V1.to_vec();
        for (point, outcome) in entries {
            // The v1 payload is the v2 payload minus the trailing sqnr
            // field on feasible outcomes.
            let mut payload = encode_payload(point, outcome);
            if matches!(outcome, PointOutcome::Feasible(_)) {
                payload.truncate(payload.len() - 8);
            }
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn v1_files_load_upgraded_with_measured_sqnr() {
        let path = temp_path("v1_upgrade");
        let pts = points(2);
        write_v1_file(
            &path,
            &[
                (pts[0].clone(), feasible(10.0)),
                (pts[1].clone(), PointOutcome::Infeasible("too small".into())),
            ],
        );

        let cache = PointCache::new();
        let file = CacheFile::new(&path);
        let report = file.load_into(&cache).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(report.rejected, 0);
        assert!(report.compacted, "v1 files are rewritten as v2 on load");

        // The feasible record was upgraded with the measured SQNR of
        // its (net, word) pair — not the NaN placeholder.
        let Some(PointOutcome::Feasible(r)) = cache.probe(&pts[0]) else {
            panic!("feasible record lost in upgrade");
        };
        let expected = crate::accuracy::sqnr_for(&pts[0].net, pts[0].word_bits).unwrap();
        assert_eq!(r.sqnr_db.to_bits(), expected.to_bits());
        // Everything else round-tripped bit-exactly.
        assert_eq!(r.fps, 10.0);
        assert_eq!(r.sram_kb, 300.5);

        // The file on disk is now v2: a fresh load sees current magic,
        // keeps the upgraded SQNR, and needs no further rewrite.
        let head = std::fs::read(&path).unwrap();
        assert_eq!(&head[..MAGIC.len()], MAGIC);
        let cache2 = PointCache::new();
        let report2 = file.load_into(&cache2).unwrap();
        assert_eq!(report2.loaded, 2);
        assert!(!report2.compacted);
        assert_eq!(cache2.probe(&pts[0]), cache.probe(&pts[0]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_upgrades_v1_files_instead_of_mixing_versions() {
        let path = temp_path("v1_append");
        let pts = points(3);
        write_v1_file(&path, &[(pts[0].clone(), feasible(1.0))]);

        let file = CacheFile::new(&path);
        assert_eq!(file.append(&[(pts[1].clone(), feasible(2.0))]).unwrap(), 1);
        // One readable v2 file holding both the upgraded v1 record and
        // the appended one.
        let cache = PointCache::new();
        let report = file.load_into(&cache).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(report.corrupt_tail_bytes, 0);
        assert!(cache.probe(&pts[0]).is_some());
        assert_eq!(cache.probe(&pts[1]), Some(feasible(2.0)));
        std::fs::remove_file(&path).unwrap();

        // Appending to a foreign file is refused, protecting it.
        let foreign = temp_path("foreign_append");
        std::fs::write(&foreign, b"someone else's data that is long enough\n").unwrap();
        assert!(CacheFile::new(&foreign)
            .append(&[(pts[2].clone(), feasible(3.0))])
            .is_err());
        assert_eq!(
            std::fs::read(&foreign).unwrap(),
            b"someone else's data that is long enough\n"
        );
        std::fs::remove_file(&foreign).unwrap();
    }

    #[test]
    fn loading_seeds_the_accuracy_memo() {
        // A record whose (net, word) pair no measurement would produce:
        // loading must seed the memo so the daemon serves it as-is.
        let path = temp_path("seed_memo");
        let file = CacheFile::new(&path);
        let point = DesignPoint {
            net: "mobilenet".into(),
            word_bits: 16,
            pes: 121,
            ..DesignPoint::paper_alexnet()
        };
        let outcome = PointOutcome::Feasible(PointResult {
            sqnr_db: 61.5,
            ..match feasible(5.0) {
                PointOutcome::Feasible(r) => r,
                PointOutcome::Infeasible(_) => unreachable!(),
            }
        });
        file.append(&[(point.clone(), outcome)]).unwrap();
        // Settle every pair other tests can measure before reading the
        // process-global counter (see accuracy::warm_counter_visible_pairs).
        crate::accuracy::warm_counter_visible_pairs();
        let before = crate::accuracy::recomputations();
        file.load_into(&PointCache::new()).unwrap();
        assert_eq!(
            crate::accuracy::sqnr_for("mobilenet", 16).unwrap(),
            61.5,
            "loaded SQNR must pre-seed the memo"
        );
        assert_eq!(crate::accuracy::recomputations(), before);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_missing_and_foreign_files() {
        let file = CacheFile::new(temp_path("compact_missing"));
        assert_eq!(file.compact().unwrap(), CompactReport::default());
        let path = temp_path("compact_foreign");
        std::fs::write(&path, b"someone else's data\n").unwrap();
        assert!(CacheFile::new(&path).compact().is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn incremental_appends_accumulate() {
        let path = temp_path("incremental");
        let file = CacheFile::new(&path);
        let pts = points(4);

        let cache = PointCache::new();
        cache.insert(&pts[0], feasible(1.0));
        cache.insert(&pts[1], feasible(2.0));
        assert_eq!(file.flush_dirty(&cache).unwrap(), 2);
        cache.insert(&pts[2], PointOutcome::Infeasible("nope".into()));
        assert_eq!(file.flush_dirty(&cache).unwrap(), 1);
        assert_eq!(file.flush_dirty(&cache).unwrap(), 0, "journal drained");

        let reloaded = PointCache::new();
        let report = file.load_into(&reloaded).unwrap();
        assert_eq!(report.loaded, 3);
        assert_eq!(reloaded.len(), 3);
        assert!(reloaded.probe(&pts[3]).is_none());
        std::fs::remove_file(&path).unwrap();
    }
}
