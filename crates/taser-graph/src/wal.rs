//! Crash-safe durability for event streams: a CRC-framed append-only
//! write-ahead log plus atomic checkpoints.
//!
//! The WAL makes ingest durable: every accepted event is framed as
//! `[u32 len][u32 crc32][payload]` and appended to `events.wal`. Appends
//! are buffered and flushed to the OS every `flush_every` records, so a
//! process crash loses at most the unflushed tail. On open the log is
//! scanned record by record; the first torn or corrupt frame (bad
//! length, bad CRC, short payload) truncates the file back to the last
//! valid record — a damaged tail is dropped, never replayed.
//!
//! Checkpoints bound replay time: [`Checkpoint::save`] serializes the
//! full event history (with assigned event ids) to a temp file, fsyncs,
//! and renames into place, after which the WAL can be reset to empty.
//! [`recover`] composes the two: load the checkpoint if present, replay
//! the WAL tail, and skip any WAL record whose `eid` is already covered
//! by the checkpoint — which makes a crash *between* checkpoint rename
//! and WAL reset harmless (the overlap deduplicates by `eid`).
//!
//! Fault injection for tests lives here too ([`WalFaults`]): a slow
//! flush (sleep before writing) and corrupt-the-Nth-record (flip one
//! payload bit after the CRC was computed, emulating media corruption).
//! Both default to off and cost one branch when disabled.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::events::Event;

/// WAL file magic: identifies `events.wal` and rejects foreign files.
pub const WAL_MAGIC: [u8; 4] = *b"TWAL";
/// Checkpoint file magic.
pub const CKPT_MAGIC: [u8; 4] = *b"TCKP";
/// On-disk format version for both files.
pub const FORMAT_VERSION: u32 = 1;
/// Serialized size of one event payload: src u32, dst u32, t f64, eid u32.
pub const EVENT_BYTES: usize = 20;
/// WAL file header size: magic + version.
pub const WAL_HEADER: u64 = 8;
/// Record frame overhead: u32 length + u32 crc.
pub const FRAME_BYTES: usize = 8;

/// Default WAL file name inside a durability directory.
pub const WAL_FILE: &str = "events.wal";
/// Default checkpoint file name inside a durability directory.
pub const CKPT_FILE: &str = "graph.ckpt";

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — table-driven, no dependencies.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) over `bytes`. Matches the common zlib/`crc32fast` value.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Event payload codec.
// ---------------------------------------------------------------------------

/// Serialize one event into its fixed-size WAL payload (little-endian
/// src, dst, t-bits, eid). Public so replication can frame events for
/// the wire exactly as the WAL frames them on disk.
pub fn encode_event(ev: &Event, out: &mut [u8; EVENT_BYTES]) {
    out[0..4].copy_from_slice(&ev.src.to_le_bytes());
    out[4..8].copy_from_slice(&ev.dst.to_le_bytes());
    out[8..16].copy_from_slice(&ev.t.to_bits().to_le_bytes());
    out[16..20].copy_from_slice(&ev.eid.to_le_bytes());
}

/// Inverse of [`encode_event`]; the caller has already validated length
/// and CRC.
pub fn decode_event(buf: &[u8]) -> Event {
    debug_assert!(buf.len() >= EVENT_BYTES);
    let u32_at = |i: usize| u32::from_le_bytes([buf[i], buf[i + 1], buf[i + 2], buf[i + 3]]);
    let t_bits = u64::from_le_bytes([
        buf[8], buf[9], buf[10], buf[11], buf[12], buf[13], buf[14], buf[15],
    ]);
    Event {
        src: u32_at(0),
        dst: u32_at(4),
        t: f64::from_bits(t_bits),
        eid: u32_at(16),
    }
}

/// Append one full `[u32 len][u32 crc32][payload]` frame for `ev` to
/// `out` — byte-identical to what [`EventWal::append`] writes to disk.
/// This is the unit replication ships over TCP.
pub fn encode_frame(ev: &Event, out: &mut Vec<u8>) {
    let mut payload = [0u8; EVENT_BYTES];
    encode_event(ev, &mut payload);
    out.extend_from_slice(&(EVENT_BYTES as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// Outcome of [`parse_frame`] over a byte prefix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FrameParse {
    /// A complete, CRC-valid frame; `consumed` bytes were used.
    Frame { event: Event, consumed: usize },
    /// The buffer ends mid-frame — more bytes may complete it.
    Incomplete,
    /// The frame header or CRC is invalid; the stream is damaged here.
    Corrupt,
}

/// Validate and decode the frame at the start of `buf`. Shared by the
/// on-disk scan ([`EventWal::open`], [`WalCursor`]) and the replication
/// link's receive path, so both sides reject corruption identically.
pub fn parse_frame(buf: &[u8]) -> FrameParse {
    if buf.len() < FRAME_BYTES {
        return FrameParse::Incomplete;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len != EVENT_BYTES {
        return FrameParse::Corrupt;
    }
    if buf.len() < FRAME_BYTES + len {
        return FrameParse::Incomplete;
    }
    let crc = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let payload = &buf[FRAME_BYTES..FRAME_BYTES + len];
    if crc32(payload) != crc {
        return FrameParse::Corrupt;
    }
    FrameParse::Frame {
        event: decode_event(payload),
        consumed: FRAME_BYTES + len,
    }
}

// ---------------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------------

/// Injectable WAL faults for chaos testing. All off by default; disabled
/// knobs cost a single branch on the append/flush path.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalFaults {
    /// Sleep this long inside every [`EventWal::flush`] (simulates a
    /// slow or contended disk). `ZERO` disables.
    pub slow_flush: Duration,
    /// Flip one payload bit of the Nth appended record (1-based) *after*
    /// its CRC was computed, so the record is corrupt on disk. 0 disables.
    pub corrupt_record: u64,
}

// ---------------------------------------------------------------------------
// EventWal.
// ---------------------------------------------------------------------------

/// What [`EventWal::open`] found on disk.
#[derive(Clone, Debug, Default)]
pub struct WalOpenReport {
    /// Events recovered from valid records, in append order.
    pub events: Vec<Event>,
    /// Bytes dropped from the tail (torn or corrupt frames).
    pub truncated_bytes: u64,
    /// True when a torn/corrupt tail was truncated on open.
    pub truncated: bool,
}

/// Append-only CRC-framed event log.
///
/// One file, one writer. Records are buffered in memory and written to
/// the OS every `flush_every` appends (and on drop); `sync` additionally
/// fsyncs for power-loss durability.
pub struct EventWal {
    file: File,
    path: PathBuf,
    buf: Vec<u8>,
    pending: usize,
    flush_every: usize,
    appended: u64,
    len_bytes: u64,
    faults: WalFaults,
}

impl EventWal {
    /// Open (or create) the WAL at `path`, validating every record and
    /// truncating a torn or corrupt tail back to the last valid record.
    pub fn open(
        path: impl Into<PathBuf>,
        flush_every: usize,
        faults: WalFaults,
    ) -> io::Result<(Self, WalOpenReport)> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;

        let mut report = WalOpenReport::default();
        let valid_end = if raw.len() < WAL_HEADER as usize {
            // Empty or torn header: start fresh.
            if !raw.is_empty() {
                report.truncated = true;
                report.truncated_bytes = raw.len() as u64;
            }
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&WAL_MAGIC)?;
            file.write_all(&FORMAT_VERSION.to_le_bytes())?;
            WAL_HEADER
        } else {
            if raw[0..4] != WAL_MAGIC {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: not a TASER WAL (bad magic)", path.display()),
                ));
            }
            let version = u32::from_le_bytes([raw[4], raw[5], raw[6], raw[7]]);
            if version != FORMAT_VERSION {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: unsupported WAL version {version}", path.display()),
                ));
            }
            let mut off = WAL_HEADER as usize;
            // Stop at the first torn or corrupt frame either way: on disk
            // a bad frame means everything after it is suspect.
            while let FrameParse::Frame { event, consumed } = parse_frame(&raw[off..]) {
                report.events.push(event);
                off += consumed;
            }
            if off < raw.len() {
                report.truncated = true;
                report.truncated_bytes = (raw.len() - off) as u64;
                file.set_len(off as u64)?;
            }
            off as u64
        };
        file.seek(SeekFrom::Start(valid_end))?;
        let appended = report.events.len() as u64;
        Ok((
            Self {
                file,
                path,
                buf: Vec::with_capacity(flush_every.max(1) * (FRAME_BYTES + EVENT_BYTES)),
                pending: 0,
                flush_every: flush_every.max(1),
                appended,
                len_bytes: valid_end,
                faults,
            },
            report,
        ))
    }

    /// Append one event. Returns `true` when this append triggered a
    /// flush to the OS (every `flush_every` records).
    pub fn append(&mut self, ev: &Event) -> io::Result<bool> {
        let mut payload = [0u8; EVENT_BYTES];
        encode_event(ev, &mut payload);
        let crc = crc32(&payload);
        self.appended += 1;
        if self.faults.corrupt_record != 0 && self.appended == self.faults.corrupt_record {
            payload[8] ^= 0x01; // flip a t-bits bit after the CRC: corrupt on disk
        }
        self.buf
            .extend_from_slice(&(EVENT_BYTES as u32).to_le_bytes());
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf.extend_from_slice(&payload);
        self.pending += 1;
        if self.pending >= self.flush_every {
            self.flush()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Write buffered records to the OS. A crash after `flush` returns
    /// cannot lose these records (short of power loss; see [`Self::sync`]).
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.faults.slow_flush.is_zero() {
            std::thread::sleep(self.faults.slow_flush);
        }
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.buf)?;
        self.len_bytes += self.buf.len() as u64;
        self.buf.clear();
        self.pending = 0;
        Ok(())
    }

    /// Flush and fsync: durable against power loss, not just process crash.
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        self.file.sync_data()
    }

    /// Drop all records (after a successful checkpoint) — the file is
    /// truncated back to its header.
    pub fn reset(&mut self) -> io::Result<()> {
        self.buf.clear();
        self.pending = 0;
        self.file.set_len(WAL_HEADER)?;
        self.file.seek(SeekFrom::Start(WAL_HEADER))?;
        self.len_bytes = WAL_HEADER;
        Ok(())
    }

    /// Total records appended through this handle plus those recovered
    /// at open (drives the corrupt-record fault index).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Bytes flushed to the OS so far (excludes the in-memory buffer).
    pub fn len_bytes(&self) -> u64 {
        self.len_bytes
    }

    /// Path this WAL writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for EventWal {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

// ---------------------------------------------------------------------------
// WalCursor: streaming, resumable frame reader.
// ---------------------------------------------------------------------------

/// Incremental reader over a WAL file: validates the header once, then
/// yields frames one at a time without loading the file into memory.
///
/// Unlike [`EventWal::open`] (which owns the file and repairs a torn
/// tail), a cursor is read-only and *resumable*: when it reaches the end
/// of the valid data, [`WalCursor::next_event`] returns `Ok(None)` but keeps
/// its position, so a later call picks up frames appended since — the
/// shape a log-shipping sender or an offline segment scan needs. A
/// partial frame at EOF is treated as not-yet-written (the writer may
/// still be mid-append); a frame with a bad length or CRC marks the
/// cursor corrupt and it stops permanently.
pub struct WalCursor {
    file: File,
    buf: Vec<u8>,
    pos: usize,
    records: u64,
    corrupt: bool,
}

impl WalCursor {
    /// Open a cursor at the first record of the WAL at `path`. Fails if
    /// the file is missing, shorter than its header, or not a TASER WAL.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        let mut file = File::open(path)?;
        let mut header = [0u8; WAL_HEADER as usize];
        file.read_exact(&mut header).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: torn WAL header", path.display()),
            )
        })?;
        if header[0..4] != WAL_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: not a TASER WAL (bad magic)", path.display()),
            ));
        }
        let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if version != FORMAT_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: unsupported WAL version {version}", path.display()),
            ));
        }
        Ok(Self {
            file,
            buf: Vec::new(),
            pos: 0,
            records: 0,
            corrupt: false,
        })
    }

    /// The next valid frame, or `Ok(None)` when the cursor has caught up
    /// with the writer (call again later to tail new appends) or hit a
    /// corrupt frame (see [`Self::is_corrupt`]).
    pub fn next_event(&mut self) -> io::Result<Option<Event>> {
        loop {
            if self.corrupt {
                return Ok(None);
            }
            match parse_frame(&self.buf[self.pos..]) {
                FrameParse::Frame { event, consumed } => {
                    self.pos += consumed;
                    self.records += 1;
                    // Compact once the consumed prefix dominates the buffer.
                    if self.pos > 64 * 1024 {
                        self.buf.drain(..self.pos);
                        self.pos = 0;
                    }
                    return Ok(Some(event));
                }
                FrameParse::Incomplete => {
                    let mut chunk = [0u8; 16 * 1024];
                    let n = self.file.read(&mut chunk)?;
                    if n == 0 {
                        return Ok(None); // caught up; partial tail may complete later
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                FrameParse::Corrupt => {
                    self.corrupt = true;
                    return Ok(None);
                }
            }
        }
    }

    /// Frames yielded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// True once the cursor stopped at a corrupt frame; it will yield
    /// nothing further.
    pub fn is_corrupt(&self) -> bool {
        self.corrupt
    }
}

// ---------------------------------------------------------------------------
// Checkpoint.
// ---------------------------------------------------------------------------

/// A full-history snapshot of the event stream at some WAL offset.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Every event up to the checkpoint, in stream order with eids.
    pub events: Vec<Event>,
    /// Node-id space at checkpoint time (may exceed max id in `events`).
    pub num_nodes: usize,
    /// Next event id the stream will assign; WAL records with
    /// `eid < next_eid` are duplicates of checkpointed events.
    pub next_eid: u32,
}

impl Checkpoint {
    /// Serialize a checkpoint to its complete file image (`TCKP` magic,
    /// CRC, body). The same bytes are written to disk by [`Self::save`]
    /// and shipped over TCP for replication snapshot bootstrap.
    pub fn encode(events: &[Event], num_nodes: usize, next_eid: u32) -> Vec<u8> {
        let mut body = Vec::with_capacity(24 + events.len() * EVENT_BYTES);
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&(num_nodes as u64).to_le_bytes());
        body.extend_from_slice(&next_eid.to_le_bytes());
        body.extend_from_slice(&(events.len() as u64).to_le_bytes());
        let mut payload = [0u8; EVENT_BYTES];
        for ev in events {
            encode_event(ev, &mut payload);
            body.extend_from_slice(&payload);
        }
        let crc = crc32(&body);
        let mut image = Vec::with_capacity(8 + body.len());
        image.extend_from_slice(&CKPT_MAGIC);
        image.extend_from_slice(&crc.to_le_bytes());
        image.extend_from_slice(&body);
        image
    }

    /// Validate and decode a checkpoint image produced by
    /// [`Self::encode`] (whether read from disk or received off the
    /// wire).
    pub fn decode(raw: &[u8]) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        if raw.len() < 8 + 24 || raw[0..4] != CKPT_MAGIC {
            return Err(bad("not a TASER checkpoint"));
        }
        let crc = u32::from_le_bytes([raw[4], raw[5], raw[6], raw[7]]);
        let body = &raw[8..];
        if crc32(body) != crc {
            return Err(bad("checkpoint CRC mismatch"));
        }
        let version = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
        if version != FORMAT_VERSION {
            return Err(bad("unsupported checkpoint version"));
        }
        let num_nodes = u64::from_le_bytes([
            body[4], body[5], body[6], body[7], body[8], body[9], body[10], body[11],
        ]) as usize;
        let next_eid = u32::from_le_bytes([body[12], body[13], body[14], body[15]]);
        let count = u64::from_le_bytes([
            body[16], body[17], body[18], body[19], body[20], body[21], body[22], body[23],
        ]) as usize;
        let records = &body[24..];
        if records.len() != count * EVENT_BYTES {
            return Err(bad("checkpoint record count mismatch"));
        }
        let mut events = Vec::with_capacity(count);
        for i in 0..count {
            events.push(decode_event(&records[i * EVENT_BYTES..]));
        }
        Ok(Self {
            events,
            num_nodes,
            next_eid,
        })
    }

    /// Atomically write a checkpoint: serialize to `<path>.tmp`, fsync,
    /// rename over `path`. A crash mid-save leaves the old checkpoint
    /// (or none) intact.
    pub fn save(
        path: impl AsRef<Path>,
        events: &[Event],
        num_nodes: usize,
        next_eid: u32,
    ) -> io::Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        let image = Self::encode(events, num_nodes, next_eid);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&image)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Load a checkpoint. `Ok(None)` when the file does not exist;
    /// `Err(InvalidData)` when it exists but fails validation (a
    /// checkpoint is written atomically, so corruption is a real fault,
    /// not a torn write).
    pub fn load(path: impl AsRef<Path>) -> io::Result<Option<Self>> {
        let path = path.as_ref();
        let raw = match std::fs::read(path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Self::decode(&raw).map(Some).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }
}

// ---------------------------------------------------------------------------
// Recovery: checkpoint + WAL tail, deduplicated by eid.
// ---------------------------------------------------------------------------

/// Result of [`recover`]: the reconstructed stream plus provenance.
#[derive(Clone, Debug, Default)]
pub struct RecoveryLoad {
    /// Full event history in stream order (checkpoint + deduped WAL tail).
    pub events: Vec<Event>,
    /// Node-id space (max of checkpoint's and any WAL event's ids + 1).
    pub num_nodes: usize,
    /// Events that came from the checkpoint.
    pub checkpoint_events: usize,
    /// WAL records replayed (after eid dedup).
    pub wal_replayed: usize,
    /// WAL records skipped as already covered by the checkpoint.
    pub wal_deduped: usize,
    /// True when the WAL had a torn/corrupt tail that was truncated.
    pub wal_truncated: bool,
}

/// Reconstruct the event stream from `dir` (containing [`WAL_FILE`] and
/// optionally [`CKPT_FILE`]): load the checkpoint, replay the WAL tail,
/// skip WAL records whose `eid` the checkpoint already covers. Returns
/// the load plus the opened WAL positioned for further appends.
pub fn recover(dir: impl AsRef<Path>, flush_every: usize) -> io::Result<(RecoveryLoad, EventWal)> {
    recover_with_faults(dir, flush_every, WalFaults::default())
}

/// [`recover`] with fault injection on the returned WAL handle.
pub fn recover_with_faults(
    dir: impl AsRef<Path>,
    flush_every: usize,
    faults: WalFaults,
) -> io::Result<(RecoveryLoad, EventWal)> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let ckpt = Checkpoint::load(dir.join(CKPT_FILE))?;
    let (wal, report) = EventWal::open(dir.join(WAL_FILE), flush_every, faults)?;

    let mut load = RecoveryLoad {
        wal_truncated: report.truncated,
        ..RecoveryLoad::default()
    };
    let mut next_eid = 0u32;
    if let Some(ckpt) = ckpt {
        load.checkpoint_events = ckpt.events.len();
        load.num_nodes = ckpt.num_nodes;
        next_eid = ckpt.next_eid;
        load.events = ckpt.events;
    }
    for ev in &report.events {
        if ev.eid < next_eid {
            load.wal_deduped += 1;
            continue; // already in the checkpoint
        }
        load.num_nodes = load.num_nodes.max(ev.src.max(ev.dst) as usize + 1);
        load.events.push(*ev);
        load.wal_replayed += 1;
    }
    Ok((load, wal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_dir(name: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        p.push("../../target/wal-tests");
        p.push(format!("{name}-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn ev(src: u32, dst: u32, t: f64, eid: u32) -> Event {
        Event { src, dst, t, eid }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn wal_round_trips_events_across_reopen() {
        let dir = test_dir("roundtrip");
        let path = dir.join(WAL_FILE);
        let events: Vec<Event> = (0..100).map(|i| ev(i, i + 1, i as f64 * 0.5, i)).collect();
        {
            let (mut wal, report) = EventWal::open(&path, 7, WalFaults::default()).unwrap();
            assert!(report.events.is_empty());
            for e in &events {
                wal.append(e).unwrap();
            }
        } // drop flushes
        let (_, report) = EventWal::open(&path, 7, WalFaults::default()).unwrap();
        assert_eq!(report.events, events);
        assert!(!report.truncated);
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_record() {
        let dir = test_dir("torn");
        let path = dir.join(WAL_FILE);
        {
            let (mut wal, _) = EventWal::open(&path, 1, WalFaults::default()).unwrap();
            for i in 0..10 {
                wal.append(&ev(i, i, i as f64, i)).unwrap();
            }
        }
        // Tear the last record mid-payload.
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);
        let (_, report) = EventWal::open(&path, 1, WalFaults::default()).unwrap();
        assert!(report.truncated);
        assert_eq!(report.events.len(), 9);
        assert_eq!(report.events.last().unwrap().eid, 8);
        // The file was repaired: a second open sees a clean log.
        let (_, report2) = EventWal::open(&path, 1, WalFaults::default()).unwrap();
        assert!(!report2.truncated);
        assert_eq!(report2.events.len(), 9);
    }

    #[test]
    fn bit_flip_stops_replay_at_corruption() {
        let dir = test_dir("bitflip");
        let path = dir.join(WAL_FILE);
        {
            let (mut wal, _) = EventWal::open(&path, 1, WalFaults::default()).unwrap();
            for i in 0..10 {
                wal.append(&ev(i, i, i as f64, i)).unwrap();
            }
        }
        // Flip one bit inside record 5's payload.
        let mut raw = std::fs::read(&path).unwrap();
        let rec = WAL_HEADER as usize + 5 * (FRAME_BYTES + EVENT_BYTES);
        raw[rec + FRAME_BYTES + 3] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();
        let (_, report) = EventWal::open(&path, 1, WalFaults::default()).unwrap();
        assert!(report.truncated);
        assert_eq!(report.events.len(), 5);
        assert_eq!(
            report.events,
            (0..5).map(|i| ev(i, i, i as f64, i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn injected_corrupt_record_is_detected_on_reopen() {
        let dir = test_dir("inject");
        let path = dir.join(WAL_FILE);
        {
            let faults = WalFaults {
                corrupt_record: 4,
                ..WalFaults::default()
            };
            let (mut wal, _) = EventWal::open(&path, 1, faults).unwrap();
            for i in 0..10 {
                wal.append(&ev(i, i, i as f64, i)).unwrap();
            }
        }
        let (_, report) = EventWal::open(&path, 1, WalFaults::default()).unwrap();
        assert!(report.truncated);
        assert_eq!(report.events.len(), 3); // records 1..=3 survive
    }

    #[test]
    fn checkpoint_saves_and_loads_atomically() {
        let dir = test_dir("ckpt");
        let path = dir.join(CKPT_FILE);
        assert!(Checkpoint::load(&path).unwrap().is_none());
        let events: Vec<Event> = (0..50).map(|i| ev(i, i + 2, i as f64, i)).collect();
        Checkpoint::save(&path, &events, 64, 50).unwrap();
        let ckpt = Checkpoint::load(&path).unwrap().unwrap();
        assert_eq!(ckpt.events, events);
        assert_eq!(ckpt.num_nodes, 64);
        assert_eq!(ckpt.next_eid, 50);
        // Corruption is detected, not silently replayed.
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        assert!(Checkpoint::load(&path).is_err());
    }

    #[test]
    fn recover_dedups_wal_records_covered_by_checkpoint() {
        let dir = test_dir("recover");
        let events: Vec<Event> = (0..20).map(|i| ev(i, i + 1, i as f64, i)).collect();
        {
            let (mut wal, _) = EventWal::open(dir.join(WAL_FILE), 1, WalFaults::default()).unwrap();
            for e in &events {
                wal.append(e).unwrap();
            }
        }
        // Checkpoint covers the first 12 events, but the WAL was never
        // reset (simulates a crash between checkpoint rename and reset).
        Checkpoint::save(dir.join(CKPT_FILE), &events[..12], 21, 12).unwrap();
        let (load, _wal) = recover(&dir, 1).unwrap();
        assert_eq!(load.events, events);
        assert_eq!(load.checkpoint_events, 12);
        assert_eq!(load.wal_replayed, 8);
        assert_eq!(load.wal_deduped, 12);
        assert!(!load.wal_truncated);
    }

    #[test]
    fn recover_from_empty_dir_is_a_fresh_stream() {
        let dir = test_dir("fresh");
        let (load, mut wal) = recover(&dir, 4).unwrap();
        assert!(load.events.is_empty());
        assert_eq!(load.num_nodes, 0);
        wal.append(&ev(1, 2, 1.0, 0)).unwrap();
        wal.sync().unwrap();
        let (load2, _) = recover(&dir, 4).unwrap();
        assert_eq!(load2.events.len(), 1);
        assert_eq!(load2.wal_replayed, 1);
    }

    /// The durability bound an ingest ack carries: a process killed without
    /// a drain loses at most `flush_every - 1` appended records, never a
    /// flushed one. `mem::forget` stands in for `kill -9`, since `Drop`
    /// would flush the buffered tail.
    #[test]
    fn process_death_loses_only_the_unflushed_tail() {
        const FLUSH_EVERY: usize = 64;
        let dir = test_dir("death");
        let events: Vec<Event> = (0..3 * FLUSH_EVERY as u32 - 1)
            .map(|i| ev(i, i + 1, i as f64, i))
            .collect();
        let (_, mut wal) = recover(&dir, FLUSH_EVERY).unwrap();
        let mut flushed = 0;
        for (i, e) in events.iter().enumerate() {
            if wal.append(e).unwrap() {
                flushed = i + 1;
            }
        }
        std::mem::forget(wal);
        assert_eq!(flushed, 2 * FLUSH_EVERY);

        let (load, _) = recover(&dir, FLUSH_EVERY).unwrap();
        assert_eq!(load.events, events[..flushed]);
        assert_eq!(events.len() - load.events.len(), FLUSH_EVERY - 1);
        assert!(!load.wal_truncated);
    }

    #[test]
    fn frame_codec_round_trips_and_rejects_damage() {
        let e = ev(7, 9, 1234.5, 42);
        let mut frame = Vec::new();
        encode_frame(&e, &mut frame);
        assert_eq!(frame.len(), FRAME_BYTES + EVENT_BYTES);
        match parse_frame(&frame) {
            FrameParse::Frame { event, consumed } => {
                assert_eq!(event, e);
                assert_eq!(consumed, frame.len());
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        // Every strict prefix is incomplete, never corrupt.
        for cut in 0..frame.len() {
            assert_eq!(parse_frame(&frame[..cut]), FrameParse::Incomplete);
        }
        // A payload bit-flip is corrupt.
        let mut bad = frame.clone();
        bad[FRAME_BYTES + 2] ^= 0x10;
        assert_eq!(parse_frame(&bad), FrameParse::Corrupt);
        // A bad length is corrupt even with plenty of bytes.
        let mut bad = frame.clone();
        bad[0] = 99;
        assert_eq!(parse_frame(&bad), FrameParse::Corrupt);
    }

    #[test]
    fn checkpoint_encode_decode_round_trips_in_memory() {
        let events: Vec<Event> = (0..30).map(|i| ev(i, i + 3, i as f64 * 2.0, i)).collect();
        let image = Checkpoint::encode(&events, 40, 30);
        let ckpt = Checkpoint::decode(&image).unwrap();
        assert_eq!(ckpt.events, events);
        assert_eq!(ckpt.num_nodes, 40);
        assert_eq!(ckpt.next_eid, 30);
        let mut damaged = image.clone();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x01;
        assert!(Checkpoint::decode(&damaged).is_err());
        assert!(Checkpoint::decode(&image[..10]).is_err());
    }

    #[test]
    fn cursor_tails_a_live_wal_across_appends() {
        let dir = test_dir("cursor-tail");
        let path = dir.join(WAL_FILE);
        let (mut wal, _) = EventWal::open(&path, 1, WalFaults::default()).unwrap();
        for i in 0..5 {
            wal.append(&ev(i, i, i as f64, i)).unwrap();
        }
        wal.flush().unwrap();

        let mut cur = WalCursor::open(&path).unwrap();
        let mut seen = Vec::new();
        while let Some(e) = cur.next_event().unwrap() {
            seen.push(e.eid);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(cur.records(), 5);

        // The writer appends more; the same cursor resumes where it left off.
        for i in 5..9 {
            wal.append(&ev(i, i, i as f64, i)).unwrap();
        }
        wal.flush().unwrap();
        let mut more = Vec::new();
        while let Some(e) = cur.next_event().unwrap() {
            more.push(e.eid);
        }
        assert_eq!(more, vec![5, 6, 7, 8]);
        assert!(!cur.is_corrupt());
    }

    #[test]
    fn cursor_treats_partial_tail_as_pending_and_bad_crc_as_corrupt() {
        let dir = test_dir("cursor-torn");
        let path = dir.join(WAL_FILE);
        {
            let (mut wal, _) = EventWal::open(&path, 1, WalFaults::default()).unwrap();
            for i in 0..4 {
                wal.append(&ev(i, i, i as f64, i)).unwrap();
            }
        }
        // A torn (half-written) frame: the cursor waits, not errors.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&(EVENT_BYTES as u32).to_le_bytes()).unwrap();
            f.write_all(&[0u8; 3]).unwrap();
        }
        let mut cur = WalCursor::open(&path).unwrap();
        while cur.next_event().unwrap().is_some() {}
        assert_eq!(cur.records(), 4);
        assert!(!cur.is_corrupt());

        // A CRC-corrupt record stops the cursor permanently.
        let mut raw = std::fs::read(&path).unwrap();
        let rec = WAL_HEADER as usize + 2 * (FRAME_BYTES + EVENT_BYTES);
        raw[rec + FRAME_BYTES + 1] ^= 0x80;
        std::fs::write(&path, &raw).unwrap();
        let mut cur = WalCursor::open(&path).unwrap();
        let mut n = 0;
        while cur.next_event().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 2);
        assert!(cur.is_corrupt());
        assert!(cur.next_event().unwrap().is_none());
    }

    #[test]
    fn reset_after_checkpoint_empties_the_log() {
        let dir = test_dir("reset");
        let (mut wal, _) = EventWal::open(dir.join(WAL_FILE), 1, WalFaults::default()).unwrap();
        for i in 0..5 {
            wal.append(&ev(i, i, i as f64, i)).unwrap();
        }
        wal.reset().unwrap();
        wal.append(&ev(9, 9, 99.0, 5)).unwrap();
        wal.flush().unwrap();
        drop(wal);
        let (_, report) = EventWal::open(dir.join(WAL_FILE), 1, WalFaults::default()).unwrap();
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].eid, 5);
    }
}
