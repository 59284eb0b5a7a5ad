//! Disk-backed, content-addressed persistence for finished grid cells,
//! layered **beneath** the in-memory result cache ([`crate::rcache`]):
//! the memory cache answers repeats within one server lifetime, this
//! store answers them across lifetimes. A server restarted after a
//! crash (`kill -9` included) re-serves every previously computed cell
//! with byte-identical spliced report JSON and zero re-execution.
//!
//! Layout under the store root:
//!
//! ```text
//! objects/<hh>/<32-hex content hash>.entry   durable entries
//! tmp/                                       in-progress writes
//! quarantine/                                entries that failed verification
//! ```
//!
//! Entries are addressed by a 128-bit hash of their key (two
//! independently seeded FNV-1a folds), sharded by the first hash byte.
//! Every entry embeds the *full* key and is verified against it on
//! read, so even a hash collision can never alias two computations.
//! Keys are the canonical text of [`crate::rcache::cell_key`], led by
//! the model epoch (`e1;`). An entry written under any other key form
//! (the `Debug`-text keys of older builds, or another epoch) still
//! verifies and is indexed at open, but no lookup reaches its address:
//! its cell is a miss, runs once more and is stored under its new key.
//! The old entry stays on disk; nothing collects it yet.
//!
//! Durability follows the classic tmp + `fsync` + atomic `rename`
//! discipline: an entry is written to `tmp/`, synced, renamed into
//! `objects/`, and the object directory is synced — a crash at any
//! point leaves either no entry or a complete one, never a torn one.
//! The entry format is self-verifying (`flatwalk-store-v1`): a JSON
//! header line carrying the byte lengths and an FNV-1a checksum of the
//! key + report bytes, followed by the raw key and report. The startup
//! recovery scan ([`ResultStore::open`]) re-indexes every entry that
//! verifies and moves everything else — truncated headers, length
//! mismatches, checksum failures — into `quarantine/` for post-mortem
//! inspection instead of deleting or serving it.
//!
//! Concurrency: the index is a `Mutex` over the set of 128-bit content
//! addresses (16 bytes an entry, however long the key), locked for one
//! hash probe per served cell that reaches the store and once per
//! write, never across file I/O; all counters are atomics.
//! Concurrent writers of the same key are idempotent by content
//! addressing: both render identical bytes, and the second rename
//! simply replaces the first atomically.
//!
//! Observability: spans `store.recover` / `store.read` / `store.write`;
//! counters `store.recovered`, `store.quarantined`, `store.hits`,
//! `store.misses`, `store.writes`, `store.write_errors`.

use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use flatwalk_obs::{metrics, span, Json};

use crate::rcache::CachedCell;

/// On-disk entry format identifier (first header field of every entry).
pub const SCHEMA: &str = "flatwalk-store-v1";

/// Seeded FNV-1a 64-bit fold — stable across processes and platforms,
/// dependency-free, and fast enough that hashing a report is noise next
/// to the simulation that produced it.
fn fnv1a64(bytes: &[u8], seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The 128-bit content address of a cell key: two independently
/// seeded FNV-1a folds.
fn content_address(key: &str) -> u128 {
    (u128::from(fnv1a64(key.as_bytes(), 0)) << 64)
        | u128::from(fnv1a64(key.as_bytes(), 0x9E37_79B9_7F4A_7C15))
}

/// The 128-bit content address of a cell key, as 32 lowercase hex
/// digits (two independently seeded FNV-1a folds). Used as the entry
/// file name; the embedded full key disambiguates any residual
/// collision.
pub fn content_hash(key: &str) -> String {
    format!("{:032x}", content_address(key))
}

/// Renders one durable entry: header line, raw key, raw report.
fn render_entry(key: &str, value: &CachedCell) -> Vec<u8> {
    let mut checksum_input = Vec::with_capacity(key.len() + value.report_json.len());
    checksum_input.extend_from_slice(key.as_bytes());
    checksum_input.extend_from_slice(value.report_json.as_bytes());
    let mut header = Json::obj();
    header
        .push("schema", SCHEMA)
        .push("checksum", format!("{:016x}", fnv1a64(&checksum_input, 0)))
        .push("key_len", key.len() as u64)
        .push("report_len", value.report_json.len() as u64)
        .push("setup_nanos", value.setup_nanos)
        .push("run_nanos", value.run_nanos);
    let header = header.to_string();
    let mut out = Vec::with_capacity(header.len() + key.len() + value.report_json.len() + 3);
    out.extend_from_slice(header.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(key.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(value.report_json.as_bytes());
    out.push(b'\n');
    out
}

/// Parses and verifies one entry file's bytes back into its key and
/// cached value. Header fields it does not read are ignored, so the
/// `retries` field of entries written by older builds does no harm.
///
/// # Errors
///
/// A human-readable description of the first defect found (unreadable
/// header, schema/length mismatch, checksum failure).
fn parse_entry(bytes: &[u8]) -> Result<(String, CachedCell), String> {
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("no header line")?;
    let header = std::str::from_utf8(&bytes[..header_end]).map_err(|_| "header not UTF-8")?;
    let header = flatwalk_obs::json::parse(header).map_err(|e| format!("bad header: {e}"))?;
    let field = |name: &str| -> Result<u64, String> {
        header
            .get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("header missing {name:?}"))
    };
    match header.get("schema") {
        Some(Json::Str(s)) if s == SCHEMA => {}
        other => return Err(format!("unknown schema {other:?}")),
    }
    let key_len = field("key_len")? as usize;
    let report_len = field("report_len")? as usize;
    let expected_len = header_end + 1 + key_len + 1 + report_len + 1;
    if bytes.len() != expected_len {
        return Err(format!(
            "length mismatch: {} bytes on disk, header describes {expected_len}",
            bytes.len()
        ));
    }
    let key = &bytes[header_end + 1..header_end + 1 + key_len];
    let report = &bytes[header_end + 2 + key_len..header_end + 2 + key_len + report_len];
    let mut checksum_input = Vec::with_capacity(key.len() + report.len());
    checksum_input.extend_from_slice(key);
    checksum_input.extend_from_slice(report);
    let actual = format!("{:016x}", fnv1a64(&checksum_input, 0));
    match header.get("checksum") {
        Some(Json::Str(expected)) if *expected == actual => {}
        other => return Err(format!("checksum mismatch: {other:?} vs {actual}")),
    }
    let key = std::str::from_utf8(key)
        .map_err(|_| "key not UTF-8")?
        .into();
    let report = std::str::from_utf8(report)
        .map_err(|_| "report not UTF-8")?
        .into();
    Ok((
        key,
        CachedCell {
            report_json: report,
            setup_nanos: field("setup_nanos")?,
            run_nanos: field("run_nanos")?,
            retries: 0,
        },
    ))
}

/// Fsyncs a directory so a just-renamed entry survives power loss.
/// Best-effort: some filesystems refuse directory fsync; the rename
/// itself is still atomic.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// The persistent content-addressed result store.
///
/// See the module docs for layout and durability guarantees. All
/// methods are callable from any thread.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    /// Content addresses of the durable entries, repopulated by the
    /// recovery scan. The entry path follows from the address, and the
    /// full key is checked against the entry on every read.
    index: Mutex<HashSet<u128>>,
    tmp_seq: AtomicU64,
    quarantine_seq: AtomicU64,
    recovered: AtomicU64,
    quarantined: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `root` and runs
    /// the recovery scan: every verifiable entry under `objects/` is
    /// re-indexed, every corrupt one is moved to `quarantine/`, and
    /// leftover `tmp/` files from interrupted writes are deleted.
    ///
    /// # Errors
    ///
    /// Propagates directory creation/readdir failures on the root
    /// itself; per-entry defects never fail the open.
    pub fn open(root: &Path) -> io::Result<ResultStore> {
        let _span = span::enter("store.recover");
        fs::create_dir_all(root.join("objects"))?;
        fs::create_dir_all(root.join("tmp"))?;
        fs::create_dir_all(root.join("quarantine"))?;
        let store = ResultStore {
            root: root.to_path_buf(),
            index: Mutex::new(HashSet::new()),
            tmp_seq: AtomicU64::new(0),
            quarantine_seq: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        };
        // A tmp file is by definition an interrupted write: its entry
        // was never renamed in, so nothing references it.
        for leftover in fs::read_dir(store.root.join("tmp"))?.flatten() {
            let _ = fs::remove_file(leftover.path());
        }
        for shard in fs::read_dir(store.root.join("objects"))?.flatten() {
            let Ok(entries) = fs::read_dir(shard.path()) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                match fs::read(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|bytes| {
                        let (key, _) = parse_entry(&bytes)?;
                        // The file must sit at its key's content address;
                        // anything else was tampered with or misplaced.
                        let address = content_address(&key);
                        let expected = format!("{address:032x}.entry");
                        if path.file_name().and_then(|n| n.to_str()) != Some(expected.as_str()) {
                            return Err(format!("entry misfiled: expected name {expected}"));
                        }
                        Ok(address)
                    }) {
                    Ok(address) => {
                        store.index().insert(address);
                        store.recovered.fetch_add(1, Ordering::Relaxed);
                        metrics::add_global("store.recovered", 1);
                    }
                    Err(why) => store.quarantine(&path, &why),
                }
            }
        }
        Ok(store)
    }

    fn index(&self) -> MutexGuard<'_, HashSet<u128>> {
        self.index.lock().unwrap_or_else(|e| e.into_inner()) // lock-ok: one probe per served cell
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where the entry with content address `address` lives.
    fn entry_path(&self, address: u128) -> PathBuf {
        let hash = format!("{address:032x}");
        self.root
            .join("objects")
            .join(&hash[..2])
            .join(format!("{hash}.entry"))
    }

    /// Moves a failed entry into `quarantine/` (never deletes it) and
    /// counts it. Best-effort: if even the move fails the entry is left
    /// in place and simply stays unindexed.
    fn quarantine(&self, path: &Path, why: &str) {
        let seq = self.quarantine_seq.fetch_add(1, Ordering::Relaxed);
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("entry")
            .to_string();
        let dest = self.root.join("quarantine").join(format!("{name}.{seq}"));
        let moved = fs::rename(path, &dest).is_ok();
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        metrics::add_global("store.quarantined", 1);
        eprintln!(
            "flatwalk-serve: store quarantined {} ({why}){}",
            path.display(),
            if moved {
                format!(" -> {}", dest.display())
            } else {
                String::new()
            }
        );
    }

    /// Looks `key` up on disk, verifying the entry end to end. A
    /// corrupt or vanished entry is quarantined (when still present)
    /// and reported as a miss — the caller re-executes and the next
    /// [`put`](ResultStore::put) heals the store.
    pub fn get(&self, key: &str) -> Option<CachedCell> {
        let _span = span::enter("store.read");
        let address = content_address(key);
        if !self.index().contains(&address) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            metrics::add_global("store.misses", 1);
            return None;
        }
        let path = self.entry_path(address);
        let verified = fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| parse_entry(&bytes))
            .and_then(|(stored_key, value)| {
                if stored_key == key {
                    Ok(value)
                } else {
                    Err("key mismatch (content-hash collision?)".to_string())
                }
            });
        match verified {
            Ok(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                metrics::add_global("store.hits", 1);
                Some(value)
            }
            Err(why) => {
                self.index().remove(&address);
                if path.exists() {
                    self.quarantine(&path, &why);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                metrics::add_global("store.misses", 1);
                None
            }
        }
    }

    /// Durably writes `key`'s entry (tmp + fsync + rename + dir sync)
    /// and indexes it. Write failures are counted and logged, never
    /// propagated: the serve path must keep answering from memory even
    /// on a full or read-only disk.
    pub fn put(&self, key: &str, value: &CachedCell) {
        let _span = span::enter("store.write");
        if let Err(e) = self.put_inner(key, value) {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            metrics::add_global("store.write_errors", 1);
            eprintln!("flatwalk-serve: store write for key hash {} failed: {e}", {
                content_hash(key)
            });
        }
    }

    fn put_inner(&self, key: &str, value: &CachedCell) -> io::Result<()> {
        let address = content_address(key);
        let final_path = self.entry_path(address);
        let shard = final_path.parent().expect("entry paths have a shard");
        fs::create_dir_all(shard)?;
        let hash = format!("{address:032x}");
        let tmp_path = self.root.join("tmp").join(format!(
            "{hash}.{}.{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let bytes = render_entry(key, value);
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(&bytes)?;
        tmp.sync_all()?;
        drop(tmp);
        if let Err(e) = fs::rename(&tmp_path, &final_path) {
            let _ = fs::remove_file(&tmp_path);
            return Err(e);
        }
        sync_dir(shard);
        self.index().insert(address);
        self.writes.fetch_add(1, Ordering::Relaxed);
        metrics::add_global("store.writes", 1);
        Ok(())
    }

    /// Indexed entries (verified at recovery or written this lifetime).
    pub fn len(&self) -> usize {
        self.index().len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index().is_empty()
    }

    /// Entries re-indexed by this process's recovery scan.
    pub fn recovered(&self) -> u64 {
        self.recovered.load(Ordering::Relaxed)
    }

    /// Entries moved to `quarantine/` by this process.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Disk hits served by this process.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Disk misses (unindexed keys and failed verifications).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries durably written by this process.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Write attempts that failed (disk full, permissions, …).
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flatwalk-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cell(report: &str) -> CachedCell {
        CachedCell {
            report_json: Arc::from(report),
            setup_nanos: 11,
            run_nanos: 22,
            retries: 0,
        }
    }

    #[test]
    fn roundtrip_within_one_lifetime() {
        let dir = tempdir("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.get("k1").is_none());
        store.put("k1", &cell("{\"r\":1}"));
        let hit = store.get("k1").unwrap();
        assert_eq!(&*hit.report_json, "{\"r\":1}");
        assert_eq!((hit.setup_nanos, hit.run_nanos), (11, 22));
        assert_eq!((store.writes(), store.hits(), store.misses()), (1, 1, 1));
        let entry = fs::read_to_string(entry_path(&dir, "k1")).unwrap();
        let header = entry.lines().next().unwrap();
        assert!(!header.contains("retries"), "{header}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Entries written while the header still carried a `retries`
    /// field verify, are recovered on open, and serve their bytes.
    #[test]
    fn an_entry_with_a_retries_header_field_still_serves() {
        let dir = tempdir("retries-field");
        drop(ResultStore::open(&dir).unwrap());
        let (key, report) = ("old-key", "{\"old\":1}");
        let checksum = fnv1a64(format!("{key}{report}").as_bytes(), 0);
        let header = format!(
            "{{\"schema\":\"{SCHEMA}\",\"checksum\":\"{checksum:016x}\",\"key_len\":{},\
             \"report_len\":{},\"setup_nanos\":11,\"run_nanos\":22,\"retries\":1}}",
            key.len(),
            report.len()
        );
        let path = entry_path(&dir, key);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, format!("{header}\n{key}\n{report}\n")).unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!((store.recovered(), store.quarantined()), (1, 0));
        let hit = store.get(key).expect("the entry serves");
        assert_eq!(&*hit.report_json, report);
        assert_eq!((hit.setup_nanos, hit.run_nanos), (11, 22));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_recovers_entries_byte_identically() {
        let dir = tempdir("reopen");
        let report = "{\"cells\":[1,2,3],\"f\":0.25}";
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put("cell-key|a", &cell(report));
            store.put("cell-key|b", &cell("{\"other\":true}"));
        }
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.recovered(), 2);
        assert_eq!(store.len(), 2);
        assert_eq!(store.quarantined(), 0);
        assert_eq!(&*store.get("cell-key|a").unwrap().report_json, report);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Finds the single `.entry` file for `key` under the store root.
    fn entry_path(root: &Path, key: &str) -> PathBuf {
        let hash = content_hash(key);
        root.join("objects")
            .join(&hash[..2])
            .join(format!("{hash}.entry"))
    }

    #[test]
    fn corrupt_and_truncated_entries_are_quarantined_on_open() {
        let dir = tempdir("corrupt");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put("good", &cell("{\"g\":1}"));
            store.put("flipped", &cell("{\"f\":2}"));
            store.put("truncated", &cell("{\"t\":3}"));
        }
        // Flip one report byte (checksum must catch it) and truncate
        // another entry (length check must catch it).
        let flipped = entry_path(&dir, "flipped");
        let mut bytes = fs::read(&flipped).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x20;
        fs::write(&flipped, &bytes).unwrap();
        let truncated = entry_path(&dir, "truncated");
        let bytes = fs::read(&truncated).unwrap();
        fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.recovered(), 1, "only the intact entry survives");
        assert_eq!(store.quarantined(), 2);
        assert!(store.get("good").is_some());
        assert!(store.get("flipped").is_none());
        assert!(store.get("truncated").is_none());
        assert_eq!(
            fs::read_dir(dir.join("quarantine")).unwrap().count(),
            2,
            "quarantined entries are preserved for inspection, not deleted"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_entry_whose_header_nests_too_deep_is_quarantined_on_open() {
        let dir = tempdir("deep-header");
        {
            let store = ResultStore::open(&dir).unwrap();
            store.put("good", &cell("{\"g\":1}"));
        }
        let deep = entry_path(&dir, "deep");
        fs::create_dir_all(deep.parent().unwrap()).unwrap();
        let header = format!("{{\"schema\":{}", "[".repeat(100_000));
        fs::write(&deep, format!("{header}\ndeep\n{{}}\n")).unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!((store.recovered(), store.quarantined()), (1, 1));
        assert!(!deep.exists(), "the entry moved to quarantine/");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_after_open_is_caught_on_read() {
        let dir = tempdir("read-verify");
        let store = ResultStore::open(&dir).unwrap();
        store.put("k", &cell("{\"x\":9}"));
        let path = entry_path(&dir, "k");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(store.get("k").is_none(), "read path verifies the checksum");
        assert_eq!(store.quarantined(), 1);
        assert!(!path.exists(), "corrupt entry moved out of objects/");
        // A healing re-put serves again.
        store.put("k", &cell("{\"x\":9}"));
        assert_eq!(&*store.get("k").unwrap().report_json, "{\"x\":9}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_tmp_files_are_swept_on_open() {
        let dir = tempdir("tmp-sweep");
        {
            let _ = ResultStore::open(&dir).unwrap();
        }
        fs::write(dir.join("tmp").join("orphan.123.0"), b"partial write").unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(fs::read_dir(dir.join("tmp")).unwrap().count(), 0);
        assert_eq!(store.recovered(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn content_hash_is_stable_and_key_sensitive() {
        assert_eq!(content_hash("a"), content_hash("a"));
        assert_ne!(content_hash("a"), content_hash("b"));
        assert_eq!(content_hash("a").len(), 32);
        assert!(content_hash("a").chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn entry_format_rejects_schema_drift() {
        let bytes = render_entry("k", &cell("{}"));
        assert!(parse_entry(&bytes).is_ok());
        let drifted = String::from_utf8(bytes).unwrap().replace(SCHEMA, "v0");
        assert!(parse_entry(drifted.as_bytes()).is_err());
        assert!(parse_entry(b"garbage, no header").is_err());
        assert!(parse_entry(b"").is_err());
    }
}
