//! A change to modelled output must come with a new model epoch.
//!
//! Every cell key starts with [`MODEL_EPOCH`], so results cached or
//! stored under one epoch never answer a cell of another. This test
//! pins a digest of the checked-in goldens to the epoch that produced
//! them. A change that moves a golden no longer matches the last
//! pinned entry, and pinning its new digest takes a new epoch, since
//! no two entries may share one.

use std::collections::HashSet;
use std::path::Path;

use flatwalk_serve::rcache::MODEL_EPOCH;

/// Every `(epoch, golden digest)` pair so far, oldest first.
const HISTORY: &[(&str, u64)] = &[("e1", 0xd583_ed58_865b_f29e)];

/// The golden directories, relative to the repository root, and the
/// extension of the files each holds.
const GOLDENS: &[(&str, &str)] = &[
    ("tests/golden/engine_unification", "json"),
    ("tests/goldens/quick", "txt"),
];

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a over every golden in path order: its path, its length and
/// its bytes.
fn golden_digest() -> u64 {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for (dir, ext) in GOLDENS {
        let before = files.len();
        for entry in std::fs::read_dir(root.join(dir)).expect("golden directory") {
            let path = entry.expect("golden entry").path();
            if path.extension().is_some_and(|e| e == *ext) {
                let name = path.file_name().unwrap().to_str().unwrap();
                files.push(format!("{dir}/{name}"));
            }
        }
        assert!(files.len() > before, "no .{ext} goldens in {dir}");
    }
    files.sort();
    files.iter().fold(0xcbf2_9ce4_8422_2325, |h, file| {
        let bytes = std::fs::read(root.join(file)).expect("golden file");
        let h = fnv1a(h, file.as_bytes());
        let h = fnv1a(h, &(bytes.len() as u64).to_le_bytes());
        fnv1a(h, &bytes)
    })
}

#[test]
fn golden_changes_come_with_a_new_model_epoch() {
    let epochs: HashSet<&str> = HISTORY.iter().map(|&(epoch, _)| epoch).collect();
    assert_eq!(
        epochs.len(),
        HISTORY.len(),
        "an epoch is pinned twice; pin new goldens under a new epoch"
    );
    let digest = golden_digest();
    assert_eq!(
        HISTORY.last(),
        Some(&(MODEL_EPOCH, digest)),
        "the goldens changed: bump MODEL_EPOCH in crates/serve/src/rcache.rs and \
         append (the new epoch, {digest:#018x}) to HISTORY"
    );
}
