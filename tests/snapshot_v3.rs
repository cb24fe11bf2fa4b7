//! Mapped-serving snapshot integration suite, complementing
//! `tests/snapshot_roundtrip.rs` (which pins the layout itself):
//!
//! * length-lies in the v3 section table — entries whose extents are
//!   forged *with a recomputed table checksum* so only per-extent
//!   validation can catch them — surface as typed errors end-to-end;
//! * a two-process check that one snapshot file on disk serves two
//!   independent `Database` opens (one per process) with equal answers,
//!   which is the zero-copy story: the kernel page cache, not a private
//!   heap, is the shared substrate.

use nearest_concept::store::snapshot::checksum64;
use nearest_concept::store::{section_name, SnapshotError};
use nearest_concept::{Database, ShardedDb};
use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ncq-snapshot-v3");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

/// The probe answer every fixture must agree on (the Figure 1 corpus).
fn probe(db: &Database) -> String {
    db.meet_terms(&["Bit", "1999"])
        .expect("probe meet")
        .to_detailed_xml()
}

/// Length-lies: forge a section-table entry (shrunken extent, overrun
/// extent, offset pointed at a different section's bytes) and *repair
/// the table checksum* so the header passes. Only per-extent
/// validation — bounds against the file, checksum over the padded
/// extent — stands between the lie and a wild read; every lie must be
/// a typed error naming the section, never a panic or a wrong answer.
#[test]
fn table_length_lies_are_typed_errors_end_to_end() {
    let db = Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap();
    let sharded = ShardedDb::new(db, 4);
    let path = scratch("length-lies.ncq");
    sharded.save_snapshot(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read");

    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let table_end = 24 + 32 * count;
    assert!(count >= 2, "need two sections to swap extents");
    let entry = |i: usize| {
        let at = 24 + 32 * i;
        let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let offset = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap());
        (id, offset, len)
    };

    // Each lie rewrites entry fields, then recomputes the table
    // checksum so the forgery is internally consistent.
    let forge = |edit: &dyn Fn(&mut [u8])| {
        let mut forged = bytes.clone();
        edit(&mut forged);
        let sum = checksum64(&forged[24..table_end]);
        forged[16..24].copy_from_slice(&sum.to_le_bytes());
        forged
    };
    let open = |data: &[u8], name: &str| {
        std::fs::write(&path, data).expect("stage forged file");
        let err = Database::open_snapshot(&path)
            .err()
            .unwrap_or_else(|| panic!("{name}: forged snapshot opened cleanly"));
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::Corrupt { .. }
            ),
            "{name}: expected a typed corruption error, got {err}"
        );
        err
    };

    // Overrun: the first section claims to extend past end-of-file.
    let (id0, _, _) = entry(0);
    let overrun = forge(&|f: &mut [u8]| {
        f[24 + 16..24 + 24].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    });
    let err = open(&overrun, "overrun");
    if let SnapshotError::Truncated { context, .. } = err {
        assert_eq!(
            context,
            section_name(id0),
            "overrun error names the lied section"
        );
    }

    // Shrink: the extent is cut short, so the checksum over the padded
    // extent no longer matches what the writer recorded.
    let shrink = forge(&|f: &mut [u8]| {
        let len = u64::from_le_bytes(f[24 + 16..24 + 24].try_into().unwrap());
        f[24 + 16..24 + 24].copy_from_slice(&(len / 2).to_le_bytes());
    });
    open(&shrink, "shrink");

    // Swap: entry 0's extent redirected at entry 1's bytes — in-bounds,
    // plausible, and only the per-section checksum can tell.
    let (_, off1, len1) = entry(1);
    let swap = forge(&|f: &mut [u8]| {
        f[24 + 8..24 + 16].copy_from_slice(&off1.to_le_bytes());
        f[24 + 16..24 + 24].copy_from_slice(&len1.to_le_bytes());
    });
    open(&swap, "swap");

    std::fs::remove_file(&path).ok();
}

/// One file, two processes: the parent saves a snapshot, opens it, and
/// re-invokes this same test binary as a child that opens the *same
/// path* while the parent's map is still live. Both processes answer
/// the probe identically — the on-disk image is a complete, immutable
/// serving substrate, shareable through the page cache with no
/// per-process rebuild.
#[test]
fn one_snapshot_file_serves_two_processes_with_equal_answers() {
    // Child branch: open the file named by the env var, write the probe
    // answer where the parent asked, and exit.
    if let Ok(snap) = std::env::var("NCQ_V3_TWO_PROC_SNAPSHOT") {
        let out = std::env::var("NCQ_V3_TWO_PROC_OUT").expect("child out path");
        let db = Database::open_snapshot(&snap).expect("child open");
        std::fs::write(&out, probe(&db)).expect("child write");
        return;
    }

    let db = Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap();
    let path = scratch("two-proc.ncq");
    db.save_snapshot(&path).expect("save");

    // Parent's map stays open across the child's whole lifetime.
    let parent = Database::open_snapshot(&path).expect("parent open");
    let expected = probe(&parent);

    // A second open in the *same* process is also independent: two maps
    // of one file, equal answers.
    let again = Database::open_snapshot(&path).expect("second open");
    assert_eq!(probe(&again), expected, "second in-process open diverged");

    let out = scratch("two-proc-answer.txt");
    std::fs::remove_file(&out).ok();
    let status = Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "one_snapshot_file_serves_two_processes_with_equal_answers",
            "--exact",
            "--nocapture",
        ])
        .env("NCQ_V3_TWO_PROC_SNAPSHOT", &path)
        .env("NCQ_V3_TWO_PROC_OUT", &out)
        .status()
        .expect("spawn child process");
    assert!(status.success(), "child process failed");
    let child_answer = std::fs::read_to_string(&out).expect("child answer");
    assert_eq!(child_answer, expected, "child process answers diverged");

    // The parent's map was live the whole time — re-probe to show the
    // concurrent child open did not disturb it.
    assert_eq!(
        probe(&parent),
        expected,
        "parent answers drifted after child ran"
    );

    for p in [&path, &out] {
        std::fs::remove_file(p).ok();
    }
}
