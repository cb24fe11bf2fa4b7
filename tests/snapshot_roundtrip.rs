//! Snapshot persistence suite: round-trip equivalence on random trees,
//! byte determinism, exhaustive corruption handling, and the layout
//! version pin.
//!
//! Seeded loops over the vendored deterministic PRNG stand in for
//! proptest (the offline build cannot fetch it); failures print the
//! seed.
//!
//! The pinned fixture `tests/golden/snapshot_v3.bin` is a committed
//! current-layout snapshot of the Figure 1 corpus (saved through
//! `ShardedDb` at K = 4 so every section id, including the partition
//! map, is exercised). Regenerate after an *intended* layout change —
//! which must also bump `SNAPSHOT_VERSION` — with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test snapshot_roundtrip
//! ```

use nearest_concept::core::{MeetOptions, MeetStrategy};
use nearest_concept::store::{MappedSnapshot, SnapshotError, VerifyMode, SNAPSHOT_VERSION};
use nearest_concept::xml::Document;
use nearest_concept::{Database, ShardedDb};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::PathBuf;

/// Random tree with text leaves, as in the sharding equivalence suite:
/// node `i + 1` hangs under a random earlier node; some nodes carry
/// cdata from a small token pool so string relations, postings and the
/// partition weights are all exercised.
fn random_tree(rng: &mut StdRng) -> Document {
    const TAGS: [&str; 5] = ["a", "b", "c", "d", "e"];
    const WORDS: [&str; 6] = ["alpha", "beta", "gamma", "delta", "twin peaks", "omega"];
    let mut doc = Document::new("root");
    let mut nodes = vec![doc.root()];
    let n = rng.random_range(1usize..150);
    for i in 0..n {
        let parent = nodes[rng.random_range(0..nodes.len())];
        let node = doc.add_element(parent, TAGS[i % TAGS.len()]);
        if rng.random_range(0..3usize) == 0 {
            let w1 = WORDS[rng.random_range(0..WORDS.len())];
            let w2 = WORDS[rng.random_range(0..WORDS.len())];
            doc.add_text(node, format!("{w1} {w2}"));
        }
        nodes.push(node);
    }
    doc
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ncq-snapshot-roundtrip");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

/// Round-trip property: for random trees, a save → load cycle answers
/// `meet_sets` and `meet_multi` identically — document order, join
/// accounting and witness samples included — through both the plain
/// `Database` and a `ShardedDb` at random K reloaded from the same
/// file.
#[test]
fn random_trees_round_trip_with_identical_meets() {
    for seed in 0u64..25 {
        let mut rng = StdRng::seed_from_u64(0x5eed_0000 + seed);
        let doc = random_tree(&mut rng);
        let original = Database::from_document(&doc);
        let k = rng.random_range(1usize..6);

        let path = scratch(&format!("prop-{seed}.ncq"));
        let sharded = ShardedDb::new(original.clone(), k);
        sharded.save_snapshot(&path).expect("save");
        let loaded = Database::open_snapshot(&path).expect("load");
        let loaded_sharded = ShardedDb::open_snapshot(&path, k).expect("load sharded");

        // meet_sets over a random homogeneous pair, every strategy.
        let store = original.store();
        let anchor =
            nearest_concept::store::Oid::from_index(rng.random_range(0..store.node_count()));
        let candidates = store.meet_index().oids_of_path(store.sigma(anchor));
        let pick = |rng: &mut StdRng| {
            let len = rng.random_range(1..candidates.len().min(8) + 1);
            (0..len)
                .map(|_| candidates[rng.random_range(0..candidates.len())])
                .collect::<Vec<_>>()
        };
        let (s1, s2) = (pick(&mut rng), pick(&mut rng));
        for strategy in [MeetStrategy::Auto, MeetStrategy::Lift, MeetStrategy::Sweep] {
            let a = original.meet_oid_sets_with(&s1, &s2, strategy).unwrap();
            let b = loaded.meet_oid_sets_with(&s1, &s2, strategy).unwrap();
            assert_eq!(a.meets, b.meets, "seed {seed} strategy {strategy:?}");
            assert_eq!(a.join_rounds, b.join_rounds, "seed {seed}");
            let c = loaded_sharded
                .meet_oid_sets_with(&s1, &s2, strategy)
                .unwrap();
            assert_eq!(a.meets, c.meets, "seed {seed} sharded K={k}");
        }

        // meet_multi through the full term pipeline: serialized answer
        // XML pins ranking, distances, document order and witnesses.
        let terms = ["alpha", "beta", "twin peaks"];
        let options = MeetOptions::default();
        let a = original.meet_terms_with(&terms, &options).unwrap();
        let b = loaded.meet_terms_with(&terms, &options).unwrap();
        assert_eq!(
            a.to_detailed_xml(),
            b.to_detailed_xml(),
            "seed {seed}: loaded Database diverged"
        );
        let c = loaded_sharded.meet_terms_with(&terms, &options).unwrap();
        assert_eq!(
            a.to_detailed_xml(),
            c.to_detailed_xml(),
            "seed {seed}: loaded ShardedDb (K={k}) diverged"
        );

        std::fs::remove_file(&path).ok();
    }
}

/// Determinism: snapshot bytes are a pure function of the database —
/// two saves agree, and a save → load → save cycle is byte-stable.
#[test]
fn snapshot_bytes_are_deterministic_across_saves_and_reloads() {
    let mut rng = StdRng::seed_from_u64(0x0dec_eded);
    let doc = random_tree(&mut rng);
    let db = Database::from_document(&doc);
    let first = db.snapshot_to_bytes();
    assert_eq!(first, db.snapshot_to_bytes(), "same engine, two saves");
    let reloaded = Database::from_snapshot_bytes(first.clone()).expect("reload");
    assert_eq!(
        first,
        reloaded.snapshot_to_bytes(),
        "save -> load -> save drifted"
    );
}

/// Corruption never panics: truncating at *every* section boundary
/// (and just inside each), flipping bytes across the header and every
/// section-table entry, and flipping a byte inside every payload all
/// surface as typed `SnapshotError`s.
#[test]
fn corrupt_snapshots_fail_typed_at_every_boundary() {
    let db = Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap();
    let sharded = ShardedDb::new(db, 4);
    let path = scratch("corrupt.ncq");
    sharded.save_snapshot(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read");
    std::fs::remove_file(&path).ok();

    // Decode through the mapped path with *eager* verification so a
    // payload flip in a lazily-checked section (columns, meet index,
    // stats) still surfaces as a typed checksum error rather than a
    // semantically-plausible wrong value.
    let decode = |data: Vec<u8>| -> Result<(), SnapshotError> {
        let snap = MappedSnapshot::from_owned_bytes(data, VerifyMode::Eager)?;
        ShardedDb::decode_from(&snap, 4)?;
        Ok(())
    };
    decode(bytes.clone()).expect("pristine bytes decode");

    // Section boundaries from the v3 table (24-byte header, 32-byte
    // entries): offset and offset+len of every section, plus the
    // header/table edges.
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let table_end = 24 + 32 * count;
    let mut boundaries = vec![0, 4, 8, 12, 16, 23, 24, table_end - 1, table_end];
    for i in 0..count {
        let at = 24 + 32 * i;
        let offset = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap()) as usize;
        boundaries.extend([offset, offset + 1, offset + len / 2, offset + len]);
    }
    boundaries.retain(|&b| b < bytes.len());
    for &cut in &boundaries {
        assert!(
            decode(bytes[..cut].to_vec()).is_err(),
            "truncation at {cut} decoded"
        );
    }

    // Bit flips: every header/table byte, and one byte inside every
    // section payload (start, middle, last).
    let mut flip_at: Vec<usize> = (0..table_end).collect();
    for i in 0..count {
        let at = 24 + 32 * i;
        let offset = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap()) as usize;
        if len > 0 {
            flip_at.extend([offset, offset + len / 2, offset + len - 1]);
        }
    }
    for &at in &flip_at {
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0x40;
        assert!(
            decode(corrupt).is_err(),
            "bit flip at {at} decoded as pristine"
        );
    }
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("snapshot_v{SNAPSHOT_VERSION}.bin"))
}

/// The layout version pin. The committed fixture must (a) carry the
/// current `SNAPSHOT_VERSION`, (b) decode into an engine that answers
/// a known meet, and (c) re-encode to the **exact committed bytes**.
/// Any layout change that forgets to bump the version fails here
/// loudly: either the old fixture no longer decodes, or the re-encoded
/// bytes drift from the committed ones. After an intended change, bump
/// `SNAPSHOT_VERSION` and regenerate with `UPDATE_GOLDEN=1`.
#[test]
fn pinned_fixture_guards_the_layout_version() {
    let path = fixture_path();
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    if update {
        let db = Database::from_xml_str(nearest_concept::datagen::FIGURE1_XML).unwrap();
        let sharded = ShardedDb::new(db, 4);
        sharded.save_snapshot(&path).expect("write fixture");
        return;
    }
    let bytes = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {path:?} ({e}); run UPDATE_GOLDEN=1 cargo test --test \
             snapshot_roundtrip to create it"
        )
    });
    let header_version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    assert_eq!(
        header_version, SNAPSHOT_VERSION,
        "fixture carries layout version {header_version}, build reads {SNAPSHOT_VERSION}; \
         regenerate the fixture (UPDATE_GOLDEN=1) and commit it as snapshot_v{SNAPSHOT_VERSION}.bin"
    );

    let loaded = Database::from_snapshot_bytes(bytes.clone()).unwrap_or_else(|e| {
        panic!(
            "the committed v{SNAPSHOT_VERSION} fixture no longer decodes ({e}); \
             the layout changed without a SNAPSHOT_VERSION bump"
        )
    });
    let answers = loaded.meet_terms(&["Bit", "1999"]).expect("probe meet");
    assert_eq!(answers.tags(), vec!["article"], "fixture answers drifted");

    // ShardedDb reuses the fixture's persisted K = 4 partition map.
    let p = scratch("fixture-copy.ncq");
    std::fs::write(&p, &bytes).expect("stage fixture");
    let sharded = ShardedDb::open_snapshot(&p, 4).expect("sharded fixture load");
    assert_eq!(sharded.partition().requested_k(), 4);
    assert_eq!(
        sharded
            .meet_terms(&["Bit", "1999"])
            .unwrap()
            .to_detailed_xml(),
        answers.to_detailed_xml()
    );
    std::fs::remove_file(&p).ok();

    // Byte-stability: re-encoding the loaded engine plus its partition
    // map must reproduce the committed bytes exactly.
    let mut writer = loaded.encode_snapshot_v3();
    sharded.partition().encode_snapshot_v3(&mut writer);
    assert_eq!(
        writer.to_bytes(),
        bytes,
        "re-encoded bytes drifted from the committed v{SNAPSHOT_VERSION} fixture; \
         bump SNAPSHOT_VERSION and regenerate (UPDATE_GOLDEN=1)"
    );
}
