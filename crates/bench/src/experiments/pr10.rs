//! PR 10 perf snapshot: zero-copy mmap cold start.
//!
//! One table, emitted as `BENCH_pr10.json` by `repro --exp pr10`: for
//! each corpus (DBLP substitute, multimedia substitute, deep fork
//! forest) at two scales, two cold starts of the same instance are
//! timed through the filesystem:
//!
//! * `parse_build`: read the XML file, parse, Monet transform, build
//!   every index and statistic — the no-snapshot baseline;
//! * `map_open`: `Database::open_snapshot` on the snapshot file — mmap,
//!   header/table checksum, decode the small verified-at-decode
//!   sections, and point the big arrays at the map.
//!
//! Every row asserts that both engines answer a probe meet
//! byte-identically before timing, and that saving the snapshot twice
//! is byte-deterministic (the CI `snapshot-compat` contract).
//!
//! The acceptance row is the large deep fork forest (591k objects):
//! structure-heavy, so the build has the most work to do while the
//! mapped open's decode cost stays proportional to the tiny
//! dictionary-like sections. Its gate is `speedup_vs_build ≥`
//! [`BUILD_SPEEDUP_GATE`] at full scale.

use ncq_core::Database;
use ncq_datagen::{DblpConfig, DblpCorpus, MultimediaConfig, MultimediaCorpus};
use ncq_xml::{write_document, WriteOptions};
use std::path::Path;
use std::time::Instant;

/// The acceptance gate on the full-scale deep fork row: the mapped open
/// must beat parse + build by at least this factor. It restates the
/// original "≥ 20× faster than the materializing layout-1 load" gate
/// against the baseline that remains: 20 × 233.9 ms (parse + build) /
/// 44.2 ms (layout-1 load) as measured on that row when both loaders
/// existed, rounded down.
pub const BUILD_SPEEDUP_GATE: f64 = 106.0;

/// One corpus × scale row.
#[derive(Debug, Clone)]
pub struct Pr10Row {
    /// Corpus label.
    pub corpus: String,
    /// Objects in the instance.
    pub nodes: usize,
    /// Snapshot file size, bytes.
    pub snapshot_bytes: usize,
    /// Whether the open served from a real memory map (false under
    /// `NCQ_NO_MMAP` or on non-unix hosts).
    pub mapped: bool,
    /// Full parse + build cold start, µs (min over rounds).
    pub parse_build_us: f64,
    /// Mapped open, µs (min over rounds).
    pub map_open_us: f64,
    /// `parse_build_us / map_open_us` — the gated ratio.
    pub speedup_vs_build: f64,
    /// Both engines answered a probe meet byte-identically.
    pub agree: bool,
    /// Two saves produced byte-identical files.
    pub deterministic: bool,
}

/// The full PR 10 snapshot.
#[derive(Debug, Clone)]
pub struct Pr10Result {
    /// All rows, grouped by corpus then scale.
    pub rows: Vec<Pr10Row>,
}

crate::impl_to_json_struct!(Pr10Row {
    corpus,
    nodes,
    snapshot_bytes,
    mapped,
    parse_build_us,
    map_open_us,
    speedup_vs_build,
    agree,
    deterministic,
});
crate::impl_to_json_struct!(Pr10Result { rows });

/// The deep fork forest of the PR 1/PR 3/PR 4 snapshots, as XML text.
fn deep_xml(depth: usize, pairs: usize) -> String {
    let mut xml = String::with_capacity(pairs * depth * 8);
    xml.push_str("<root>");
    for _ in 0..pairs {
        xml.push_str("<h>");
        for _ in 0..depth {
            xml.push_str("<x>");
        }
        xml.push_str("<a>s</a>");
        for _ in 0..depth {
            xml.push_str("</x>");
        }
        for _ in 0..depth {
            xml.push_str("<y>");
        }
        xml.push_str("<b>t</b>");
        for _ in 0..depth {
            xml.push_str("</y>");
        }
        xml.push_str("</h>");
    }
    xml.push_str("</root>");
    xml
}

/// The complete cold start the snapshot replaces: parse, transform,
/// build the inverted index, the meet index and both cached statistics.
fn build_cold(xml: &str) -> Database {
    let db = Database::from_xml_str(xml).expect("benchmark corpus parses");
    db.store().meet_index();
    db.store().depth_stats();
    db.store().partition_stats();
    db
}

/// Probe terms per corpus (datagen text pools / deep forest leaves).
fn probe_terms(corpus: &str) -> [&'static str; 2] {
    if corpus.starts_with("deep") {
        ["s", "t"]
    } else {
        ["1999", "1995"]
    }
}

fn time_us(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

fn floor(v: impl IntoIterator<Item = f64>) -> f64 {
    v.into_iter().fold(f64::INFINITY, f64::min)
}

fn row(label: &str, xml: String, dir: &Path, rounds: usize) -> Pr10Row {
    let base = dir.join(label.replace([' ', '(', ')', ','], "_"));
    let xml_path = base.with_extension("xml");
    let v3_path = base.with_extension("ncq");
    let v3_path2 = base.with_extension("ncq2");
    std::fs::write(&xml_path, &xml).expect("write corpus xml");

    // Reference build, saved twice.
    let reference = build_cold(&xml);
    reference.save_snapshot(&v3_path).expect("save v3 snapshot");
    reference
        .save_snapshot(&v3_path2)
        .expect("save v3 snapshot");
    let bytes_a = std::fs::read(&v3_path).expect("read snapshot");
    let bytes_b = std::fs::read(&v3_path2).expect("read snapshot");
    let deterministic = bytes_a == bytes_b;

    // Correctness gate before timing: built and mapped engines answer
    // a probe meet byte-identically.
    let mapped_db = Database::open_snapshot(&v3_path).expect("map v3 snapshot");
    let [t1, t2] = probe_terms(label);
    let expected = reference.meet_terms(&[t1, t2]).unwrap().to_detailed_xml();
    let agree = expected == mapped_db.meet_terms(&[t1, t2]).unwrap().to_detailed_xml();

    // Interleaved cold starts; engines stay alive until the end of the
    // round so allocator reuse doesn't lopsidedly favour one side.
    let mut parse_samples = Vec::with_capacity(rounds);
    let mut map_samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut built = None;
        parse_samples.push(time_us(|| {
            let text = std::fs::read_to_string(&xml_path).expect("read corpus xml");
            built = Some(build_cold(&text));
        }));
        let mut v3 = None;
        map_samples.push(time_us(|| {
            v3 = Some(Database::open_snapshot(&v3_path).expect("map v3 snapshot"));
        }));
        drop(built);
        drop(v3);
    }
    let parse_build_us = floor(parse_samples);
    let map_open_us = floor(map_samples);

    for p in [&xml_path, &v3_path, &v3_path2] {
        std::fs::remove_file(p).ok();
    }
    Pr10Row {
        corpus: label.to_string(),
        nodes: reference.store().node_count(),
        snapshot_bytes: bytes_a.len(),
        mapped: !ncq_store::mmap_disabled(),
        parse_build_us,
        map_open_us,
        speedup_vs_build: parse_build_us / map_open_us,
        agree,
        deterministic,
    }
}

fn dblp_xml(papers_per_edition: usize, journal_articles_per_year: usize) -> String {
    let corpus = DblpCorpus::generate(&DblpConfig {
        papers_per_edition,
        journal_articles_per_year,
        ..DblpConfig::default()
    });
    write_document(&corpus.document, WriteOptions::default())
}

fn multimedia_xml(noise_items: usize) -> String {
    let corpus = MultimediaCorpus::generate(&MultimediaConfig {
        noise_items,
        ..MultimediaConfig::default()
    });
    write_document(&corpus.document, WriteOptions::default())
}

/// Run the snapshot. `quick` shrinks corpora and repetitions for CI.
pub fn run(quick: bool) -> Pr10Result {
    let dir = std::env::temp_dir().join("ncq-bench-pr10");
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    let rounds = if quick { 3 } else { 7 };
    let mut rows = Vec::new();

    // DBLP substitute (flat, string-heavy: symbols and postings
    // dominate, so this is the *worst* case for the mapped open — most
    // of the file is verified-at-decode sections).
    rows.push(row("dblp (small)", dblp_xml(8, 3), &dir, rounds));
    if !quick {
        rows.push(row("dblp (case-study)", dblp_xml(75, 12), &dir, rounds));
    }

    // Multimedia substitute (Figure 6's corpus shape).
    rows.push(row("multimedia (small)", multimedia_xml(100), &dir, rounds));
    if !quick {
        rows.push(row(
            "multimedia (large)",
            multimedia_xml(2_000),
            &dir,
            rounds,
        ));
    }

    // Deep fork forest (structure-heavy: the big columns and the meet
    // index are lazily-verified mapped arrays, so the v3 open touches
    // almost none of the file — the acceptance row).
    let (small_pairs, large_pairs) = (300, 3_000);
    rows.push(row(
        &format!("deep forks (depth 96, {small_pairs} pairs)"),
        deep_xml(96, small_pairs),
        &dir,
        rounds,
    ));
    if !quick {
        rows.push(row(
            &format!("deep forks (depth 96, {large_pairs} pairs)"),
            deep_xml(96, large_pairs),
            &dir,
            rounds,
        ));
    }

    Pr10Result { rows }
}

/// Text table for stdout.
pub fn table(r: &Pr10Result) -> String {
    let mut out = format!(
        "# PR 10 — zero-copy mmap snapshots (cold start: map vs parse+build)\n\
         ## gate: speedup_vs_build >= {BUILD_SPEEDUP_GATE}x on the full-scale deep forks row\n",
    );
    for row in &r.rows {
        out.push_str(&format!(
            "{}: nodes={} snap={}B mapped={} parse_build={:.0}us map_open={:.0}us \
             (vs_build {:.1}x) agree={} deterministic={}\n",
            row.corpus,
            row.nodes,
            row.snapshot_bytes,
            row.mapped,
            row.parse_build_us,
            row.map_open_us,
            row.speedup_vs_build,
            row.agree,
            row.deterministic
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_snapshot_has_sane_shape() {
        let r = run(true);
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            assert!(row.agree, "{}: loaded answers diverged", row.corpus);
            assert!(
                row.deterministic,
                "{}: v3 bytes nondeterministic",
                row.corpus
            );
            assert!(row.parse_build_us > 0.0 && row.map_open_us > 0.0);
            assert!(row.nodes > 0 && row.snapshot_bytes > 0);
        }
        let text = table(&r);
        assert!(text.contains("deep forks"));
        assert!(text.contains("dblp"));
    }
}
