//! The benchmark's corpora, generated from the run seed, and the ingest
//! chain that turns their XML files into a servable forest through the
//! program's public calls: read → `ncq_xml::parse` →
//! `Database::from_document` (`ShardedDb::from_document` for a sharded
//! corpus) → `save_snapshot` (v3) → `ManifestEntry::describe` → forest
//! manifest. The traced run also runs the chain split into the calls
//! those make, so each stage can be timed on its own, and checks that
//! the split chain writes the same bytes.

use crate::rng::{derive, Rng};
use crate::trace::Tracer;
use ncq_core::Database;
use ncq_datagen::{DblpConfig, DblpCorpus, MultimediaConfig, MultimediaCorpus};
use ncq_fulltext::InvertedIndex;
use ncq_shard::{PartitionMap, ShardedDb};
use ncq_store::manifest::{Manifest, ManifestEntry};
use ncq_store::{MonetDb, SnapshotWriterV3};
use ncq_xml::{write_document, WriteOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Publication records of the DBLP corpus (~74k nodes).
pub const DBLP_RECORDS: usize = 5_000;
/// Background items of the multimedia corpus.
pub const MEDIA_NOISE_ITEMS: usize = 1_500;
/// Fig. 6 probe pairs planted per distance 0..=20 (with the needle
/// cuts, enough distinct Fig. 6 requests for the distinct streams).
pub const MEDIA_PROBES_PER_DISTANCE: usize = 16;
/// The deep fork corpus: `DEEP_FORKS` chains of `DEEP_DEPTH` elements,
/// each ending in `DEEP_LEAVES` text leaves (~600k nodes).
pub const DEEP_DEPTH: usize = 96;
pub const DEEP_FORKS: usize = 1_200;
pub const DEEP_LEAVES: usize = 200;
/// Every deep leaf holds one topic word and one rare word. A fork draws
/// its leaves' topics from two themes, so a topic has long posting
/// lists (~1.9k leaves) clustered in a few forks (~19), and meets on it
/// answer with tens of concepts, not one per fork. The rare vocabulary
/// is twice the server's 4096-entry term cache, so decodes keep
/// missing it.
pub const DEEP_TOPICS: usize = 128;
pub const DEEP_RARE: usize = 8_192;
/// Shards of the deep corpus.
pub const DEEP_SHARDS: usize = 2;

pub fn topic_word(i: usize) -> String {
    format!("tp{i}")
}

pub fn rare_word(i: usize) -> String {
    format!("lx{i}")
}

/// One corpus of a forest, as XML text.
pub struct Corpus {
    pub name: &'static str,
    pub shards: usize,
    pub xml: String,
}

pub fn dblp(seed: u64) -> Corpus {
    let config = DblpConfig {
        seed: derive(seed, "dblp"),
        ..DblpConfig::scaled(DBLP_RECORDS)
    };
    Corpus {
        name: "dblp",
        shards: 1,
        xml: write_document(
            &DblpCorpus::generate(&config).document,
            WriteOptions::default(),
        ),
    }
}

pub fn multimedia(seed: u64) -> Corpus {
    let config = MultimediaConfig {
        seed: derive(seed, "multimedia"),
        max_distance: 20,
        probes_per_distance: MEDIA_PROBES_PER_DISTANCE,
        noise_items: MEDIA_NOISE_ITEMS,
    };
    Corpus {
        name: "multimedia",
        shards: 1,
        xml: write_document(
            &MultimediaCorpus::generate(&config).document,
            WriteOptions::default(),
        ),
    }
}

pub fn deep(seed: u64) -> Corpus {
    let mut rng = Rng::new(derive(seed, "deep"));
    let mut xml = String::with_capacity(DEEP_FORKS * (DEEP_DEPTH * 7 + DEEP_LEAVES * 24));
    xml.push_str("<root>");
    for _ in 0..DEEP_FORKS {
        for _ in 0..DEEP_DEPTH {
            xml.push_str("<x>");
        }
        let themes = [rng.below(DEEP_TOPICS), rng.below(DEEP_TOPICS)];
        for _ in 0..DEEP_LEAVES {
            let topic = topic_word(*rng.pick(&themes));
            let rare = rare_word(rng.below(DEEP_RARE));
            xml.push_str(&format!("<p>{topic} {rare}</p>"));
        }
        for _ in 0..DEEP_DEPTH {
            xml.push_str("</x>");
        }
    }
    xml.push_str("</root>");
    Corpus {
        name: "deep",
        shards: DEEP_SHARDS,
        xml,
    }
}

/// A corpus file on disk, as the ingest chain reads it.
#[derive(Debug, Clone)]
pub struct CorpusFile {
    pub name: String,
    pub shards: usize,
    pub path: PathBuf,
}

impl CorpusFile {
    /// `name:shards:path`, the form the ingest child takes.
    pub fn arg(&self) -> String {
        format!("{}:{}:{}", self.name, self.shards, self.path.display())
    }

    pub fn parse_arg(arg: &str) -> Result<CorpusFile, String> {
        let mut parts = arg.splitn(3, ':');
        match (parts.next(), parts.next(), parts.next()) {
            (Some(name), Some(shards), Some(path)) => Ok(CorpusFile {
                name: name.to_owned(),
                shards: shards
                    .parse()
                    .map_err(|_| format!("bad shard count in {arg:?}"))?,
                path: PathBuf::from(path),
            }),
            _ => Err(format!("expected name:shards:path, got {arg:?}")),
        }
    }
}

/// Write each corpus's XML into `dir`.
pub fn write_files(corpora: &[Corpus], dir: &Path) -> Result<Vec<CorpusFile>, String> {
    corpora
        .iter()
        .map(|c| {
            let path = dir.join(format!("{}.xml", c.name));
            std::fs::write(&path, &c.xml).map_err(|e| format!("write {}: {e}", path.display()))?;
            Ok(CorpusFile {
                name: c.name.to_owned(),
                shards: c.shards,
                path,
            })
        })
        .collect()
}

/// What one pass of the ingest chain produced.
#[derive(Debug, Clone)]
pub struct Ingested {
    pub manifest: PathBuf,
    pub xml_bytes: u64,
    pub snapshot_bytes: u64,
    /// XML files read → last snapshot and the manifest on disk.
    pub wall_ns: u64,
}

/// The forest an ingest pass writes: one snapshot per corpus file and
/// the manifest over them.
struct ForestWriter<'a> {
    out: &'a Path,
    manifest: Manifest,
    xml_bytes: u64,
    snapshot_bytes: u64,
}

impl ForestWriter<'_> {
    fn snapshot(&self, file: &CorpusFile) -> PathBuf {
        self.out.join(format!("{}.ncq", file.name))
    }

    /// Read a corpus file (its bytes count as ingested XML).
    fn read(&mut self, file: &CorpusFile) -> Result<String, String> {
        let xml = std::fs::read_to_string(&file.path)
            .map_err(|e| format!("read {}: {e}", file.path.display()))?;
        self.xml_bytes += xml.len() as u64;
        Ok(xml)
    }

    /// Describe the corpus's written snapshot in the manifest.
    fn add(&mut self, file: &CorpusFile, t: &mut Tracer) -> Result<(), String> {
        let snap = self.snapshot(file);
        let mut entry = t
            .span("store.manifest_describe", |_| {
                ManifestEntry::describe(file.name.as_str(), &snap, file.shards)
            })
            .map_err(|e| format!("describe {}: {e}", file.name))?;
        // Relative to the manifest, so the forest directory can move.
        entry.snapshot = format!("{}.ncq", file.name);
        self.manifest
            .push(entry)
            .map_err(|e| format!("manifest {}: {e}", file.name))?;
        self.snapshot_bytes += std::fs::metadata(&snap).map_err(|e| e.to_string())?.len();
        Ok(())
    }

    fn finish(self, started: Instant) -> Result<Ingested, String> {
        let path = self.out.join("forest.ncqm");
        self.manifest
            .save(&path)
            .map_err(|e| format!("save manifest: {e}"))?;
        Ok(Ingested {
            manifest: path,
            xml_bytes: self.xml_bytes,
            snapshot_bytes: self.snapshot_bytes,
            wall_ns: started.elapsed().as_nanos() as u64,
        })
    }
}

fn forest_writer(out: &Path) -> ForestWriter<'_> {
    ForestWriter {
        out,
        manifest: Manifest::new(),
        xml_bytes: 0,
        snapshot_bytes: 0,
    }
}

/// Run the ingest chain over `files` through the public calls, writing
/// snapshots and the forest manifest into `out` (the first file is the
/// default corpus).
pub fn ingest(files: &[CorpusFile], out: &Path) -> Result<Ingested, String> {
    let started = Instant::now();
    let mut forest = forest_writer(out);
    for file in files {
        let xml = forest.read(file)?;
        let doc = ncq_xml::parse(&xml).map_err(|e| format!("parse {}: {e}", file.name))?;
        let snap = forest.snapshot(file);
        if file.shards > 1 {
            ShardedDb::from_document(&doc, file.shards).save_snapshot(&snap)
        } else {
            Database::from_document(&doc).save_snapshot(&snap)
        }
        .map_err(|e| format!("snapshot {}: {e}", file.name))?;
        forest.add(file, &mut Tracer::new(false))?;
    }
    forest.finish(started)
}

/// The chain of [`ingest`] split into the calls `from_document` and
/// `save_snapshot` make, with a span around each stage: the traced
/// run's per-layer ingest times. It must write the same bytes as
/// [`ingest`] ([`differing_snapshots`] checks).
pub fn ingest_staged(files: &[CorpusFile], out: &Path, t: &mut Tracer) -> Result<Ingested, String> {
    let started = Instant::now();
    let mut forest = forest_writer(out);
    for (i, file) in files.iter().enumerate() {
        t.set_request(i as u64);
        t.span("ingest.corpus", |t| -> Result<(), String> {
            let xml = t.span("xml.read", |_| forest.read(file))?;
            let doc = t
                .span("xml.parse", |_| ncq_xml::parse(&xml))
                .map_err(|e| format!("parse {}: {e}", file.name))?;
            let store = t.span("store.transform", |_| MonetDb::from_document(&doc));
            let index = t.span("fulltext.index_build", |_| InvertedIndex::build(&store));
            t.span("store.meet_index", |_| {
                store.meet_index();
                store.depth_stats();
                store.partition_stats();
            });
            let snap = forest.snapshot(file);
            t.span("store.snapshot_write", |_| {
                let mut writer = SnapshotWriterV3::new();
                store.encode_snapshot_v3(&mut writer);
                index.encode_snapshot_v3(&mut writer);
                if file.shards > 1 {
                    PartitionMap::build(&store, file.shards).encode_snapshot_v3(&mut writer);
                }
                writer.write_to(&snap)
            })
            .map_err(|e| format!("snapshot {}: {e}", file.name))?;
            forest.add(file, t)
        })?;
    }
    forest.finish(started)
}

/// Flush the forest under `dir` to disk, so the cold opens that follow
/// start from snapshot bytes on disk and no write-back of the ingest
/// runs under a later measurement.
pub fn sync_forest(dir: &Path) -> Result<(), String> {
    let sync = |path: &Path| {
        std::fs::File::open(path)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("sync {}: {e}", path.display()))
    };
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        sync(&entry.map_err(|e| e.to_string())?.path())?;
    }
    sync(dir)
}

/// Names of the corpora whose snapshots under `a` and `b` differ.
pub fn differing_snapshots(files: &[CorpusFile], a: &Path, b: &Path) -> Vec<String> {
    files
        .iter()
        .filter(|f| {
            let name = format!("{}.ncq", f.name);
            match (std::fs::read(a.join(&name)), std::fs::read(b.join(&name))) {
                (Ok(x), Ok(y)) => x != y,
                _ => true,
            }
        })
        .map(|f| f.name.clone())
        .collect()
}

/// Peak resident set of this process, in KiB (Linux `VmHWM`).
pub fn rss_peak_kb(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}
