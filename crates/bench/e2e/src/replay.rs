//! The traced run's in-process replay, and the answer oracle. Each
//! request of a workload's stream goes through the public call into
//! every layer it touches, with a span around each call. The replay's
//! engines are opened from the same snapshots the server serves, and
//! its answer bytes are checked against the oracle exactly like the
//! wire responses. The oracle answers through the same calls, untraced,
//! but over engines built straight from the XML, unsharded — never the
//! snapshots or the server under test.
//!
//! A request's critical path (search → meet → serialize, or parse →
//! eval → serialize) runs under one `request` span. Measurements that
//! production does not make on that path — the planner decision, the
//! unsharded meet the sharded one is compared with, the substring scan
//! behind a `contains` needle — run afterwards as their own root spans.

use crate::corpus::Corpus;
use crate::requests::{frame, Req};
use crate::rng::fnv64;
use crate::trace::Tracer;
use ncq_core::catalog::try_corpus_tagged_meet;
use ncq_core::{
    AnswerSet, Catalog, ChosenStrategy, Database, ForestBackend, MeetBackend, MeetOptions,
    MeetPlanner,
};
use ncq_fulltext::HitSet;
use ncq_query::{parse_query, QueryConfig, QueryOptions, QueryOutput};
use ncq_shard::ShardedDb;
use ncq_store::manifest::Manifest;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// One corpus engine, in the shape the forest serves it.
pub enum Direct {
    Single(Arc<Database>),
    Sharded(ShardedDb),
}

impl Direct {
    fn backend(&self) -> &dyn MeetBackend {
        match self {
            Direct::Single(db) => &**db,
            Direct::Sharded(s) => s,
        }
    }

    fn database(&self) -> &Database {
        match self {
            Direct::Single(db) => db,
            Direct::Sharded(s) => s.database(),
        }
    }
}

pub struct Engines {
    pub forest: ForestBackend,
    pub corpora: Vec<(String, Direct)>,
}

impl Engines {
    /// Open the forest through `ncq_shard::open_forest` and every corpus
    /// on its own through `Database::open_snapshot` /
    /// `ShardedDb::open_snapshot`.
    pub fn open(manifest_path: &Path, t: &mut Tracer) -> Result<Engines, String> {
        let forest = t
            .span("store.manifest_open", |_| {
                ncq_shard::open_forest(manifest_path)
            })
            .map_err(|e| format!("open forest: {e}"))?;
        let manifest = Manifest::load(manifest_path).map_err(|e| e.to_string())?;
        let mut corpora = Vec::new();
        for entry in &manifest.corpora {
            let path = Manifest::resolve(manifest_path, entry);
            let direct = t
                .span("store.snapshot_open", |_| {
                    if entry.shards > 1 {
                        ShardedDb::open_snapshot(&path, entry.shards).map(Direct::Sharded)
                    } else {
                        Database::open_snapshot(&path).map(|db| Direct::Single(Arc::new(db)))
                    }
                })
                .map_err(|e| format!("open {}: {e}", entry.name))?;
            corpora.push((entry.name.clone(), direct));
        }
        Ok(Engines { forest, corpora })
    }

    /// Build every corpus straight from its XML, unsharded, and a
    /// forest over the same engines.
    fn from_xml(corpora: &[Corpus]) -> Result<Engines, String> {
        let mut catalog = Catalog::new();
        let mut engines = Vec::new();
        for c in corpora {
            let db = Arc::new(
                Database::from_xml_str(&c.xml).map_err(|e| format!("oracle {}: {e}", c.name))?,
            );
            catalog
                .add(c.name, db.clone() as Arc<dyn MeetBackend>)
                .map_err(|e| e.to_string())?;
            engines.push((c.name.to_owned(), Direct::Single(db)));
        }
        let forest = ForestBackend::new(catalog).map_err(|e| e.to_string())?;
        Ok(Engines {
            forest,
            corpora: engines,
        })
    }

    fn corpus(&self, name: Option<&str>) -> &Direct {
        let name = name.unwrap_or(&self.corpora[0].0);
        &self
            .corpora
            .iter()
            .find(|(n, _)| n == name)
            .expect("query names a corpus of the forest")
            .1
    }
}

/// Counts the replay takes where the work happens.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub requests: usize,
    pub searches: usize,
    pub search_hits: usize,
    pub meet_inputs: usize,
    pub meet_answers: usize,
    pub plans: usize,
    pub sweeps: usize,
    pub mismatches: usize,
    pub simd_scalar: u64,
    pub simd_vector: u64,
}

/// What the critical path leaves for the measurements that follow it.
enum Aux {
    None,
    Meet {
        inputs: Vec<HitSet>,
        limit: Option<usize>,
    },
    Needles {
        corpus: Option<String>,
        needles: Vec<String>,
    },
}

fn meet_options(limit: Option<usize>) -> MeetOptions {
    MeetOptions {
        limit,
        ..MeetOptions::default()
    }
}

fn search_all(
    t: &mut Tracer,
    engine: &dyn MeetBackend,
    terms: &[String],
    c: &mut Counts,
) -> Vec<HitSet> {
    terms
        .iter()
        .map(|term| {
            let hits = t.span("fulltext.search", |_| engine.search(term));
            c.searches += 1;
            c.search_hits += hits.len();
            hits
        })
        .collect()
}

/// The critical path of one request: its answer bytes.
fn answer(e: &Engines, req: &Req, t: &mut Tracer, c: &mut Counts) -> Result<(String, Aux), String> {
    Ok(match req {
        Req::Meet { terms, limit } => {
            let direct = e.corpus(None);
            let inputs = search_all(t, direct.backend(), terms, c);
            let options = meet_options(*limit);
            let meets = match direct {
                Direct::Single(db) => t.span("core.meet", |_| db.meet_hits(&inputs, &options)),
                Direct::Sharded(s) => t.span("shard.meet", |_| s.meet_hits(&inputs, &options)),
            };
            c.meet_inputs += inputs.iter().map(HitSet::len).sum::<usize>();
            c.meet_answers += meets.len();
            let store = direct.backend().store();
            let xml = t.span("core.serialize", |_| {
                AnswerSet::from_meets(store, meets).to_detailed_xml()
            });
            (
                frame(&xml),
                Aux::Meet {
                    inputs,
                    limit: *limit,
                },
            )
        }
        Req::Sql(src) => {
            let query = t
                .span("query.parse", |_| parse_query(src))
                .map_err(|e| e.to_string())?;
            let options = QueryOptions {
                config: QueryConfig {
                    max_rows: ncq_server::ServerConfig::default().max_rows,
                },
                ..QueryOptions::default()
            };
            let out = t
                .span("query.eval", |_| {
                    ncq_query::eval::evaluate(&e.forest, &query, &options)
                })
                .map_err(|e| e.to_string())?;
            let xml = t.span("core.serialize", |_| match out {
                QueryOutput::Answers(a) => a.to_detailed_xml(),
                QueryOutput::Rows(r) => r.to_answer_xml(),
            });
            let needles = query.conditions.iter().map(|c| c.needle.clone()).collect();
            (
                frame(&xml),
                Aux::Needles {
                    corpus: query.corpus.clone(),
                    needles,
                },
            )
        }
        Req::Search(term) => {
            let engine = e.corpus(None).backend();
            let hits = search_all(t, engine, std::slice::from_ref(term), c);
            (frame(&hits[0].len().to_string()), Aux::None)
        }
        Req::FanOut(terms) => {
            let all = t.span("catalog.fanout", |t| -> Result<AnswerSet, String> {
                let mut all = AnswerSet::default();
                for name in e.forest.corpus_names() {
                    let target = e.forest.corpus(&name).expect("catalog corpus");
                    let inputs = search_all(t, &*target, terms, c);
                    let refs: Vec<&HitSet> = inputs.iter().collect();
                    let tagged =
                        try_corpus_tagged_meet(&name, &*target, &refs, &meet_options(None))
                            .map_err(|e| e.to_string())?;
                    all.results.extend(tagged.results);
                }
                Ok(all)
            })?;
            let xml = t.span("core.serialize", |_| all.to_detailed_xml());
            let default = &e.corpora[0].0;
            let bytes = format!(
                "{}{}{}",
                frame("using corpus *"),
                frame(&xml),
                frame(&format!("using corpus {default}"))
            );
            (bytes, Aux::None)
        }
    })
}

/// The off-path measurements of one request.
fn measure_aux(e: &Engines, aux: Aux, t: &mut Tracer, c: &mut Counts) {
    match aux {
        Aux::None => {}
        Aux::Meet { inputs, limit } => {
            let direct = e.corpus(None);
            let plan = t.span("core.plan", |_| {
                MeetPlanner::new(direct.backend().store()).plan_multi(&inputs)
            });
            c.plans += 1;
            if plan.strategy == ChosenStrategy::Sweep {
                c.sweeps += 1;
            }
            if let Direct::Sharded(s) = direct {
                let options = meet_options(limit);
                t.span("core.meet_unsharded", |_| {
                    s.database().meet_hits(&inputs, &options)
                });
            }
        }
        Aux::Needles { corpus, needles } => {
            let db = e.corpus(corpus.as_deref()).database();
            for needle in needles {
                // The full-text layer scans only for a needle that is
                // not a whole indexed word.
                if db.search_word(&needle).is_empty() {
                    t.span("fulltext.scan", |_| db.search_contains(&needle));
                }
            }
        }
    }
}

/// The result of replaying a request list once.
pub struct Replay {
    /// Per request: critical-path wall time, µs.
    pub request_us: Vec<f64>,
    pub wall_ns: u64,
    pub counts: Counts,
}

/// Replay `requests` (indexes into `all`) in order, checking each
/// answer's digest against `expected`.
pub fn run(
    e: &Engines,
    all: &[Req],
    requests: &[usize],
    expected: &HashMap<usize, u64>,
    t: &mut Tracer,
) -> Result<Replay, String> {
    let mut counts = Counts::default();
    let mut request_us = Vec::with_capacity(requests.len());
    let simd_before = ncq_simd::dispatch_stats();
    let started = std::time::Instant::now();
    for (n, &idx) in requests.iter().enumerate() {
        t.set_request(n as u64);
        let began = std::time::Instant::now();
        let (bytes, aux) = t.span("request", |t| answer(e, &all[idx], t, &mut counts))?;
        request_us.push(began.elapsed().as_nanos() as f64 / 1e3);
        if expected.get(&idx) != Some(&fnv64(bytes.as_bytes())) {
            counts.mismatches += 1;
        }
        measure_aux(e, aux, t, &mut counts);
        counts.requests += 1;
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    let simd_after = ncq_simd::dispatch_stats();
    counts.simd_scalar = simd_after.total_scalar() - simd_before.total_scalar();
    counts.simd_vector = simd_after.total_vector() - simd_before.total_vector();
    Ok(Replay {
        request_us,
        wall_ns,
        counts,
    })
}

/// Expected answers, from engines built straight from the XML.
pub struct Oracle(Engines);

impl Oracle {
    pub fn build(corpora: &[Corpus]) -> Result<Oracle, String> {
        Engines::from_xml(corpora).map(Oracle)
    }

    /// The exact bytes the server must answer `req` with.
    pub fn expected(&self, req: &Req) -> Result<String, String> {
        let (bytes, _) = answer(&self.0, req, &mut Tracer::new(false), &mut Counts::default())?;
        Ok(bytes)
    }

    /// Digests of the expected bytes of the distinct requests among
    /// `idxs` (indexes into `requests`), computed on `threads` threads.
    pub fn digests(
        &self,
        requests: &[Req],
        idxs: impl IntoIterator<Item = usize>,
        threads: usize,
    ) -> Result<HashMap<usize, u64>, String> {
        let mut distinct: Vec<usize> = idxs.into_iter().collect();
        distinct.sort_unstable();
        distinct.dedup();
        let chunk = distinct.len().div_ceil(threads.max(1)).max(1);
        std::thread::scope(|s| {
            let handles: Vec<_> = distinct
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|&i| {
                                let bytes = self.expected(&requests[i])?;
                                Ok((i, fnv64(bytes.as_bytes())))
                            })
                            .collect::<Result<Vec<(usize, u64)>, String>>()
                    })
                })
                .collect();
            let mut out = HashMap::with_capacity(distinct.len());
            for h in handles {
                out.extend(h.join().expect("oracle thread panicked")?);
            }
            Ok(out)
        })
    }
}
