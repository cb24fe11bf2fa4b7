//! Workloads: the corpora each one serves and the request stream it
//! sends, both pure functions of `(workload, seed)`.

use crate::corpus::{self, Corpus, DEEP_RARE, DEEP_TOPICS, MEDIA_PROBES_PER_DISTANCE};
use crate::rng::{derive, fnv64, fnv64_extend, Rng, Zipf};
use ncq_datagen::pools::{LAST_NAMES, TITLE_WORDS};
use ncq_datagen::MultimediaCorpus;
use std::collections::HashSet;

/// Distinct non-Fig. 7 queries of `flat-mix`: four times the server's
/// 1024-entry semantic cache, drawn with Zipf(1) popularity.
pub const FLAT_POPULATION: usize = 4_096;
/// Requests in a `flat-mix` stream.
pub const FLAT_STREAM: usize = 400_000;
/// Distinct requests in a `deep-fanout` stream, and distinct probes the
/// `ingest` workload sends after its cold opens. A stream is never
/// cycled: a run that exhausts it ends its measured window there, so
/// no request repeats however fast the server gets. This many covers
/// the full run even if the server answered at the in-process replay's
/// speed on both cores (~650 requests/s on `deep-fanout` at the
/// commit that added it).
pub const DISTINCT_STREAM: usize = 24_000;

/// One request as the benchmark sends it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Req {
    /// `MEET terms [LIMIT k]` on the default corpus.
    Meet {
        terms: Vec<String>,
        limit: Option<usize>,
    },
    /// `SQL …` (the text may route with `from corpus(name)`).
    Sql(String),
    /// `SEARCH term` on the default corpus.
    Search(String),
    /// `USE *`, `MEET terms`, `USE <default>`: a catalog fan-out.
    FanOut(Vec<String>),
}

impl Req {
    /// The request's lines on the wire.
    pub fn wire(&self, default_corpus: &str) -> String {
        match self {
            Req::Meet { terms, limit } => match limit {
                Some(k) => format!("MEET {} LIMIT {k}\n", terms.join(" ")),
                None => format!("MEET {}\n", terms.join(" ")),
            },
            Req::Sql(src) => format!("SQL {src}\n"),
            Req::Search(term) => format!("SEARCH {term}\n"),
            Req::FanOut(terms) => {
                format!("USE *\nMEET {}\nUSE {default_corpus}\n", terms.join(" "))
            }
        }
    }

    /// Response frames the wire form produces.
    pub fn frames(&self) -> usize {
        match self {
            Req::FanOut(_) => 3,
            _ => 1,
        }
    }

    /// The request as the server's semantic cache sees it: the terms of
    /// a MEET as a sorted set. Two requests with the same key are the
    /// same request to the server, so the streams keep keys distinct.
    pub fn key(&self) -> Req {
        let set = |terms: &[String]| {
            let mut terms = terms.to_vec();
            terms.sort();
            terms.dedup();
            terms
        };
        match self {
            Req::Meet { terms, limit } => Req::Meet {
                terms: set(terms),
                limit: *limit,
            },
            Req::FanOut(terms) => Req::FanOut(set(terms)),
            other => other.clone(),
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Req::Meet { limit: None, .. } => "meet",
            Req::Meet { .. } => "meet-limit",
            Req::Sql(_) => "sql",
            Req::Search(_) => "search",
            Req::FanOut(_) => "fanout",
        }
    }
}

/// A workload: its forest (the first corpus is the default) and its
/// request stream as indexes into the distinct requests.
pub struct Workload {
    pub name: &'static str,
    pub corpora: Vec<Corpus>,
    pub requests: Vec<Req>,
    pub order: Vec<u32>,
}

impl Workload {
    pub fn default_corpus(&self) -> &'static str {
        self.corpora[0].name
    }

    /// Share of the first `sent` stream positions whose request was
    /// already sent before.
    pub fn repeat_share(&self, sent: usize) -> f64 {
        let sent = &self.order[..sent.min(self.order.len())];
        let mut seen = HashSet::new();
        let repeats = sent.iter().filter(|&&i| !seen.insert(i)).count();
        repeats as f64 / sent.len().max(1) as f64
    }
}

pub const WORKLOADS: [&str; 3] = ["flat-mix", "deep-fanout", "ingest"];

/// Build a workload's corpora and request stream from its seed.
pub fn workload(name: &str, seed: u64) -> Result<Workload, String> {
    let name = *WORKLOADS
        .iter()
        .find(|w| **w == name)
        .ok_or_else(|| format!("unknown workload {name:?} (expected one of {WORKLOADS:?})"))?;
    let corpora = if name == "flat-mix" {
        vec![corpus::dblp(seed)]
    } else {
        vec![
            corpus::deep(seed),
            corpus::multimedia(seed),
            corpus::dblp(seed),
        ]
    };
    let (requests, order) = stream(name, seed);
    Ok(Workload {
        name,
        corpora,
        requests,
        order,
    })
}

/// A workload's distinct requests and their order, without the corpora
/// (cheap; the seed self-test compares these).
pub fn stream(name: &str, seed: u64) -> (Vec<Req>, Vec<u32>) {
    match name {
        "flat-mix" => flat_mix_stream(seed),
        "deep-fanout" => deep_fanout_stream(seed),
        _ => ingest_probes(seed),
    }
}

pub fn stream_digest(requests: &[Req], order: &[u32], default_corpus: &str) -> u64 {
    order.iter().fold(fnv64(&[]), |h, &i| {
        fnv64_extend(h, requests[i as usize].wire(default_corpus).as_bytes())
    })
}

/// ICDE editions of the DBLP generator (no ICDE in 1985).
fn icde_years() -> impl Iterator<Item = u16> {
    (1984..=1999).filter(|&y| y != 1985)
}

/// The paper's Fig. 7 query for one conference edition: the series
/// name × the year, root excluded.
fn fig7(conference: &str, year: u16) -> Req {
    Req::Sql(format!(
        "select meet(a, b) excluding dblp from dblp/% as a, dblp/% as b \
         where a contains '{conference}' and b contains '{year}'"
    ))
}

fn dblp_term(rng: &mut Rng, kind: usize) -> String {
    match kind {
        0 => (*rng.pick(LAST_NAMES)).to_owned(),
        1 => (*rng.pick(TITLE_WORDS)).to_owned(),
        _ => (1984 + rng.below(16)).to_string(),
    }
}

/// The kinds of DBLP pair: author × year, title-word × year, author ×
/// title-word, title-word × title-word.
const DBLP_PAIRS: [[usize; 2]; 4] = [[0, 2], [1, 2], [0, 1], [1, 1]];

/// Author, title-word and year pairs and triples.
fn dblp_terms(rng: &mut Rng) -> Vec<String> {
    if rng.unit() < 0.7 {
        let [a, b] = *rng.pick(&DBLP_PAIRS);
        vec![dblp_term(rng, a), dblp_term(rng, b)]
    } else {
        vec![dblp_term(rng, 0), dblp_term(rng, 1), dblp_term(rng, 2)]
    }
}

fn flat_mix_stream(seed: u64) -> (Vec<Req>, Vec<u32>) {
    let mut rng = Rng::new(derive(seed, "flat-mix"));
    let mut requests: Vec<Req> = icde_years().map(|y| fig7("ICDE", y)).collect();
    let fig7_count = requests.len();
    let mut seen: HashSet<Req> = requests.iter().map(Req::key).collect();
    while requests.len() < fig7_count + FLAT_POPULATION {
        let r = rng.unit();
        let req = if r < 0.10 {
            let kind = rng.below(3);
            Req::Search(dblp_term(&mut rng, kind))
        } else if r < 0.25 {
            let t = dblp_terms(&mut rng);
            Req::Sql(format!(
                "select meet(a, b) from dblp/% as a, dblp/% as b \
                 where a contains '{}' and b contains '{}'",
                t[0], t[1]
            ))
        } else {
            let limit = (rng.unit() < 0.2).then_some(10);
            Req::Meet {
                terms: dblp_terms(&mut rng),
                limit,
            }
        };
        if seen.insert(req.key()) {
            requests.push(req);
        }
    }
    // Popularity rank k is the k-th generated query, which is random.
    let zipf = Zipf::new(FLAT_POPULATION, 1.0);
    // Every twentieth request is a Fig. 7 query, the years in turn.
    let order = (0..FLAT_STREAM)
        .map(|pos| {
            if pos % 20 == 19 {
                (pos / 20 % fig7_count) as u32
            } else {
                (fig7_count + zipf.sample(&mut rng)) as u32
            }
        })
        .collect();
    (requests, order)
}

/// `n` deep-corpus terms, the first `topics` of them topic words (long
/// posting lists), the rest rare words (short ones).
fn deep_terms(rng: &mut Rng, n: usize, topics: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            if i < topics {
                corpus::topic_word(rng.below(DEEP_TOPICS))
            } else {
                corpus::rare_word(rng.below(DEEP_RARE))
            }
        })
        .collect()
}

/// A Fig. 6 probe through SQL `contains`: the marker pair at distance
/// `d`, each marker cut to a sub-word so the full-text layer answers it
/// with a substring scan. A marker is `probeq<dd>x<k><a|b>`; dropping
/// up to six leading letters keeps `<dd>x<k><a|b>`, which no other
/// word of the corpus contains, so the needle still finds exactly its
/// marker.
fn fig6(rng: &mut Rng) -> Req {
    let d = rng.below(21);
    let k = rng.below(MEDIA_PROBES_PER_DISTANCE);
    let (a, b) = MultimediaCorpus::marker_terms(d, k);
    let cut_a = 1 + rng.below(6);
    let cut_b = 1 + rng.below(6);
    Req::Sql(format!(
        "select meet(a, b) from corpus(multimedia), media/% as a, media/% as b \
         where a contains '{}' and b contains '{}'",
        &a[cut_a..],
        &b[cut_b..]
    ))
}

/// Fan-out terms: two rare deep words, or a DBLP pair of author,
/// title-word and year terms.
fn fanout_terms(rng: &mut Rng, dblp: bool) -> Vec<String> {
    if dblp {
        let [a, b] = *rng.pick(&DBLP_PAIRS);
        vec![dblp_term(rng, a), dblp_term(rng, b)]
    } else {
        vec![
            corpus::rare_word(rng.below(DEEP_RARE)),
            corpus::rare_word(rng.below(DEEP_RARE)),
        ]
    }
}

/// The kinds of request a stratified stream is built from.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A deep-corpus pair or triple.
    Deep,
    /// A Fig. 6 scan on the multimedia corpus.
    Fig6,
    /// A `USE *` fan-out.
    FanOut,
    /// A DBLP pair through SQL routed to the DBLP corpus (three in
    /// five), else a search for a rare deep word.
    Dblp,
}

/// `count` distinct requests whose kinds repeat `pattern`; deep meets
/// cycle through fixed shares of pairs and triples and of zero, one and
/// two topic words. The mix of cheap and heavy requests in any stretch
/// of the stream is then the same for every seed; only the terms vary.
fn stratified(rng: &mut Rng, pattern: &[Slot], count: usize) -> Vec<Req> {
    const TOPICS: [usize; 10] = [2, 2, 2, 0, 0, 1, 1, 1, 1, 1];
    let (mut deep, mut fanouts, mut dblp) = (0, 0, 0);
    let mut seen = HashSet::new();
    let mut requests = Vec::with_capacity(count);
    for j in 0..count {
        let slot = pattern[j % pattern.len()];
        loop {
            let req = match slot {
                Slot::Deep => Req::Meet {
                    terms: deep_terms(rng, 2 + usize::from(deep % 5 >= 3), TOPICS[deep % 10]),
                    limit: None,
                },
                Slot::Fig6 => fig6(rng),
                Slot::FanOut => Req::FanOut(fanout_terms(rng, fanouts % 2 == 0)),
                Slot::Dblp if dblp % 5 < 3 => {
                    let [a, b] = *rng.pick(&DBLP_PAIRS);
                    Req::Sql(format!(
                        "select meet(a, b) from corpus(dblp), dblp/% as a, dblp/% as b \
                         where a contains '{}' and b contains '{}'",
                        dblp_term(rng, a),
                        dblp_term(rng, b)
                    ))
                }
                Slot::Dblp => Req::Search(corpus::rare_word(rng.below(DEEP_RARE))),
            };
            if seen.insert(req.key()) {
                requests.push(req);
                break;
            }
        }
        match slot {
            Slot::Deep => deep += 1,
            Slot::FanOut => fanouts += 1,
            Slot::Dblp => dblp += 1,
            Slot::Fig6 => {}
        }
    }
    requests
}

/// Every request distinct; per twenty, 12 deep meets, 5 Fig. 6 scans
/// and 3 fan-outs.
fn deep_fanout_stream(seed: u64) -> (Vec<Req>, Vec<u32>) {
    use Slot::{Deep as D, FanOut as F, Fig6 as S};
    const PATTERN: [Slot; 20] = [D, S, D, D, F, D, S, D, D, S, D, F, D, S, D, D, S, D, F, D];
    let mut rng = Rng::new(derive(seed, "deep-fanout"));
    let requests = stratified(&mut rng, &PATTERN, DISTINCT_STREAM);
    let order = (0..requests.len() as u32).collect();
    (requests, order)
}

/// The probes answered after the cold opens, all distinct: per eight,
/// four deep meets, two Fig. 6 scans, a fan-out, and a DBLP pair
/// through SQL or a deep full-text search. No Fig. 7 queries (those
/// are `flat-mix`'s): their few large answers would set the tail on
/// their own.
fn ingest_probes(seed: u64) -> (Vec<Req>, Vec<u32>) {
    use Slot::{Dblp as B, Deep as D, FanOut as F, Fig6 as S};
    let mut rng = Rng::new(derive(seed, "ingest"));
    let requests = stratified(&mut rng, &[D, S, D, F, D, S, D, B], DISTINCT_STREAM);
    let order = (0..requests.len() as u32).collect();
    (requests, order)
}

// ----- the oracle -----

/// One response frame, exactly as the line protocol writes it.
pub fn frame(payload: &str) -> String {
    if payload.is_empty() {
        "OK 0\n".to_owned()
    } else {
        format!("OK {}\n{payload}\n", payload.lines().count())
    }
}
