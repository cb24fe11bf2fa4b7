//! `ncq-e2e` — the standing end-to-end benchmark.
//!
//! ```text
//! ncq-e2e --workload <flat-mix|deep-fanout|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics: the
//! ingest chain (XML files → snapshots; timed in a child process on the
//! `ingest` workload), cold opens of the written forest by a serving
//! child process, and a closed loop over TCP against it (on `ingest`
//! straight after the cold open). With `--trace 1` the run measures the
//! per-layer metrics instead, from a staged ingest pass and an
//! in-process replay of the same stream with a span around each layer
//! call. Every answer is checked against the oracle. The last line of
//! standard output is the result object; the lines before it are the
//! full report (sample counts, tails, workload property shares,
//! provenance). See `README.md` for the rationale.
//!
//! Internal modes: `serve <manifest>` (the serving child) and
//! `ingest <dir> <min_passes> <min_ms> <name:shards:xml>…` (the ingest
//! child).

mod corpus;
mod replay;
mod requests;
mod rng;
mod stats;
mod trace;
mod wire;

use corpus::{CorpusFile, Ingested};
use replay::Oracle;
use requests::{Req, Workload};
use stats::{median, percentile, Timing};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;
use wire::{Conn, LoadPlan, LoadResult, ServerProc, Stream};

/// Server boots per run; `setup_s` is their median.
const BOOTS: usize = 21;
/// Timed ingest passes of the `ingest` workload (after a warm-up pass);
/// the report gives their median MB/s.
const INGEST_PASSES: usize = 3;
/// Timed public-chain ingest passes of a traced run; `ingest_mb_s` is
/// their median.
const TRACED_INGESTS: usize = 3;
/// Requests the traced run sends over the wire at most, and replays
/// in-process at least.
const REPLAY_MAX: usize = 600;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") if args.len() == 2 => wire::serve_main(Path::new(&args[1])),
        Some("ingest") if args.len() >= 5 => ingest_child(&args[1..]),
        _ => Args::parse(&args).and_then(|a| bench(&a)),
    };
    if let Err(e) = result {
        eprintln!("ncq-e2e: {e}");
        std::process::exit(1);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(flag.as_str(), value.as_str());
        }
        let get = |k: &str| {
            map.get(k).copied().ok_or_else(|| {
                format!("missing {k} (usage: --workload W --seed N --seconds S --trace 0|1)")
            })
        };
        let num = |k: &str| -> Result<u64, String> {
            get(k)?
                .parse()
                .map_err(|_| format!("{k} must be a whole number"))
        };
        let args = Args {
            workload: get("--workload")?.to_owned(),
            seed: num("--seed")?,
            seconds: num("--seconds")?.max(1),
            trace: match get("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
            },
        };
        Ok(args)
    }
}

// ----- the ingest child -----

/// `ingest <dir> <min_passes> <min_ms> <name:shards:xml>…`: one warm-up
/// pass (it pays the fresh process's page faults and is not reported),
/// then passes until both minimums are met, one `INGESTED` line each,
/// and the process's peak RSS last.
fn ingest_child(args: &[String]) -> Result<(), String> {
    let out = Path::new(&args[0]);
    let min_passes: usize = args[1].parse().map_err(|_| "bad pass count".to_owned())?;
    let min_ms: u64 = args[2].parse().map_err(|_| "bad duration".to_owned())?;
    let files: Vec<CorpusFile> = args[3..]
        .iter()
        .map(|a| CorpusFile::parse_arg(a))
        .collect::<Result<_, _>>()?;
    corpus::ingest(&files, out)?;
    let started = Instant::now();
    let mut passes = 0;
    while passes < min_passes || started.elapsed() < Duration::from_millis(min_ms) {
        let ing = corpus::ingest(&files, out)?;
        println!(
            "INGESTED {} {} {} {}",
            ing.wall_ns,
            ing.xml_bytes,
            ing.snapshot_bytes,
            ing.manifest.display()
        );
        passes += 1;
    }
    println!("RSS {}", corpus::rss_peak_kb(None).unwrap_or(0));
    Ok(())
}

/// Run the ingest chain in a child process (so its peak memory is its
/// own): the passes it reported and its peak RSS in KiB.
fn ingest_in_child(
    files: &[CorpusFile],
    out: &Path,
    min_passes: usize,
    min_time: Duration,
) -> Result<(Vec<Ingested>, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg("ingest")
        .arg(out)
        .arg(min_passes.to_string())
        .arg(min_time.as_millis().to_string())
        .args(files.iter().map(CorpusFile::arg))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("ingest child: {e}"))?;
    if !output.status.success() {
        return Err(format!("ingest child exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let bad = || format!("bad ingest child output {text:?}");
    let mut passes = Vec::new();
    let mut rss_kb = None;
    for line in text.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| {
            parts
                .get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(bad)
        };
        match parts.first() {
            Some(&"INGESTED") if parts.len() == 5 => passes.push(Ingested {
                wall_ns: num(1)?,
                xml_bytes: num(2)?,
                snapshot_bytes: num(3)?,
                manifest: PathBuf::from(parts[4]),
            }),
            Some(&"RSS") => rss_kb = Some(num(1)?),
            _ => return Err(bad()),
        }
    }
    match (passes.is_empty(), rss_kb) {
        (false, Some(kb)) => Ok((passes, kb)),
        _ => Err(bad()),
    }
}

// ----- the run -----

/// The run's scratch directory inside the checkout, removed on exit.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str, seed: u64) -> Result<WorkDir, String> {
        let root = std::env::current_dir().map_err(|e| e.to_string())?;
        let dir = root
            .join(".bench_work")
            .join(format!("{workload}-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn sub(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if no other run uses it
        }
    }
}

/// Everything a run reports.
struct Report {
    lines: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: usize,
    failed: usize,
    correct: bool,
}

impl Report {
    fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn fail(&mut self, why: String) {
        self.correct = false;
        self.lines.push(format!("FAILED {why}"));
    }

    fn count(&mut self, load: &LoadResult) {
        self.attempted += load.attempted;
        self.failed += load.failed;
        for f in &load.failures {
            self.lines.push(format!("FAILED {f}"));
        }
        if load.failed > 0 {
            self.correct = false;
        }
    }

    fn print(&self) {
        for l in &self.lines {
            println!("# {l}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The closed loop's width: one connection per core, at most two.
fn connections() -> usize {
    nproc().min(2)
}

fn bench(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let w = requests::workload(&args.workload, args.seed)?;
    let work = WorkDir::new(w.name, args.seed)?;
    let mut report = Report {
        lines: Vec::new(),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        correct: true,
    };
    provenance(&mut report, args);
    seed_self_test(&mut report, &w, args.seed);
    let files = corpus::write_files(&w.corpora, &work.0)?;
    let oracle = Oracle::build(&w.corpora)?;
    let probe = probe_index(&w);
    let probe_digest = oracle.digests(&w.requests, [probe], 1)?[&probe];
    let corpora: Vec<String> = w
        .corpora
        .iter()
        .map(|c| format!("{}:{:016x}", c.name, rng::fnv64(c.xml.as_bytes())))
        .collect();
    report.line(format!(
        "workload {} corpus_digests={} distinct_requests={} oracle_ready_s={:.2}",
        w.name,
        corpora.join(","),
        w.requests.len(),
        started.elapsed().as_secs_f64()
    ));
    let run = Run {
        args,
        work: &work,
        w: &w,
        files: &files,
        stream: Stream {
            requests: &w.requests,
            order: &w.order,
            default_corpus: w.default_corpus(),
        },
        oracle: &oracle,
        probe,
        probe_digest,
    };
    match args.trace {
        false => untraced_run(&run, &mut report)?,
        true => traced_run(&run, &mut report)?,
    }
    report.line(format!("run_s={:.2}", started.elapsed().as_secs_f64()));
    report.print();
    Ok(())
}

fn provenance(report: &mut Report, args: &Args) {
    let rev = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_owned());
    report.line(format!(
        "provenance workload={} seed={} seconds={} trace={} git_rev={rev} nproc={} connections={} \
         simd_mode={} NCQ_SIMD={} NCQ_NO_MMAP={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        connections(),
        ncq_simd::mode().name(),
        env("NCQ_SIMD"),
        env("NCQ_NO_MMAP"),
    ));
}

/// The same seed must give the same request stream, another seed a
/// different one.
fn seed_self_test(report: &mut Report, w: &Workload, seed: u64) {
    let digest = requests::stream_digest(&w.requests, &w.order, w.default_corpus());
    let (again, again_order) = requests::stream(w.name, seed);
    let same = requests::stream_digest(&again, &again_order, w.default_corpus());
    let (other, other_order) = requests::stream(w.name, seed.wrapping_add(1));
    let different = requests::stream_digest(&other, &other_order, w.default_corpus());
    report.line(format!(
        "seed_self_test stream_digest={digest:016x} same_seed={same:016x} next_seed={different:016x}"
    ));
    if same != digest || different == digest {
        report.fail("seed self-test: the request stream is not a function of the seed".to_owned());
    }
}

/// The probe answered first after each boot: the last two-term MEET
/// without `LIMIT` among the distinct requests, so it has one shape
/// for every seed (on the stratified streams even the same kind of
/// terms), and the load reaches it late if at all, so its answer
/// rarely sits in the semantic cache when the load asks.
fn probe_index(w: &Workload) -> usize {
    w.requests
        .iter()
        .rposition(|r| matches!(r, Req::Meet { terms, limit: None } if terms.len() == 2))
        .expect("every workload sends MEET pairs")
}

/// What both kinds of run share.
struct Run<'a> {
    args: &'a Args,
    work: &'a WorkDir,
    w: &'a Workload,
    files: &'a [CorpusFile],
    stream: Stream<'a>,
    oracle: &'a Oracle,
    /// The request answered first after each boot, and its expected
    /// digest.
    probe: usize,
    probe_digest: u64,
}

impl Run<'_> {
    /// Check every answer `load` collected against the oracle; returns
    /// the expected digests it used.
    fn verify(&self, load: &mut LoadResult) -> Result<HashMap<usize, u64>, String> {
        let expected = self
            .oracle
            .digests(&self.w.requests, load.answered(), nproc())?;
        load.verify(&expected);
        Ok(expected)
    }
}

/// One cold open: `open_manifest` + `bind` measured inside the serving
/// child, and the probe's round trip; `setup_s` is their sum.
#[derive(Debug, Clone, Copy)]
struct Boot {
    open_bind_s: f64,
    probe_s: f64,
}

/// Spawn a server on `manifest` and answer the probe.
fn boot(run: &Run<'_>, manifest: &Path, report: &mut Report) -> Result<(ServerProc, Boot), String> {
    let server = ServerProc::spawn(manifest)?;
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let req = &run.w.requests[run.probe];
    let mut buf = String::new();
    let sent = Instant::now();
    let outcome = conn.exchange(&req.wire(run.stream.default_corpus), req.frames(), &mut buf);
    let round_trip = sent.elapsed();
    report.attempted += 1;
    if outcome.is_err() || rng::fnv64(buf.as_bytes()) != run.probe_digest {
        report.failed += 1;
        report.fail(format!("boot probe answered wrongly: {outcome:?}"));
    }
    let boot = Boot {
        open_bind_s: server.open_bind_ns as f64 / 1e9,
        probe_s: round_trip.as_secs_f64(),
    };
    Ok((server, boot))
}

/// Boot `BOOTS` times; keep the last server running.
fn boot_repeatedly(
    run: &Run<'_>,
    manifest: &Path,
    report: &mut Report,
) -> Result<(ServerProc, Vec<Boot>), String> {
    let mut samples = Vec::with_capacity(BOOTS);
    let mut last = None;
    for _ in 0..BOOTS {
        if let Some(previous) = last.take() {
            ServerProc::stop(previous)?;
        }
        let (server, setup) = boot(run, manifest, report)?;
        samples.push(setup);
        last = Some(server);
    }
    Ok((last.expect("at least one boot"), samples))
}

/// Server counters read over the wire.
struct Counters {
    stats: BTreeMap<String, String>,
    lift: u64,
    sweep: u64,
}

impl Counters {
    fn read(conn: &mut Conn) -> Result<Counters, String> {
        let stats = conn.stats().map_err(|e| format!("STATS: {e}"))?;
        let (lift, sweep) = conn.plan_counts().map_err(|e| format!("METRICS: {e}"))?;
        Ok(Counters { stats, lift, sweep })
    }

    fn get(&self, key: &str) -> f64 {
        self.stats
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }

    /// `(sem_hit_share, term_hit_share, sweep_share, batch_mean)` between
    /// two readings.
    fn shares(&self, later: &Counters) -> (f64, f64, f64, f64) {
        let d = |k: &str| later.get(k) - self.get(k);
        let sem = share(d("sem_hits"), d("sem_hits") + d("sem_misses"));
        let term = share(
            d("term_cache_hits"),
            d("term_cache_hits") + d("term_decodes"),
        );
        let sweeps = (later.sweep - self.sweep) as f64;
        let plans = sweeps + (later.lift - self.lift) as f64;
        (
            sem,
            term,
            share(sweeps, plans),
            share(d("served"), d("batches")),
        )
    }

    fn mapped(&self) -> bool {
        self.get("snapshot.mapped") > 0.0 && self.get("snapshot.materialized") == 0.0
    }
}

/// Fan-out share of the first `sent` stream positions.
fn fanout_share(w: &Workload, sent: usize) -> f64 {
    let sent = &w.order[..sent.min(w.order.len())];
    let fanouts = sent
        .iter()
        .filter(|&&i| matches!(w.requests[i as usize], Req::FanOut(_)))
        .count();
    fanouts as f64 / sent.len().max(1) as f64
}

/// Corrupt the expected digest of one correctly answered request and
/// show the check counts each of its answers as failed.
fn oracle_self_test(load: &LoadResult, expected: &HashMap<usize, u64>, report: &mut Report) {
    let right = |&&(idx, digest): &&(usize, u64)| expected.get(&idx) == Some(&digest);
    let target = load.answers.iter().find(right).map(|&(idx, _)| idx);
    let ok = target.is_some_and(|target| {
        let mut corrupted = expected.clone();
        corrupted.insert(target, expected[&target] ^ 1);
        let mut check = LoadResult {
            answers: load
                .answers
                .iter()
                .filter(right)
                .filter(|&&(idx, _)| idx == target)
                .copied()
                .collect(),
            ..LoadResult::default()
        };
        let answers = check.answers.len();
        check.verify(&corrupted);
        check.failed == answers
    });
    report.line(format!(
        "oracle_self_test corrupted_request={target:?} counted_as_failed={ok}"
    ));
    if !ok {
        report.fail("oracle self-test: a corrupted digest went unnoticed".to_owned());
    }
}

/// Latency and response size per request kind.
fn kind_lines(report: &mut Report, w: &Workload, samples: &[wire::Sample]) {
    let mut by_kind: BTreeMap<&'static str, (Vec<f64>, usize)> = BTreeMap::new();
    for s in samples {
        let req = &w.requests[w.order[s.pos] as usize];
        let entry = by_kind.entry(req.kind()).or_default();
        entry.0.push(s.us);
        entry.1 += s.bytes;
    }
    for (kind, (us, bytes)) in &by_kind {
        report.line(format!(
            "latency_us kind={kind} {} mean_response_bytes={}",
            Timing::of(us).render(),
            bytes / us.len()
        ));
    }
    // The requests that make the tail: the slowest 1%, at least ten.
    let mut slowest: Vec<&wire::Sample> = samples.iter().collect();
    slowest.sort_by(|a, b| b.us.total_cmp(&a.us));
    slowest.truncate((samples.len() / 100).max(10));
    let tail: Vec<String> = slowest
        .iter()
        .map(|s| {
            let kind = w.requests[w.order[s.pos] as usize].kind();
            format!("{}:{kind}:{:.1}", s.pos, s.us / 1e3)
        })
        .collect();
    report.line(format!("slowest position:kind:ms [{}]", tail.join(" ")));
}

fn latency_metrics(report: &mut Report, latencies: &[f64]) {
    let timing = Timing::of(latencies);
    report.line(format!("latency_us {}", timing.render()));
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (p50, p99) = if sorted.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&sorted, 0.5), percentile(&sorted, 0.99))
    };
    report.line(format!(
        "latency_p50_us={p50:.1} latency_p99_us={p99:.1} samples={} p99_supported={}",
        sorted.len(),
        sorted.len() >= 1000
    ));
    report.metric("latency_p50_us", p50, "us");
    report.metric("latency_p99_us", p99, "us");
}

/// Report the ingest passes; returns their median MB/s.
fn ingest_line(report: &mut Report, runs: &[Ingested]) -> f64 {
    let mb_s: Vec<f64> = runs
        .iter()
        .map(|i| i.xml_bytes as f64 / 1e6 / (i.wall_ns as f64 / 1e9))
        .collect();
    let last = runs.last().expect("at least one ingest");
    let each: Vec<String> = mb_s.iter().map(|v| format!("{v:.2}")).collect();
    report.line(format!(
        "ingest passes={} xml_bytes={} snapshot_bytes={} ingest_mb_s {} each=[{}]",
        runs.len(),
        last.xml_bytes,
        last.snapshot_bytes,
        Timing::of(&mb_s).render(),
        each.join(",")
    ));
    median(&mb_s)
}

fn setup_metric(report: &mut Report, boots: &[Boot]) {
    let ms = |f: &dyn Fn(&Boot) -> f64| -> Vec<f64> { boots.iter().map(|b| f(b) * 1e3).collect() };
    let setups = ms(&|b| b.open_bind_s + b.probe_s);
    let each: Vec<String> = setups.iter().map(|v| format!("{v:.2}")).collect();
    report.line(format!(
        "setup_ms {} open_bind_ms median={:.2} probe_ms median={:.2} each=[{}]",
        Timing::of(&setups).render(),
        median(&ms(&|b| b.open_bind_s)),
        median(&ms(&|b| b.probe_s)),
        each.join(",")
    ));
    report.metric("setup_s", median(&setups) / 1e3, "s");
}

/// The untraced run. The ingest chain (on `ingest`: timed passes in a
/// child process), `BOOTS` cold opens of the
/// written forest, then closed-loop load on the last server: after a
/// warm-up for the query workloads, straight after the cold open for
/// `ingest`.
fn untraced_run(run: &Run<'_>, report: &mut Report) -> Result<(), String> {
    let w = run.w;
    let ingest = w.name == "ingest";
    let seconds = Duration::from_secs(run.args.seconds);
    let out = run.work.sub("snap")?;
    let (ingests, ingest_rss_kb) = if ingest {
        ingest_in_child(run.files, &out, INGEST_PASSES, Duration::ZERO)?
    } else {
        (vec![corpus::ingest(run.files, &out)?], 0)
    };
    ingest_line(report, &ingests);
    corpus::sync_forest(&out)?;
    let last = ingests.last().expect("ingested");
    let (server, setups) = boot_repeatedly(run, &last.manifest, report)?;
    let mut ctl = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let before = Counters::read(&mut ctl)?;
    // `ingest` answers straight after the cold open, for longer than the
    // run, so its tail has well over a thousand samples even at ~40
    // requests/s.
    let plan = LoadPlan {
        connections: connections(),
        warmup: if ingest {
            Duration::ZERO
        } else {
            seconds.div_f64(10.0).max(Duration::from_millis(500))
        },
        measure: if ingest { seconds.mul_f64(1.4) } else { seconds },
        max_requests: usize::MAX,
    };
    let mut load = wire::run_load(server.addr, &run.stream, &plan)?;
    let after = Counters::read(&mut ctl)?;
    let server_rss_kb = server.rss_peak_kb().unwrap_or(0);
    drop(ctl);
    server.stop()?;
    let expected = run.verify(&mut load)?;
    oracle_self_test(&load, &expected, report);

    report.count(&load);
    let qps = load.qps();
    report.line(format!(
        "load connections={} sent={} measured={} window_s={:.2} qps={qps:.1} \
         mean_response_bytes={:.0} distinct_checked={} stream_exhausted={}",
        plan.connections,
        load.sent,
        load.samples.len(),
        load.measured_secs,
        load.mean_response_bytes(),
        expected.len(),
        load.exhausted
    ));
    let (sem, term, sweep, batch_mean) = before.shares(&after);
    report.line(format!(
        "properties repeat_share={:.4} sem_hit_share={sem:.4} term_hit_share={term:.4} \
         sweep_share={sweep:.4} fanout_share={:.4} batch_mean={batch_mean:.3}",
        w.repeat_share(load.sent),
        fanout_share(w, load.sent)
    ));
    report.line(format!(
        "server snapshots_mapped={} simd_mode={} error_rate={:.6}",
        after.mapped(),
        after.stats.get("simd.mode").map_or("?", String::as_str),
        share(load.failed as f64, load.attempted as f64)
    ));
    kind_lines(report, w, &load.samples);
    report.metric("qps", qps, "1/s");
    latency_metrics(report, &load.latencies_us());
    setup_metric(report, &setups);
    let (rss_kb, whose) = if ingest {
        (ingest_rss_kb, "ingest")
    } else {
        (server_rss_kb, "serving")
    };
    report.line(format!(
        "rss_peak_kb={rss_kb} ({whose} process; serving={server_rss_kb} ingest={ingest_rss_kb})"
    ));
    report.metric("rss_peak_mb", rss_kb as f64 / 1024.0, "MiB");
    report.metric(
        "snapshot_bytes_per_xml_byte",
        last.snapshot_bytes as f64 / last.xml_bytes as f64,
        "ratio",
    );
    Ok(())
}

/// The traced run: one staged, traced ingest pass, timed passes of the
/// public chain (which must write the same bytes), a one-connection
/// wire pass, and the in-process replay of the same requests untraced
/// and traced. Emits the per-layer metrics.
fn traced_run(run: &Run<'_>, report: &mut Report) -> Result<(), String> {
    let w = run.w;
    let mut t = Tracer::new(true);
    let staged_dir = run.work.sub("staged")?;
    let staged = corpus::ingest_staged(run.files, &staged_dir, &mut t)?;
    let public_dir = run.work.sub("public")?;
    let ingests = (0..TRACED_INGESTS)
        .map(|_| corpus::ingest(run.files, &public_dir))
        .collect::<Result<Vec<_>, _>>()?;
    let ingest_mb_s = ingest_line(report, &ingests);
    let differ = corpus::differing_snapshots(run.files, &staged_dir, &public_dir);
    if !differ.is_empty() {
        report.fail(format!(
            "the staged ingest chain wrote other snapshot bytes than the public one for {differ:?}"
        ));
    }
    corpus::sync_forest(&public_dir)?;
    let manifest = &ingests[0].manifest;
    let (server, _) = boot(run, manifest, report)?;
    let mut ctl = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let before = Counters::read(&mut ctl)?;
    let plan = LoadPlan {
        connections: 1,
        warmup: Duration::ZERO,
        measure: Duration::from_secs_f64(run.args.seconds as f64 / 3.0),
        max_requests: REPLAY_MAX,
    };
    let mut load = wire::run_load(server.addr, &run.stream, &plan)?;
    let after = Counters::read(&mut ctl)?;
    drop(ctl);
    server.stop()?;

    // The replay covers the wire pass's requests and, when the wire
    // pass was short, more of the stream, up to `REPLAY_MAX`.
    let list: Vec<usize> = w.order[..load.sent.max(REPLAY_MAX).min(w.order.len())]
        .iter()
        .map(|&i| i as usize)
        .collect();
    let expected = run.oracle.digests(
        &w.requests,
        list.iter().copied().chain(load.answered()),
        nproc(),
    )?;
    load.verify(&expected);
    oracle_self_test(&load, &expected, report);
    report.count(&load);
    let engines = replay::Engines::open(manifest, &mut t)?;
    // A warm-up pass first (first touches of the mapped snapshots), then
    // untraced and traced passes alternate so drift hits both alike.
    let mut untraced_runs = Vec::new();
    let mut traced_runs = Vec::new();
    for pass in 0..5 {
        let traced = pass % 2 == 0 && pass > 0;
        let mut off = Tracer::new(false);
        let tracer = if traced { &mut t } else { &mut off };
        let r = replay::run(&engines, &w.requests, &list, &expected, tracer)?;
        report.attempted += list.len();
        report.failed += r.counts.mismatches;
        if r.counts.mismatches > 0 {
            report.fail(format!(
                "{} in-process replay answers differ from the oracle",
                r.counts.mismatches
            ));
        }
        match (pass, traced) {
            (0, _) => {}
            (_, true) => traced_runs.push(r),
            (_, false) => untraced_runs.push(r),
        }
    }
    let wall = |runs: &[replay::Replay]| runs.iter().map(|r| r.wall_ns as f64).sum::<f64>();
    let overhead = wall(&traced_runs) / wall(&untraced_runs);
    let untraced_us: Vec<f64> = (0..list.len())
        .map(|i| {
            median(
                &untraced_runs
                    .iter()
                    .map(|r| r.request_us[i])
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let untraced_ns = wall(&untraced_runs) / untraced_runs.len() as f64;
    let traced_ns = wall(&traced_runs) / traced_runs.len() as f64;
    let c = &traced_runs[0].counts;
    let simd = &untraced_runs[0].counts;

    // server: wire minus in-process, request by request.
    let diffs: Vec<f64> = load
        .samples
        .iter()
        .filter(|s| s.pos < list.len())
        .map(|s| s.us - untraced_us[s.pos])
        .collect();
    let (sem, term, sweep_wire, batch_mean) = before.shares(&after);
    report.line(format!(
        "traced replay requests={} untraced_ms={:.1} traced_ms={:.1} tracing_overhead={:.4} \
         wire_sweep_share={sweep_wire:.4} snapshots_mapped={}",
        list.len(),
        untraced_ns / 1e6,
        traced_ns / 1e6,
        overhead,
        after.mapped()
    ));

    let own = t.self_times();
    let total = t.durations();
    let us = |m: &BTreeMap<&'static str, Vec<f64>>, k: &str| -> f64 {
        m.get(k).map_or(0.0, |v| median(v) / 1e3)
    };
    let sum_ms = |k: &str| -> f64 { total.get(k).map_or(0.0, |v| v.iter().sum::<f64>() / 1e6) };
    for (name, samples) in &own {
        report.line(format!(
            "span {name} self_us {}",
            Timing::of(&samples.iter().map(|s| s / 1e3).collect::<Vec<_>>()).render()
        ));
    }
    let parse_s = sum_ms("xml.parse") / 1e3;
    let requests = c.requests.max(1) as f64;

    report.metric(
        "server.overhead_us",
        if diffs.is_empty() {
            0.0
        } else {
            median(&diffs)
        },
        "us",
    );
    report.metric("server.sem_hit_share", sem, "share");
    report.metric("server.term_hit_share", term, "share");
    report.metric("server.batch_mean", batch_mean, "count");
    report.metric("server.response_bytes", load.mean_response_bytes(), "bytes");
    report.metric("query.parse_us", us(&own, "query.parse"), "us");
    report.metric("query.eval_us", us(&own, "query.eval"), "us");
    report.metric("fulltext.decode_us", us(&own, "fulltext.search"), "us");
    report.metric(
        "fulltext.hits_per_term",
        share(c.search_hits as f64, c.searches as f64),
        "count",
    );
    report.metric("fulltext.scan_us", us(&own, "fulltext.scan"), "us");
    report.metric(
        "fulltext.index_build_ms",
        sum_ms("fulltext.index_build"),
        "ms",
    );
    report.metric("core.plan_us", us(&own, "core.plan"), "us");
    report.metric(
        "core.sweep_share",
        share(c.sweeps as f64, c.plans as f64),
        "share",
    );
    report.metric("core.meet_us", us(&own, "core.meet"), "us");
    report.metric(
        "core.meets_per_hit",
        share(c.meet_answers as f64, c.meet_inputs as f64),
        "ratio",
    );
    report.metric("core.serialize_us", us(&own, "core.serialize"), "us");
    report.metric("shard.meet_us", us(&own, "shard.meet"), "us");
    report.metric(
        "shard.overhead_ratio",
        share(sum_ms("shard.meet"), sum_ms("core.meet_unsharded")),
        "ratio",
    );
    report.metric("catalog.fanout_us", us(&total, "catalog.fanout"), "us");
    report.metric(
        "simd.vector_calls_per_query",
        simd.simd_vector as f64 / requests,
        "calls",
    );
    report.metric(
        "simd.scalar_calls_per_query",
        simd.simd_scalar as f64 / requests,
        "calls",
    );
    report.metric("ingest_mb_s", ingest_mb_s, "MB/s");
    report.metric(
        "xml.parse_mb_s",
        share(staged.xml_bytes as f64 / 1e6, parse_s),
        "MB/s",
    );
    report.metric("store.transform_ms", sum_ms("store.transform"), "ms");
    report.metric("store.meet_index_ms", sum_ms("store.meet_index"), "ms");
    report.metric(
        "store.snapshot_write_ms",
        sum_ms("store.snapshot_write") + sum_ms("store.manifest_describe"),
        "ms",
    );
    report.metric(
        "store.snapshot_open_ms",
        sum_ms("store.snapshot_open"),
        "ms",
    );
    report.metric(
        "store.manifest_open_ms",
        sum_ms("store.manifest_open"),
        "ms",
    );
    report.metric("store.snapshot_bytes", staged.snapshot_bytes as f64, "bytes");
    report.metric("workload.repeat_share", w.repeat_share(load.sent), "share");
    report.metric("workload.fanout_share", fanout_share(w, load.sent), "share");
    report.metric("trace.overhead_ratio", overhead, "ratio");

    let out_dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let spans = out_dir.join(format!("{}-seed{}.spans.tsv", w.name, run.args.seed));
    t.write_tsv(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    report.line(format!(
        "spans={} written to {}",
        t.spans().len(),
        spans.display()
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::Corpus;
    use ncq_server::{NetConfig, Server, ServerConfig, TcpAcceptor};

    #[test]
    fn the_request_stream_is_a_function_of_the_seed() {
        for name in requests::WORKLOADS {
            let (a, a_order) = requests::stream(name, 11);
            let (b, b_order) = requests::stream(name, 11);
            let (c, c_order) = requests::stream(name, 12);
            let same = requests::stream_digest(&a, &a_order, "x");
            assert_eq!(same, requests::stream_digest(&b, &b_order, "x"), "{name}");
            assert_ne!(same, requests::stream_digest(&c, &c_order, "x"), "{name}");
        }
    }

    #[test]
    fn the_oracle_counts_a_corrupted_digest_as_a_failure() {
        let corpora = vec![Corpus {
            name: "dblp",
            shards: 1,
            xml: "<dblp><article><author>Ben Bit</author><title>How to Hack</title>\
                  <year>1999</year></article><article><author>Bob Byte</author>\
                  <title>Hacking RSI</title><year>1999</year></article></dblp>"
                .to_owned(),
        }];
        let requests = vec![
            Req::Meet {
                terms: vec!["Bit".into(), "1999".into()],
                limit: None,
            },
            Req::Search("1999".into()),
            Req::Sql(
                "select meet(a, b) from dblp/% as a, dblp/% as b \
                 where a contains 'Byte' and b contains 'RSI'"
                    .into(),
            ),
        ];
        let order: Vec<u32> = vec![0, 1, 2, 0, 1, 2];
        let dir = std::env::temp_dir().join(format!("ncq-e2e-test-{}", std::process::id()));
        let (staged, public) = (dir.join("staged"), dir.join("public"));
        std::fs::create_dir_all(&staged).unwrap();
        std::fs::create_dir_all(&public).unwrap();
        let files = corpus::write_files(&corpora, &dir).unwrap();
        corpus::ingest_staged(&files, &staged, &mut Tracer::new(true)).unwrap();
        let ing = corpus::ingest(&files, &public).unwrap();
        assert!(corpus::differing_snapshots(&files, &staged, &public).is_empty());
        let oracle = Oracle::build(&corpora).unwrap();
        let server = Server::open_manifest(&ing.manifest, ServerConfig::default()).unwrap();
        let acceptor =
            TcpAcceptor::bind("127.0.0.1:0", server.client(), NetConfig::default()).unwrap();
        let plan = LoadPlan {
            connections: 2,
            warmup: Duration::ZERO,
            measure: Duration::from_secs(60),
            max_requests: usize::MAX,
        };
        let stream = Stream {
            requests: &requests,
            order: &order,
            default_corpus: "dblp",
        };
        let load = || wire::run_load(acceptor.local_addr(), &stream, &plan).unwrap();
        let expected = oracle.digests(&requests, 0..requests.len(), 2).unwrap();
        let mut good = load();
        good.verify(&expected);
        assert_eq!((good.attempted, good.failed), (6, 0), "{:?}", good.failures);
        assert!(good.exhausted);
        let mut corrupted = expected.clone();
        *corrupted.get_mut(&1).unwrap() ^= 1;
        let mut bad = load();
        bad.verify(&corrupted);
        assert_eq!((bad.attempted, bad.failed), (6, 2), "{:?}", bad.failures);
        acceptor.shutdown();
        server.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
