//! The query path from outside: a serving child process booted with
//! `Server::open_manifest` behind `TcpAcceptor::bind`, and a closed-loop
//! client that speaks the line protocol, times each request from send
//! to its last framed byte, and keeps a digest of every answer for the
//! oracle to check after the run.

use crate::requests::Req;
use crate::rng::fnv64;
use ncq_server::{NetConfig, Server, ServerConfig, TcpAcceptor};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The serving child's entry point: open the manifest with production
/// defaults, bind, announce `READY <addr> <open_ns> <bind_ns>`, and
/// serve until stdin closes.
pub fn serve_main(manifest: &Path) -> Result<(), String> {
    let started = Instant::now();
    let server = Server::open_manifest(manifest, ServerConfig::default())
        .map_err(|e| format!("open manifest: {e}"))?;
    let open_ns = started.elapsed().as_nanos();
    let bound = Instant::now();
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", server.client(), NetConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let bind_ns = bound.elapsed().as_nanos();
    let mut out = std::io::stdout().lock();
    writeln!(out, "READY {} {open_ns} {bind_ns}", acceptor.local_addr())
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    drop(out);
    // The parent closes our stdin to stop us (or dies, which does too).
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    acceptor.shutdown();
    server.shutdown();
    Ok(())
}

/// A running serving child.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// `Server::open_manifest` + `TcpAcceptor::bind`, measured inside
    /// the child (process start-up is not part of it).
    pub open_bind_ns: u64,
}

impl ServerProc {
    pub fn spawn(manifest: &Path) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("serve")
            .arg(manifest)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let ready = stdout.read_line(&mut line).map_err(|e| e.to_string());
        let parsed = ready.and_then(|_| {
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts.as_slice() {
                ["READY", addr, open, bind] => Ok((
                    addr.parse::<SocketAddr>().map_err(|e| e.to_string())?,
                    open.parse::<u64>().map_err(|e| e.to_string())?
                        + bind.parse::<u64>().map_err(|e| e.to_string())?,
                )),
                _ => Err(format!("server did not start: {line:?}")),
            }
        });
        match parsed {
            Ok((addr, open_bind_ns)) => Ok(ServerProc {
                child,
                stdin,
                _stdout: stdout,
                addr,
                open_bind_ns,
            }),
            Err(e) => {
                drop(stdin);
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Peak resident set of the serving process so far, in KiB.
    pub fn rss_peak_kb(&self) -> Option<u64> {
        crate::corpus::rss_peak_kb(Some(self.child.id()))
    }

    /// Close the child's stdin and wait for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            // Not stopped cleanly (an error path): do not leave it running.
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send `wire` and append the raw bytes of `frames` response frames
    /// to `out`. A closed connection is an error.
    pub fn exchange(&mut self, wire: &str, frames: usize, out: &mut String) -> std::io::Result<()> {
        self.writer.write_all(wire.as_bytes())?;
        for _ in 0..frames {
            let start = out.len();
            if self.reader.read_line(out)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = out[start..].trim_end();
            if let Some(n) = header.strip_prefix("OK ") {
                let n: usize = n
                    .parse()
                    .map_err(|_| std::io::Error::other(format!("bad frame header {header:?}")))?;
                for _ in 0..n {
                    if self.reader.read_line(out)? == 0 {
                        return Err(std::io::ErrorKind::UnexpectedEof.into());
                    }
                }
            } else if !header.starts_with("ERR") {
                return Err(std::io::Error::other(format!(
                    "bad frame header {header:?}"
                )));
            }
        }
        Ok(())
    }

    /// `STATS` as `key → value`.
    pub fn stats(&mut self) -> std::io::Result<BTreeMap<String, String>> {
        let mut out = String::new();
        self.exchange("STATS\n", 1, &mut out)?;
        Ok(out
            .lines()
            .skip(1)
            .filter_map(|l| l.split_once('='))
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect())
    }

    /// The plan counters from `METRICS`: `(lift, sweep)` plans so far.
    pub fn plan_counts(&mut self) -> std::io::Result<(u64, u64)> {
        let mut out = String::new();
        self.exchange("METRICS\n", 1, &mut out)?;
        let value = |name: &str| {
            out.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or(0)
        };
        Ok((value("ncq_plan_lift_total"), value("ncq_plan_sweep_total")))
    }
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Stream position.
    pub pos: usize,
    /// Send → last framed byte, µs.
    pub us: f64,
    /// Response bytes.
    pub bytes: usize,
}

/// What a load run observed.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// One per measured request, in stream order.
    pub samples: Vec<Sample>,
    /// `(request, digest of the answer bytes)` of every framed answer,
    /// warm-up included, for [`LoadResult::verify`].
    pub answers: Vec<(usize, u64)>,
    pub attempted: usize,
    pub failed: usize,
    pub measured_secs: f64,
    pub failures: Vec<String>,
    /// Stream positions handed out, warm-up included.
    pub sent: usize,
    /// Whether the run used up the stream before its time was over.
    pub exhausted: bool,
}

/// What the load generator needs to know about the stream.
pub struct Stream<'a> {
    pub requests: &'a [Req],
    pub order: &'a [u32],
    pub default_corpus: &'a str,
}

impl LoadResult {
    pub fn latencies_us(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.us).collect()
    }

    /// Completed requests per second of the measured window.
    pub fn qps(&self) -> f64 {
        self.samples.len() as f64 / self.measured_secs
    }

    /// Mean response size of the measured requests.
    pub fn mean_response_bytes(&self) -> f64 {
        let total: usize = self.samples.iter().map(|s| s.bytes).sum();
        total as f64 / self.samples.len().max(1) as f64
    }

    /// The requests answered (with repeats).
    pub fn answered(&self) -> impl Iterator<Item = usize> + '_ {
        self.answers.iter().map(|&(idx, _)| idx)
    }

    /// Count every answer whose digest differs from the oracle's as
    /// failed.
    pub fn verify(&mut self, expected: &HashMap<usize, u64>) {
        for &(idx, digest) in &self.answers {
            if expected.get(&idx) != Some(&digest) {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(format!(
                        "wrong answer to request {idx} (digest {digest:016x})"
                    ));
                }
            }
        }
    }
}

/// How long and how wide a load run is.
pub struct LoadPlan {
    pub connections: usize,
    pub warmup: Duration,
    pub measure: Duration,
    /// Stop after this many stream positions even if time remains.
    pub max_requests: usize,
}

/// Closed loop: each connection sends its next request only after the
/// previous answer arrived. Connections take stream positions in order
/// from a shared counter; the stream is never cycled. Requests that
/// complete during the warm-up are kept for the oracle but not timed.
/// A transport error or a `<partial>` marker counts as failed here;
/// wrong answer bytes count once [`LoadResult::verify`] has run.
pub fn run_load(
    addr: SocketAddr,
    stream: &Stream<'_>,
    plan: &LoadPlan,
) -> Result<LoadResult, String> {
    let max_requests = plan.max_requests.min(stream.order.len());
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let measure_from = started + plan.warmup;
    let deadline = measure_from + plan.measure;
    let per_conn: Vec<Result<LoadResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.connections)
            .map(|_| {
                let next = &next;
                s.spawn(move || -> Result<LoadResult, String> {
                    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut r = LoadResult::default();
                    let mut buf = String::new();
                    loop {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        if pos >= max_requests {
                            break;
                        }
                        let idx = stream.order[pos] as usize;
                        let req = &stream.requests[idx];
                        let wire = req.wire(stream.default_corpus);
                        buf.clear();
                        let sent = Instant::now();
                        let outcome = conn.exchange(&wire, req.frames(), &mut buf);
                        let done = Instant::now();
                        r.attempted += 1;
                        let verdict = match outcome {
                            Ok(()) if buf.contains("<partial ") => {
                                Err(format!("partial answer to request {idx}"))
                            }
                            Ok(()) => {
                                r.answers.push((idx, fnv64(buf.as_bytes())));
                                Ok(())
                            }
                            Err(e) => {
                                // The framing is lost: start a new session.
                                conn =
                                    Conn::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
                                Err(format!("request {idx}: transport error {e}"))
                            }
                        };
                        if let Err(msg) = verdict {
                            r.failed += 1;
                            if r.failures.len() < 5 {
                                r.failures.push(msg);
                            }
                        }
                        if sent >= measure_from && done <= deadline {
                            r.samples.push(Sample {
                                pos,
                                us: (done - sent).as_nanos() as f64 / 1e3,
                                bytes: buf.len(),
                            });
                        }
                    }
                    Ok(r)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut total = LoadResult {
        measured_secs: plan.measure.as_secs_f64(),
        ..LoadResult::default()
    };
    for r in per_conn {
        let r = r?;
        total.samples.extend(r.samples);
        total.answers.extend(r.answers);
        total.attempted += r.attempted;
        total.failed += r.failed;
        total.failures.extend(r.failures);
    }
    total.sent = next.load(Ordering::Relaxed).min(max_requests);
    // A window cut short by the end of the stream or by `max_requests`
    // is measured up to its end.
    if total.sent >= max_requests {
        total.exhausted = max_requests == stream.order.len();
        total.measured_secs = (Instant::now() - measure_from.min(Instant::now())).as_secs_f64();
    }
    total.samples.sort_by_key(|s| s.pos);
    Ok(total)
}
