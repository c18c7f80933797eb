//! The server under test as a child process, and the client that drives it
//! over loopback.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::trace::Tracer;
use crate::workload::{Stream, TABLE};

/// Longest a request may wait for its reply before the run fails.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `minskew serve`. Dropping it kills the process and waits for
/// it; [`ServerProcess::shutdown`] stops it over the wire instead.
pub struct ServerProcess {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Starts `bin serve` on `csv` and waits for its port file. Returns the
    /// server and the seconds from spawn to port file: CSV parse, row load,
    /// the first `ANALYZE`, and the bind.
    pub fn spawn(
        bin: &Path,
        csv: &Path,
        buckets: usize,
        port_file: &Path,
    ) -> Result<(ServerProcess, f64), String> {
        let _ = std::fs::remove_file(port_file);
        let start = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--input")
            .arg(csv)
            .arg("--table")
            .arg(TABLE)
            .arg("--buckets")
            .arg(buckets.to_string())
            .arg("--port-file")
            .arg(port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut server = ServerProcess {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        loop {
            // The port file is installed by rename, so a complete line
            // means a complete file.
            if let Ok(text) = std::fs::read_to_string(port_file) {
                if text.ends_with('\n') {
                    let secs = start.elapsed().as_secs_f64();
                    server.addr = text
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad port file {text:?}: {e}"))?;
                    return Ok((server, secs));
                }
            }
            if let Some(child) = server.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    server.child = None;
                    return Err(format!("server exited during set-up: {status}"));
                }
            }
            if start.elapsed() > Duration::from_secs(120) {
                return Err("server did not write its port file within 120 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The server's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().ok_or("server is not running")?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            // The kernel's "kB" are KiB.
            .map(|kib| kib * 1024.0 / 1e6)
            .ok_or_else(|| "no VmHWM in /proc status".into())
    }

    /// CPU seconds the server has used so far, over all its threads. Time
    /// it spent waiting for a CPU is not in it.
    ///
    /// Two readings each fall short of the truth: `utime + stime` from
    /// `/proc/<pid>/stat` counts ended threads too but is cut down to the
    /// kernel's 10 ms ticks, a tenth of a Charminar start; the live threads'
    /// `schedstat` is exact to the nanosecond but forgets ended threads.
    /// The larger is the nearer, and it is the exact one unless a thread
    /// that ran for more than a tick has ended.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().ok_or("server is not running")?.id();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
        // Fields 14 and 15; the command name before them may hold spaces.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map_or(vec![], |(_, rest)| rest.split_whitespace().collect());
        let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok());
        let (Some(user), Some(system)) = (ticks(11), ticks(12)) else {
            return Err(format!("no CPU times in /proc/{pid}/stat"));
        };
        let live = live_threads_cpu_ns(&pid.to_string())?;
        Ok(((user + system) as f64 / 100.0).max(live as f64 / 1e9))
    }

    /// Sends `SHUTDOWN` and waits for the process to exit cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut client = Client::connect(self.addr).map_err(|e| format!("connecting: {e}"))?;
        let reply = client
            .call(b"SHUTDOWN\n")
            .map_err(|e| format!("SHUTDOWN: {e}"))?;
        if reply != b"OK bye\n" {
            return Err(format!(
                "SHUTDOWN replied {:?}",
                String::from_utf8_lossy(&reply)
            ));
        }
        drop(client);
        let mut child = self.child.take().ok_or("server is not running")?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not exit within 30 s of SHUTDOWN".into());
                }
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection speaking the line protocol.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    reply: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, stream),
            reply: Vec::with_capacity(4096),
        })
    }

    pub fn send(&mut self, line: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(line)
    }

    /// Reads one reply line, newline included.
    pub fn recv(&mut self) -> std::io::Result<&[u8]> {
        self.reply.clear();
        self.reader.read_until(b'\n', &mut self.reply)?;
        if self.reply.last() != Some(&b'\n') {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            ));
        }
        Ok(&self.reply)
    }

    pub fn call(&mut self, line: &[u8]) -> std::io::Result<Vec<u8>> {
        self.send(line)?;
        Ok(self.recv()?.to_vec())
    }
}

/// A thread of this process that echoes lines back over loopback, and a
/// client connected to it: the yardstick for the host's speed. Dropping it
/// closes the connection and waits for the thread to end.
pub struct Echo {
    client: Option<Client>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Echo {
    pub fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        // The listen backlog takes the connection before `accept`, so no
        // thread is left waiting if either step fails.
        let client = Client::connect(listener.local_addr()?)?;
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let thread = std::thread::spawn(move || -> std::io::Result<()> {
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            let mut line = Vec::new();
            loop {
                line.clear();
                if reader.read_until(b'\n', &mut line)? == 0 {
                    return Ok(());
                }
                writer.write_all(&line)?;
            }
        });
        Ok(Echo {
            client: Some(client),
            thread: Some(thread),
        })
    }

    pub fn call(&mut self, line: &[u8]) -> std::io::Result<Vec<u8>> {
        self.client
            .as_mut()
            .expect("the client lives until drop")
            .call(line)
    }

    /// CPU nanoseconds this process (the caller's thread and the echo
    /// thread) spends on `n` round trips of a request-sized line.
    pub fn cpu_ns(&mut self, n: u64) -> Result<u64, String> {
        let before = own_cpu_ns()?;
        for _ in 0..n {
            self.call(b"ESTIMATE t 2113.5 4710.25 2613.5 5210.25\n")
                .map_err(|e| format!("echo: {e}"))?;
        }
        Ok(own_cpu_ns()?.saturating_sub(before))
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.client = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// CPU nanoseconds the live threads of this process have run.
fn own_cpu_ns() -> Result<u64, String> {
    live_threads_cpu_ns("self")
}

/// CPU nanoseconds the live threads of process `pid` (a number, or `self`)
/// have run (`/proc/<pid>/task/*/schedstat`). Unlike the 10 ms ticks of
/// `/proc/<pid>/stat`, this resolves a burst of a few milliseconds.
fn live_threads_cpu_ns(pid: &str) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let io = |e: std::io::Error| format!("reading {dir}: {e}");
    let mut total = 0;
    for task in std::fs::read_dir(&dir).map_err(io)? {
        let stat = std::fs::read_to_string(task.map_err(io)?.path().join("schedstat"));
        // A thread may end between the listing and the read.
        if let Some(ns) = stat
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        {
            total += ns;
        }
    }
    Ok(total)
}

/// Requests attempted and failed, with the first failure kept for the
/// report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn note(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }
}

/// Closed loop: send request `*next`, wait for its reply, repeat, for
/// `dur`. Records each round trip in `latencies` (ns) and, with a tracer,
/// as a `wire.request` span. Returns the requests completed and the
/// seconds taken.
pub fn closed_loop(
    client: &mut Client,
    stream: &mut dyn Stream,
    next: &mut u64,
    dur: Duration,
    latencies: &mut Vec<u64>,
    mut tracer: Option<&mut Tracer>,
    tally: &mut Tally,
) -> std::io::Result<(u64, f64)> {
    let start = Instant::now();
    let mut done = 0;
    while start.elapsed() < dur {
        let k = *next;
        *next += 1;
        let span = tracer.as_deref_mut().map(|t| t.open(k, 0, "wire.request"));
        let t0 = Instant::now();
        client.send(stream.request(k))?;
        let reply = client.recv()?;
        let ns = t0.elapsed().as_nanos() as u64;
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.close(id);
        }
        latencies.push(ns);
        tally.note(stream.check(k, reply));
        done += 1;
    }
    Ok((done, start.elapsed().as_secs_f64()))
}

/// Pipelined: send `window` requests in one write, read their replies,
/// and repeat for `dur`. Returns the replies received and the seconds
/// taken.
///
/// Whole bursts, rather than a window topped up reply by reply, hand the
/// server the same batch of requests on every wake-up however fast the
/// host runs at the moment, so its cost per request does not drift with
/// the host's speed.
pub fn pipelined(
    client: &mut Client,
    stream: &mut dyn Stream,
    next: &mut u64,
    dur: Duration,
    window: usize,
    tally: &mut Tally,
) -> std::io::Result<(u64, f64)> {
    let start = Instant::now();
    let mut burst = Vec::new();
    let mut done = 0;
    while done == 0 || start.elapsed() < dur {
        burst.clear();
        let first = *next;
        for _ in 0..window {
            burst.extend_from_slice(stream.request(*next));
            *next += 1;
        }
        client.send(&burst)?;
        for k in first..*next {
            let reply = client.recv()?;
            tally.note(stream.check(k, reply));
            done += 1;
        }
    }
    Ok((done, start.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, Workload};
    use minskew_engine::{serve, ServeOptions, SpatialCatalog, TableOptions};
    use std::sync::Arc;

    /// A reply that disagrees with the oracle in one bit must fail the run,
    /// in both client modes.
    #[test]
    fn a_corrupted_expected_value_fails_the_run() {
        let data = workload::dataset(Workload::PointHot, true);
        let catalog = Arc::new(SpatialCatalog::new());
        let entry = catalog
            .create(TABLE, TableOptions::default())
            .expect("create table");
        {
            let mut table = entry.table();
            for r in data.rects() {
                table.insert(*r);
            }
            table.analyze();
        }
        let mut oracle = entry.reader();
        let (mut good, _) = workload::point_hot(&data, &mut oracle, 5);
        let (mut bad, _) = workload::point_hot(&data, &mut oracle, 5);
        // Flip the lowest bit of the expected value of request 0.
        let first = bad.pool_index(0);
        let want = &mut bad.expected_mut()[first];
        let text = String::from_utf8(want.clone()).expect("utf8");
        let v: f64 = text
            .trim_end()
            .trim_start_matches("OK ")
            .parse()
            .expect("f64");
        *want = workload::estimates_reply(&[f64::from_bits(v.to_bits() ^ 1)]);

        let handle = serve(catalog, ServeOptions::default()).expect("bind");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let dur = Duration::from_millis(100);
        let mut lat = Vec::new();

        let mut tally = Tally::default();
        let mut next = 0;
        closed_loop(
            &mut client,
            &mut good,
            &mut next,
            dur,
            &mut lat,
            None,
            &mut tally,
        )
        .expect("closed loop");
        pipelined(&mut client, &mut good, &mut next, dur, 8, &mut tally).expect("pipelined");
        assert!(tally.attempted > 0);
        assert_eq!(tally.failed, 0, "{:?}", tally.first_failure);

        for piped in [false, true] {
            let mut tally = Tally::default();
            let mut next = 0;
            if piped {
                pipelined(&mut client, &mut bad, &mut next, dur, 8, &mut tally).expect("pipelined");
            } else {
                closed_loop(
                    &mut client,
                    &mut bad,
                    &mut next,
                    dur,
                    &mut lat,
                    None,
                    &mut tally,
                )
                .expect("closed loop");
            }
            assert!(tally.failed > 0, "a wrong reply went unnoticed");
            assert!(tally.first_failure.is_some());
        }
        drop(client);
        handle.shutdown();
    }
}
