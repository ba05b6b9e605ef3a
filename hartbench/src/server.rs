//! `server-ycsb-a`: `hart-server` with group commit (64 ops / 100 µs) and
//! 2 workers over a preloaded tree; YCSB-A (50 % GET / 50 % overwriting
//! PUT, Zipf θ = 0.99), 600/300.
//!
//! * Phase A, open loop: requests arrive as a seeded Poisson process at
//!   [`RATE`] on one connection. A sender thread sleeps (never spins) until
//!   the next request is due and then writes every request that has come
//!   due in one write; a receiver thread matches responses by id. Latency
//!   runs from each request's *scheduled* send time, so a stall is charged
//!   to every request it delays.
//! * Phase B, closed loop: 2 connections × [`PIPELINE`] requests in
//!   flight, for capacity.
//!
//! Then the server shuts down, the pool is recovered, and sampled keys
//! must return their last acknowledged PUT.

use crate::exec::{self, Checker, PhaseClock, Recorder};
use crate::gen::{random_keys, value, Class, Digest, Live, Op, Rng, Zipf};
use crate::stats::{sample_ns, FAILED};
use crate::trace::{Obs, OpRec};
use crate::workloads::{finish, pool, preload, Outcome, Size, RECOVERY_REPS, SETUP_REPS};
use hart::{Hart, HartConfig, Key, LatencyConfig, PersistentIndex};
use hart_server::proto::{
    encode_request, parse_response, read_frame, Request, MAX_RESPONSE_BODY, ST_OK,
};
use hart_server::{ServerConfig, ServerHandle};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Open-loop arrival rate, about 1/13 of closed-loop capacity. Each request
/// crosses four server threads, so on a 2-core host 40 k/s keeps ~1.3
/// cores busy and its p99 measures run-queue waits (0.3–1.5 ms across ten
/// runs); 20 k/s is still bimodal. At 10 k/s the quartile spread of p99
/// over ten runs is 0.06–0.18.
const RATE: f64 = 10_000.0;
/// Untimed open-loop warm-up before phase A is measured, seconds.
const WARM_S: f64 = 2.0;
/// Share of `--seconds` spent in phase A; phase B gets the rest.
const A_SHARE: f64 = 0.6;
/// Requests in flight per phase-B connection.
const PIPELINE: usize = 32;
/// Generated phase-B requests per connection per second of phase B: far
/// above capacity, so the deadline (not the stream) ends the phase.
const B_CAP_PER_S: f64 = 150_000.0;
/// A phase-A run whose send lateness p99 exceeds this is invalid.
const MAX_LATE_P99_NS: u64 = 1_000_000;
/// Window for the server's end-to-end statistics: percentiles and
/// throughput are medians over consecutive windows of this length, so a
/// scheduling stall on a 2-core host moves one window, not the run. At
/// 10 k/s a window holds ~2 500 GETs, leaving 25 beyond its p99.
const WINDOW_NS: u64 = 500_000_000;

/// Server-only results.
#[derive(Debug, Default)]
pub struct ServerExtras {
    /// Send lateness of each measured phase-A request, ns.
    pub lateness: Vec<u32>,
    /// The tree's own sampled GET latency p50 after phase A (obs), µs.
    pub tree_search_p50_us: f64,
    /// PUTs in the measured phases.
    pub writes: u64,
    /// Phase-A latencies (ns) per full [`WINDOW_NS`] window of due time,
    /// as `[reads, writes]`.
    pub windows: Vec<[Vec<u32>; 2]>,
    /// Phase-B throughput of each full window, kops/s.
    pub window_kops: Vec<f64>,
    /// Why the run is invalid, if it is.
    pub invalid: Option<String>,
}

pub struct ServerYcsbA {
    pub keys: Vec<Key>,
    /// Phase A: GET = `Search`, PUT = `Update`, with due times (ns from
    /// the schedule origin). Requests due before `warm_ns` are warm-up.
    pub a_ops: Vec<Op>,
    pub a_due: Vec<u64>,
    pub warm_ns: u64,
    pub end_ns: u64,
    /// Phase B: one stream per connection over the keys it owns
    /// (index parity), so each connection's expected results are exact.
    pub b_ops: [Vec<Op>; 2],
    pub b_seconds: f64,
}

fn request(op: &Op, keys: &[Key]) -> Request {
    let key = keys[op.key() as usize].as_slice().to_vec();
    match *op {
        Op::Update { key: k, version } => Request::Put {
            key,
            value: value(k, version).as_slice().to_vec(),
        },
        _ => Request::Get { key },
    }
}

impl ServerYcsbA {
    pub fn generate(seed: u64, size: Size) -> ServerYcsbA {
        let n = size.count(200_000);
        let keys = random_keys(n, &mut Rng::derive(seed, "server-ycsb-a/keys"));
        let mut versions = vec![0u32; n];
        let mut next_version = 0u32;
        let mut op = |rng: &mut Rng, key: u32| {
            if rng.below(2) == 0 {
                Op::Search {
                    key,
                    version: versions[key as usize],
                }
            } else {
                next_version += 1;
                versions[key as usize] = next_version;
                Op::Update {
                    key,
                    version: next_version,
                }
            }
        };
        let warm_ns = (WARM_S * size.scale * 1e9) as u64;
        let end_ns = warm_ns + (size.seconds * A_SHARE * size.scale * 1e9) as u64;
        let mut rng = Rng::derive(seed, "server-ycsb-a/open-loop");
        let zipf = Zipf::new(n as u64, 0.99);
        let a_due = arrivals(&mut rng, RATE, end_ns);
        let a_ops = a_due
            .iter()
            .map(|_| {
                let key = zipf.sample(&mut rng) as u32;
                op(&mut rng, key)
            })
            .collect();
        let b_seconds = size.seconds * (1.0 - A_SHARE) * size.scale;
        let b_ops = std::array::from_fn(|c| {
            let owned = (n - c).div_ceil(2) as u64;
            let zipf = Zipf::new(owned.max(2), 0.99);
            let mut rng = Rng::derive(seed, &format!("server-ycsb-a/closed-loop/{c}"));
            let len = (B_CAP_PER_S * b_seconds) as usize + PIPELINE;
            (0..len)
                .map(|_| {
                    let i = zipf.sample(&mut rng).min(owned - 1);
                    op(&mut rng, (2 * i) as u32 + c as u32)
                })
                .collect()
        });
        ServerYcsbA {
            keys,
            a_ops,
            a_due,
            warm_ns,
            end_ns,
            b_ops,
            b_seconds,
        }
    }

    pub fn digest(&self) -> String {
        let mut d = Digest::new();
        d.u64(self.keys.len() as u64);
        d.ops(&self.a_ops, &self.keys);
        for &t in &self.a_due {
            d.u64(t);
        }
        for ops in &self.b_ops {
            d.ops(ops, &self.keys);
        }
        d.hex()
    }

    pub fn run(&self, seed: u64, trace: bool) -> Outcome {
        let mut out = Outcome {
            digest: self.digest(),
            ..Outcome::default()
        };
        let epoch = Instant::now();
        let mut clock = PhaseClock::new(trace);
        let n = self.keys.len();
        let start = Instant::now();
        let mut last = None;
        for _ in 0..SETUP_REPS {
            if let Some((_, tree, handle)) = last.take() {
                stop(handle, tree);
            }
            let t = Instant::now();
            let p = pool(LatencyConfig::c600_300());
            let cfg = HartConfig {
                group_commit: true,
                ..HartConfig::default()
            };
            let tree = Arc::new(Hart::create(Arc::clone(&p), cfg).expect("create tree"));
            preload(&tree, &self.keys, n);
            let server_cfg = ServerConfig {
                workers: 2,
                group_commit: true,
                ..ServerConfig::default()
            };
            let handle = hart_server::start(Arc::clone(&tree), server_cfg).expect("start server");
            out.setup_s.push(t.elapsed().as_secs_f64());
            last = Some((p, tree, handle));
        }
        clock.setup(start, epoch);
        let (pool, tree, handle) = last.expect("at least one set-up");
        let addr = handle.local_addr();
        let sobs = |h: &ServerHandle| Obs::of(&h.obs_snapshot());
        let mut extras = ServerExtras::default();
        let mut rec = Recorder::new(trace, epoch);

        // ---- Phase A: open loop.
        let m = self.warm_from();
        let warm = clock.open("warm-up", false, &pool, || sobs(&handle));
        let (lat, late, checker, origin) =
            self.open_loop(addr, &mut clock, &handle, &pool, warm, epoch);
        rec.checker.merge(checker);
        let a_phase = clock.phases.last().map(|p| p.id).unwrap_or(0);
        let mut op_ns = 0u64;
        let full = ((self.end_ns - self.warm_ns) / WINDOW_NS) as usize;
        extras.windows = vec![Default::default(); full];
        for i in m..self.a_ops.len() {
            let class = self.a_ops[i].class();
            op_ns += if lat[i] == FAILED { 0 } else { lat[i] as u64 };
            let w = ((self.a_due[i] - self.warm_ns) / WINDOW_NS) as usize;
            if let Some(win) = extras.windows.get_mut(w) {
                win[usize::from(!class.is_read())].push(lat[i]);
            }
            let rec_trace = rec.tracing().then(|| OpRec {
                class,
                seq: 0,
                parent: a_phase,
                start_ns: rec.ns(origin) + self.a_due[i],
                dur_ns: lat[i] as u64,
                pm: None,
                rows: 0,
                late_ns: Some(late[i] as u64),
            });
            rec.op(class, lat[i] as u64, lat[i] != FAILED, rec_trace);
        }
        extras.lateness = late[m..].to_vec();
        let counts = exec::phase_counts(&rec, &[0; 5]).0;
        extras.writes = counts[Class::Update as usize];
        if let Some(p) = clock.phases.last_mut() {
            p.ops = counts;
            p.op_ns = op_ns;
        }
        if trace {
            extras.tree_search_p50_us = handle.obs_snapshot().ops.search.p50_ns as f64 / 1e3;
        }

        // ---- Phase B: closed loop, 2 connections.
        let o = clock.open("closed-loop", true, &pool, || sobs(&handle));
        let (sent, checker, secs, done_ns) = self.closed_loop(addr);
        let mut per_window = vec![0u64; (self.b_seconds * 1e9) as usize / WINDOW_NS as usize];
        for t in done_ns {
            if let Some(c) = per_window.get_mut((t / WINDOW_NS) as usize) {
                *c += 1;
            }
        }
        extras.window_kops = per_window
            .iter()
            .map(|&c| c as f64 / (WINDOW_NS as f64 / 1e9) / 1e3)
            .collect();
        rec.checker.merge(checker);
        let executed = || sent.iter().zip(&self.b_ops).flat_map(|(&s, ops)| &ops[..s]);
        let mut b_counts = [0u64; 5];
        for op in executed() {
            b_counts[op.class() as usize] += 1;
        }
        let b_ops: u64 = b_counts.iter().sum();
        extras.writes += b_counts[Class::Update as usize];
        clock.close(o, epoch, &pool, || sobs(&handle), b_counts, 0);
        out.ops = b_ops;
        out.wall_s = secs;
        out.peak_mem = tree.memory_stats();
        out.peak_keys = tree.len();
        out.peak_obs = clock.obs(|| sobs(&handle));
        out.ebr_max = out.peak_obs.pending_garbage;

        // ---- Shut down, recover, check the acknowledged writes.
        stop(handle, tree);
        let mut live = Live::full(n, 0);
        for op in self.a_ops.iter().chain(executed()) {
            live.apply(op);
        }
        let o = clock.open("recovery", false, &pool, Obs::default);
        let mut rng = Rng::derive(seed, "server-ycsb-a/recovery");
        let (tree, r) = exec::restart(
            &pool,
            RECOVERY_REPS,
            &self.keys,
            &live,
            &mut rng,
            &mut out.checker,
        );
        clock.close(o, epoch, &pool, || Obs::of(&tree.obs_snapshot()), [0; 5], 0);
        out.restart = r;

        let mut l = extras.lateness.clone();
        l.sort_unstable();
        let p99 = crate::stats::percentile(&l, 9_900);
        if p99 > MAX_LATE_P99_NS as f64 {
            extras.invalid = Some(format!(
                "open-loop send lateness p99 {:.0} µs > 1 ms",
                p99 / 1e3
            ));
        }
        out.server = Some(extras);
        out.absorb_server(rec);
        finish(&mut out, clock, epoch);
        out
    }

    /// Index of the first measured (post-warm-up) phase-A request.
    fn warm_from(&self) -> usize {
        self.a_due.partition_point(|&t| t < self.warm_ns)
    }

    /// Phase A. Returns per-request latency (ns from due time, [`FAILED`]
    /// when wrong or missing), per-request send lateness, the checks, and
    /// the schedule origin.
    fn open_loop(
        &self,
        addr: std::net::SocketAddr,
        clock: &mut PhaseClock,
        handle: &ServerHandle,
        pool: &hart::PmemPool,
        warm: exec::Open,
        epoch: Instant,
    ) -> (Vec<u32>, Vec<u32>, Checker, Instant) {
        let n = self.a_ops.len();
        let mut frames = Vec::new();
        let mut offs = Vec::with_capacity(n + 1);
        for (i, op) in self.a_ops.iter().enumerate() {
            offs.push(frames.len());
            frames.extend(encode_request(i as u64 + 1, &request(op, &self.keys)));
        }
        offs.push(frames.len());
        let conn = TcpStream::connect(addr).expect("connect");
        conn.set_nodelay(true).expect("nodelay");
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let reader = conn.try_clone().expect("clone socket");
        let origin = Instant::now() + Duration::from_millis(20);
        let due = &self.a_due;
        let (lat, late, checker) = std::thread::scope(|s| {
            let sender = s.spawn(|| {
                let mut conn = conn;
                let mut late = vec![0u32; n];
                let mut i = 0;
                while i < n {
                    let now = exec::ns_since(origin, Instant::now());
                    if due[i] > now {
                        std::thread::sleep(Duration::from_nanos(due[i] - now));
                        continue;
                    }
                    let batch = due_batch(due, i, now);
                    for k in batch.clone() {
                        late[k] = sample_ns(now - due[k]);
                    }
                    if conn
                        .write_all(&frames[offs[batch.start]..offs[batch.end]])
                        .is_err()
                    {
                        break;
                    }
                    i = batch.end;
                }
                late
            });
            let receiver = s.spawn(|| self.receive(reader, origin));
            // Close warm-up when the schedule crosses into phase A proper.
            let warm_end = origin + Duration::from_nanos(self.warm_ns);
            std::thread::sleep(warm_end.saturating_duration_since(Instant::now()));
            clock.close(
                warm,
                epoch,
                pool,
                || Obs::of(&handle.obs_snapshot()),
                [0; 5],
                0,
            );
            let measured = clock.open("open-loop", true, pool, || Obs::of(&handle.obs_snapshot()));
            let late = sender.join().expect("sender panicked");
            let (lat, checker) = receiver.join().expect("receiver panicked");
            clock.close(
                measured,
                epoch,
                pool,
                || Obs::of(&handle.obs_snapshot()),
                [0; 5],
                0,
            );
            (lat, late, checker)
        });
        (lat, late, checker, origin)
    }

    fn receive(&self, reader: TcpStream, origin: Instant) -> (Vec<u32>, Checker) {
        let n = self.a_ops.len();
        let mut lat = vec![FAILED; n];
        let mut checker = Checker::default();
        let mut r = BufReader::with_capacity(1 << 16, reader);
        let mut got = 0;
        while got < n {
            let body = match read_frame(&mut r, MAX_RESPONSE_BODY) {
                Ok(Some(b)) => b,
                other => {
                    checker.check(Err(format!(
                        "open loop: connection ended after {got}/{n}: {other:?}"
                    )));
                    break;
                }
            };
            let now = exec::ns_since(origin, Instant::now());
            got += 1;
            let Ok(resp) = parse_response(&body) else {
                checker.check(Err("open loop: unparsable response".into()));
                continue;
            };
            let i = resp.req_id.wrapping_sub(1) as usize;
            let Some(op) = self.a_ops.get(i) else {
                checker.check(Err(format!(
                    "open loop: unknown request id {}",
                    resp.req_id
                )));
                continue;
            };
            if checker.check(check_response(op, resp.status, &resp.payload)) {
                lat[i] = sample_ns(now.saturating_sub(self.a_due[i]));
            }
        }
        // Requests never answered were attempted and failed.
        for _ in got..n {
            checker.check(Err("open loop: request never answered".into()));
        }
        (lat, checker)
    }

    /// Phase B: each connection keeps [`PIPELINE`] requests in flight until
    /// the deadline. Returns requests sent (all answered) per connection,
    /// the checks, the wall seconds until both drained, and every
    /// response's arrival (ns from the phase start).
    fn closed_loop(&self, addr: std::net::SocketAddr) -> ([usize; 2], Checker, f64, Vec<u64>) {
        let barrier = Barrier::new(2);
        let start = std::sync::OnceLock::new();
        let results: Vec<(usize, Checker, Instant, Vec<u64>)> = std::thread::scope(|s| {
            let hs: Vec<_> = self
                .b_ops
                .iter()
                .map(|ops| {
                    let (barrier, start) = (&barrier, &start);
                    s.spawn(move || {
                        let conn = TcpStream::connect(addr).expect("connect");
                        conn.set_nodelay(true).expect("nodelay");
                        conn.set_read_timeout(Some(Duration::from_secs(30)))
                            .expect("timeout");
                        barrier.wait();
                        let t0 = *start.get_or_init(Instant::now);
                        let deadline = t0 + Duration::from_secs_f64(self.b_seconds);
                        let (sent, checker, done) = self.pipeline(conn, ops, t0, deadline);
                        (sent, checker, Instant::now(), done)
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("client panicked"))
                .collect()
        });
        let t0 = *start.get().expect("phase B started");
        let end = results.iter().map(|r| r.2).max().unwrap_or(t0);
        let mut checker = Checker::default();
        let mut sent = [0; 2];
        let mut done_ns = Vec::new();
        for (c, (s, ch, _, done)) in results.into_iter().enumerate() {
            sent[c] = s;
            checker.merge(ch);
            done_ns.extend(done);
        }
        (sent, checker, (end - t0).as_secs_f64(), done_ns)
    }

    fn pipeline(
        &self,
        conn: TcpStream,
        ops: &[Op],
        t0: Instant,
        deadline: Instant,
    ) -> (usize, Checker, Vec<u64>) {
        let mut checker = Checker::default();
        let mut done_ns = Vec::new();
        let mut w = conn.try_clone().expect("clone socket");
        let mut r = BufReader::with_capacity(1 << 16, conn);
        let mut buf = Vec::new();
        let first = PIPELINE.min(ops.len());
        for (i, op) in ops[..first].iter().enumerate() {
            buf.extend(encode_request(i as u64 + 1, &request(op, &self.keys)));
        }
        if w.write_all(&buf).is_err() {
            checker.check(Err("closed loop: send failed".into()));
            return (0, checker, done_ns);
        }
        let (mut sent, mut done) = (first, 0);
        while done < sent {
            let body = match read_frame(&mut r, MAX_RESPONSE_BODY) {
                Ok(Some(b)) => b,
                other => {
                    for _ in done..sent {
                        checker.check(Err(format!("closed loop: connection ended: {other:?}")));
                    }
                    break;
                }
            };
            done += 1;
            done_ns.push((Instant::now() - t0).as_nanos() as u64);
            let res = parse_response(&body)
                .map_err(|e| e.msg.to_string())
                .and_then(|resp| {
                    let op = ops
                        .get(resp.req_id.wrapping_sub(1) as usize)
                        .ok_or_else(|| {
                            format!("closed loop: unknown request id {}", resp.req_id)
                        })?;
                    check_response(op, resp.status, &resp.payload)
                });
            checker.check(res);
            if sent < ops.len() && Instant::now() < deadline {
                let frame = encode_request(sent as u64 + 1, &request(&ops[sent], &self.keys));
                if w.write_all(&frame).is_err() {
                    checker.check(Err("closed loop: send failed".into()));
                    break;
                }
                sent += 1;
            }
        }
        (sent, checker, done_ns)
    }
}

impl Outcome {
    fn absorb_server(&mut self, rec: Recorder) {
        self.checker.merge(rec.checker);
        self.samples = rec.samples;
        self.ledger = rec.ledger;
    }
}

/// Seeded Poisson arrival times at `rate` per second, in ns from the
/// schedule origin, up to `end_ns`.
fn arrivals(rng: &mut Rng, rate: f64, end_ns: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate * 1e9;
        if t >= end_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// The requests from `from` on that have come due by `now` (ns from the
/// origin, like `due`): the sender writes them together.
fn due_batch(due: &[u64], from: usize, now: u64) -> std::ops::Range<usize> {
    from..from + due[from..].partition_point(|&t| t <= now)
}

/// GET must return the precomputed value; PUT must be acknowledged OK.
fn check_response(op: &Op, status: u8, payload: &[u8]) -> Result<(), String> {
    match *op {
        Op::Search { key, version } => {
            let want = value(key, version);
            let mut expect = vec![want.len() as u8];
            expect.extend_from_slice(want.as_slice());
            if status == ST_OK && payload == expect {
                Ok(())
            } else {
                Err(format!(
                    "GET key#{key}: status {status}, payload {payload:02x?}"
                ))
            }
        }
        _ if status == ST_OK && payload.is_empty() => Ok(()),
        _ => Err(format!("PUT key#{}: status {status}", op.key())),
    }
}

/// Shut the server down and wait until its detached connection threads
/// have released the tree, so a recovery never overlaps the old instance.
fn stop(handle: ServerHandle, tree: Arc<Hart>) {
    handle.shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(&tree) > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(tree);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_poisson_at_the_rate() {
        let due = arrivals(&mut Rng::new(5), 40_000.0, 2_000_000_000);
        // 80 000 expected; a Poisson count's sd is ~283.
        assert!(
            (due.len() as f64 - 80_000.0).abs() < 1_500.0,
            "{}",
            due.len()
        );
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 2_000_000_000);
        let gaps: Vec<u64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!((mean - 25_000.0).abs() < 500.0, "mean gap {mean} ns");
        assert_eq!(due, arrivals(&mut Rng::new(5), 40_000.0, 2_000_000_000));
    }

    #[test]
    fn due_batches_and_lateness() {
        let due = [10, 20, 20, 35, 50];
        assert_eq!(due_batch(&due, 0, 5), 0..0, "nothing due yet");
        assert_eq!(due_batch(&due, 0, 20), 0..3, "due exactly now is sent");
        assert_eq!(due_batch(&due, 3, 49), 3..4);
        assert_eq!(due_batch(&due, 4, 1_000), 4..5);
        assert_eq!(due_batch(&due, 5, 1_000), 5..5, "all sent");
        // Lateness is send time minus due time; latency runs from the due
        // time, so a late send is charged to the request it delayed.
        assert_eq!(sample_ns(40 - due[3]), 5);
        assert_eq!(sample_ns(u64::MAX), FAILED - 1, "never reads as a failure");
    }

    #[test]
    fn responses_are_checked_against_the_expected_value() {
        let get = Op::Search { key: 3, version: 9 };
        let mut ok = vec![8u8];
        ok.extend_from_slice(value(3, 9).as_slice());
        assert!(check_response(&get, ST_OK, &ok).is_ok());
        let mut stale = vec![8u8];
        stale.extend_from_slice(value(3, 8).as_slice());
        assert!(check_response(&get, ST_OK, &stale).is_err());
        let put = Op::Update {
            key: 3,
            version: 10,
        };
        assert!(check_response(&put, ST_OK, &[]).is_ok());
        assert!(check_response(&put, hart_server::proto::ST_BUSY, &[]).is_err());
    }
}
