//! `hart-server`: a network-facing KV front-end over a shared [`Hart`].
//!
//! Architecture (DESIGN.md §Server):
//!
//! * **Acceptor** thread: accepts TCP connections; each gets a dedicated
//!   *reader* thread (frame parsing, admission control, tenancy) and a
//!   *writer* thread (serializing response frames with `write_all`).
//! * **Workers**: `ServerConfig::workers` threads, each owning an mpsc
//!   queue. Readers shard requests onto workers by key hash, so pipelined
//!   requests for the same key execute in submission order while distinct
//!   keys fan out across workers (and across HART's internal shards).
//! * **Committer** (group-commit mode): write ops run under
//!   [`PmemPool::run_deferred`] in the worker — their `persist()` fences
//!   are recorded, not paid — and the recorded batch is enqueued on a
//!   [`GroupCommitter`]. A single committer thread completes tickets and
//!   releases the buffered OK responses only once the batch's single
//!   amortized flush has made the ops durable. Workers never block on the
//!   batch window. With `group_commit: false` (the kill-switch) every
//!   write pays its own fence before the response is sent, and acked-write
//!   durability is identical (proven by `tests/server_group_commit.rs`).
//! * **Admission control**: a global in-flight counter; requests beyond
//!   `ServerConfig::max_inflight` are refused immediately with `BUSY`
//!   (clean backpressure, no queue growth).
//! * **Tenancy**: `HELLO <tenant>` prefixes every subsequent key (and both
//!   scan bounds) with `tenant/`, giving each connection a private
//!   namespace inside the shared tree; scan responses strip the prefix.
//!
//! Reads may observe writes that are not yet durable (standard group-commit
//! read-uncommitted-durability); acknowledged writes are always durable.

pub mod client;
pub mod proto;

use hart::{Hart, PersistentIndex};
use hart_kv::{Key, Value};
use hart_obs::ObsSnapshot;
use hart_pm::{GroupCommitter, GroupConfig, PersistBatch, Ticket};
use parking_lot::{rank, Mutex};
use proto::*;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests/harness).
    pub addr: String,
    /// Worker threads executing tree operations.
    pub workers: usize,
    /// Admission-control bound on concurrently in-flight ops.
    pub max_inflight: usize,
    /// Group-commit batching for write ops (see crate docs). `false` is
    /// the per-op-persist kill-switch.
    pub group_commit: bool,
    /// Batching knobs used when `group_commit` is on.
    pub group: GroupConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_inflight: 1024,
            group_commit: false,
            group: GroupConfig::default(),
        }
    }
}

/// Lock-free server-level counters, exported into
/// [`hart_obs::ServerSection`].
#[derive(Default)]
struct Counters {
    connections_total: AtomicU64,
    connections_active: AtomicU64,
    requests_total: AtomicU64,
    busy_rejections: AtomicU64,
    inflight_peak: AtomicU64,
    proto_errors: AtomicU64,
}

/// One request dispatched to a worker.
struct WorkItem {
    req_id: u64,
    cmd: Cmd,
    resp: mpsc::Sender<Vec<u8>>,
}

enum Cmd {
    Get(Key),
    Put(Key, Value),
    Del(Key),
    Scan(Key, Key, usize, usize), // start, end, limit, tenant-prefix length
}

/// A write waiting for its group-commit flush before its response may go
/// out.
struct CommitItem {
    ticket: Ticket,
    frame: Vec<u8>,
    req_id: u64,
    resp: mpsc::Sender<Vec<u8>>,
}

struct Shared {
    hart: Arc<Hart>,
    committer: Option<Arc<GroupCommitter>>,
    cfg: ServerConfig,
    stop: AtomicBool,
    inflight: AtomicUsize,
    counters: Counters,
    /// Clones of accepted sockets, so shutdown can unblock reader threads.
    /// Ranked top of the lock hierarchy (DESIGN.md §8): nothing ranked is
    /// ever acquired while it is held.
    conns: Mutex<Vec<TcpStream>>,
}

impl Shared {
    /// Send the final response for an admitted request and release its
    /// admission slot.
    fn finish(&self, resp: &mpsc::Sender<Vec<u8>>, frame: Vec<u8>) {
        let _ = resp.send(frame); // receiver gone = connection closed; fine
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// The tree's observability snapshot with the server/group sections
    /// overlaid.
    fn obs_snapshot(&self) -> ObsSnapshot {
        let mut s = self.hart.obs_snapshot();
        let c = &self.counters;
        s.server.connections_total = c.connections_total.load(Ordering::Relaxed);
        s.server.connections_active = c.connections_active.load(Ordering::Relaxed);
        s.server.requests_total = c.requests_total.load(Ordering::Relaxed);
        s.server.busy_rejections = c.busy_rejections.load(Ordering::Relaxed);
        s.server.inflight_peak = c.inflight_peak.load(Ordering::Relaxed);
        s.server.proto_errors = c.proto_errors.load(Ordering::Relaxed);
        if let Some(gc) = &self.committer {
            let g = gc.stats();
            s.group.enabled = true;
            s.group.flushes = g.flushes;
            s.group.ops_committed = g.ops_committed;
            s.group.ops_failed = g.ops_failed;
            s.group.occupancy_mean = g.occupancy_mean_milli as f64 / 1000.0;
            s.group.occupancy_max = g.occupancy_max;
        }
        s
    }
}

/// A running server; dropping it shuts it down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The group committer, when group-commit is enabled (test hook).
    pub fn committer(&self) -> Option<&Arc<GroupCommitter>> {
        self.shared.committer.as_ref()
    }

    /// Observability snapshot with server/group sections filled in.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        self.shared.obs_snapshot()
    }

    /// Stop accepting, close every connection, drain workers, flush any
    /// open batch, and join the service threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor; it re-checks `stop` per iteration.
        let _ = TcpStream::connect(self.addr);
        // Joining in spawn order: acceptor first (so no new connections
        // register), then close sockets to unblock readers, then workers
        // and the committer drain out as their channels close.
        let acceptor = self.threads.remove(0);
        let _ = acceptor.join();
        for s in self.shared.conns.lock().drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(gc) = &self.shared.committer {
            gc.flush_now();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Start a server over `hart` per `cfg`.
///
/// `cfg.group_commit` should normally mirror
/// `hart.config().group_commit`; the server trusts its own flag so tests
/// can exercise both paths over one tree config.
pub fn start(hart: Arc<Hart>, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let committer = cfg
        .group_commit
        .then(|| Arc::new(GroupCommitter::new(Arc::clone(hart.pm_pool()), cfg.group)));
    let workers = cfg.workers.max(1);
    let shared = Arc::new(Shared {
        hart,
        committer,
        cfg,
        stop: AtomicBool::new(false),
        inflight: AtomicUsize::new(0),
        counters: Counters::default(),
        conns: Mutex::new_ranked(Vec::new(), rank::SERVER_CONNS, false, "Shared.conns"),
    });

    let (commit_tx, commit_rx) = mpsc::channel::<CommitItem>();
    let mut threads = Vec::new();

    let mut worker_txs = Vec::with_capacity(workers);
    let mut worker_rxs = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, rx) = mpsc::channel::<WorkItem>();
        worker_txs.push(tx);
        worker_rxs.push(rx);
    }

    // Acceptor (joined first by shutdown — keep it at index 0).
    {
        let shared = Arc::clone(&shared);
        let worker_txs = worker_txs.clone();
        threads.push(std::thread::spawn(move || {
            accept_loop(listener, shared, worker_txs);
        }));
    }
    drop(worker_txs); // readers hold the only remaining clones

    for rx in worker_rxs {
        let shared = Arc::clone(&shared);
        let commit_tx = commit_tx.clone();
        threads.push(std::thread::spawn(move || {
            worker_loop(shared, rx, commit_tx)
        }));
    }
    drop(commit_tx);

    if shared.committer.is_some() {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            committer_loop(shared, commit_rx)
        }));
    }

    Ok(ServerHandle {
        shared,
        addr,
        threads,
    })
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    worker_txs: Vec<mpsc::Sender<WorkItem>>,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(s) => s,
            Err(_) => break,
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let _ = stream.set_nodelay(true);
        shared
            .counters
            .connections_total
            .fetch_add(1, Ordering::Relaxed);
        shared
            .counters
            .connections_active
            .fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().push(clone);
        }
        let shared = Arc::clone(&shared);
        let worker_txs = worker_txs.clone();
        // Reader/writer threads are detached: they exit when the socket
        // closes (shutdown closes every registered socket).
        std::thread::spawn(move || conn_reader(stream, shared, worker_txs));
    }
}

/// Per-connection writer: the single thread that writes this connection's
/// socket, serializing frames from workers/committer/reader.
fn conn_writer(mut stream: TcpStream, rx: mpsc::Receiver<Vec<u8>>) {
    while let Ok(frame) = rx.recv() {
        if stream.write_all(&frame).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn conn_reader(
    mut stream: TcpStream,
    shared: Arc<Shared>,
    worker_txs: Vec<mpsc::Sender<WorkItem>>,
) {
    let (resp_tx, resp_rx) = mpsc::channel::<Vec<u8>>();
    let writer = {
        let ws = stream.try_clone();
        match ws {
            Ok(ws) => std::thread::spawn(move || conn_writer(ws, resp_rx)),
            Err(_) => {
                shared
                    .counters
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
                return;
            }
        }
    };
    let mut tenant_prefix: Vec<u8> = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let body = match read_frame(&mut stream, MAX_REQUEST_BODY) {
            Ok(Some(b)) => b,
            Ok(None) => break,
            Err(e) => {
                if e.kind() == std::io::ErrorKind::InvalidData {
                    // Oversized/absurd length prefix: the stream is
                    // unrecoverable (we never read the body). Tell the
                    // client with the connection-level id and hang up.
                    shared.counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = resp_tx.send(encode_response(0, ST_ERR, e.to_string().as_bytes()));
                }
                break;
            }
        };
        let (req_id, req) = match parse_request(&body) {
            Ok(r) => r,
            Err(pe) => {
                shared.counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                let _ = resp_tx.send(encode_response(pe.req_id, ST_ERR, pe.msg.as_bytes()));
                break; // a malformed frame means the stream is desynced
            }
        };
        shared
            .counters
            .requests_total
            .fetch_add(1, Ordering::Relaxed);
        match req {
            Request::Hello { tenant } => {
                if tenant.is_empty()
                    || tenant.len() > MAX_TENANT_LEN
                    || tenant.contains(&0)
                    || tenant.contains(&b'/')
                {
                    shared.counters.proto_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = resp_tx.send(encode_response(req_id, ST_ERR, b"bad tenant name"));
                    continue;
                }
                tenant_prefix = tenant;
                tenant_prefix.push(b'/');
                let _ = resp_tx.send(encode_response(req_id, ST_OK, &[]));
            }
            Request::Stats => {
                let text = shared.obs_snapshot().to_prometheus();
                let _ = resp_tx.send(encode_response(req_id, ST_OK, text.as_bytes()));
            }
            other => {
                dispatch(
                    &shared,
                    &worker_txs,
                    &resp_tx,
                    req_id,
                    other,
                    &tenant_prefix,
                );
            }
        }
    }
    shared
        .counters
        .connections_active
        .fetch_sub(1, Ordering::Relaxed);
    // Drain before hanging up: drop our sender and let the writer flush
    // whatever is still queued (e.g. the final protocol-error frame) —
    // shutting the socket down first would eat it. In-flight ops hold
    // sender clones, so the join also waits for their responses.
    drop(resp_tx);
    let _ = writer.join();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn make_key(prefix: &[u8], raw: &[u8]) -> Result<Key, hart_kv::Error> {
    if prefix.is_empty() {
        Key::new(raw)
    } else {
        let mut buf = Vec::with_capacity(prefix.len() + raw.len());
        buf.extend_from_slice(prefix);
        buf.extend_from_slice(raw);
        Key::new(&buf)
    }
}

fn shard_of(key: &Key, n: usize) -> usize {
    // FNV-1a over the key bytes; cheap and stable.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.as_slice() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % n as u64) as usize
}

fn dispatch(
    shared: &Arc<Shared>,
    worker_txs: &[mpsc::Sender<WorkItem>],
    resp_tx: &mpsc::Sender<Vec<u8>>,
    req_id: u64,
    req: Request,
    prefix: &[u8],
) {
    // Admission control: refuse (don't queue) beyond the in-flight bound.
    let prev = shared.inflight.fetch_add(1, Ordering::Relaxed);
    if prev >= shared.cfg.max_inflight {
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
        shared
            .counters
            .busy_rejections
            .fetch_add(1, Ordering::Relaxed);
        let _ = resp_tx.send(encode_response(
            req_id,
            ST_BUSY,
            b"server at in-flight limit",
        ));
        return;
    }
    shared
        .counters
        .inflight_peak
        .fetch_max(prev as u64 + 1, Ordering::Relaxed);

    let bad_key = |shared: &Shared, e: hart_kv::Error| {
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
        let _ = resp_tx.send(encode_response(req_id, ST_ERR, e.to_string().as_bytes()));
    };
    let cmd = match req {
        Request::Get { key } => match make_key(prefix, &key) {
            Ok(k) => Cmd::Get(k),
            Err(e) => return bad_key(shared, e),
        },
        Request::Put { key, value } => {
            let k = match make_key(prefix, &key) {
                Ok(k) => k,
                Err(e) => return bad_key(shared, e),
            };
            match Value::new(&value) {
                Ok(v) => Cmd::Put(k, v),
                Err(e) => return bad_key(shared, e),
            }
        }
        Request::Del { key } => match make_key(prefix, &key) {
            Ok(k) => Cmd::Del(k),
            Err(e) => return bad_key(shared, e),
        },
        Request::Scan { start, end, limit } => {
            let s = match make_key(prefix, &start) {
                Ok(k) => k,
                Err(e) => return bad_key(shared, e),
            };
            let t = match make_key(prefix, &end) {
                Ok(k) => k,
                Err(e) => return bad_key(shared, e),
            };
            let lim = limit.min(MAX_SCAN_LIMIT) as usize;
            Cmd::Scan(s, t, lim, prefix.len())
        }
        Request::Hello { .. } | Request::Stats => unreachable!("handled inline"),
    };
    let shard = match &cmd {
        Cmd::Get(k) | Cmd::Put(k, _) | Cmd::Del(k) | Cmd::Scan(k, _, _, _) => {
            shard_of(k, worker_txs.len())
        }
    };
    let item = WorkItem {
        req_id,
        cmd,
        resp: resp_tx.clone(),
    };
    if worker_txs[shard].send(item).is_err() {
        // Server shutting down.
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
        let _ = resp_tx.send(encode_response(req_id, ST_ERR, b"server shutting down"));
    }
}

fn worker_loop(
    shared: Arc<Shared>,
    rx: mpsc::Receiver<WorkItem>,
    commit_tx: mpsc::Sender<CommitItem>,
) {
    let hart = Arc::clone(&shared.hart);
    while let Ok(item) = rx.recv() {
        let WorkItem { req_id, cmd, resp } = item;
        match cmd {
            Cmd::Get(k) => {
                let frame = match hart.search(&k) {
                    Ok(Some(v)) => {
                        let mut p = Vec::with_capacity(1 + v.len());
                        p.push(v.len() as u8);
                        p.extend_from_slice(v.as_slice());
                        encode_response(req_id, ST_OK, &p)
                    }
                    Ok(None) => encode_response(req_id, ST_NOT_FOUND, &[]),
                    Err(e) => encode_response(req_id, ST_ERR, e.to_string().as_bytes()),
                };
                shared.finish(&resp, frame);
            }
            Cmd::Put(k, v) => {
                run_write(&shared, &commit_tx, req_id, resp, || {
                    hart.insert(&k, &v).map(|()| true)
                });
            }
            Cmd::Del(k) => {
                run_write(&shared, &commit_tx, req_id, resp, || hart.remove(&k));
            }
            Cmd::Scan(s, t, lim, strip) => {
                let frame = match hart.scan(&s, &t, lim) {
                    Ok(rows) => {
                        let out: Vec<(Vec<u8>, Vec<u8>)> = rows
                            .iter()
                            .filter(|(k, _)| k.as_slice().len() >= strip)
                            .map(|(k, v)| (k.as_slice()[strip..].to_vec(), v.as_slice().to_vec()))
                            .collect();
                        encode_response(req_id, ST_OK, &encode_scan_payload(&out))
                    }
                    Err(e) => encode_response(req_id, ST_ERR, e.to_string().as_bytes()),
                };
                shared.finish(&resp, frame);
            }
        }
    }
}

/// Execute a write op on the per-op or group-commit path. `f` returns
/// `Ok(true)` for OK, `Ok(false)` for NOT_FOUND (delete of absent key).
fn run_write(
    shared: &Arc<Shared>,
    commit_tx: &mpsc::Sender<CommitItem>,
    req_id: u64,
    resp: mpsc::Sender<Vec<u8>>,
    f: impl FnOnce() -> hart_kv::Result<bool>,
) {
    match &shared.committer {
        None => {
            // Kill-switch path: the op has already paid all its fences by
            // the time `f` returns, so the ack is durable.
            let frame = write_frame(req_id, f());
            // pmlint: ack-ok(per-op path: every persist fence is paid inside
            // the op itself before `f` returns, so the frame is born durable)
            shared.finish(&resp, frame);
        }
        Some(gc) => {
            let pool = Arc::clone(shared.hart.pm_pool());
            let (res, batch): (hart_kv::Result<bool>, PersistBatch) = pool.run_deferred(f);
            // Enqueue even on a failed op: any persists it did record must
            // still reach the durable image in order, exactly as they
            // would have on the per-op path.
            let ticket = gc.enqueue(batch);
            let frame = write_frame(req_id, res);
            let item = CommitItem {
                ticket,
                frame,
                req_id,
                resp,
            };
            if let Err(mpsc::SendError(item)) = commit_tx.send(item) {
                // Committer gone (shutdown): complete inline.
                let frame = match gc.complete(item.ticket) {
                    Ok(()) => item.frame,
                    Err(e) => encode_response(item.req_id, ST_ERR, e.to_string().as_bytes()),
                };
                shared.finish(&item.resp, frame);
            }
        }
    }
}

fn write_frame(req_id: u64, res: hart_kv::Result<bool>) -> Vec<u8> {
    match res {
        Ok(true) => encode_response(req_id, ST_OK, &[]),
        Ok(false) => encode_response(req_id, ST_NOT_FOUND, &[]),
        Err(e) => encode_response(req_id, ST_ERR, e.to_string().as_bytes()),
    }
}

/// Releases write acknowledgments in flush order: `complete` blocks until
/// the op's batch has been flushed (flushing itself once the window
/// expires), so an OK response frame never leaves the server before the
/// write is durable.
fn committer_loop(shared: Arc<Shared>, rx: mpsc::Receiver<CommitItem>) {
    let gc = shared
        .committer
        .as_ref()
        .expect("committer thread without committer");
    while let Ok(item) = rx.recv() {
        let frame = match gc.complete(item.ticket) {
            Ok(()) => item.frame,
            Err(e) => encode_response(item.req_id, ST_ERR, e.to_string().as_bytes()),
        };
        shared.finish(&item.resp, frame);
    }
}
