//! Per-layer measurements, each taken from outside the layer: counter
//! deltas over the measured window (`Session::stats`, `server_stats`,
//! `store_stats`), spans around every `Session` call, a counting
//! `DiskManager` wrapper, and timed codec calls.

use crate::load::{ClientRecord, LoadResult, SpanKind, OBJECT_SIZE};
use crate::report::{percentile, ratio, Report};
use fgs_core::{CallbackId, CallbackTarget, ClientId, ClientStats, DataGrant, Oid, PageId};
use fgs_core::{ServerMsg, TxnId};
use fgs_oodb::codec::{decode_frame, encode_frame, Frame};
use fgs_pagestore::{DiskManager, MemDisk};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A `MemDisk` that counts reads, writes and syncs and times reads.
pub struct CountingDisk {
    inner: MemDisk,
    read_ns: Mutex<Vec<u64>>,
    writes: AtomicU64,
    syncs: AtomicU64,
}

impl CountingDisk {
    pub fn new(page_size: usize) -> Self {
        CountingDisk {
            inner: MemDisk::new(page_size),
            read_ns: Mutex::new(Vec::new()),
            writes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
        }
    }

    /// `[reads, writes, syncs]` so far.
    pub fn counts(&self) -> [u64; 3] {
        [
            self.read_ns.lock().expect("disk sample lock").len() as u64,
            self.writes.load(Ordering::Relaxed),
            self.syncs.load(Ordering::Relaxed),
        ]
    }

    /// Read latencies (ns) of reads `from..to`, oldest first.
    fn read_samples(&self, from: u64, to: u64) -> Vec<u64> {
        let all = self.read_ns.lock().expect("disk sample lock");
        let to = (to as usize).min(all.len());
        all[(from as usize).min(to)..to].to_vec()
    }
}

impl DiskManager for CountingDisk {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, page: PageId) -> io::Result<Vec<u8>> {
        let t = Instant::now();
        let res = self.inner.read_page(page);
        let ns = t.elapsed().as_nanos() as u64;
        self.read_ns.lock().expect("disk sample lock").push(ns);
        res
    }

    fn write_page(&self, page: PageId, data: &[u8]) -> io::Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_page(page, data)
    }

    fn sync(&self) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
}

/// Mean ns per `encode_frame` and per `decode_frame` call over the two
/// frames that dominate TCP traffic under contention: a page grant
/// carrying a `page_size` image, and an adaptive callback.
pub fn codec_ns(page_size: usize) -> (f64, f64) {
    const ROUNDS: usize = 200_000;
    let txn = TxnId::new(ClientId(1), 42);
    let page = PageId(17);
    let frames = [
        Frame::Server {
            msg: ServerMsg::ReadGranted {
                txn,
                oid: Oid::new(page, 3),
                data: DataGrant::Page {
                    page,
                    unavailable: vec![5, 9],
                    epoch: 7,
                },
            },
            page_image: Some(Arc::new(vec![0x5a; page_size])),
            object_bytes: None,
        },
        Frame::Server {
            msg: ServerMsg::Callback {
                callback: CallbackId(99),
                page,
                target: CallbackTarget::PageAdaptive { slot: 3 },
            },
            page_image: None,
            object_bytes: None,
        },
    ];
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for f in &frames {
            black_box(encode_frame(black_box(f)));
        }
    }
    let encode = t.elapsed().as_nanos() as f64 / (ROUNDS * frames.len()) as f64;
    // `decode_frame` takes the body after the 4-byte length prefix.
    let encoded: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for (bytes, f) in encoded.iter().zip(&frames) {
            let back = decode_frame(black_box(&bytes[4..])).expect("frame decodes");
            debug_assert_eq!(&back, f);
            black_box(back);
        }
    }
    let decode = t.elapsed().as_nanos() as f64 / (ROUNDS * frames.len()) as f64;
    (encode, decode)
}

fn client_delta(r: &LoadResult, f: fn(&ClientStats) -> u64) -> f64 {
    r.records
        .iter()
        .filter_map(|c| {
            Some(f(c.stats_after.as_ref()?).saturating_sub(f(c.stats_before.as_ref()?)))
        })
        .sum::<u64>() as f64
}

/// The engine-side per-layer metrics of a traced load.
pub fn engine_layers(report: &mut Report, r: &LoadResult, page_size: usize) {
    // Client-observed tails, pooled over the untraced segments. They
    // are reported here, not as end-to-end metrics: a busy spell of a
    // shared host moves a p99 by far more than any bound allows.
    for (name, unit, kind) in [
        ("txn_p99_ms", "ms", SpanKind::Txn),
        ("commit_p99_us", "us", SpanKind::Commit),
        ("read_p99_us", "us", SpanKind::Read),
        ("write_p99_us", "us", SpanKind::Write),
    ] {
        let h = r.pooled_hist(kind);
        let scale = if unit == "ms" { 1e6 } else { 1e3 };
        report.add(name, h.quantile(0.99) / scale, unit, h.count());
    }

    let commits_n: u64 = r
        .records
        .iter()
        .map(|c| c.commits_plain + c.commits_traced)
        .sum();
    let commits = commits_n as f64;
    let window = r.window_s();
    let (b, a) = (&r.before, &r.after);
    let per_commit = |v: f64| ratio(v, commits);
    let busy = |ns: f64| ratio(ns / 1e9, window);
    macro_rules! srv {
        ($f:ident) => {
            a.server.$f.saturating_sub(b.server.$f) as f64
        };
    }
    macro_rules! st {
        ($f:ident) => {
            a.store.$f.saturating_sub(b.store.$f) as f64
        };
    }

    // oodb::session → client runtime, from the spans.
    let sum = |f: fn(&ClientRecord) -> u64| r.records.iter().map(f).sum::<u64>();
    let mut probe: Vec<u64> = r
        .records
        .iter()
        .flat_map(|c| &c.spans)
        .filter(|s| s.kind == SpanKind::Stats)
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    let probe_n = probe.len() as u64;
    report.add(
        "session.rpc_floor_us",
        percentile(&mut probe, 0.5) as f64 / 1e3,
        "us",
        probe_n,
    );
    let mut txn_ns: HashMap<u64, u64> = HashMap::new();
    for s in r.records.iter().flat_map(|c| &c.spans) {
        if s.kind == SpanKind::Txn {
            txn_ns.insert(s.id, s.end_ns - s.start_ns);
        }
    }
    let mut by_kind: HashMap<&'static str, u64> = HashMap::new();
    for s in r.records.iter().flat_map(|c| &c.spans) {
        if s.parent != 0 && txn_ns.contains_key(&s.parent) {
            *by_kind.entry(s.kind.name()).or_default() += s.end_ns - s.start_ns;
        }
    }
    let txn_total = txn_ns.values().sum::<u64>() as f64;
    let traced_txns = txn_ns.len() as u64;
    for (name, kind) in [
        ("session.begin_share", "begin"),
        ("session.read_share", "read"),
        ("session.write_share", "write"),
        ("session.commit_share", "commit"),
    ] {
        let ns = by_kind.get(kind).copied().unwrap_or(0) as f64;
        report.add(name, ratio(ns, txn_total), "frac", traced_txns);
    }
    let accounted = by_kind.values().sum::<u64>() as f64;
    report.add(
        "trace.unaccounted_frac",
        ratio(txn_total - accounted, txn_total),
        "frac",
        traced_txns,
    );
    let plain = sum(|c| c.commits_plain) as f64;
    let traced = sum(|c| c.commits_traced) as f64;
    report.add(
        "trace.overhead_frac",
        1.0 - ratio(ratio(traced, r.traced_s), ratio(plain, r.plain_s)),
        "frac",
        commits_n,
    );
    report.add(
        "restarts_per_commit",
        per_commit(sum(|c| c.restarts) as f64),
        "count",
        commits_n,
    );
    let attempted = sum(|c| c.attempted);
    report.add(
        "failed_frac",
        ratio(sum(|c| c.failed) as f64, attempted as f64),
        "frac",
        attempted,
    );

    // fgs-core client engine and cache.
    let hits = client_delta(r, |s| s.hits);
    let misses = client_delta(r, |s| s.misses);
    report.add(
        "client.hit_rate",
        ratio(hits, hits + misses),
        "frac",
        (hits + misses) as u64,
    );
    report.add(
        "client.misses_per_commit",
        per_commit(misses),
        "count",
        commits_n,
    );
    report.add(
        "client.evictions_per_commit",
        per_commit(client_delta(r, |s| s.evictions)),
        "count",
        commits_n,
    );
    report.add(
        "client.callbacks_per_commit",
        per_commit(client_delta(r, |s| s.callbacks_received)),
        "count",
        commits_n,
    );
    report.add(
        "client.pages_purged_per_commit",
        per_commit(client_delta(r, |s| s.pages_purged)),
        "count",
        commits_n,
    );

    // fgs-core server engine.
    report.add(
        "server.callbacks_per_commit",
        per_commit(srv!(callbacks_sent)),
        "count",
        commits_n,
    );
    report.add(
        "server.busy_replies_per_commit",
        per_commit(srv!(busy_replies)),
        "count",
        commits_n,
    );
    report.add(
        "server.deescalations_per_commit",
        per_commit(srv!(deescalations)),
        "count",
        commits_n,
    );
    report.add(
        "server.blocks_per_commit",
        per_commit(srv!(blocks)),
        "count",
        commits_n,
    );
    report.add(
        "server.deadlocks_per_commit",
        per_commit(srv!(deadlocks)),
        "count",
        commits_n,
    );
    report.add(
        "server.pages_shipped_per_commit",
        per_commit(srv!(pages_shipped)),
        "count",
        commits_n,
    );
    let grants = srv!(page_grants) + srv!(obj_grants);
    report.add(
        "server.page_grant_frac",
        ratio(srv!(page_grants), grants),
        "frac",
        grants as u64,
    );

    // oodb::server pipeline.
    report.add(
        "pipeline.msgs_in_per_commit",
        per_commit(st!(dispatch_batch_msgs)),
        "count",
        commits_n,
    );
    report.add(
        "pipeline.msgs_out_per_commit",
        per_commit(st!(send_batch_msgs)),
        "count",
        commits_n,
    );
    report.add(
        "pipeline.dispatch_batch_avg",
        ratio(st!(dispatch_batch_msgs), st!(dispatch_batches)),
        "count",
        st!(dispatch_batches) as u64,
    );
    report.add(
        "pipeline.send_batch_avg",
        ratio(st!(send_batch_msgs), st!(send_batches)),
        "count",
        st!(send_batches) as u64,
    );
    report.add(
        "pipeline.lock_wait_us_per_commit",
        per_commit(st!(lock_wait_ns) / 1e3),
        "us",
        commits_n,
    );
    report.add(
        "pipeline.lock_hold_us_per_commit",
        per_commit(st!(lock_hold_ns) / 1e3),
        "us",
        commits_n,
    );
    report.add(
        "pipeline.protocol_busy_frac",
        busy(st!(protocol_ns)),
        "frac",
        commits_n,
    );
    report.add(
        "pipeline.dispatch_busy_frac",
        busy(st!(dispatch_ns)),
        "frac",
        commits_n,
    );
    // The server's latency histogram is cumulative: it covers warm-up too.
    report.add(
        "pipeline.server_commit_p50_us",
        a.store.commit_p50_us as f64,
        "us",
        a.store.commit_latency_samples,
    );
    report.add(
        "pipeline.server_commit_p99_us",
        a.store.commit_p99_us as f64,
        "us",
        a.store.commit_latency_samples,
    );

    // pagestore WAL, log writer and completion router.
    let server_commits = st!(commits);
    report.add(
        "wal.forces_per_commit",
        per_commit(st!(log_forces)),
        "count",
        commits_n,
    );
    report.add(
        "wal.seals_per_commit",
        per_commit(st!(wal_seals)),
        "count",
        commits_n,
    );
    report.add(
        "wal.writes_per_commit",
        per_commit(st!(wal_writes)),
        "count",
        commits_n,
    );
    report.add(
        "wal.commits_per_force",
        ratio(server_commits, st!(log_forces)),
        "count",
        st!(log_forces) as u64,
    );
    let log_bytes = a.log_bytes.saturating_sub(b.log_bytes) as f64;
    report.add(
        "wal.bytes_per_commit",
        per_commit(log_bytes),
        "B",
        commits_n,
    );
    let user_bytes = (sum(|c| c.writes_window) * OBJECT_SIZE as u64) as f64;
    report.add(
        "wal.bytes_per_user_byte",
        ratio(log_bytes, user_bytes),
        "ratio",
        sum(|c| c.writes_window),
    );
    report.add(
        "wal.durability_busy_frac",
        busy(st!(durability_ns)),
        "frac",
        commits_n,
    );
    report.add(
        "completion.deferred_ack_frac",
        ratio(st!(deferred_acks), server_commits),
        "frac",
        server_commits as u64,
    );

    // pagestore disk, through the counting wrapper.
    let [reads, writes, syncs] = [0, 1, 2].map(|i| a.disk[i].saturating_sub(b.disk[i]) as f64);
    report.add(
        "disk.reads_per_commit",
        per_commit(reads),
        "count",
        commits_n,
    );
    report.add(
        "disk.writes_per_commit",
        per_commit(writes),
        "count",
        commits_n,
    );
    report.add(
        "disk.syncs_per_commit",
        per_commit(syncs),
        "count",
        commits_n,
    );
    let mut read_ns = r
        .disk
        .as_ref()
        .map_or_else(Vec::new, |d| d.read_samples(b.disk[0], a.disk[0]));
    let read_n = read_ns.len() as u64;
    report.add(
        "disk.read_us_p50",
        percentile(&mut read_ns, 0.5) as f64 / 1e3,
        "us",
        read_n,
    );

    // oodb::codec, on frames of this database's page size.
    let (encode, decode) = codec_ns(page_size);
    report.add("codec.encode_ns_per_frame", encode, "ns", 1);
    report.add("codec.decode_ns_per_frame", decode, "ns", 1);

    // fgs-workload: load-generator cost, kept out of every transaction span.
    let gen = r.pooled_hist(SpanKind::Gen);
    report.add(
        "workload.gen_us_per_txn",
        gen.mean() / 1e3,
        "us",
        gen.count(),
    );
}

/// Writes every span as CSV (`client,id,parent,name,start_ns,end_ns`).
pub fn write_spans(path: &std::path::Path, r: &LoadResult) -> io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "client,id,parent,name,start_ns,end_ns")?;
    for (client, rec) in r.records.iter().enumerate() {
        for s in &rec.spans {
            writeln!(
                out,
                "{client},{},{},{},{},{}",
                s.id,
                s.parent,
                s.kind.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}
