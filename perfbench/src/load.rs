//! The closed-loop engine load: two client threads, each with its own
//! `Session` and its own `Pcg32` stream, run generated reference strings
//! through an embedded `Oodb` with zero think time.
//!
//! Every write stores the object's previous counter + 1 in its first 8
//! bytes, so after the run the counters summed over the database must
//! equal the number of committed writes: a lost update or a write that
//! survived its transaction's abort breaks the sum.

use crate::hist::Hist;
use crate::layers::CountingDisk;
use fgs_core::{ClientStats, Oid, PageId, Protocol, ServerStats};
use fgs_oodb::{EngineConfig, Oodb, Session, StoreStats, TransportKind, TxnError};
use fgs_simkernel::Pcg32;
use fgs_workload::{AccessRef, WorkloadGen, WorkloadSpec, DB_PAGES, OBJECTS_PER_PAGE};
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads, one session each: the closed loop is sized for a
/// 2-CPU host (each result records `nproc`).
const N_CLIENTS: u16 = 2;
/// The paper's object size.
pub const OBJECT_SIZE: usize = 192;
/// Unmeasured load before the window, in object reads per client:
/// enough to fill both caches and the pool. A count rather than a time,
/// so the memory it leaves behind depends on the seed alone.
const WARMUP_READS: usize = 50_000;
/// Deadlock restarts one transaction may take before it counts as failed.
const MAX_RESTARTS: u32 = 100;
/// Spans reserved per client thread and traced second, so that growing
/// the span buffer seldom stalls a traced segment.
const SPANS_PER_SEC: usize = 60_000;
/// An untraced window is cut into slices of this length; end-to-end
/// figures are medians over the slices.
const SLICE: Duration = Duration::from_secs(1);

/// The engine configuration every engine workload shares: PS-AA, the
/// paper's database (1250 pages of 20 192-byte objects), client caches
/// of 25% and a server pool of 50% of it, two clients. Every runtime
/// knob stays at its default so a changed default gets measured.
pub fn engine_config(transport: TransportKind) -> EngineConfig {
    EngineConfig {
        protocol: Protocol::PsAa,
        transport,
        db_pages: DB_PAGES,
        objects_per_page: OBJECTS_PER_PAGE,
        object_size: OBJECT_SIZE,
        n_clients: N_CLIENTS,
        client_cache_pages: DB_PAGES as usize / 4,
        server_pool_pages: DB_PAGES as usize / 2,
        ..EngineConfig::default()
    }
}

const WARMING: u8 = 0;
const PLAIN: u8 = 1;
const TRACED: u8 = 2;
const STOP: u8 = 3;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// First `begin` to the successful `commit` return, restarts included.
    Txn,
    Begin,
    Read,
    Write,
    Commit,
    Abort,
    /// Reference-string generation (load-generator cost, outside the transaction).
    Gen,
    /// A `Session::stats` round trip (outside the transaction).
    Stats,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Txn => "txn",
            SpanKind::Begin => "begin",
            SpanKind::Read => "read",
            SpanKind::Write => "write",
            SpanKind::Commit => "commit",
            SpanKind::Abort => "abort",
            SpanKind::Gen => "gen",
            SpanKind::Stats => "stats",
        }
    }
}

/// One traced interval. Calls inside a transaction carry the
/// transaction span's id as `parent`; 0 means no parent.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The kinds with latency histograms, in the order of a slice's histograms.
const SAMPLED: [SpanKind; 5] = [
    SpanKind::Txn,
    SpanKind::Read,
    SpanKind::Write,
    SpanKind::Commit,
    SpanKind::Gen,
];

fn slot(kind: SpanKind) -> Option<usize> {
    SAMPLED.iter().position(|&k| k == kind)
}

/// Latency histograms (ns) of one slice, one per kind of `SAMPLED`.
type SliceHists = [Hist; SAMPLED.len()];

/// Everything one client thread measured.
#[derive(Default)]
pub struct ClientRecord {
    /// Latency histograms of the window's untraced segments, one set per
    /// slice. A traced run's untraced segments share one slice.
    slices: Vec<SliceHists>,
    /// Commits of transactions started in each slice.
    slice_commits: Vec<u64>,
    /// Commits of transactions started in untraced / traced segments.
    pub commits_plain: u64,
    pub commits_traced: u64,
    /// Window counts: deadlock restarts, transactions attempted, failed.
    pub restarts: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Writes of committed transactions in the window, and over the
    /// whole run (warm-up and the last in-flight transaction included).
    pub writes_window: u64,
    pub writes_total: u64,
    /// Client protocol counters at the window's edges.
    pub stats_before: Option<ClientStats>,
    pub stats_after: Option<ClientStats>,
    /// Traced segments only.
    pub spans: Vec<Span>,
    /// A read returned an object of the wrong size.
    pub bad_object: bool,
    /// The first errors other than deadlocks, for the log.
    pub errors: Vec<String>,
}

impl ClientRecord {
    /// A record whose histograms are allocated, and resident, before the
    /// window: the benchmark's own memory does not grow while it measures.
    fn new(slices: usize, seconds: usize, traced: bool) -> Self {
        let mut rec = ClientRecord {
            slices: (0..slices)
                .map(|_| SAMPLED.map(|_| Hist::resident()))
                .collect(),
            slice_commits: vec![0; slices],
            ..ClientRecord::default()
        };
        if traced {
            rec.spans = Vec::with_capacity(SPANS_PER_SEC * seconds);
        }
        rec
    }

    fn note_error(&mut self, e: &TxnError) {
        if self.errors.len() < 5 {
            self.errors.push(e.to_string());
        }
    }
}

/// Phase flag plus the common time base of every span.
struct Control {
    phase: AtomicU8,
    /// Clients done with their warm-up.
    warmed: AtomicU32,
    /// The untraced window's current slice, and how many it has.
    slice: AtomicU32,
    slices: usize,
    /// The run alternates untraced and traced segments.
    traced_run: bool,
    base: Instant,
}

impl Control {
    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

/// One client thread's view while running a transaction.
struct Ctx<'a> {
    ctl: &'a Control,
    session: &'a Session,
    rec: &'a mut ClientRecord,
    measuring: bool,
    traced: bool,
    /// The slice whose histograms take the samples.
    slice: usize,
    next_span: u64,
}

impl Ctx<'_> {
    fn span_id(&mut self) -> u64 {
        self.next_span += 1;
        self.next_span
    }

    /// Records one interval: a latency sample in untraced segments of
    /// the window, a span in traced ones.
    fn record(&mut self, kind: SpanKind, id: u64, parent: u64, start_ns: u64, end_ns: u64) {
        if self.measuring && !self.traced {
            if let Some(i) = slot(kind) {
                self.rec.slices[self.slice][i].record(end_ns - start_ns);
            }
        }
        if self.traced {
            self.rec.spans.push(Span {
                id,
                parent,
                kind,
                start_ns,
                end_ns,
            });
        }
    }

    /// Times one call under `parent`.
    fn timed<T>(&mut self, kind: SpanKind, parent: u64, call: impl FnOnce(&Session) -> T) -> T {
        let start = self.ctl.now_ns();
        let out = call(self.session);
        let end = self.ctl.now_ns();
        let id = self.span_id();
        self.record(kind, id, parent, start, end);
        out
    }

    /// One attempt: begin, the reference string, commit. Returns the
    /// number of writes made.
    fn attempt(&mut self, refs: &[AccessRef], txn_span: u64) -> Result<u64, TxnError> {
        self.timed(SpanKind::Begin, txn_span, |s| s.begin())?;
        let mut writes = 0;
        for r in refs {
            let mut bytes = self.timed(SpanKind::Read, txn_span, |s| s.read(r.oid))?;
            if bytes.len() != OBJECT_SIZE {
                self.rec.bad_object = true;
                continue;
            }
            if r.write {
                let counter = read_counter(&bytes) + 1;
                bytes[..8].copy_from_slice(&counter.to_le_bytes());
                self.timed(SpanKind::Write, txn_span, |s| s.write(r.oid, bytes))?;
                writes += 1;
            }
        }
        self.timed(SpanKind::Commit, txn_span, |s| s.commit())?;
        Ok(writes)
    }

    /// Runs one transaction to commit, restarting deadlock victims.
    /// Any other error, or an exhausted restart budget, fails it.
    fn run_txn(&mut self, refs: &[AccessRef]) -> Option<u64> {
        let txn_span = self.span_id();
        let start = self.ctl.now_ns();
        let mut restarts = 0;
        let outcome = loop {
            match self.attempt(refs, txn_span) {
                Ok(writes) => break Some(writes),
                Err(TxnError::Deadlock) if restarts < MAX_RESTARTS => restarts += 1,
                Err(e) => {
                    self.rec.note_error(&e);
                    let _ = self.timed(SpanKind::Abort, txn_span, |s| s.abort());
                    break None;
                }
            }
        };
        let end = self.ctl.now_ns();
        if outcome.is_some() {
            self.record(SpanKind::Txn, txn_span, 0, start, end);
        }
        if self.measuring {
            self.rec.restarts += u64::from(restarts);
            self.rec.attempted += 1;
            self.rec.failed += u64::from(outcome.is_none());
        }
        outcome
    }
}

fn read_counter(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte counter"))
}

fn client_loop(
    client: u16,
    session: Session,
    gen: &WorkloadGen,
    seed: u64,
    ctl: &Control,
    seconds: usize,
) -> ClientRecord {
    let (slices, traced_run) = (ctl.slices, ctl.traced_run);
    let mut rng = Pcg32::new(seed, u64::from(client));
    let mut rec = ClientRecord::new(slices, seconds, traced_run);
    let mut ctx = Ctx {
        ctl,
        session: &session,
        rec: &mut rec,
        measuring: false,
        traced: false,
        slice: 0,
        // Span ids are unique across clients: the client id sits in the top bits.
        next_span: u64::from(client) << 48,
    };
    let mut warm_reads = 0;
    loop {
        let mut phase = ctl.phase.load(Ordering::Acquire);
        if phase == WARMING && warm_reads >= WARMUP_READS {
            // Warm: wait for the other client, so both enter the window
            // from the same state.
            ctl.warmed.fetch_add(1, Ordering::AcqRel);
            while phase == WARMING {
                std::thread::sleep(Duration::from_millis(1));
                phase = ctl.phase.load(Ordering::Acquire);
            }
            warm_reads = 0;
        }
        if phase == STOP {
            break;
        }
        // A transaction belongs to the slice it starts in; one that starts
        // after the last slice has closed is not measured.
        ctx.slice = ctl.slice.load(Ordering::Acquire) as usize;
        ctx.measuring = phase != WARMING && ctx.slice < slices;
        ctx.traced = phase == TRACED;
        if ctx.measuring && ctx.rec.stats_before.is_none() {
            match session.stats() {
                Ok(s) => ctx.rec.stats_before = Some(s),
                Err(e) => ctx.rec.note_error(&e),
            }
        }
        // The traced run probes the round-trip floor in both kinds of
        // segment, so the traced and untraced segments do equal work and
        // their gap is the cost of tracing alone. Only traced segments
        // keep the span.
        if traced_run && ctx.measuring {
            if let Err(e) = ctx.timed(SpanKind::Stats, 0, Session::stats) {
                ctx.rec.note_error(&e);
            }
        }
        let refs = ctx.timed(SpanKind::Gen, 0, |_| gen.gen_transaction(client, &mut rng));
        if phase == WARMING {
            warm_reads += refs.len();
        }
        if let Some(writes) = ctx.run_txn(&refs) {
            ctx.rec.writes_total += writes;
            if ctx.measuring {
                ctx.rec.writes_window += writes;
                match phase {
                    TRACED => ctx.rec.commits_traced += 1,
                    _ => {
                        ctx.rec.commits_plain += 1;
                        ctx.rec.slice_commits[ctx.slice] += 1;
                    }
                }
            }
        }
    }
    if rec.stats_before.is_some() {
        match session.stats() {
            Ok(s) => rec.stats_after = Some(s),
            Err(e) => rec.note_error(&e),
        }
    }
    rec
}

/// Engine-wide counters at one edge of the window.
#[derive(Clone)]
pub struct Snapshot {
    pub server: ServerStats,
    pub store: StoreStats,
    /// Durable log length in bytes (traced runs only: it copies the log).
    pub log_bytes: u64,
    pub disk: [u64; 3],
}

/// The outcome of one engine load.
pub struct LoadResult {
    pub rss_window_start_kb: u64,
    pub rss_window_end_kb: u64,
    pub plain_s: f64,
    pub traced_s: f64,
    /// Durations of an untraced window's slices (none when traced).
    pub slice_s: Vec<f64>,
    pub records: Vec<ClientRecord>,
    pub before: Snapshot,
    pub after: Snapshot,
    pub disk: Option<Arc<CountingDisk>>,
    /// Counter sum over the database and the committed writes it must
    /// equal; `None` when the scan itself failed.
    pub scan_sum: Option<u64>,
    pub expected_sum: u64,
    pub invariants_ok: bool,
}

impl LoadResult {
    pub fn window_s(&self) -> f64 {
        self.plain_s + self.traced_s
    }

    pub fn correct(&self) -> bool {
        self.scan_sum == Some(self.expected_sum)
            && self.invariants_ok
            && self.records.iter().all(|r| !r.bad_object)
    }

    /// Latencies (ns) of `kind` in slice `slice`, pooled over the clients.
    pub fn slice_hist(&self, slice: usize, kind: SpanKind) -> Hist {
        let mut h = Hist::default();
        if let Some(i) = slot(kind) {
            for r in &self.records {
                h.merge(&r.slices[slice][i]);
            }
        }
        h
    }

    /// Latencies (ns) of `kind` over every untraced segment and client.
    pub fn pooled_hist(&self, kind: SpanKind) -> Hist {
        let mut h = Hist::default();
        for slice in 0..self.records.first().map_or(0, |r| r.slices.len()) {
            h.merge(&self.slice_hist(slice, kind));
        }
        h
    }

    /// Commits of transactions started in slice `slice`, over the clients.
    pub fn slice_commits(&self, slice: usize) -> u64 {
        self.records.iter().map(|r| r.slice_commits[slice]).sum()
    }
}

fn snapshot(db: &Oodb, disk: Option<&CountingDisk>, with_log: bool) -> Snapshot {
    Snapshot {
        server: db.server_stats(),
        store: db.store_stats(),
        log_bytes: if with_log {
            db.durable_log().len() as u64
        } else {
            0
        },
        disk: disk.map_or([0; 3], CountingDisk::counts),
    }
}

/// Opens the workload's database `n` times, appending the seconds each
/// `Oodb::open` takes to `out`, and shuts each down again.
pub fn time_opens(transport: TransportKind, n: usize, out: &mut Vec<f64>) -> std::io::Result<()> {
    for _ in 0..n {
        let t = Instant::now();
        let db = Oodb::open(engine_config(transport))?;
        out.push(t.elapsed().as_secs_f64());
        db.shutdown();
    }
    Ok(())
}

/// Resident set size of this process in KiB (0 where unavailable).
pub fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Opens the database (timing set-up), warms it, measures `seconds`
/// of closed-loop load and checks the result. A traced run alternates
/// untraced and traced segments, records spans in the traced ones and
/// counts disk traffic through a wrapper.
pub fn run_load(
    spec: &WorkloadSpec,
    transport: TransportKind,
    seed: u64,
    seconds: usize,
    traced: bool,
) -> std::io::Result<LoadResult> {
    let config = engine_config(transport);
    let gen = WorkloadGen::new(spec.clone(), N_CLIENTS);

    // The database that carries the load is the first set-up rep; the
    // others run after the load, so their freed memory does not count
    // in the resident set measured here.
    // A traced run counts disk traffic through a wrapper.
    let disk = traced.then(|| Arc::new(CountingDisk::new(config.page_size)));
    let db = match &disk {
        Some(d) => Oodb::open_with_disk(config.clone(), d.clone(), true)?,
        None => Oodb::open(config.clone())?,
    };

    // A traced run alternates short untraced and traced segments, so
    // the host's slow spells fall on both alike.
    let segments: &[u8] = if traced {
        &[
            PLAIN, TRACED, PLAIN, TRACED, PLAIN, TRACED, PLAIN, TRACED, PLAIN, TRACED,
        ]
    } else {
        &[PLAIN]
    };
    let segment = Duration::from_secs_f64(seconds as f64 / segments.len() as f64);
    // An untraced run slices its window, so a slow spell of the host
    // lands in a few slices, which the medians then discard. A traced
    // run's untraced segments share one slice.
    let slices = if traced {
        1
    } else {
        (segment.as_secs_f64() / SLICE.as_secs_f64())
            .round()
            .max(1.0) as u32
    };
    let ctl = Control {
        phase: AtomicU8::new(WARMING),
        warmed: AtomicU32::new(0),
        slice: AtomicU32::new(0),
        slices: slices as usize,
        traced_run: traced,
        base: Instant::now(),
    };
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut slice_s = Vec::new();
    let (records, before, after, rss0, rss1) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N_CLIENTS)
            .map(|c| {
                let session = db.session(c);
                let (gen, ctl) = (&gen, &ctl);
                scope.spawn(move || client_loop(c, session, gen, seed, ctl, seconds))
            })
            .collect();
        while ctl.warmed.load(Ordering::Acquire) < u32::from(N_CLIENTS) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let rss0 = rss_kb();
        let before = snapshot(&db, disk.as_deref(), traced);
        for &phase in segments {
            let t = Instant::now();
            ctl.phase.store(phase, Ordering::Release);
            if traced {
                std::thread::sleep(segment);
                let d = t.elapsed().as_secs_f64();
                match phase {
                    TRACED => traced_s += d,
                    _ => plain_s += d,
                }
                continue;
            }
            for i in 1..=slices {
                let s = Instant::now();
                std::thread::sleep(segment / slices);
                slice_s.push(s.elapsed().as_secs_f64());
                ctl.slice.store(i, Ordering::Release);
            }
            plain_s += t.elapsed().as_secs_f64();
        }
        let after = snapshot(&db, disk.as_deref(), traced);
        let rss1 = rss_kb();
        ctl.phase.store(STOP, Ordering::Release);
        let records: Vec<ClientRecord> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (records, before, after, rss0, rss1)
    });

    let expected_sum = records.iter().map(|r| r.writes_total).sum();
    let scan_sum = match scan_counters(&db.session(0)) {
        Ok(sum) => Some(sum),
        Err(e) => {
            eprintln!("perfbench: counter scan failed: {e}");
            None
        }
    };
    let invariants_ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        db.check_server_invariants()
    }))
    .is_ok();
    db.shutdown();
    Ok(LoadResult {
        rss_window_start_kb: rss0,
        rss_window_end_kb: rss1,
        plain_s,
        traced_s,
        slice_s,
        records,
        before,
        after,
        disk,
        scan_sum,
        expected_sum,
        invariants_ok,
    })
}

/// Sums every object's counter in one read-only transaction.
fn scan_counters(session: &Session) -> Result<u64, TxnError> {
    session.begin()?;
    let mut sum = 0;
    for page in 0..DB_PAGES {
        for slot in 0..OBJECTS_PER_PAGE {
            let bytes = session.read(Oid::new(PageId(page), slot))?;
            if bytes.len() != OBJECT_SIZE {
                return Err(TxnError::Io(format!(
                    "object {page}.{slot} has {} bytes, not {OBJECT_SIZE}",
                    bytes.len()
                )));
            }
            sum += read_counter(&bytes);
        }
    }
    session.commit()?;
    Ok(sum)
}
