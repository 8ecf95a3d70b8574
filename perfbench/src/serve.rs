//! `serve_read` and `serve_stream`: an in-process `Server` over an
//! untrained, seeded ICEWS18-mini model, booted from a durable store that
//! holds the first part of the timeline.
//!
//! * `serve_read` — `nproc` keep-alive connections in a closed loop of
//!   single-query requests. The window never moves, so the embedding cache
//!   always hits: parse, worker pickup, engine queue, decode, top-k and
//!   write are the whole cost; evolve, graph rebuild and the store are
//!   bypassed.
//! * `serve_stream` — the same server with the store attached. One writer
//!   connection replays the rest of the timeline as durable ingests on a
//!   fixed schedule (open loop, latency timed from each ingest's due time)
//!   while one reader connection queries in a closed loop. Every ingest
//!   fsyncs the store log, rebuilds the k-window graphs and re-evolves the
//!   recurrence on the engine thread that also answers the reads.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use retia::{FrozenModel, FrozenStates, Retia, RetiaConfig};
use retia_bench::{retia_config_for, Settings};
use retia_data::{DatasetProfile, SyntheticConfig, TkgDataset};
use retia_graph::{group_by_timestamp, HyperSnapshot, Quad, Snapshot};
use retia_json::Value;
use retia_obs::trace::{FinishedTrace, StageRecord};
use retia_serve::{Query, QueryKind, ServeConfig, Server};
use retia_store::{Appender, Store};

use crate::client::{Client, Response};
use crate::gen::{ingest_body, ingest_plan, IngestPlan, Ledger, QueryGen, QuerySpec, TOP_K};
use crate::kernels::Dims;
use crate::layers::{self, med, ms_since, time_ms};
use crate::outcome::Outcome;
use crate::stats;

/// The dataset profile both serve workloads use.
pub const PROFILE: DatasetProfile = DatasetProfile::Icews18;

/// Timestamps bulk-loaded into the store at boot; the rest are streamed.
const BOOT_TIMESTAMPS: usize = 20;

/// The writer's schedule: one ingest every 150 ms.
const INGEST_INTERVAL_S: f64 = 0.15;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;

/// Requests per connection before timing starts (connections open, caches
/// warm).
const WARMUP_REQUESTS: usize = 200;

/// Readers reconnect this often, and the writer sends each ingest on a
/// fresh connection. The server hands each new connection to whichever
/// worker accepts it first, and a reader sharing a worker with another
/// connection runs about twice as slow as one owning its worker.
/// Reconnecting averages a run over a hundred or so such placements
/// instead of drawing a few.
const RECONNECT_EVERY: Duration = Duration::from_millis(250);

/// Every this-many-th answer of a connection is checked bit for bit
/// against the reference decode.
const SAMPLE_EVERY: u64 = 50;

/// Queries asked after the last ingest and checked against the reference
/// decode over the reopened store's window.
const FINAL_QUERIES: usize = 32;

/// Stream id of the final-window queries (disjoint from the connections').
const FINAL_STREAM: u64 = 1 << 20;

/// Per-run scratch space inside the checkout.
const TMP_DIR: &str = ".bench_tmp";

/// Stages whose exclusive share of a request the traced run reports.
const STAGES: [&str; 8] = [
    "serve.recv",
    "serve.queue_wait",
    "serve.cache",
    "serve.evolve",
    "serve.decode",
    "serve.topk",
    "serve.write",
    "serve.ingest",
];

/// What one boot cost, layer by layer.
struct SetupTimes {
    total_s: f64,
    generate_ms: f64,
    bulk_facts_per_s: f64,
    compact_ms: f64,
    open_ms: f64,
}

/// A running server plus everything needed to check its answers.
struct Booted {
    server: Option<Server>,
    /// An identical model (same config and seed) for reference answers.
    reference: FrozenModel,
    ds: TkgDataset,
    cfg: RetiaConfig,
    plan: IngestPlan,
    window: Vec<Snapshot>,
    dir: PathBuf,
}

impl Booted {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("server running")
    }

    /// Drains and stops the server (idempotent).
    fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn names(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

/// Creates a store at `dir` with the dataset's id space and bulk-loads the
/// boot facts. Returns the load rate in facts/s.
fn create_store(dir: &Path, ds: &TkgDataset, boot: &[Quad]) -> (Store, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = Store::create(dir, &ds.name, ds.granularity).expect("create store");
    store
        .ensure_names(&names("e", ds.num_entities), &names("r", ds.num_relations))
        .expect("seed store vocabulary");
    let t = Instant::now();
    store.append_quads(boot).expect("bulk-load boot facts");
    (store, boot.len() as f64 / t.elapsed().as_secs_f64())
}

/// Generate → store bulk load → compact → `Store::open` → `Server::start`
/// (boot audit included). `traced` keeps every request's trace.
fn boot(seed: u64, dir: &Path, attach_store: bool, traced: bool) -> (Booted, SetupTimes) {
    let t0 = Instant::now();
    let ds = SyntheticConfig { seed, ..SyntheticConfig::profile(PROFILE) }.generate();
    let generate_ms = ms_since(t0);
    let all: Vec<Quad> = ds.all_quads().copied().collect();
    let plan = ingest_plan(&group_by_timestamp(&all), BOOT_TIMESTAMPS);
    let (mut store, bulk_facts_per_s) = create_store(dir, &ds, &plan.boot);
    let t = Instant::now();
    store.compact().expect("compact boot facts");
    let compact_ms = ms_since(t);
    drop(store);
    let t = Instant::now();
    let store = Store::open(dir).expect("reopen store");
    let open_ms = ms_since(t);
    let cfg = retia_config_for(PROFILE, &Settings::default());
    let window = store.window(cfg.k);
    drop(store);
    let mut serve_cfg =
        ServeConfig { store: attach_store.then(|| dir.to_path_buf()), ..ServeConfig::default() };
    if traced {
        serve_cfg.trace_sample_every = 1;
        serve_cfg.trace_capacity = 1 << 15;
    }
    let model = FrozenModel::new(Retia::new(&cfg, &ds));
    let server = Server::start(model, window.clone(), &serve_cfg).expect("server boots");
    let total_s = t0.elapsed().as_secs_f64();
    let reference = FrozenModel::new(Retia::new(&cfg, &ds));
    let times = SetupTimes { total_s, generate_ms, bulk_facts_per_s, compact_ms, open_ms };
    (
        Booted { server: Some(server), reference, ds, cfg, plan, window, dir: dir.to_path_buf() },
        times,
    )
}

/// Boots [`SETUP_REPEATS`] times (each into a fresh store) and keeps the
/// last server running.
fn boot_repeated(seed: u64, root: &Path, attach_store: bool) -> (Booted, Vec<SetupTimes>) {
    let mut times = Vec::new();
    for i in 0..SETUP_REPEATS {
        let (mut b, t) = boot(seed, &root.join(format!("store-{i}")), attach_store, false);
        times.push(t);
        if i + 1 == SETUP_REPEATS {
            return (b, times);
        }
        b.shutdown();
        let _ = std::fs::remove_dir_all(&b.dir);
    }
    unreachable!("SETUP_REPEATS > 0")
}

fn setup_metrics(times: &[SetupTimes], out: &mut Outcome, trace: bool) {
    let pick = |f: fn(&SetupTimes) -> f64| times.iter().map(f).collect::<Vec<f64>>();
    let total = pick(|t| t.total_s);
    out.raw("setup_s", &total);
    if !trace {
        out.metric("setup_s", med(&total), "s");
        return;
    }
    for (name, unit, xs) in [
        ("data.generate_ms", "ms", pick(|t| t.generate_ms)),
        ("store.bulk_append_facts_per_s", "1/s", pick(|t| t.bulk_facts_per_s)),
        ("store.compact_ms", "ms", pick(|t| t.compact_ms)),
        ("store.open_ms", "ms", pick(|t| t.open_ms)),
    ] {
        out.metric(name, med(&xs), unit);
        out.raw(name, &xs);
    }
}

/// A checked answer: `(id, score bits)` per candidate.
type Answer = Vec<(u32, u32)>;

/// Parses and sanity-checks a query response: status 200, `k` candidates
/// with in-range ids and finite, non-increasing scores.
fn parse_answer(resp: &Response, spec: &QuerySpec, n: usize, m: usize) -> Option<Answer> {
    if resp.status != 200 {
        return None;
    }
    let doc = retia_json::parse(std::str::from_utf8(&resp.body).ok()?).ok()?;
    let results = doc.get("results")?.as_array()?;
    let cands = results.first()?.get("candidates")?.as_array()?;
    let bound = match spec {
        QuerySpec::Entity { .. } => n,
        QuerySpec::Relation { .. } => m,
    };
    let answer: Answer = cands
        .iter()
        .map(|c| {
            let id = c.get("id")?.as_u64()? as u32;
            let score = c.get("score")?.as_f32()?;
            ((id as usize) < bound && score.is_finite()).then_some((id, score.to_bits()))
        })
        .collect::<Option<_>>()?;
    let descending = answer.windows(2).all(|w| f32::from_bits(w[0].1) >= f32::from_bits(w[1].1));
    (results.len() == 1 && answer.len() == TOP_K.min(bound) && descending).then_some(answer)
}

/// What one closed-loop reader client saw.
#[derive(Default)]
struct ReadLog {
    /// Per-request latency in ms; `+inf` for a failed request.
    latencies_ms: Vec<f64>,
    failed: u64,
    /// Sampled answers for the reference check.
    samples: Vec<(QuerySpec, Answer)>,
    /// `(trace id, client latency ms)` of every successful request.
    traced: Vec<(u64, f64)>,
}

/// Sends one query, retrying the connection once if it broke.
fn ask(client: &mut Option<Client>, addr: SocketAddr, spec: &QuerySpec) -> Option<Response> {
    if client.is_none() {
        *client = Client::connect(addr).ok();
    }
    let res = client.as_mut()?.post("/v1/query", &spec.body());
    if res.is_err() {
        *client = None;
    }
    res.ok()
}

/// The two rendezvous of a measured phase: every client has warmed up,
/// then timing starts (in between, the coordinator may switch tracing on).
struct Gates {
    warm: Barrier,
    go: Barrier,
}

impl Gates {
    fn new(parties: usize) -> Gates {
        Gates { warm: Barrier::new(parties), go: Barrier::new(parties) }
    }

    fn pass(&self) {
        self.warm.wait();
        self.go.wait();
    }

    /// The coordinator's side: waits for the warm-up, optionally starts
    /// tracing, releases the clients and returns the phase start.
    fn open(&self, traced: bool) -> Instant {
        self.warm.wait();
        if traced {
            start_tracing();
        }
        self.go.wait();
        Instant::now()
    }
}

/// Clears the program's aggregates and turns spans and kernel timers on.
fn start_tracing() {
    retia_obs::metrics::registry().reset();
    retia_obs::trace::reset();
    retia_obs::reset_timing();
    retia_obs::set_timing(true);
    retia_obs::set_kernel_timing(true);
}

/// Closed loop on one client: warm up, pass the gates, then query until
/// `stop` says so, reconnecting every [`RECONNECT_EVERY`].
fn read_loop(
    addr: SocketAddr,
    mut gen: QueryGen,
    (n, m): (usize, usize),
    (client_idx, clients): (usize, usize),
    gates: &Gates,
    stop: &dyn Fn() -> bool,
) -> ReadLog {
    let mut client = None;
    for _ in 0..WARMUP_REQUESTS {
        ask(&mut client, addr, &gen.next_query());
    }
    gates.pass();
    let mut log = ReadLog::default();
    let mut i = 0u64;
    // Clients reconnect at staggered times, as independent clients would.
    let stagger = RECONNECT_EVERY.mul_f64(client_idx as f64 / clients as f64);
    let mut connected = Instant::now() - stagger;
    while !stop() {
        if connected.elapsed() >= RECONNECT_EVERY {
            client = None;
            connected = Instant::now();
        }
        let spec = gen.next_query();
        let t = Instant::now();
        let resp = ask(&mut client, addr, &spec);
        let ms = ms_since(t);
        match resp.as_ref().and_then(|r| Some((r.trace_id, parse_answer(r, &spec, n, m)?))) {
            Some((trace_id, answer)) => {
                log.latencies_ms.push(ms);
                if let Some(id) = trace_id {
                    log.traced.push((id, ms));
                }
                if i.is_multiple_of(SAMPLE_EVERY) {
                    log.samples.push((spec, answer));
                }
            }
            None => {
                log.latencies_ms.push(f64::INFINITY);
                log.failed += 1;
            }
        }
        i += 1;
    }
    log
}

/// The reference answer: direct `FrozenModel` decode + `retia_eval::top_k`.
fn reference_answer(model: &FrozenModel, states: &FrozenStates, spec: &QuerySpec) -> Answer {
    let scores = match *spec {
        QuerySpec::Entity { subject, relation } => {
            model.decode_entity(states, vec![subject], vec![relation])
        }
        QuerySpec::Relation { subject, object } => {
            model.decode_relation(states, vec![subject], vec![object])
        }
    };
    retia_eval::top_k(scores.row(0), TOP_K).into_iter().map(|(id, s)| (id, s.to_bits())).collect()
}

fn hypers_of(window: &[Snapshot]) -> Vec<HyperSnapshot> {
    window.iter().map(HyperSnapshot::from_snapshot).collect()
}

/// Checks `samples` against the reference decode over `window` and returns
/// how many differ.
fn check_samples(
    model: &FrozenModel,
    window: &[Snapshot],
    samples: &[(QuerySpec, Answer)],
) -> usize {
    let states = model.evolve_window(window, &hypers_of(window));
    samples.iter().filter(|(spec, got)| reference_answer(model, &states, spec) != *got).count()
}

/// Latency percentile with failures counted as missing every limit: a
/// failed request that lands on the percentile reads as the whole
/// measurement window.
fn latency_pct(latencies_ms: &[f64], p: f64, window_ms: f64) -> Option<f64> {
    stats::percentile(&stats::sorted(latencies_ms), p).map(|v| v.min(window_ms))
}

/// One measured read phase.
struct ReadPhase {
    logs: Vec<ReadLog>,
    window_s: f64,
}

impl ReadPhase {
    fn latencies(&self) -> Vec<f64> {
        self.logs.iter().flat_map(|l| l.latencies_ms.iter().copied()).collect()
    }

    fn completed(&self) -> usize {
        self.logs.iter().map(|l| l.latencies_ms.len() - l.failed as usize).sum()
    }

    fn qps(&self) -> f64 {
        self.completed() as f64 / self.window_s
    }

    fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }

    fn samples(&self) -> Vec<(QuerySpec, Answer)> {
        self.logs.iter().flat_map(|l| l.samples.iter().cloned()).collect()
    }
}

/// Counts a phase's read requests as operations, each failed one as a
/// failed operation.
fn count_reads(phase: &ReadPhase, out: &mut Outcome) {
    out.ops(phase.latencies().len() as u64, phase.failed());
}

/// Gates a `serve_read` phase's sampled answers against the reference
/// decode over the served window.
fn gate_samples(b: &Booted, phase: &ReadPhase, gate: &str, out: &mut Outcome) {
    let samples = phase.samples();
    let bad = check_samples(&b.reference, &b.window, &samples);
    out.gate(
        gate,
        bad == 0,
        format!("{bad} of {} sampled answers differ from the reference decode", samples.len()),
    );
}

fn shape(b: &Booted) -> (usize, usize) {
    (b.ds.num_entities, b.ds.num_relations)
}

/// `conns` closed-loop readers for `seconds`.
fn read_phase(b: &Booted, seed: u64, seconds: u64, conns: usize, traced: bool) -> ReadPhase {
    let addr = b.server().addr();
    let gates = Gates::new(conns + 1);
    let deadline = std::sync::OnceLock::<Instant>::new();
    let stop = || deadline.get().is_some_and(|d| Instant::now() >= *d);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let gen = QueryGen::new(seed, c as u64, b.ds.num_entities, b.ds.num_relations);
                let (gates, stop) = (&gates, &stop);
                s.spawn(move || read_loop(addr, gen, shape(b), (c, conns), gates, stop))
            })
            .collect();
        let t = gates.open(traced);
        let _ = deadline.set(t + Duration::from_secs(seconds));
        let logs = handles.into_iter().map(|h| h.join().expect("reader thread")).collect();
        ReadPhase { logs, window_s: t.elapsed().as_secs_f64() }
    })
}

/// Records the read side's throughput and latency percentiles in the
/// report and returns the p50 and p90. A percentile without enough samples
/// behind it reads as the whole measurement window, as a failed request
/// does.
fn read_metrics(phase: &ReadPhase, out: &mut Outcome) -> (f64, f64) {
    let lat = phase.latencies();
    out.raw("serve.query_ms", &lat);
    let window_ms = phase.window_s * 1e3;
    let pct = |p| latency_pct(&lat, p, window_ms);
    out.info("serve.qps", Value::from(phase.qps()));
    for (name, v) in [
        ("serve.query_p50_ms", pct(50.0)),
        ("serve.query_p90_ms", pct(90.0)),
        ("serve.query_p99_ms", pct(99.0)),
    ] {
        match v {
            Some(v) => out.info(name, Value::from(v)),
            None => out.info(name, Value::from(format!("too few samples ({})", lat.len()))),
        }
    }
    (pct(50.0).unwrap_or(window_ms), pct(90.0).unwrap_or(window_ms))
}

fn work_dir(workload: &str) -> PathBuf {
    PathBuf::from(TMP_DIR).join(format!("{workload}-{}", std::process::id()))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// How long each phase of a run measures: a traced run measures twice
/// (untraced, then traced), each for half the time.
fn phase_seconds(seconds: u64, trace: bool) -> u64 {
    if trace {
        (seconds / 2).max(1)
    } else {
        seconds
    }
}

/// Runs `serve_read` and fills `out`.
pub fn run_read(seed: u64, seconds: u64, trace: bool, out: &mut Outcome) {
    let seconds = phase_seconds(seconds, trace);
    let root = work_dir("serve_read");
    let (mut b, times) = boot_repeated(seed, &root, false);
    setup_metrics(&times, out, trace);
    let phase = read_phase(&b, seed, seconds, nproc(), false);
    count_reads(&phase, out);
    let (p50, p90) = read_metrics(&phase, out);
    gate_samples(&b, &phase, "serve_read.sampled_answers_bit_identical", out);
    b.shutdown();
    if !trace {
        // Reads are this workload's only operation: `op_ms` is their tail.
        out.metric("op_ms", p90, "ms");
        out.metric("read_ms", p50, "ms");
    }
    if trace {
        let (mut tb, _) = boot(seed, &root.join("traced"), false, true);
        let traced = read_phase(&tb, seed, seconds, nproc(), true);
        count_reads(&traced, out);
        gate_samples(&tb, &traced, "serve_read.traced.sampled_answers_bit_identical", out);
        collect_serve_layers(&traced, traced.completed(), false, out);
        overhead(phase.qps(), traced.qps(), out);
        probes(&tb, out);
        layers::graph_builds(&tb.ds, out);
        tb.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
    // Removes the scratch root too when no other run is using it.
    let _ = std::fs::remove_dir(TMP_DIR);
}

/// Everything the stream phase observed.
struct StreamPhase {
    read: ReadPhase,
    ledger: Ledger,
    sent: usize,
    finals: Vec<(QuerySpec, Option<Answer>)>,
}

/// One open-loop writer and one closed-loop reader for `seconds`.
fn stream_phase(b: &Booted, seed: u64, seconds: u64, traced: bool) -> StreamPhase {
    let addr = b.server().addr();
    let sent = b.plan.batches.len().min((seconds as f64 / INGEST_INTERVAL_S).floor() as usize);
    let gates = Gates::new(2);
    let done = AtomicBool::new(false);
    let stop = || done.load(Ordering::SeqCst);
    let (read, ledger) = std::thread::scope(|s| {
        let gen = QueryGen::new(seed, 0, b.ds.num_entities, b.ds.num_relations);
        let reader = s.spawn(|| read_loop(addr, gen, shape(b), (0, 2), &gates, &stop));
        let mut ledger = Ledger::new(INGEST_INTERVAL_S);
        let t0 = gates.open(traced);
        for batch in &b.plan.batches[..sent] {
            // Opened during the idle gap, so connecting is not timed.
            let mut client = Client::connect(addr).ok();
            let due = t0 + Duration::from_secs_f64(ledger.next_due_s());
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let sent_s = t0.elapsed().as_secs_f64();
            let ok = client.as_mut().and_then(|c| c.post("/v1/ingest", &ingest_body(batch)).ok());
            let ok = ok.is_some_and(|r| r.status == 200 && acked(&r.body) == Some(batch.len()));
            ledger.record(sent_s, t0.elapsed().as_secs_f64(), ok);
        }
        done.store(true, Ordering::SeqCst);
        let log = reader.join().expect("reader thread");
        (ReadPhase { logs: vec![log], window_s: t0.elapsed().as_secs_f64() }, ledger)
    });
    let mut gen = QueryGen::new(seed, FINAL_STREAM, b.ds.num_entities, b.ds.num_relations);
    let mut client = None;
    let finals = (0..FINAL_QUERIES)
        .map(|_| {
            let spec = gen.next_query();
            let (n, m) = shape(b);
            let answer = ask(&mut client, addr, &spec).and_then(|r| parse_answer(&r, &spec, n, m));
            (spec, answer)
        })
        .collect();
    StreamPhase { read, ledger, sent, finals }
}

/// The `accepted` count of an ingest response.
fn acked(body: &[u8]) -> Option<usize> {
    retia_json::parse(std::str::from_utf8(body).ok()?).ok()?.get("accepted")?.as_usize()
}

/// Counts a stream phase's reads and ingests as operations (an ingest that
/// was not fully acknowledged fails) and gates the acknowledgements.
fn count_stream(phase: &StreamPhase, gate: &str, out: &mut Outcome) {
    count_reads(&phase.read, out);
    let acked = phase.ledger.sends().iter().filter(|s| s.ok).count();
    out.ops(phase.sent as u64, (phase.sent - acked) as u64);
    out.gate(gate, acked == phase.sent, format!("{acked} of {} ingests acknowledged", phase.sent));
}

/// Records the stream's figures in the report and returns the reader's
/// p50 and the ingest p50.
fn stream_metrics(phase: &StreamPhase, out: &mut Outcome) -> (f64, f64) {
    let (read_p50, _) = read_metrics(&phase.read, out);
    let lat = phase.ledger.latencies_ms();
    out.raw("serve.ingest_ms", &lat);
    let late = phase.ledger.lateness_ms();
    out.raw("writer.lateness_ms", &late);
    out.info("writer.ingests", Value::from(phase.sent));
    out.info("writer.late_over_1ms", Value::from(late.iter().filter(|&&l| l > 1.0).count()));
    out.info("writer.max_lateness_ms", Value::from(late.iter().copied().fold(0.0, f64::max)));
    // The p90 stays in the report: over three ten-seed sets on a 2-vCPU
    // host its spread between the quartiles was 0.15-0.35 of the median,
    // because a slower host stretches the ingest tail most.
    let window_ms = phase.read.window_s * 1e3;
    for (name, p) in [("serve.ingest_p50_ms", 50.0), ("serve.ingest_p90_ms", 90.0)] {
        match latency_pct(&lat, p, window_ms) {
            Some(v) => out.info(name, Value::from(v)),
            None => out.info(name, Value::from(format!("too few ingests ({})", lat.len()))),
        }
    }
    (read_p50, latency_pct(&lat, 50.0, window_ms).unwrap_or(window_ms))
}

/// Post-shutdown gates: the reopened store holds every streamed fact, and
/// the final-window answers match the reference decode over its window.
fn stream_gates(b: &Booted, phase: &StreamPhase, prefix: &str, out: &mut Outcome) {
    let store = match Store::open(&b.dir) {
        Ok(s) => s,
        Err(e) => {
            out.gate(
                &format!("{prefix}.store_holds_every_fact"),
                false,
                format!("reopen failed: {e}"),
            );
            return;
        }
    };
    let mut want: Vec<Quad> =
        b.plan.boot.iter().chain(b.plan.batches[..phase.sent].iter().flatten()).copied().collect();
    let mut have = store.all_facts();
    let key = |q: &Quad| (q.t, q.s, q.r, q.o);
    want.sort_by_key(key);
    have.sort_by_key(key);
    out.gate(
        &format!("{prefix}.store_holds_every_fact"),
        want == have,
        format!("reopened store holds {} facts, {} expected", have.len(), want.len()),
    );
    let window = store.window(b.cfg.k);
    let states = b.reference.evolve_window(&window, &hypers_of(&window));
    let bad = phase
        .finals
        .iter()
        .filter(|(spec, got)| got.as_ref() != Some(&reference_answer(&b.reference, &states, spec)))
        .count();
    out.gate(
        &format!("{prefix}.final_window_answers_match"),
        bad == 0,
        format!("{bad} of {} final-window answers differ from the reference", phase.finals.len()),
    );
}

/// Runs `serve_stream` and fills `out`.
pub fn run_stream(seed: u64, seconds: u64, trace: bool, out: &mut Outcome) {
    let seconds = phase_seconds(seconds, trace);
    let root = work_dir("serve_stream");
    let (mut b, times) = boot_repeated(seed, &root, true);
    setup_metrics(&times, out, trace);
    let phase = stream_phase(&b, seed, seconds, false);
    count_stream(&phase, "serve_stream.every_ingest_acknowledged", out);
    let (read_p50, ingest_p50) = stream_metrics(&phase, out);
    b.shutdown();
    stream_gates(&b, &phase, "serve_stream", out);
    if !trace {
        out.metric("op_ms", ingest_p50, "ms");
        out.metric("read_ms", read_p50, "ms");
    }
    if trace {
        let (mut tb, _) = boot(seed, &root.join("traced"), true, true);
        let traced = stream_phase(&tb, seed, seconds, true);
        count_stream(&traced, "serve_stream.traced.every_ingest_acknowledged", out);
        let requests = traced.read.completed() + traced.sent;
        collect_serve_layers(&traced.read, requests, true, out);
        overhead(phase.read.qps(), traced.read.qps(), out);
        probes(&tb, out);
        store_append_probe(&tb, out);
        layers::graph_builds(&tb.ds, out);
        tb.shutdown();
        stream_gates(&tb, &traced, "serve_stream.traced", out);
    }
    let _ = std::fs::remove_dir_all(&root);
    // Removes the scratch root too when no other run is using it.
    let _ = std::fs::remove_dir(TMP_DIR);
}

fn overhead(untraced_qps: f64, traced_qps: f64, out: &mut Outcome) {
    out.metric("obs.trace_overhead_pct", (untraced_qps / traced_qps - 1.0) * 100.0, "%");
}

/// Reads the aggregates the server emitted during a traced phase: latency
/// histograms, batch sizes, cache counters, kernel timers and request
/// traces.
fn collect_serve_layers(phase: &ReadPhase, requests: usize, ingests: bool, out: &mut Outcome) {
    retia_obs::set_kernel_timing(false);
    retia_obs::set_timing(false);
    let kernels = retia_obs::kernel_timing_snapshot();
    layers::kernel_counters(&kernels, requests, out);
    let reg = retia_obs::metrics::registry();
    let endpoints: &[&str] = if ingests { &["query", "ingest"] } else { &["query"] };
    for ep in endpoints {
        for part in ["request", "queue_wait", "service"] {
            let Some(h) = reg.histogram(&format!("serve.{part}_ms.{ep}")) else { continue };
            out.metric(&format!("serve.{part}_ms.{ep}.p50"), h.p50, "ms");
            // The histogram's p99 rests on ten or more slower samples only
            // from a thousand observations up.
            if h.count as usize >= 100 * stats::MIN_BEYOND {
                out.metric(&format!("serve.{part}_ms.{ep}.p99"), h.p99, "ms");
            }
        }
    }
    if let Some(h) = reg.histogram("serve.batch_queries") {
        out.metric("serve.batch_queries.mean", h.mean, "count");
    }
    let (hit, miss) = (reg.counter("serve.cache_hit"), reg.counter("serve.cache_miss"));
    if hit + miss > 0 {
        out.metric("serve.cache_hit_ratio", hit as f64 / (hit + miss) as f64, "ratio");
    }

    let traces = retia_obs::trace::traces();
    out.info("traced.requests_kept", Value::from(traces.len()));
    let (shares, other) = stage_shares(&traces);
    for (stage, share) in shares {
        let short = stage.trim_start_matches("serve.");
        out.metric(&format!("serve.stage.{short}_share"), share, "ratio");
    }
    out.metric("serve.stage.other_share", other, "ratio");
    let server_ms: HashMap<u64, f64> = traces
        .iter()
        .filter(|t| t.label == "/v1/query")
        .map(|t| (t.trace_id, t.total_ns as f64 / 1e6))
        .collect();
    let transit: Vec<f64> = phase
        .logs
        .iter()
        .flat_map(|l| l.traced.iter())
        .filter_map(|(id, client_ms)| server_ms.get(id).map(|s| client_ms - s))
        .collect();
    if !transit.is_empty() {
        out.metric("serve.transit_ms", med(&transit), "ms");
    }
}

/// Exclusive time per stage as a share of total request time, over every
/// kept query/ingest trace. A stage's exclusive time is its duration minus
/// the stages nested in it; spans the model records inside a stage
/// (`decode.entity`, ...) count as that stage. The remainder (routing,
/// JSON) is returned as the second value.
fn stage_shares(traces: &[FinishedTrace]) -> (Vec<(&'static str, f64)>, f64) {
    let mut exclusive: BTreeMap<&str, u64> = BTreeMap::new();
    let mut total = 0u64;
    for t in traces.iter().filter(|t| t.label == "/v1/query" || t.label == "/v1/ingest") {
        total += t.total_ns;
        let by_id: HashMap<u64, &StageRecord> = t.stages.iter().map(|s| (s.span_id, s)).collect();
        // The nearest enclosing named stage of a span whose parent is `id`.
        let owner = |mut id: u64| {
            while let Some(s) = by_id.get(&id) {
                if STAGES.contains(&s.name.as_str()) {
                    return Some(id);
                }
                id = s.parent;
            }
            None
        };
        let named = || t.stages.iter().filter(|s| STAGES.contains(&s.name.as_str()));
        let mut nested: HashMap<u64, u64> = HashMap::new();
        for s in named() {
            if let Some(o) = owner(s.parent) {
                *nested.entry(o).or_default() += s.dur_ns;
            }
        }
        for s in named() {
            let own = s.dur_ns.saturating_sub(nested.get(&s.span_id).copied().unwrap_or(0));
            *exclusive.entry(s.name.as_str()).or_default() += own;
        }
    }
    if total == 0 {
        return (Vec::new(), 0.0);
    }
    let shares: Vec<(&'static str, f64)> = STAGES
        .iter()
        .filter_map(|&st| exclusive.get(st).map(|&ns| (st, ns as f64 / total as f64)))
        .collect();
    let covered: f64 = shares.iter().map(|(_, s)| s).sum();
    (shares, 1.0 - covered)
}

/// Direct calls into the core, eval and engine layers on the served
/// window, and the kernel cost model on the served model's shapes.
fn probes(b: &Booted, out: &mut Outcome) {
    let hypers = hypers_of(&b.window);
    layers::model_probes(&b.reference, &Retia::new(&b.cfg, &b.ds), &b.window, &hypers, out);

    let handle = b.server().engine_handle();
    let mut gen = QueryGen::new(0, FINAL_STREAM + 1, b.ds.num_entities, b.ds.num_relations);
    let engine = time_ms(2000, || {
        let query = match gen.next_query() {
            QuerySpec::Entity { subject, relation } => {
                Query { kind: QueryKind::Entity, subject, b: relation, k: TOP_K }
            }
            QuerySpec::Relation { subject, object } => {
                Query { kind: QueryKind::Relation, subject, b: object, k: TOP_K }
            }
        };
        handle.query(vec![query]).expect("engine answers")
    });
    out.metric("serve.engine_query_ms", med(&engine), "ms");
    out.raw("serve.engine_query_ms", &engine);

    // Every kernel on the recurrence's shapes (the boot evolve, and every
    // ingest's re-evolve, runs them); `matmul`, `matmul_nt` and `conv1d`
    // on the decoder's shapes as well. The served model never calls
    // `matmul_tn` (weight gradients); its figure keeps the names the same
    // on every workload, and its calls per operation say it did not run.
    let (n, d, c) = (b.ds.num_entities, b.cfg.dim, b.cfg.channels);
    let edges = b.window.iter().map(Snapshot::num_edges).sum::<usize>() / b.window.len().max(1);
    let dims = Dims { n, d, q: 1, e: edges, channels: c, ksize: b.cfg.ksize, mm: (n, d) };
    layers::kernel_costs(dims, &layers::KERNELS, out);
}

/// `store.append_ms`: the durable append (fsync) of each streamed batch,
/// timed directly through `Appender` on a scratch store.
fn store_append_probe(b: &Booted, out: &mut Outcome) {
    let dir = b.dir.with_extension("append-probe");
    let (store, _) = create_store(&dir, &b.ds, &b.plan.boot);
    drop(store);
    let mut appender = Appender::open(&dir).expect("open appender");
    let mut batches = b.plan.batches.iter().take(50);
    let xs = time_ms(batches.len(), || {
        appender.append_quads(batches.next().expect("counted")).expect("durable append")
    });
    out.metric("store.append_ms", med(&xs), "ms");
    out.raw("store.append_ms", &xs);
    let _ = std::fs::remove_dir_all(&dir);
}
