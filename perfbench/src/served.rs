//! The server workloads, `read_hot` and `ingest_churn`: a durable server
//! recovered from the seeded data directory through `DurableGraph::open`
//! and `Server::start_durable`, driven over loopback with `Client`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use egraph_core::static_equiv::EquivalentStaticGraph;
use egraph_query::codec::{descriptor_from_json, descriptor_to_json, search_result_to_json};
use egraph_query::QueryDescriptor;
use egraph_serve::{Client, Server, ServerConfig, Subscription};
use egraph_stream::{CacheOutcome, DurableGraph, LiveGraph, QueryCache};

use crate::data::{self, HistoryShape, Pick};
use crate::load::{self, Ladder, StepStats};
use crate::report::Outcome;
use crate::speed::Yardstick;
use crate::stats::{best_window, mean, median, pct_or_zero, percentile, sorted};
use crate::trace::{self, Span, SpanLog};
use crate::{rss, Env};

/// Sizes and rates of one server workload. Fixed here so that every run,
/// on every commit, offers the same load.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// The recovered history.
    pub history: HistoryShape,
    /// Fixed offered `/query` rate for the latency phase, requests/s.
    pub read_rate: f64,
    /// Share of the run spent at `read_rate`.
    pub fixed_share: f64,
    /// The fixed-rate phase is cut into this many windows, each timed
    /// between two yardstick passes.
    pub windows: usize,
    /// Cold requests per thousand.
    pub cold_per_mille: u32,
    /// How `capacity_qps` is measured.
    pub capacity: Capacity,
    /// `ingest_churn`: the writer lane seals, and holds a subscription,
    /// while the reads run, and the reads keep to shapes whose bodies do
    /// not grow. Otherwise the write path is measured by a probe after the
    /// reads.
    pub churn: bool,
    /// Seals per second from the writer lane.
    pub seal_rate: f64,
    /// Seals of the write probe after the reads.
    pub probe_seals: usize,
    /// Edge inserts per sealing `/ingest`.
    pub batch: usize,
    /// `checkpoint_every` of the server.
    pub checkpoint_every: u64,
}

/// How a server workload measures `capacity_qps`.
#[derive(Clone, Copy, Debug)]
pub enum Capacity {
    /// The open-loop rate ladder, walked after the fixed-rate phase over
    /// `share` of the run.
    Ladder { ladder: Ladder, share: f64 },
    /// Closed-loop bursts of `reads` reads after every other read window:
    /// every read is due at once, so each lane sends its next read as
    /// soon as the last is answered. Completed reads per second, scaled.
    Bursts { reads: usize },
}

/// Start-ups measured before the workload; `setup_s` is their median.
const SETUPS: usize = 7;
/// Probes a ladder walk from near the capacity usually makes; the ladder
/// share of the run is split across this many.
const EXPECTED_PROBES: f64 = 3.0;
/// Probes at least this many requests per ladder step, so its p99 has 10
/// samples beyond it.
const MIN_STEP: usize = 1000;
/// In the traced pass, every this-many-th read also replays decode, peek
/// or compute, and encode in process, for the per-request breakdown.
const REPLAY_EVERY: usize = 4;
/// Seals the write probe sends after each read window, up to
/// `Plan::probe_seals` in all; the rest follow the last window.
const PROBE_CHUNK: usize = 50;
/// Request ids of seals start here; reads count up from 0.
const SEAL_REQUESTS: u64 = 1 << 32;
/// Span owner id of the writer lane; read lanes use `phase << 16 | lane`.
const WRITER_OWNER: u64 = u64::MAX >> 24;
/// Roots checked against the static-equivalent graph (Theorem 1).
const STATIC_SAMPLE: usize = 6;
/// Timed runs of each standing descriptor per `searches_per_s` round.
const SEARCH_REPEATS: usize = 3;
/// Reads of the fixed-rate phase at least: five windows for the p99.
const MIN_FIXED: usize = 5 * P99_WINDOW;
/// Reads per window of `query_p99_ms`'s best window, so its p99 has 10
/// samples beyond it.
const P99_WINDOW: usize = 1000;

/// The server config every run uses: production defaults, plus the
/// workload's checkpoint policy.
fn config(plan: &Plan) -> ServerConfig {
    ServerConfig {
        checkpoint_every: plan.checkpoint_every,
        ..ServerConfig::default()
    }
}

/// A started server plus what starting it cost.
struct Booted {
    server: Server,
    dir: PathBuf,
    setup_s: Vec<f64>,
    recover_ms: Vec<f64>,
    replayed_events: u64,
}

/// Recovers and starts the server `SETUPS` times, each from a fresh copy
/// of the seeded data directory, timing `DurableGraph::open` until
/// `/health` answers 200, at the reference speed. The last server stays
/// up.
fn boot(
    plan: &Plan,
    seed_dir: &Path,
    work: &Path,
    yard: &mut Yardstick,
) -> std::io::Result<Booted> {
    let mut setup_s = Vec::new();
    let mut recover_ms = Vec::new();
    let mut replayed_events = 0;
    let mut last: Option<(Server, PathBuf)> = None;
    for k in 0..SETUPS {
        drop(last.take());
        let dir = work.join(format!("server-{k}"));
        data::copy_dir(seed_dir, &dir)?;
        let (started, k) = yard.around(|| -> std::io::Result<_> {
            let start = Instant::now();
            let recovered = DurableGraph::open(&dir).map_err(std::io::Error::other)?;
            let recover_s = start.elapsed().as_secs_f64();
            let replayed = recovered.recovery_replayed_events;
            let server = Server::start_durable(recovered, config(plan))?;
            let client = Client::new(server.addr());
            loop {
                match client.get("/health") {
                    Ok(r) if r.status == 200 => break,
                    _ if start.elapsed() > Duration::from_secs(30) => {
                        return Err(std::io::Error::other("server never became healthy"))
                    }
                    _ => std::thread::sleep(Duration::from_micros(200)),
                }
            }
            Ok((server, start.elapsed().as_secs_f64(), recover_s, replayed))
        });
        let (server, up_s, recover_s, replayed) = started?;
        setup_s.push(up_s * k);
        recover_ms.push(recover_s * k * 1e3);
        replayed_events = replayed;
        last = Some((server, dir));
    }
    let (server, dir) = last.expect("SETUPS > 0");
    Ok(Booted {
        server,
        dir,
        setup_s,
        recover_ms,
        replayed_events,
    })
}

/// Times `decode_checkpoint` on the newest checkpoint of `dir`.
fn checkpoint_decode_ms(dir: &Path) -> std::io::Result<f64> {
    let newest = egraph_log::list_checkpoints(dir)
        .map_err(std::io::Error::other)?
        .pop()
        .ok_or_else(|| std::io::Error::other("the seeded history has no checkpoint"))?;
    let file = egraph_log::read_checkpoint(dir, newest).map_err(std::io::Error::other)?;
    let mut times = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let decoded = egraph_io::decode_checkpoint(&file).map_err(std::io::Error::other)?;
        times.push(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(decoded);
    }
    Ok(median(&times))
}

/// One `/query` as the oracle sees it: which descriptor, whether it got a
/// 200, a digest of the body, and the window of graph versions it may
/// legally reflect.
#[derive(Clone, Copy, Debug)]
struct ReadRec {
    desc: u32,
    ok: bool,
    digest: u64,
    bytes: u32,
    v_lo: u64,
    v_hi: u64,
}

/// What a read lane needs to pick and send requests.
struct Reads<'a> {
    descs: &'a [QueryDescriptor],
    bodies: &'a [String],
    /// The standing descriptors reads pick from; cold descriptors follow
    /// the `standing` ones in `descs`.
    read_set: &'a [usize],
    standing: usize,
    cold_next: &'a AtomicUsize,
    /// Seals acked so far, and seals sent so far.
    acked: &'a AtomicU64,
    sent: &'a AtomicU64,
    /// The in-process replica the traced pass replays layers on.
    replica: Option<(&'a LiveGraph, &'a QueryCache)>,
}

struct ReadLane {
    client: Client,
    recs: Vec<ReadRec>,
    log: SpanLog,
}

fn outcome_tag(outcome: CacheOutcome) -> &'static str {
    match outcome {
        CacheOutcome::Miss => "miss",
        CacheOutcome::Hit => "hit",
        CacheOutcome::Extended => "extend",
        CacheOutcome::Redimensioned => "redimension",
        CacheOutcome::Resettled => "resettle",
        CacheOutcome::Recomputed => "recompute",
    }
}

impl Reads<'_> {
    fn desc_of(&self, pick: Pick) -> usize {
        match pick {
            Pick::Standing(k) => self.read_set[k],
            Pick::Cold => {
                let k = self.standing + self.cold_next.fetch_add(1, Ordering::Relaxed);
                assert!(k < self.descs.len(), "the cold pool ran out");
                k
            }
        }
    }

    /// Sends one `/query`; in the traced pass, wraps it and a sample of
    /// in-process layer replays in spans.
    fn run(&self, lane: &mut ReadLane, pick: Pick, request: u64) -> bool {
        let desc = self.desc_of(pick);
        let v_lo = self.acked.load(Ordering::SeqCst);
        let client = lane.client.clone();
        let descriptor = &self.descs[desc];
        let response = lane.log.span("gen", "request", None, request, |log, root| {
            let response = log.span("serve", "roundtrip", Some(root), request, |_, _| {
                client.query(descriptor)
            });
            if log.enabled() && request.is_multiple_of(REPLAY_EVERY as u64) {
                self.replay(log, root, request, desc);
            }
            response
        });
        let v_hi = self.sent.load(Ordering::SeqCst);
        let (ok, digest, bytes) = match &response {
            Ok(r) if r.status == 200 => (true, data::digest(r.body.as_bytes()), r.body.len()),
            _ => (false, 0, 0),
        };
        lane.recs.push(ReadRec {
            desc: desc as u32,
            ok,
            digest,
            bytes: bytes as u32,
            v_lo,
            v_hi,
        });
        ok
    }

    /// The per-request breakdown: decode the same request body, peek (or
    /// compute) on the replica's cache, encode the result.
    fn replay(&self, log: &mut SpanLog, root: u64, request: u64, desc: usize) {
        let body = &self.bodies[desc];
        let decoded = log.span("query", "decode", Some(root), request, |_, _| {
            descriptor_from_json(body).expect("the benchmark's own descriptors decode")
        });
        let Some((live, cache)) = self.replica else {
            return;
        };
        let search = decoded.to_search();
        let peeked = log.span("stream", "peek", Some(root), request, |_, _| {
            cache.peek(live, &search)
        });
        let result = match peeked {
            Some(result) => result,
            None => log.tagged("stream", "compute", Some(root), request, |_, _| {
                let (result, outcome) = cache
                    .execute_traced(live, &search)
                    .expect("the benchmark's own descriptors run");
                (result, outcome_tag(outcome))
            }),
        };
        let encoded = log.span("query", "encode", Some(root), request, |_, _| {
            search_result_to_json(&result)
        });
        std::hint::black_box(encoded);
    }
}

/// Runs `n` reads open-loop at `rate` on `lanes` lanes.
#[allow(clippy::too_many_arguments)]
fn read_step(
    reads: &Reads<'_>,
    addr: std::net::SocketAddr,
    lanes: usize,
    rate: f64,
    picks: &[Pick],
    env: &Env,
    first_request: u64,
    owner_base: u64,
) -> (StepStats, Vec<ReadLane>) {
    load::open_loop(
        lanes,
        rate,
        picks.len(),
        |lane| ReadLane {
            client: Client::new(addr),
            recs: Vec::new(),
            log: SpanLog::new(env.trace, env.epoch, owner_base | lane as u64),
        },
        |lane, i| reads.run(lane, picks[i], first_request + i as u64),
    )
}

/// The writer lane's record of one sealing `/ingest`.
struct SealRec {
    ok: bool,
    ingest_ms: f64,
    late_ms: f64,
    sent_at: Instant,
}

/// The in-process twin the traced writer replays each seal on: apply,
/// seal (with the server's checkpoint policy), repair every standing
/// entry, encode the subscriber's frame.
struct Twin {
    graph: DurableGraph,
    cache: QueryCache,
    standing: Vec<QueryDescriptor>,
    subscribed: Option<usize>,
    events: u64,
    segment_bytes: u64,
    checkpoint_bytes: u64,
}

impl Twin {
    fn open(
        seed_dir: &Path,
        dir: &Path,
        plan: &Plan,
        standing: &[QueryDescriptor],
        subscribed: Option<usize>,
    ) -> std::io::Result<Twin> {
        data::copy_dir(seed_dir, dir)?;
        let mut graph = DurableGraph::open(dir)
            .map_err(std::io::Error::other)?
            .graph;
        graph.set_checkpoint_policy(
            plan.checkpoint_every,
            ServerConfig::default().retain_checkpoints,
        );
        let cache = QueryCache::new();
        for d in standing {
            cache
                .execute(graph.live(), &d.to_search())
                .map_err(std::io::Error::other)?;
        }
        Ok(Twin {
            graph,
            cache,
            standing: standing.to_vec(),
            subscribed,
            events: 0,
            segment_bytes: 0,
            checkpoint_bytes: 0,
        })
    }

    fn replay(
        &mut self,
        log: &mut SpanLog,
        root: u64,
        request: u64,
        batch: &[(u32, u32)],
        label: i64,
    ) {
        let graph = &mut self.graph;
        log.span("stream", "apply", Some(root), request, |_, _| {
            for &(u, v) in batch {
                graph.insert(u, v).expect("twin insert");
            }
        });
        let receipt = log.tagged("log", "seal", Some(root), request, |_, _| {
            let receipt = graph.seal_snapshot(label).expect("twin seal");
            let tag = if receipt.checkpoint.is_some() {
                "checkpoint"
            } else {
                ""
            };
            (receipt, tag)
        });
        self.events += batch.len() as u64;
        self.segment_bytes += receipt.bytes.len() as u64;
        if let Some(c) = &receipt.checkpoint {
            self.checkpoint_bytes = c.bytes;
        }
        for (k, d) in self.standing.iter().enumerate() {
            let search = d.to_search();
            let result = log.tagged("stream", "repair", Some(root), request, |_, _| {
                let (result, outcome) = self
                    .cache
                    .execute_traced(self.graph.live(), &search)
                    .expect("twin repair");
                (result, outcome_tag(outcome))
            });
            if self.subscribed == Some(k) {
                let frame = log.span("query", "encode", Some(root), request, |_, _| {
                    search_result_to_json(&result)
                });
                std::hint::black_box(frame);
            }
        }
    }
}

/// The edge batch of seal `k` of a run's writer.
fn batch(seed: u64, k: u64, nodes: usize, size: usize) -> Vec<(u32, u32)> {
    data::random_batch(&mut data::rng(seed, 1_000 + k), nodes, size)
}

fn ingest_body(batch: &[(u32, u32)], label: i64) -> String {
    let events: Vec<String> = batch.iter().map(|(u, v)| format!("[{u}, {v}]")).collect();
    format!("{{\"events\": [{}], \"seal\": {label}}}", events.join(", "))
}

/// One subscription frame: its sequence number, version and a digest of
/// its result document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FrameRec {
    seq: u64,
    version: u64,
    digest: u64,
}

/// Reads `"key": <integer>` out of a frame.
fn frame_field(frame: &str, key: &str) -> Option<u64> {
    let at = frame.find(&format!("\"{key}\": "))? + key.len() + 4;
    let digits: String = frame[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn parse_frame(frame: &str) -> Option<FrameRec> {
    let at = frame.find("\"result\": ")? + "\"result\": ".len();
    let result = frame[at..].strip_suffix('}')?;
    Some(FrameRec {
        seq: frame_field(frame, "seq")?,
        version: frame_field(frame, "version")?,
        digest: data::digest(result.as_bytes()),
    })
}

/// The writer lane: sealing `/ingest`s open loop at a fixed rate. After
/// each ack it drains the subscription's frame for that seal. Ingest
/// latency is send to ack. Nothing is retried; a failed seal ends the
/// lane, since every later label would be judged against a history it
/// broke.
struct Writer<'a> {
    client: Client,
    plan: &'a Plan,
    env: &'a Env,
    acked: &'a AtomicU64,
    sent: &'a AtomicU64,
    sub: Option<Subscription>,
    twin: Option<Twin>,
    log: SpanLog,
    seals: Vec<SealRec>,
    frames: Vec<Option<FrameRec>>,
    failed: bool,
}

impl Writer<'_> {
    /// Sends up to `count` more seals, one per `1 / seal_rate` seconds from
    /// now, stopping early when `stop` is set.
    fn run(&mut self, count: usize, stop: &AtomicBool) {
        let interval = Duration::from_secs_f64(1.0 / self.plan.seal_rate);
        let start = Instant::now();
        for i in 0..count {
            if self.failed || stop.load(Ordering::SeqCst) {
                break;
            }
            let due = start + interval * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            self.seal(due);
        }
    }

    fn seal(&mut self, due: Instant) {
        let k = self.seals.len() as u64;
        let label = self.plan.history.seals as i64 + k as i64;
        let edges = batch(self.env.seed, k, self.plan.history.nodes, self.plan.batch);
        let body = ingest_body(&edges, label);
        let request = SEAL_REQUESTS | k;
        let (client, sent, acked) = (&self.client, self.sent, self.acked);
        let (sub, twin, frames) = (&mut self.sub, &mut self.twin, &mut self.frames);
        let sent_at = Instant::now();
        let (ok, ingest_ms) = self.log.span("gen", "seal", None, request, |log, root| {
            sent.fetch_add(1, Ordering::SeqCst);
            let response = log.span("serve", "ingest", Some(root), request, |_, _| {
                client.post("/ingest", &body)
            });
            let ingest_ms = sent_at.elapsed().as_secs_f64() * 1e3;
            let ok = matches!(&response, Ok(r) if r.status == 200);
            if ok {
                acked.fetch_add(1, Ordering::SeqCst);
            }
            if let Some(sub) = sub.as_mut() {
                let frame = log.span("serve", "frame", Some(root), request, |_, _| {
                    sub.next_frame()
                });
                frames.push(frame.ok().flatten().as_deref().and_then(parse_frame));
            }
            if let Some(twin) = twin.as_mut() {
                twin.replay(log, root, request, &edges, label);
            }
            (ok, ingest_ms)
        });
        self.seals.push(SealRec {
            ok,
            ingest_ms,
            late_ms: sent_at.saturating_duration_since(due).as_secs_f64() * 1e3,
            sent_at,
        });
        self.failed |= !ok;
    }
}

/// Expected body digests for `(version, descriptor)` pairs, computed on an
/// independent replica by `Search::run` from scratch after replaying the
/// writer's batches.
fn expected_digests(
    mut replica: LiveGraph,
    descs: &[QueryDescriptor],
    needed: &BTreeMap<u64, BTreeSet<u32>>,
    env: &Env,
    plan: &Plan,
    base_label: i64,
) -> BTreeMap<(u64, u32), u64> {
    let base = replica.version();
    let mut out = BTreeMap::new();
    let last = needed.keys().next_back().copied().unwrap_or(base);
    for version in base..=last {
        if version > base {
            let k = version - base - 1;
            for (u, v) in batch(env.seed, k, plan.history.nodes, plan.batch) {
                replica.insert(u, v).expect("replica insert");
            }
            replica
                .seal_snapshot(base_label + k as i64)
                .expect("replica seal");
        }
        for &d in needed.get(&version).into_iter().flatten() {
            let result = descs[d as usize]
                .to_search()
                .run(replica.graph())
                .expect("every benchmark query is valid");
            out.insert(
                (version, d),
                data::digest(search_result_to_json(&result).as_bytes()),
            );
        }
    }
    out
}

/// Times `SEARCH_REPEATS` from-scratch `Search::run`s of each standing
/// descriptor on the replica, at the reference speed, adding them to
/// `times` (one list per descriptor). The standing shapes are the same on
/// every seed, so `searches_per_s` compares across runs.
fn time_standing(
    replica: &LiveGraph,
    standing: &[QueryDescriptor],
    times: &mut Vec<Vec<f64>>,
    yard: &mut Yardstick,
) {
    times.resize(standing.len(), Vec::new());
    let (round, k) = yard.around(|| {
        standing
            .iter()
            .map(|d| {
                let search = d.to_search();
                (0..SEARCH_REPEATS)
                    .map(|_| {
                        let start = Instant::now();
                        let result = search
                            .run(replica.graph())
                            .expect("every benchmark query is valid");
                        std::hint::black_box(result);
                        start.elapsed().as_secs_f64() * 1e3
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    });
    for (times, round) in times.iter_mut().zip(round) {
        times.extend(round.into_iter().map(|ms| ms * k));
    }
}

/// The `core` shape a descriptor runs as, named like `cold_scan`'s.
fn shape_of(d: &QueryDescriptor) -> &'static str {
    let window = d.window();
    match d.strategy() {
        egraph_query::Strategy::Parallel => "parallel",
        egraph_query::Strategy::Foremost => "foremost",
        egraph_query::Strategy::SharedFrontier => "shared",
        _ if d.effective_reverse() => "backward",
        _ if window.start_bound().is_some() || window.end_bound().is_some() => "window",
        _ => "serial",
    }
}

/// Successful reads whose body matches the replica's answer at no version
/// of their window.
fn wrong_reads(
    records: &[ReadRec],
    expected: &BTreeMap<(u64, u32), u64>,
    base_version: u64,
) -> u64 {
    let matches = |r: &ReadRec| {
        (r.v_lo..=r.v_hi).any(|v| expected.get(&(base_version + v, r.desc)) == Some(&r.digest))
    };
    records.iter().filter(|r| r.ok && !matches(r)).count() as u64
}

/// Checks sampled roots against the static-equivalent graph: classical
/// BFS on the Theorem 1 construction must give the evolving BFS distances.
fn static_check(live: &LiveGraph, seed: u64) -> usize {
    let equivalent = EquivalentStaticGraph::build(live.graph());
    let active = data::active_nodes(live.graph());
    let mut rng = data::rng(seed, 4);
    let mut wrong = 0;
    for _ in 0..STATIC_SAMPLE {
        let root = active[rand::Rng::gen_range(&mut rng, 0..active.len())];
        let mut ours = egraph_query::Search::from(root)
            .run(live.graph())
            .expect("active root")
            .distance_map()
            .reached();
        let mut reference = equivalent.bfs_distances_from(root).expect("active root");
        ours.sort();
        reference.sort();
        if ours != reference {
            wrong += 1;
        }
    }
    wrong
}

/// Runs `read_hot` or `ingest_churn` once.
pub fn run(plan: &Plan, env: &Env) -> std::io::Result<Outcome> {
    let churn = plan.churn;
    let mut out = Outcome::default();
    let work = env.work.join(if env.trace { "traced" } else { "plain" });
    std::fs::create_dir_all(&work)?;
    let seed_dir = work.join("seeded");
    data::write_data_dir(&seed_dir, &plan.history, env.seed)?;
    let decode_ms = checkpoint_decode_ms(&seed_dir)?;

    let mut yard = Yardstick::new();
    let booted = boot(plan, &seed_dir, &work, &mut yard)?;
    let server = booted.server;
    let addr = server.addr();
    let client = Client::new(addr);

    // The oracle's independent replica, recovered from the same data.
    let replica_dir = work.join("replica");
    data::copy_dir(&seed_dir, &replica_dir)?;
    let replica = DurableGraph::open(&replica_dir)
        .map_err(std::io::Error::other)?
        .graph
        .into_parts()
        .0;
    let base_version = replica.version();
    let base_label = plan.history.seals as i64;
    let active = data::active_nodes(replica.graph());
    let standing = data::standing_set(&active, replica.num_sealed() as u32, env.seed);
    let mut descs = standing.clone();
    descs.extend(data::cold_pool(
        &active,
        &standing,
        replica.num_sealed() as u32,
        env.seed,
    ));
    let bodies: Vec<String> = descs.iter().map(descriptor_to_json).collect();

    // Warm the server's cache (and the replay cache) with the standing set.
    let replay_cache = QueryCache::new();
    for d in &standing {
        let r = client.query(d)?;
        if r.status != 200 {
            return Err(std::io::Error::other(format!(
                "warm-up query failed: {}",
                r.body
            )));
        }
        replay_cache
            .execute(&replica, &d.to_search())
            .map_err(std::io::Error::other)?;
    }
    // Under churn the reads keep to shapes whose bodies do not grow with
    // every seal (resettled, re-dimensioned, foremost), so a read costs the
    // same early and late in a run; the twin of the traced pass covers
    // the growing shapes.
    let read_set: Vec<usize> = (0..standing.len())
        .filter(|&k| !churn || matches!(shape_of(&standing[k]), "backward" | "window" | "foremost"))
        .collect();
    // Without churn the seals go to a second server, recovered from its own
    // copy of the data, so `read_hot`'s reads see no writes; its seals are
    // sent between the read windows, so they fall at different times too.
    let probe = if churn {
        None
    } else {
        let dir = work.join("probe");
        data::copy_dir(&seed_dir, &dir)?;
        let recovered = DurableGraph::open(&dir).map_err(std::io::Error::other)?;
        Some((Server::start_durable(recovered, config(plan))?, dir))
    };
    let write_server = probe.as_ref().map_or(&server, |(s, _)| s);
    let write_addr = write_server.addr();
    // The writer holds one subscription on the server it writes to. It
    // follows the foremost descriptor: its repair extends on every seal
    // while its frame keeps one size, so seals cost the same early and late
    // in a run.
    let subscribed = standing.iter().position(|d| shape_of(d) == "foremost");
    let sub = match subscribed {
        Some(k) => {
            let mut s = Client::new(write_addr).subscribe(&standing[k])?;
            let first = s.next_frame()?.as_deref().and_then(parse_frame);
            if first.map(|f| (f.seq, f.version)) != Some((0, base_version)) {
                return Err(std::io::Error::other("the initial frame is malformed"));
            }
            Some(s)
        }
        None => None,
    };
    let twin = if env.trace {
        Some(Twin::open(
            &seed_dir,
            &work.join("twin"),
            plan,
            &standing,
            subscribed,
        )?)
    } else {
        None
    };
    let frames_before = write_server.stats().frames_pushed;

    let cold_next = AtomicUsize::new(0);
    let (acked, sent) = (AtomicU64::new(0), AtomicU64::new(0));
    let reads = Reads {
        descs: &descs,
        bodies: &bodies,
        read_set: &read_set,
        standing: standing.len(),
        cold_next: &cold_next,
        acked: &acked,
        sent: &sent,
        replica: if churn {
            None
        } else {
            Some((&replica, &replay_cache))
        },
    };
    let mut writer = Writer {
        client: Client::new(write_addr),
        plan,
        env,
        acked: &acked,
        sent: &sent,
        sub,
        twin,
        log: SpanLog::new(env.trace, env.epoch, WRITER_OWNER),
        seals: Vec::new(),
        frames: Vec::new(),
        failed: false,
    };
    let read_lanes = if churn { env.lanes - 1 } else { env.lanes }.max(1);
    let stats_before = (server.stats(), server.cache_stats());

    // `searches_per_s` takes each standing descriptor's median run over
    // rounds spread across the whole run, so they fall at different times:
    // before the measured phases, between read windows where no writer
    // runs, after them and during the checks.
    let mut search_ms = Vec::new();
    time_standing(&replica, &standing, &mut search_ms, &mut yard);
    rss::reset_peak();
    let fixed_n = ((plan.read_rate * env.seconds * plan.fixed_share) as usize).max(MIN_FIXED);
    let stop = AtomicBool::new(false);
    let picks = data::request_list(env.seed, 0, fixed_n, read_set.len(), plan.cold_per_mille);
    let mut scaled_ms = Vec::new();
    let (fixed, fixed_end, peak_rss_mb, probes, bursts, mut lanes) = std::thread::scope(|scope| {
        // Under churn the writer lane runs on its own thread throughout;
        // otherwise this thread sends the probe's seals between windows.
        let mut inline = Some(&mut writer);
        let writer_handle = churn.then(|| {
            let (stop, writer) = (&stop, inline.take().expect("not yet taken"));
            scope.spawn(move || writer.run(usize::MAX, stop))
        });
        // The fixed-rate phase, window by window, each between two
        // yardstick passes. Without churn the write probe's seals follow
        // each window, and a capacity burst every other one.
        let mut parts = Vec::new();
        let mut lanes = Vec::new();
        let mut bursts = Vec::new();
        let mut offset = fixed_n as u64;
        let window = fixed_n.div_ceil(plan.windows);
        for (w, picks) in picks.chunks(window).enumerate() {
            let ((part, part_lanes), k) = yard.around(|| {
                read_step(
                    &reads,
                    addr,
                    read_lanes,
                    plan.read_rate,
                    picks,
                    env,
                    (w * window) as u64,
                    (w as u64) << 16,
                )
            });
            scaled_ms.extend(part.ordered_ms.iter().map(|ms| ms * k));
            parts.push(part);
            lanes.extend(part_lanes);
            if let Some(writer) = inline.as_mut() {
                let left = plan.probe_seals.saturating_sub(writer.seals.len());
                writer.run(PROBE_CHUNK.min(left), &stop);
                time_standing(&replica, &standing, &mut search_ms, &mut yard);
            }
            if let Capacity::Bursts { reads: n } = plan.capacity {
                if w % 2 == 1 {
                    // Every request is due at once: each lane sends its
                    // next one as soon as the last is answered.
                    let burst_no = bursts.len() as u64 + 1;
                    let picks = data::request_list(
                        env.seed,
                        burst_no,
                        n,
                        read_set.len(),
                        plan.cold_per_mille,
                    );
                    let ((stats, burst_lanes), k) = yard.around(|| {
                        read_step(
                            &reads,
                            addr,
                            read_lanes,
                            f64::INFINITY,
                            &picks,
                            env,
                            offset,
                            (100 + burst_no) << 16,
                        )
                    });
                    offset += n as u64;
                    lanes.extend(burst_lanes);
                    bursts.push((stats, k));
                }
            }
        }
        let fixed = StepStats::concat(parts);
        let fixed_end = churn.then(Instant::now);
        // Memory is judged on the fixed-rate phase: the same work on every run.
        let peak_rss_mb = rss::peak_mb();
        let probes = match plan.capacity {
            Capacity::Ladder { ladder, share } => {
                let mut step_no = 0u64;
                let probe_s = env.seconds * share / EXPECTED_PROBES;
                // The walk starts a little below the rate one worker would
                // sustain at the fixed phase's median latency.
                let estimate = 0.9e3 / percentile(&fixed.latency_ms, 0.5);
                ladder.walk(ladder.step_below(estimate), |rate| {
                    step_no += 1;
                    let n = ((rate * probe_s) as usize).max(MIN_STEP);
                    let picks = data::request_list(
                        env.seed,
                        step_no,
                        n,
                        read_set.len(),
                        plan.cold_per_mille,
                    );
                    let (stats, step_lanes) = read_step(
                        &reads,
                        addr,
                        read_lanes,
                        rate,
                        &picks,
                        env,
                        offset,
                        (100 + step_no) << 16,
                    );
                    offset += n as u64;
                    lanes.extend(step_lanes);
                    stats
                })
            }
            Capacity::Bursts { .. } => Vec::new(),
        };
        if let Some(writer) = inline.as_mut() {
            let left = plan.probe_seals.saturating_sub(writer.seals.len());
            writer.run(left, &stop);
        }
        stop.store(true, Ordering::SeqCst);
        if let Some(handle) = writer_handle {
            handle.join().expect("writer lane panicked");
        }
        (fixed, fixed_end, peak_rss_mb, probes, bursts, lanes)
    });
    time_standing(&replica, &standing, &mut search_ms, &mut yard);
    let stats_after = (server.stats(), server.cache_stats());
    let write_stats = write_server.stats();

    // ---- measured phases done; everything below is checking ----
    let mut records: Vec<ReadRec> = lanes.iter().flat_map(|l| l.recs.iter().copied()).collect();
    let acked_total = acked.load(Ordering::SeqCst);
    let final_version = base_version + acked_total;
    let seals_ok = writer.seals.iter().filter(|s| s.ok).count() as u64;
    let mut wrong = 0u64;

    // Reads: each body must equal the replica's answer at a version inside
    // its window. Without a writer during reads every window is the base.
    let mut needed: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
    for r in records.iter_mut().filter(|r| r.ok) {
        if !churn {
            r.v_lo = 0;
            r.v_hi = 0;
        }
        for v in r.v_lo..=r.v_hi {
            needed.entry(base_version + v).or_default().insert(r.desc);
        }
    }
    if let Some(k) = subscribed {
        for v in base_version..=final_version {
            needed.entry(v).or_default().insert(k as u32);
        }
    }
    for d in 0..standing.len() as u32 {
        needed.entry(final_version).or_default().insert(d);
    }
    time_standing(&replica, &standing, &mut search_ms, &mut yard);
    let expected = expected_digests(replica.clone(), &descs, &needed, env, plan, base_label);
    wrong += wrong_reads(&records, &expected, base_version);
    // Frames: one per seal, in order, each equal to the replica's answer.
    if let Some(k) = subscribed {
        for (i, frame) in writer.frames.iter().enumerate() {
            let want_version = base_version + i as u64 + 1;
            let good = frame.is_some_and(|f| {
                f.seq == i as u64 + 1
                    && f.version == want_version
                    && expected.get(&(want_version, k as u32)) == Some(&f.digest)
            });
            if !good {
                wrong += 1;
            }
        }
        if writer.frames.len() as u64 != seals_ok {
            wrong += 1;
        }
    }
    time_standing(&replica, &standing, &mut search_ms, &mut yard);
    wrong += static_check(&replica, env.seed) as u64;
    time_standing(&replica, &standing, &mut search_ms, &mut yard);

    // Recovery: after shutdown the log must reopen at exactly the acked
    // version, answering like the replica.
    let write_dir = probe.as_ref().map_or(&booted.dir, |(_, dir)| dir).clone();
    drop(server);
    drop(probe);
    let recovered = DurableGraph::open(&write_dir).map_err(std::io::Error::other)?;
    let live = recovered.graph.live();
    if live.version() != final_version {
        wrong += 1;
    }
    for d in 0..standing.len() as u32 {
        let result = descs[d as usize]
            .to_search()
            .run(live.graph())
            .map_err(std::io::Error::other)?;
        let body = search_result_to_json(&result);
        if expected.get(&(final_version, d)) != Some(&data::digest(body.as_bytes())) {
            wrong += 1;
        }
    }

    // ---- metrics ----
    let read_fail = records.iter().filter(|r| !r.ok).count() as u64;
    let seal_fail = writer.seals.iter().filter(|s| !s.ok).count() as u64;
    out.attempted = records.len() as u64 + writer.seals.len() as u64;
    out.wrong = wrong;
    out.failed = read_fail + seal_fail + wrong;
    out.set("query_p50_ms", median(&scaled_ms));
    assert!(crate::stats::tail_percentile(P99_WINDOW) >= Some(0.99));
    out.set("query_p99_ms", best_window(&scaled_ms, P99_WINDOW, 0.99));
    let capacity = match plan.capacity {
        Capacity::Ladder { .. } => load::capacity(&probes).map_or(0.0, |p| p.stats.achieved_rate()),
        Capacity::Bursts { .. } => {
            let done: usize = bursts.iter().map(|(b, _)| b.attempted - b.failed).sum();
            done as f64 / bursts.iter().map(|(b, k)| b.span_s * k).sum::<f64>()
        }
    };
    out.set("capacity_qps", capacity);
    // Under churn, seals count while the reads run at `read_rate`; the
    // ladder's heavier reads would make them depend on how far it walks.
    // A seal waits on an fsync, which the yardstick does not track, so
    // its time is not scaled.
    let ingest: Vec<f64> = writer
        .seals
        .iter()
        .filter(|s| s.ok && fixed_end.is_none_or(|end| s.sent_at < end))
        .map(|s| s.ingest_ms)
        .collect();
    out.set("ingest_p50_ms", median(&ingest));
    out.set("ingest_p90_ms", pct_or_zero(&ingest, 0.9));
    let typical: Vec<f64> = search_ms.iter().map(|t| median(t)).collect();
    out.set(
        "searches_per_s",
        typical.len() as f64 / (typical.iter().sum::<f64>() / 1e3),
    );
    let mut by_shape: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (d, ms) in standing.iter().zip(&typical) {
        by_shape.entry(shape_of(d)).or_default().push(*ms);
    }
    for (shape, name) in [
        ("serial", "core.serial_ms_p50"),
        ("parallel", "core.parallel_ms_p50"),
        ("foremost", "core.foremost_ms_p50"),
        ("backward", "core.backward_ms_p50"),
        ("window", "core.window_ms_p50"),
        ("shared", "core.shared_ms_p50"),
    ] {
        out.layer(name, by_shape.get(shape).map_or(0.0, |v| median(v)));
    }
    if by_shape.contains_key("serial") && by_shape.contains_key("parallel") {
        out.layer(
            "core.parallel_vs_serial",
            median(&by_shape["parallel"]) / median(&by_shape["serial"]),
        );
    }
    out.set("setup_s", median(&booted.setup_s));
    out.set("peak_rss_mb", peak_rss_mb);

    out.note(format!(
        "fixed phase: {} reads at {} req/s on {read_lanes} lanes, raw p50 {:.3} ms, raw p99 {:.3} ms, lateness p99 {:.3} ms",
        fixed.attempted,
        plan.read_rate,
        percentile(&fixed.latency_ms, 0.5),
        percentile(&fixed.latency_ms, 0.99),
        percentile(&sorted(&fixed.late_ms), 0.99),
    ));
    out.note(yard.summary());
    for (b, k) in &bursts {
        out.note(format!(
            "burst: {} reads on {read_lanes} lanes, {} failed, raw {:.1} req/s, scale {k:.4}",
            b.attempted,
            b.failed,
            b.achieved_rate(),
        ));
    }
    let tolerance = match plan.capacity {
        Capacity::Ladder { ladder, .. } => ladder.late_tolerance_ms,
        Capacity::Bursts { .. } => 0.0,
    };
    for p in &probes {
        out.note(format!(
            "ladder step {:>2}: offered {:>8.1} req/s, achieved {:>8.1}, n {:>5}, p99 {:>9.3} ms, failed {}, lateness grew {} -> {}",
            p.step,
            p.stats.rate,
            p.stats.achieved_rate(),
            p.stats.attempted,
            percentile(&p.stats.latency_ms, 0.99),
            p.stats.failed,
            p.stats.lateness_grew(tolerance),
            if p.passed { "pass" } else { "fail" },
        ));
    }
    out.note(format!(
        "writer: {} seals ({} failed), {} frames; final version {final_version}; checkpoints written {}",
        writer.seals.len(),
        seal_fail,
        writer.frames.len(),
        write_stats.checkpoints_written,
    ));
    out.note(format!(
        "oracle: {} reads checked against {} from-scratch answers, {wrong} wrong",
        records.iter().filter(|r| r.ok).count(),
        expected.len()
    ));

    // ---- per-layer (traced pass) ----
    let mut spans: Vec<Span> = Vec::new();
    let seal_late: Vec<f64> = writer.seals.iter().map(|s| s.late_ms).collect();
    let twin_out = writer.twin;
    spans.extend(writer.log.into_spans());
    for lane in lanes.drain(..) {
        spans.extend(lane.log.into_spans());
    }
    let mut late: Vec<f64> = fixed.late_ms.clone();
    late.extend(seal_late);
    for p in &probes {
        late.extend(p.stats.late_ms.iter().copied());
    }
    out.layer("gen.late_ms_p99", pct_or_zero(&late, 0.99));
    out.layer("gen.attempted", out.attempted as f64);
    out.layer("error_rate", out.error_rate());
    out.layer("log.recover_ms", median(&booted.recover_ms));
    out.layer("log.replayed_events", booted.replayed_events as f64);
    out.layer("io.checkpoint_decode_ms", decode_ms);
    let (s0, c0) = stats_before;
    let (s1, c1) = stats_after;
    out.layer("serve.shed", (s1.requests_shed - s0.requests_shed) as f64);
    out.layer("serve.coalesced", (c1.coalesced - c0.coalesced) as f64);
    out.layer(
        "serve.frames_pushed",
        (write_stats.frames_pushed - frames_before) as f64,
    );
    let requests = c1.requests() - c0.requests();
    out.layer("stream.requests", requests as f64);
    out.layer(
        "stream.hit_ratio",
        ((c1.hits - c0.hits) + (c1.coalesced - c0.coalesced)) as f64 / requests.max(1) as f64,
    );
    out.layer("stream.recomputes", (c1.recomputes - c0.recomputes) as f64);
    out.layer(
        "serve.response_kb_mean",
        mean(
            &records
                .iter()
                .filter(|r| r.ok)
                .map(|r| r.bytes as f64 / 1024.0)
                .collect::<Vec<_>>(),
        ),
    );
    if let Some(twin) = &twin_out {
        out.layer(
            "log.bytes_per_event",
            twin.segment_bytes as f64 / twin.events.max(1) as f64,
        );
        out.layer("log.checkpoint_bytes", twin.checkpoint_bytes as f64);
    }
    layer_metrics(&mut out, &spans, env, plan.batch);
    if env.trace {
        trace::write_spans(&work.join("spans.jsonl"), &spans)?;
    }
    Ok(out)
}

/// Per-layer metrics and breakdowns from the traced pass's spans.
fn layer_metrics(out: &mut Outcome, spans: &[Span], env: &Env, batch: usize) {
    if !env.trace {
        return;
    }
    let us = |v: Vec<f64>| v.into_iter().map(|ms| ms * 1e3).collect::<Vec<f64>>();
    let roundtrip = us(trace::durations_ms(spans, "serve", "roundtrip", None));
    out.layer("serve.roundtrip_us_p50", pct_or_zero(&roundtrip, 0.5));
    out.layer(
        "query.decode_us_p50",
        pct_or_zero(
            &us(trace::durations_ms(spans, "query", "decode", None)),
            0.5,
        ),
    );
    let encode = trace::durations_ms(spans, "query", "encode", None);
    out.layer("query.encode_us_p50", pct_or_zero(&us(encode.clone()), 0.5));
    out.layer(
        "stream.peek_ns_p50",
        pct_or_zero(&trace::durations_ms(spans, "stream", "peek", None), 0.5) * 1e6,
    );
    out.layer(
        "stream.miss_ms_p50",
        pct_or_zero(
            &trace::durations_ms(spans, "stream", "compute", Some("miss")),
            0.5,
        ),
    );
    out.layer(
        "stream.extend_ms_p50",
        pct_or_zero(
            &trace::durations_ms(spans, "stream", "repair", Some("extend")),
            0.5,
        ),
    );
    out.layer(
        "stream.resettle_ms_p50",
        pct_or_zero(
            &trace::durations_ms(spans, "stream", "repair", Some("resettle")),
            0.5,
        ),
    );
    out.layer(
        "stream.redimension_us_p50",
        pct_or_zero(
            &us(trace::durations_ms(
                spans,
                "stream",
                "repair",
                Some("redimension"),
            )),
            0.5,
        ),
    );
    let seals = trace::durations_ms(spans, "log", "seal", Some(""));
    out.layer("log.seal_ms_p50", pct_or_zero(&seals, 0.5));
    out.layer("log.seal_ms_max", seals.iter().copied().fold(0.0, f64::max));
    out.layer(
        "log.checkpoint_ms_p50",
        pct_or_zero(
            &trace::durations_ms(spans, "log", "seal", Some("checkpoint")),
            0.5,
        ),
    );

    // Per-request breakdown: transport is the roundtrip minus what the same
    // request costs in process to decode, peek or compute, and encode.
    let mut by_request: BTreeMap<u64, BTreeMap<(&str, &str), f64>> = BTreeMap::new();
    for s in spans {
        *by_request
            .entry(s.request)
            .or_default()
            .entry((s.layer, s.name))
            .or_default() += s.duration_ns() as f64 / 1e3;
    }
    let mut transport = Vec::new();
    let mut parts: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut encoded_bytes_per_us = Vec::new();
    for parts_of in by_request.values() {
        let get = |k: (&str, &str)| parts_of.get(&k).copied();
        if let (Some(rt), Some(dec), Some(enc)) = (
            get(("serve", "roundtrip")),
            get(("query", "decode")),
            get(("query", "encode")),
        ) {
            let lookup =
                get(("stream", "peek")).unwrap_or(0.0) + get(("stream", "compute")).unwrap_or(0.0);
            transport.push((rt - dec - lookup - enc).max(0.0));
            parts.entry("decode").or_default().push(dec);
            parts.entry("peek or compute").or_default().push(lookup);
            parts.entry("encode").or_default().push(enc);
            encoded_bytes_per_us.push(enc);
        }
    }
    out.layer("serve.transport_us_p50", pct_or_zero(&transport, 0.5));
    let kb = out
        .layer
        .get("serve.response_kb_mean")
        .copied()
        .unwrap_or(0.0);
    let enc_p50 = pct_or_zero(&encode, 0.5);
    out.layer(
        "query.encode_mb_per_s",
        if enc_p50 > 0.0 {
            kb / 1024.0 / (enc_p50 / 1e3)
        } else {
            0.0
        },
    );
    if !transport.is_empty() {
        out.note(format!(
            "per-request breakdown (p50 of {} sampled reads, us): decode {:.2}, peek or compute {:.2}, encode {:.1}, transport {:.1}",
            transport.len(),
            pct_or_zero(&parts["decode"], 0.5),
            pct_or_zero(&parts["peek or compute"], 0.5),
            pct_or_zero(&parts["encode"], 0.5),
            pct_or_zero(&transport, 0.5),
        ));
    }
    let apply = trace::durations_ms(spans, "stream", "apply", None);
    out.layer(
        "stream.apply_us_per_kevent",
        pct_or_zero(&apply, 0.5) * 1e3 / batch as f64 * 1e3,
    );
    seal_breakdown(out, spans);
    for (layer, ns) in trace::self_time_by_layer(spans) {
        let name = match layer {
            "serve" => "serve.self_ms",
            "query" => "query.self_ms",
            "stream" => "stream.self_ms",
            "log" => "log.self_ms",
            "core" => "core.self_ms",
            _ => "gen.self_ms",
        };
        let prior = out.layer.get(name).copied().unwrap_or(0.0);
        out.layer(name, prior + ns as f64 / 1e6);
    }
    out.layer("trace.spans", spans.len() as f64);
}

/// Per-seal breakdown: ingest roundtrip, and on the twin apply, seal,
/// checkpoint, repair and the subscriber's encode.
fn seal_breakdown(out: &mut Outcome, spans: &[Span]) {
    let ingest = trace::durations_ms(spans, "serve", "ingest", None);
    if ingest.is_empty() {
        return;
    }
    let apply = trace::durations_ms(spans, "stream", "apply", None);
    let per_seal_repair: BTreeMap<u64, f64> = spans
        .iter()
        .filter(|s| s.layer == "stream" && s.name == "repair")
        .fold(BTreeMap::new(), |mut m, s| {
            *m.entry(s.request).or_default() += s.duration_ns() as f64 / 1e6;
            m
        });
    let repair: Vec<f64> = per_seal_repair.into_values().collect();
    let frame_encode: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == "query" && s.name == "encode" && s.request >= SEAL_REQUESTS)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    out.note(format!(
        "per-seal breakdown (p50 over {} seals, ms): ingest roundtrip {:.3}, twin apply {:.3}, seal {:.3}, checkpoint seals {:.3}, repair of every standing entry {:.3}, subscriber encode {:.3}",
        ingest.len(),
        pct_or_zero(&ingest, 0.5),
        pct_or_zero(&apply, 0.5),
        pct_or_zero(&trace::durations_ms(spans, "log", "seal", Some("")), 0.5),
        pct_or_zero(&trace::durations_ms(spans, "log", "seal", Some("checkpoint")), 0.5),
        pct_or_zero(&repair, 0.5),
        pct_or_zero(&frame_encode, 0.5),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(desc: u32, digest: u64, v_lo: u64, v_hi: u64) -> ReadRec {
        ReadRec {
            desc,
            ok: true,
            digest,
            bytes: 0,
            v_lo,
            v_hi,
        }
    }

    #[test]
    fn a_planted_wrong_answer_fails_the_check() {
        let base = 10;
        let expected: BTreeMap<(u64, u32), u64> = [
            ((10, 0), 100),
            ((11, 0), 111),
            ((12, 0), 122),
            ((10, 1), 200),
        ]
        .into();
        let good = vec![read(0, 100, 0, 0), read(0, 111, 0, 2), read(1, 200, 0, 0)];
        assert_eq!(wrong_reads(&good, &expected, base), 0);
        // A body from outside the read's version window is wrong too.
        let mut planted = good.clone();
        planted.push(read(0, 122, 0, 1));
        planted.push(read(1, 999, 0, 0));
        assert_eq!(wrong_reads(&planted, &expected, base), 2);
        // A failed read is counted as a failure elsewhere, not here.
        let mut failed = read(1, 999, 0, 0);
        failed.ok = false;
        assert_eq!(wrong_reads(&[failed], &expected, base), 0);
    }

    #[test]
    fn frames_parse_seq_version_and_result() {
        let frame = "{\"seq\": 3, \"version\": 26, \"label\": 25, \"segments_sealed\": 26, \"outcome\": \"extended\", \"result\": {\"kind\": \"hops\"}}";
        let f = parse_frame(frame).unwrap();
        assert_eq!((f.seq, f.version), (3, 26));
        assert_eq!(f.digest, data::digest(b"{\"kind\": \"hops\"}"));
        assert!(parse_frame("{\"seq\": 1}").is_none());
    }
}
