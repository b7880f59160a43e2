//! `cold_scan`: `Search::run` in process on the CSR form of a Figure-5
//! uniform random graph, with no server and no cache. Every search has a
//! root no other search in the run uses.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use egraph_core::csr::CsrAdjacency;
use egraph_core::ids::TemporalNode;
use egraph_core::instrument::CountingView;
use egraph_core::static_equiv::EquivalentStaticGraph;
use egraph_query::{Search, SearchResult, Strategy};
use egraph_stream::LiveGraph;

use crate::data;
use crate::report::Outcome;
use crate::speed::Yardstick;
use crate::stats::{median, pct_or_zero, percentile, sorted};
use crate::trace::{self, SpanLog};
use crate::{rss, Env};

/// Graph size and phase shares of `cold_scan`.
#[derive(Clone, Copy, Debug)]
pub struct ScanPlan {
    /// Node universe of the Figure-5 graph.
    pub nodes: usize,
    /// Snapshots.
    pub snapshots: usize,
    /// Uniformly random static edges.
    pub edges: usize,
    /// Sources of a shared-frontier search.
    pub shared_sources: usize,
    /// Roots the shared-frontier sources are drawn from.
    pub shared_pool: usize,
    /// Seals of the in-memory ingest probe per round.
    pub ingest_seals: usize,
    /// Edge inserts per seal of the ingest probe.
    pub batch: usize,
}

/// Graphs of a run, each drawn from the run's seed. One random graph of
/// this size is close to the percolation threshold in each snapshot, so
/// its search costs move by a tenth from one draw to the next; a run
/// spreads its rounds over several draws.
const GRAPHS: usize = 4;
/// CSR builds measured per graph for `setup_s`.
const SETUPS: usize = 3;
/// Roots checked against the static-equivalent graph (Theorem 1).
const STATIC_SAMPLE: usize = 3;
/// Mix cycles of the one-thread scan per round.
const SCAN_CYCLES: usize = 15;
/// Bursts per round, and mix cycles per generator thread in each.
const BURSTS: usize = 2;
const BURST_CYCLES: usize = 2;
/// Seconds a round takes on the host the bounds were set on. A run makes
/// as many rounds as fill `--seconds`, the same number on every run, and
/// the same number on each graph.
const ROUND_S: f64 = 1.75;
/// Rounds per graph at least, so the scan leaves 13 samples beyond its
/// p99, and at most.
const MIN_ROUNDS: usize = 2;
const MAX_ROUNDS: usize = 10;
/// Seals of the ingest probe timed between two yardstick passes.
const INGEST_GROUP: usize = 10;
/// Searches per shape run on a `CountingView` for the work counts.
const COUNT_SAMPLE: usize = 4;

/// The shapes, in the order their per-layer metrics are named.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Serial,
    Parallel,
    Foremost,
    Backward,
    Window,
    Shared,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Serial => "serial",
            Shape::Parallel => "parallel",
            Shape::Foremost => "foremost",
            Shape::Backward => "backward",
            Shape::Window => "window",
            Shape::Shared => "shared",
        }
    }
}

/// One cycle of the job mix: Serial three times, Parallel and
/// SharedFrontier once, every other single-root shape twice. Serial
/// searches then hold the middle of the latency distribution (windowed
/// and foremost ones are faster, backward and shared-frontier ones
/// slower), so the median is a Serial search's time and does not fall in
/// the gap between two shapes.
const CYCLE: [Shape; 11] = [
    Shape::Serial,
    Shape::Serial,
    Shape::Serial,
    Shape::Parallel,
    Shape::Foremost,
    Shape::Foremost,
    Shape::Backward,
    Shape::Backward,
    Shape::Window,
    Shape::Window,
    Shape::Shared,
];

/// One search: a shape and its sources.
#[derive(Clone, Debug)]
struct Job {
    shape: Shape,
    sources: Vec<TemporalNode>,
}

impl Job {
    fn search(&self, snapshots: usize) -> Search {
        match self.shape {
            Shape::Serial => Search::from(self.sources[0]),
            Shape::Parallel => Search::from(self.sources[0]).strategy(Strategy::Parallel),
            Shape::Foremost => Search::from(self.sources[0]).strategy(Strategy::Foremost),
            Shape::Backward => Search::from(self.sources[0]).backward(),
            Shape::Window => {
                let t = self.sources[0].time.0;
                Search::from(self.sources[0]).window(t..=(t + 3).min(snapshots as u32 - 1))
            }
            Shape::Shared => {
                Search::from_sources(self.sources.clone()).strategy(Strategy::SharedFrontier)
            }
        }
    }
}

/// The run's seeded job list: shapes in shuffled cycles, single roots
/// never repeated, shared-frontier sources drawn from a fixed pool.
/// Forward shapes start in the first two snapshots and backward ones in
/// the last two, so every search covers most of the graph and a run's
/// latencies do not depend on which snapshots its seed drew roots from.
fn jobs(
    graph: &CsrAdjacency,
    plan: &ScanPlan,
    seed: u64,
    n: usize,
) -> (Vec<Job>, Vec<TemporalNode>) {
    let last = plan.snapshots as u32 - 1;
    let mut rng = data::rng(seed, 20);
    let (mut early, mut late): (Vec<TemporalNode>, Vec<TemporalNode>) = data::active_nodes(graph)
        .into_iter()
        .filter(|tn| tn.time.0 <= 1 || tn.time.0 + 1 >= last)
        .partition(|tn| tn.time.0 <= 1);
    data::shuffle(&mut early, &mut rng);
    data::shuffle(&mut late, &mut rng);
    let pool: Vec<TemporalNode> = early.split_off(early.len() - plan.shared_pool);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut cycle = CYCLE;
        data::shuffle(&mut cycle, &mut rng);
        for shape in cycle {
            let sources = match shape {
                Shape::Shared => {
                    let mut pick = pool.clone();
                    data::shuffle(&mut pick, &mut rng);
                    pick.truncate(plan.shared_sources);
                    pick.sort();
                    pick
                }
                Shape::Backward => vec![late.pop().expect("enough late roots")],
                _ => vec![early.pop().expect("enough early roots")],
            };
            out.push(Job { shape, sources });
        }
    }
    out.truncate(n);
    (out, pool)
}

fn hash_u32s(h: &mut impl std::hash::Hasher, values: impl Iterator<Item = u32>) {
    for v in values {
        h.write_u32(v);
    }
}

/// A digest of a result's answer: distances for hop results, arrival
/// snapshots for foremost results, distance and nearest source for
/// shared-frontier results.
fn digest(result: &SearchResult) -> u64 {
    use std::hash::Hasher;
    let mut h = std::hash::DefaultHasher::new();
    if let Some(maps) = result.try_distance_maps() {
        for m in maps {
            hash_u32s(&mut h, m.as_flat_slice().iter().copied());
        }
    } else if let Some(tables) = result.try_foremost_results() {
        for t in tables {
            hash_u32s(
                &mut h,
                t.arrivals().iter().map(|a| a.map_or(u32::MAX, |t| t.0)),
            );
        }
    } else {
        let shared = result.shared_map();
        let n = shared.num_nodes();
        let dist = shared.as_flat_slice();
        hash_u32s(&mut h, dist.iter().copied());
        hash_u32s(
            &mut h,
            (0..dist.len()).map(|i| {
                let tn = TemporalNode::from_raw((i % n) as u32, (i / n) as u32);
                shared
                    .nearest_source_index(tn)
                    .map_or(u32::MAX, |s| s as u32)
            }),
        );
    }
    h.finish()
}

/// The shared-frontier answer rebuilt from per-source serial maps: per
/// temporal node the minimum distance, ties to the smallest source index.
fn shared_digest_from_minima(maps: &[&[u32]]) -> u64 {
    use std::hash::Hasher;
    let len = maps[0].len();
    let mut dist = vec![u32::MAX; len];
    let mut src = vec![u32::MAX; len];
    for (s, m) in maps.iter().enumerate() {
        for i in 0..len {
            if m[i] < dist[i] {
                dist[i] = m[i];
                src[i] = s as u32;
            }
        }
    }
    let mut h = std::hash::DefaultHasher::new();
    hash_u32s(&mut h, dist.into_iter());
    hash_u32s(&mut h, src.into_iter());
    h.finish()
}

/// What the one-thread scan, the bursts and the ingest probe recorded:
/// each scan search, and the times at the reference speed: of each scan
/// search and each seal, ms, and of each burst, s.
#[derive(Default)]
struct Scanned {
    done: Vec<Done>,
    ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    burst_s: Vec<f64>,
    burst_raw_s: Vec<f64>,
}

/// One graph of the run with its seeded job list; `next` is the next
/// job to run.
struct Subject {
    graph: CsrAdjacency,
    jobs: Vec<Job>,
    pool: Vec<TemporalNode>,
    next: AtomicUsize,
}

/// What one search produced.
#[derive(Clone, Copy)]
struct Done {
    graph: usize,
    job: usize,
    ok: bool,
    ms: f64,
    digest: u64,
}

fn run_job(
    log: &mut SpanLog,
    graph: &CsrAdjacency,
    jobs: &[Job],
    k: usize,
    g: usize,
    snapshots: usize,
) -> Done {
    let job = &jobs[k];
    let search = job.search(snapshots);
    let start = Instant::now();
    let result = log.span("core", job.shape.name(), None, k as u64, |_, _| {
        search.run(graph)
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(result) => Done {
            graph: g,
            job: k,
            ok: true,
            ms,
            digest: digest(&result),
        },
        Err(_) => Done {
            graph: g,
            job: k,
            ok: false,
            ms,
            digest: 0,
        },
    }
}

/// One seal of the in-memory ingest probe: apply batch `k` and seal it
/// under `label`. Returns the time taken, ms.
fn ingest_seal(
    live: &mut LiveGraph,
    label: i64,
    k: usize,
    plan: &ScanPlan,
    env: &Env,
    log: &mut SpanLog,
) -> f64 {
    let edges = data::random_batch(
        &mut data::rng(env.seed, 2_000 + k as u64),
        plan.nodes,
        plan.batch,
    );
    let start = Instant::now();
    log.span("stream", "ingest", None, k as u64, |_, _| {
        for &(u, v) in &edges {
            live.insert(u, v).expect("in-range insert");
        }
        live.seal_snapshot(label).expect("increasing label");
    });
    start.elapsed().as_secs_f64() * 1e3
}

/// Wrong answers among `done`, all searches of `subject`: Parallel must
/// equal Serial, SharedFrontier must equal the per-source minima of
/// Serial maps, and a sample of Serial roots must give the distances of
/// the static-equivalent graph (Theorem 1).
fn check<'a>(subject: &Subject, done: impl Iterator<Item = &'a Done> + Clone) -> u64 {
    let (graph, jobs) = (&subject.graph, &subject.jobs);
    let mut wrong = 0;
    let serial_of = |root: TemporalNode| Search::from(root).run(graph).expect("active root");
    for d in done
        .clone()
        .filter(|d| jobs[d.job].shape == Shape::Parallel)
    {
        if digest(&serial_of(jobs[d.job].sources[0])) != d.digest {
            wrong += 1;
        }
    }
    let pool_maps: std::collections::BTreeMap<TemporalNode, Vec<u32>> = subject
        .pool
        .iter()
        .map(|&root| {
            (
                root,
                serial_of(root).distance_map().as_flat_slice().to_vec(),
            )
        })
        .collect();
    for d in done.clone().filter(|d| jobs[d.job].shape == Shape::Shared) {
        let maps: Vec<&[u32]> = jobs[d.job]
            .sources
            .iter()
            .map(|s| pool_maps[s].as_slice())
            .collect();
        if shared_digest_from_minima(&maps) != d.digest {
            wrong += 1;
        }
    }
    drop(pool_maps);
    let equivalent = EquivalentStaticGraph::build(graph);
    for d in done
        .filter(|d| jobs[d.job].shape == Shape::Serial)
        .take(STATIC_SAMPLE)
    {
        let root = jobs[d.job].sources[0];
        let mut ours = serial_of(root).distance_map().reached();
        let mut reference = equivalent.bfs_distances_from(root).expect("active root");
        ours.sort();
        reference.sort();
        if ours != reference {
            wrong += 1;
        }
    }
    wrong
}

/// Runs `cold_scan` once.
pub fn run(plan: &ScanPlan, env: &Env) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut yard = Yardstick::new();
    let per_graph =
        ((env.seconds / ROUND_S / GRAPHS as f64).round() as usize).clamp(MIN_ROUNDS, MAX_ROUNDS);
    let rounds = per_graph * GRAPHS;
    let max_jobs =
        per_graph * (SCAN_CYCLES + BURSTS * BURST_CYCLES * env.lanes) * CYCLE.len() + CYCLE.len();
    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let mut subjects = Vec::new();
    for g in 0..GRAPHS {
        let seed = env.seed.wrapping_mul(GRAPHS as u64).wrapping_add(g as u64);
        let adjacency =
            egraph_gen::random::figure5_workload(plan.nodes, plan.snapshots, plan.edges, seed);
        let mut graph = None;
        for _ in 0..SETUPS {
            drop(graph.take());
            let ((built, s), k) = yard.around(|| {
                let start = Instant::now();
                let built = CsrAdjacency::from_graph(&adjacency);
                (built, start.elapsed().as_secs_f64())
            });
            setup_s.push(s * k);
            setup_raw_s.push(s);
            graph = Some(built);
        }
        let graph = graph.expect("SETUPS > 0");
        let (jobs, pool) = jobs(&graph, plan, seed, max_jobs);
        subjects.push(Subject {
            graph,
            jobs,
            pool,
            next: AtomicUsize::new(0),
        });
    }
    let snapshots = plan.snapshots;

    // The measured phase runs in rounds, enough to fill `--seconds`: a
    // one-thread scan, a share of the ingest probe, and a burst on every
    // generator thread, so each samples the whole run's span. Scan and
    // burst draw from one job list. Each mix cycle of the scan, each
    // burst and each group of ingest seals is timed between two yardstick
    // passes and scaled to the reference speed. Round `r` runs on graph
    // `r % GRAPHS`.
    let mut log = SpanLog::new(env.trace, env.epoch, 0);
    let mut scanned = Scanned::default();
    let mut burst_logs = Vec::new();
    let mut burst_done = Vec::new();
    let mut ingest_ok = true;
    let mut peak_rss_mb: f64 = 0.0;
    let started = Instant::now();
    for round in 0..rounds {
        let g = round % GRAPHS;
        let Subject {
            graph, jobs, next, ..
        } = &subjects[g];
        rss::reset_peak();
        // The scan: closed loop on this thread.
        let mut round_k = Vec::new();
        for _ in 0..SCAN_CYCLES {
            let (cycle, k) = yard.around(|| {
                (0..CYCLE.len())
                    .map(|_| {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        run_job(&mut log, graph, jobs, j, g, snapshots)
                    })
                    .collect::<Vec<_>>()
            });
            scanned.ms.extend(cycle.iter().map(|d| d.ms * k));
            scanned.done.extend(cycle);
            round_k.push(k);
        }
        // The ingest probe, on a fresh copy of the graph that is dropped
        // before anything else runs.
        let mut live = LiveGraph::from_csr(graph.clone());
        let first_label = graph.last_timestamp().map_or(0, |t| t + 1);
        let base = scanned.ingest_ms.len();
        let seals: Vec<usize> = (0..plan.ingest_seals).collect();
        for group in seals.chunks(INGEST_GROUP) {
            let (times, k) = yard.around(|| {
                group
                    .iter()
                    .map(|&i| {
                        ingest_seal(
                            &mut live,
                            first_label + i as i64,
                            base + i,
                            plan,
                            env,
                            &mut log,
                        )
                    })
                    .collect::<Vec<_>>()
            });
            scanned.ingest_ms.extend(times.iter().map(|ms| ms * k));
        }
        ingest_ok &= live.num_sealed() == snapshots + plan.ingest_seals;
        // Memory is judged on the one-thread part of each round: the
        // bursts' threads keep allocator arenas whose size varies from run
        // to run.
        peak_rss_mb = peak_rss_mb.max(rss::peak_mb());
        // The bursts: closed loop on every generator thread at once. The
        // threads pull jobs from one queue, so they finish within a search
        // of each other. A burst loads both cores, which a one-thread
        // yardstick pass beside it tracks poorly, so bursts take the
        // round's median scan factor as their scale.
        let k = median(&round_k);
        for _ in 0..BURSTS {
            let end = next.load(Ordering::Relaxed) + BURST_CYCLES * env.lanes * CYCLE.len();
            let (lanes, wall_s) = {
                let start = Instant::now();
                let lanes = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..env.lanes)
                        .map(|lane| {
                            scope.spawn(move || {
                                let owner = (round as u64 + 1) << 16 | lane as u64;
                                let mut log = SpanLog::new(env.trace, env.epoch, owner);
                                let mut done = Vec::new();
                                loop {
                                    let j = next.fetch_add(1, Ordering::Relaxed);
                                    if j >= end {
                                        break;
                                    }
                                    done.push(run_job(&mut log, graph, jobs, j, g, snapshots));
                                }
                                (log, done)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("burst lane panicked"))
                        .collect::<Vec<_>>()
                });
                (lanes, start.elapsed().as_secs_f64())
            };
            // Each thread overshot `end` by one.
            next.store(end, Ordering::Relaxed);
            scanned.burst_s.push(wall_s * k);
            scanned.burst_raw_s.push(wall_s);
            for (log, done) in lanes {
                burst_logs.push(log);
                burst_done.extend(done);
            }
        }
    }
    let measured_s = started.elapsed().as_secs_f64();
    let Scanned {
        mut done,
        ms: lat,
        ingest_ms,
        burst_s,
        burst_raw_s,
    } = scanned;
    let scanned = done.len();
    let raw_lat: Vec<f64> = done.iter().map(|d| d.ms).collect();
    let burst_searches = burst_done.len();
    done.extend(burst_done);

    // ---- checks ----
    let mut wrong = u64::from(!ingest_ok);
    for (g, subject) in subjects.iter().enumerate() {
        wrong += check(subject, done.iter().filter(|d| d.ok && d.graph == g));
    }

    // ---- metrics ----
    let failed_runs = done.iter().filter(|d| !d.ok).count() as u64;
    out.attempted = done.len() as u64 + ingest_ms.len() as u64;
    out.wrong = wrong;
    out.failed = failed_runs + wrong;
    let scan = &done[..scanned];
    let sorted_lat = sorted(&lat);
    assert!(crate::stats::tail_percentile(lat.len()) >= Some(0.99));
    out.set("query_p50_ms", percentile(&sorted_lat, 0.5));
    out.set("query_p99_ms", percentile(&sorted_lat, 0.99));
    out.set(
        "capacity_qps",
        burst_searches as f64 / burst_s.iter().sum::<f64>(),
    );
    out.set("ingest_p50_ms", median(&ingest_ms));
    out.set("ingest_p90_ms", pct_or_zero(&ingest_ms, 0.9));
    out.set(
        "searches_per_s",
        lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3),
    );
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", peak_rss_mb);

    out.note(format!(
        "graphs: {GRAPHS} x ({} nodes x {} snapshots, {} edges); {rounds} rounds in {measured_s:.1} s: one-thread scan {} searches, bursts {} searches on {} threads",
        plan.nodes,
        snapshots,
        plan.edges,
        scanned,
        burst_searches,
        env.lanes,
    ));
    out.note(format!(
        "setup: CsrAdjacency builds {:?} ms raw",
        setup_raw_s
            .iter()
            .map(|s| (s * 1e4).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    out.note(yard.summary());
    let ingest_sorted = sorted(&ingest_ms);
    out.note(format!(
        "ingest seals: {}, p10 {:.4} ms, p25 {:.4}, p50 {:.4}, p75 {:.4}, p90 {:.4}",
        ingest_ms.len(),
        percentile(&ingest_sorted, 0.1),
        percentile(&ingest_sorted, 0.25),
        percentile(&ingest_sorted, 0.5),
        percentile(&ingest_sorted, 0.75),
        percentile(&ingest_sorted, 0.9),
    ));
    let raw_sorted = sorted(&raw_lat);
    out.note(format!(
        "raw search times: p50 {:.4} ms, p99 {:.4} ms, {:.2} searches/s",
        percentile(&raw_sorted, 0.5),
        percentile(&raw_sorted, 0.99),
        raw_lat.len() as f64 / (raw_lat.iter().sum::<f64>() / 1e3)
    ));
    out.note(format!(
        "raw bursts: {:.2} searches/s",
        burst_searches as f64 / burst_raw_s.iter().sum::<f64>()
    ));

    // ---- per-layer ----
    let mut by_shape = std::collections::BTreeMap::new();
    for (d, ms) in scan.iter().zip(&lat) {
        by_shape
            .entry(subjects[d.graph].jobs[d.job].shape.name())
            .or_insert_with(Vec::new)
            .push(*ms);
    }
    let p50 = |name: &str| by_shape.get(name).map_or(0.0, |v: &Vec<f64>| median(v));
    out.note(format!(
        "search p50 by shape, ms: {}",
        by_shape
            .iter()
            .map(|(name, v)| format!("{name} {:.3}", median(v)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.layer("core.serial_ms_p50", p50("serial"));
    out.layer("core.parallel_ms_p50", p50("parallel"));
    out.layer("core.foremost_ms_p50", p50("foremost"));
    out.layer("core.backward_ms_p50", p50("backward"));
    out.layer("core.window_ms_p50", p50("window"));
    out.layer("core.shared_ms_p50", p50("shared"));
    out.layer("core.parallel_vs_serial", p50("parallel") / p50("serial"));
    let (mut neighbors, mut calls, mut counted) = (0u64, 0u64, 0u64);
    for shape in [
        Shape::Serial,
        Shape::Parallel,
        Shape::Foremost,
        Shape::Backward,
        Shape::Window,
        Shape::Shared,
    ] {
        let Subject { graph, jobs, .. } = &subjects[0];
        for job in jobs.iter().filter(|j| j.shape == shape).take(COUNT_SAMPLE) {
            let view = CountingView::new(graph);
            job.search(snapshots).run(&view).expect("valid job");
            let c = view.counters();
            neighbors += c.neighbors_delivered;
            calls += c.expansions();
            counted += 1;
        }
    }
    out.layer(
        "core.neighbors_per_search",
        neighbors as f64 / counted as f64,
    );
    out.layer("core.enum_calls_per_search", calls as f64 / counted as f64);
    out.layer("gen.attempted", out.attempted as f64);
    out.layer("error_rate", out.error_rate());
    out.layer(
        "stream.apply_us_per_kevent",
        median(&ingest_ms) * 1e3 / plan.batch as f64 * 1e3,
    );
    if env.trace {
        let mut spans = log.into_spans();
        for l in burst_logs {
            spans.extend(l.into_spans());
        }
        for (layer, ns) in trace::self_time_by_layer(&spans) {
            let name = if layer == "core" {
                "core.self_ms"
            } else {
                "stream.self_ms"
            };
            out.layer(name, ns as f64 / 1e6);
        }
        out.layer("trace.spans", spans.len() as f64);
        let work = env.work.join("traced");
        std::fs::create_dir_all(&work)?;
        trace::write_spans(&work.join("spans.jsonl"), &spans)?;
    }
    Ok(out)
}
