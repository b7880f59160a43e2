//! Seeded inputs: the durable data directory, the query descriptors and
//! the request lists. Everything here is a pure function of the seed.

use std::hash::Hasher;
use std::path::Path;

use egraph_core::ids::TemporalNode;
use egraph_query::{QueryDescriptor, Search, Strategy};
use egraph_stream::DurableGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The graph a server workload recovers at start-up.
#[derive(Clone, Copy, Debug)]
pub struct HistoryShape {
    /// Node universe.
    pub nodes: usize,
    /// Snapshots sealed into the data directory.
    pub seals: usize,
    /// Edge inserts per sealed snapshot.
    pub events_per_seal: usize,
    /// A checkpoint every this many seals; the seals after the newest one
    /// are the suffix recovery replays.
    pub checkpoint_every: u64,
}

/// A seeded RNG for one purpose of one run, so adding a consumer never
/// shifts another's stream.
pub fn rng(seed: u64, purpose: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `n` random edges without self-loops.
pub fn random_batch(rng: &mut SmallRng, nodes: usize, n: usize) -> Vec<(u32, u32)> {
    (0..n)
        .map(|_| {
            let u = rng.gen_range(0..nodes) as u32;
            let v = (u + 1 + rng.gen_range(0..nodes as u32 - 1)) % nodes as u32;
            (u, v)
        })
        .collect()
}

/// Writes the seeded data directory at `dir` (replacing whatever is
/// there): `shape.seals` sealed snapshots with checkpoints under the
/// shape's policy.
pub fn write_data_dir(dir: &Path, shape: &HistoryShape, seed: u64) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let mut graph = DurableGraph::create(dir, shape.nodes, true).map_err(std::io::Error::other)?;
    graph.set_checkpoint_policy(shape.checkpoint_every, 2);
    let mut rng = rng(seed, 1);
    for label in 0..shape.seals {
        for (u, v) in random_batch(&mut rng, shape.nodes, shape.events_per_seal) {
            graph.insert(u, v).map_err(std::io::Error::other)?;
        }
        graph
            .seal_snapshot(label as i64)
            .map_err(std::io::Error::other)?;
    }
    Ok(())
}

/// Copies a flat directory (the data directory has no subdirectories).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

#[cfg(test)]
/// Every file of a flat directory with its bytes, sorted by name.
pub fn dir_bytes(dir: &Path) -> std::io::Result<Vec<(String, Vec<u8>)>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        files.push((name, std::fs::read(entry.path())?));
    }
    files.sort();
    Ok(files)
}

/// A 64-bit digest of a response body; the oracle keeps only these while
/// a run is measured.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

/// Active temporal nodes of `graph`, in (time, node) order.
pub fn active_nodes<G: egraph_core::graph::EvolvingGraph>(graph: &G) -> Vec<TemporalNode> {
    let mut out = Vec::new();
    for t in 0..graph.num_timestamps() as u32 {
        for v in 0..graph.num_nodes() as u32 {
            let tn = TemporalNode::from_raw(v, t);
            if graph.is_active(tn.node, tn.time) {
                out.push(tn);
            }
        }
    }
    out
}

/// Picks an active node at snapshot `t` (or the nearest later one).
fn active_at(active: &[TemporalNode], rng: &mut SmallRng, t: u32) -> TemporalNode {
    let pool: Vec<TemporalNode> = active.iter().copied().filter(|tn| tn.time.0 >= t).collect();
    let first = pool[0].time.0;
    let same: Vec<TemporalNode> = pool.into_iter().filter(|tn| tn.time.0 == first).collect();
    same[rng.gen_range(0..same.len())]
}

/// Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// The standing descriptors: forward (serial and parallel), backward,
/// bounded-window, foremost and shared-frontier multi-source shapes, over
/// a graph with `snapshots` sealed snapshots.
pub fn standing_set(active: &[TemporalNode], snapshots: u32, seed: u64) -> Vec<QueryDescriptor> {
    let mut rng = rng(seed, 2);
    let last = snapshots - 1;
    let mut out = Vec::new();
    for t in [0, 1, 2, 3] {
        out.push(Search::from(active_at(active, &mut rng, t)).descriptor());
    }
    for t in [0, 2] {
        let root = active_at(active, &mut rng, t);
        out.push(Search::from(root).strategy(Strategy::Parallel).descriptor());
    }
    for t in [last, last - 2] {
        out.push(
            Search::from(active_at(active, &mut rng, t))
                .backward()
                .descriptor(),
        );
    }
    for (start, end) in [(1, last / 2), (2, last - 3)] {
        let root = active_at(active, &mut rng, start);
        let window = root.time.0..=end.max(root.time.0);
        out.push(Search::from(root).window(window).descriptor());
    }
    out.push(
        Search::from(active_at(active, &mut rng, 0))
            .strategy(Strategy::Foremost)
            .descriptor(),
    );
    let sources: Vec<TemporalNode> = (0..8).map(|i| active_at(active, &mut rng, i % 3)).collect();
    out.push(
        Search::from_sources(dedup(sources))
            .strategy(Strategy::SharedFrontier)
            .descriptor(),
    );
    out
}

fn dedup(mut nodes: Vec<TemporalNode>) -> Vec<TemporalNode> {
    nodes.sort();
    nodes.dedup();
    nodes
}

/// Snapshots at each end of the history that cold roots come from.
const COLD_EDGE: u32 = 4;

/// Cold descriptors, each used at most once in a run: forward searches
/// from roots in the first [`COLD_EDGE`] snapshots and backward searches
/// from roots in the last ones, in a seeded order. Both reach most of the
/// graph, so every miss costs about the same and a run's tail does not
/// depend on which roots its seed drew.
pub fn cold_pool(
    active: &[TemporalNode],
    standing: &[QueryDescriptor],
    snapshots: u32,
    seed: u64,
) -> Vec<QueryDescriptor> {
    let mut cold: Vec<QueryDescriptor> = active
        .iter()
        .filter_map(|&root| {
            let t = root.time.0;
            if t < COLD_EDGE {
                Some(Search::from(root).descriptor())
            } else if t + COLD_EDGE >= snapshots {
                Some(Search::from(root).backward().descriptor())
            } else {
                None
            }
        })
        .filter(|d| !standing.contains(d))
        .collect();
    shuffle(&mut cold, &mut rng(seed, 3));
    cold
}

/// What request `i` of a request list asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pick {
    /// Standing descriptor `k`.
    Standing(usize),
    /// The next unused cold descriptor.
    Cold,
}

/// A request list of `n` picks: about `cold_per_mille` / 1000 cold, the
/// rest uniform over `standing` standing descriptors.
pub fn request_list(
    seed: u64,
    stream: u64,
    n: usize,
    standing: usize,
    cold_per_mille: u32,
) -> Vec<Pick> {
    let mut rng = rng(seed, 100 + stream);
    (0..n)
        .map(|_| {
            if rng.gen_range(0..1000) < cold_per_mille {
                Pick::Cold
            } else {
                Pick::Standing(rng.gen_range(0..standing))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(".bench_work")
            .join(format!("selftest-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn same_seed_same_data_directory_bytes() {
        let root = scratch("bytes");
        let shape = HistoryShape {
            nodes: 50,
            seals: 6,
            events_per_seal: 200,
            checkpoint_every: 4,
        };
        write_data_dir(&root.join("a"), &shape, 7).unwrap();
        write_data_dir(&root.join("b"), &shape, 7).unwrap();
        write_data_dir(&root.join("c"), &shape, 8).unwrap();
        let a = dir_bytes(&root.join("a")).unwrap();
        assert!(a.iter().any(|(name, _)| name.starts_with("checkpoint")));
        assert_eq!(a, dir_bytes(&root.join("b")).unwrap());
        assert_ne!(a, dir_bytes(&root.join("c")).unwrap());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn same_seed_same_request_list() {
        let a = request_list(11, 0, 5000, 12, 100);
        assert_eq!(a, request_list(11, 0, 5000, 12, 100));
        assert_ne!(a, request_list(12, 0, 5000, 12, 100));
        assert_ne!(a, request_list(11, 1, 5000, 12, 100));
        let cold = a.iter().filter(|p| **p == Pick::Cold).count();
        assert!((400..600).contains(&cold), "{cold} cold of 5000");
    }

    #[test]
    fn same_seed_same_descriptors() {
        let graph = egraph_gen::random::figure5_workload(60, 6, 600, 3);
        let active = active_nodes(&graph);
        let s = standing_set(&active, 6, 5);
        assert_eq!(s, standing_set(&active, 6, 5));
        let cold = cold_pool(&active, &s, 6, 5);
        assert_eq!(cold, cold_pool(&active, &s, 6, 5));
        assert!(cold.iter().all(|d| !s.contains(d)));
        let mut unique = cold.clone();
        unique.sort_by_key(|d| format!("{d:?}"));
        unique.dedup();
        assert_eq!(unique.len(), cold.len());
    }
}
