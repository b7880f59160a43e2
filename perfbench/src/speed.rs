//! The host-speed yardstick that the CPU-bound timings are scaled by.
//!
//! The hosts this benchmark runs on are shared. Their CPU speed moves by
//! up to 1.7x within seconds, and by 1.6x between runs a few minutes
//! apart, as neighbours load them; a fixed loop timed back to back for a
//! minute took between 33 and 59 ms, with the same figure in thread CPU
//! time and no steal time, so neither CPU time nor a best window removes
//! it.
//!
//! So the benchmark times a fixed reference kernel of its own right before
//! and right after each timed part of a run, and reports each timing at
//! the reference speed: a latency is multiplied, and a rate divided, by
//! [`REF_NOMINAL_MS`] over the kernel's mean time around that part. The
//! kernel lives here, in the benchmark, and never changes with the
//! program: a program twice as slow still reads twice as slow. It is a BFS
//! over a random graph of its own, with the distances then written out as
//! decimal text, so it loads the memory system and the allocator like the
//! searches and the encoder it stands beside.
//!
//! The kernel runs while the program is idle, between its timed parts. A
//! program change that leaves threads busy while idle would slow the
//! kernel too and hide part of its own cost; the raw timings are printed
//! beside the scaled ones for that reason.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rand::Rng;

use crate::data;

/// The kernel's time at the reference speed, ms: about its median on the
/// 2-vCPU shared virtual machine the bounds were set on.
pub const REF_NOMINAL_MS: f64 = 5.0;
/// Nodes of the kernel's graph.
const REF_NODES: usize = 40_000;
/// Edges of the kernel's graph.
const REF_EDGES: usize = 320_000;
/// The kernel's graph is the same on every run and every seed.
const REF_SEED: u64 = 0x5EED;
/// A kernel time taken this recently serves as the "before" of the next
/// timed part.
const FRESH: Duration = Duration::from_millis(100);

/// The reference kernel and the times it took.
pub struct Yardstick {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    last: Option<(Instant, f64)>,
    /// Every kernel time of the run, ms, in order.
    pub samples_ms: Vec<f64>,
}

impl Yardstick {
    /// Builds the kernel's graph and runs it once to warm it up.
    pub fn new() -> Yardstick {
        let mut rng = data::rng(REF_SEED, 0);
        let edges: Vec<(u32, u32)> = (0..REF_EDGES)
            .map(|_| {
                (
                    rng.gen_range(0..REF_NODES) as u32,
                    rng.gen_range(0..REF_NODES) as u32,
                )
            })
            .collect();
        let mut offsets = vec![0u32; REF_NODES + 1];
        for &(u, _) in &edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..REF_NODES {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; REF_EDGES];
        for &(u, v) in &edges {
            targets[fill[u as usize] as usize] = v;
            fill[u as usize] += 1;
        }
        let yard = Yardstick {
            offsets,
            targets,
            last: None,
            samples_ms: Vec::new(),
        };
        std::hint::black_box(yard.kernel());
        yard
    }

    /// One pass of the kernel: BFS from node 0, then every distance
    /// written out as text. Returns the text's length.
    fn kernel(&self) -> usize {
        let n = REF_NODES;
        let mut dist = vec![u32::MAX; n];
        let mut queue = Vec::with_capacity(n);
        dist[0] = 0;
        queue.push(0u32);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            let next = dist[u] + 1;
            for &v in &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize] {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = next;
                    queue.push(v);
                }
            }
        }
        let mut text = String::new();
        for (node, d) in dist.iter().enumerate() {
            if *d != u32::MAX {
                let _ = write!(text, "[{node},{d}],");
            }
        }
        text.len()
    }

    /// Times one pass of the kernel, ms, and records it.
    pub fn measure(&mut self) -> f64 {
        let start = Instant::now();
        std::hint::black_box(self.kernel());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        self.last = Some((Instant::now(), ms));
        ms
    }

    /// One report line: the kernel's times over the run.
    pub fn summary(&self) -> String {
        let s = crate::stats::sorted(&self.samples_ms);
        format!(
            "yardstick: {} passes, median {:.4} ms (nominal {REF_NOMINAL_MS} ms), p10 {:.4}, p90 {:.4}",
            s.len(),
            crate::stats::percentile(&s, 0.5),
            crate::stats::percentile(&s, 0.1),
            crate::stats::percentile(&s, 0.9),
        )
    }

    /// Runs `part` between two kernel passes and returns its result with
    /// the factor that takes its timings to the reference speed: multiply
    /// a time by it, divide a rate by it. A pass that ended just before
    /// `part` serves as the one before.
    pub fn around<T>(&mut self, part: impl FnOnce() -> T) -> (T, f64) {
        let before = match self.last {
            Some((at, ms)) if at.elapsed() < FRESH => ms,
            _ => self.measure(),
        };
        let result = part();
        let after = self.measure();
        (result, REF_NOMINAL_MS / ((before + after) / 2.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_fixed_and_reaches_most_of_its_graph() {
        let (a, b) = (Yardstick::new(), Yardstick::new());
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.targets, b.targets);
        // Mean degree 8: nearly every node is reached.
        assert!(a.kernel() > REF_NODES * 8, "{}", a.kernel());
    }

    #[test]
    fn around_scales_by_the_mean_of_the_passes_beside_the_part() {
        let mut yard = Yardstick::new();
        let (value, k) = yard.around(|| 7);
        assert_eq!(value, 7);
        assert_eq!(yard.samples_ms.len(), 2);
        let mean = (yard.samples_ms[0] + yard.samples_ms[1]) / 2.0;
        assert!((k - REF_NOMINAL_MS / mean).abs() < 1e-12);
        // The pass after one part is the pass before the next.
        yard.around(|| ());
        assert_eq!(yard.samples_ms.len(), 3);
    }
}
