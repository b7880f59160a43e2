//! Open-loop load generation and the capacity ladder.
//!
//! Request `i` of a step is due at `start + i / rate` and belongs to lane
//! `i % lanes`. A lane sends each of its requests when it falls due, or at
//! once if it is already late, and has at most one request outstanding.
//! Latency is measured from the due time, so a stall is charged to every
//! request queued behind it; how late the lane sent is recorded apart.

use std::time::{Duration, Instant};

use crate::stats::{percentile, sorted};

/// What one open-loop step measured.
#[derive(Clone, Debug, Default)]
pub struct StepStats {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests attempted.
    pub attempted: usize,
    /// Requests that failed (error status, I/O error, timeout). A failed
    /// request's latency is recorded as infinite: it misses every limit.
    pub failed: usize,
    /// Latency from due time to completion, ms, ascending.
    pub latency_ms: Vec<f64>,
    /// The same latencies in request order.
    pub ordered_ms: Vec<f64>,
    /// Send time minus due time, ms, in request order.
    pub late_ms: Vec<f64>,
    /// Seconds from the first due time to the last completion.
    pub span_s: f64,
}

impl StepStats {
    /// Consecutive steps at one rate as one step.
    pub fn concat(parts: Vec<StepStats>) -> StepStats {
        let mut out = StepStats::default();
        for part in parts {
            out.rate = part.rate;
            out.attempted += part.attempted;
            out.failed += part.failed;
            out.ordered_ms.extend(part.ordered_ms);
            out.late_ms.extend(part.late_ms);
            out.span_s += part.span_s;
        }
        out.latency_ms = sorted(&out.ordered_ms);
        out
    }

    /// Completed requests per second over the step.
    pub fn achieved_rate(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.span_s
    }

    /// Whether lateness grew across the step: the median lateness of its
    /// last quarter exceeds that of its first quarter by more than
    /// `tolerance_ms`.
    pub fn lateness_grew(&self, tolerance_ms: f64) -> bool {
        let q = self.late_ms.len() / 4;
        if q == 0 {
            return false;
        }
        let first = percentile(&sorted(&self.late_ms[..q]), 0.5);
        let last = percentile(&sorted(&self.late_ms[self.late_ms.len() - q..]), 0.5);
        last - first > tolerance_ms
    }
}

/// One request as a lane saw it: index, lateness ms, latency ms, success,
/// completion time.
type Record = (usize, f64, f64, bool, Instant);

/// Runs `n` requests open-loop at `rate` across `lanes` threads. Each lane
/// gets its own state from `make_lane`; `op(state, i)` performs request `i`
/// and returns whether it succeeded. Returns the step's stats and the lane
/// states.
pub fn open_loop<L: Send>(
    lanes: usize,
    rate: f64,
    n: usize,
    make_lane: impl Fn(usize) -> L + Sync,
    op: impl Fn(&mut L, usize) -> bool + Sync,
) -> (StepStats, Vec<L>) {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(2);
    let results: Vec<(L, Vec<Record>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let (make_lane, op) = (&make_lane, &op);
                scope.spawn(move || {
                    let mut state = make_lane(lane);
                    let mut out = Vec::with_capacity(n / lanes + 1);
                    for i in (lane..n).step_by(lanes) {
                        let due = start + interval * i as u32;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let ok = op(&mut state, i);
                        let done = Instant::now();
                        let late = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
                        let latency = done.saturating_duration_since(due).as_secs_f64() * 1e3;
                        out.push((i, late, latency, ok, done));
                    }
                    (state, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load lane panicked"))
            .collect()
    });
    let mut states = Vec::with_capacity(lanes);
    let mut records = Vec::with_capacity(n);
    for (state, out) in results {
        states.push(state);
        records.extend(out);
    }
    records.sort_by_key(|r| r.0);
    let last_done = records.iter().map(|r| r.4).max().unwrap_or(start);
    let failed = records.iter().filter(|r| !r.3).count();
    let latency: Vec<f64> = records
        .iter()
        .map(|r| if r.3 { r.2 } else { f64::INFINITY })
        .collect();
    let stats = StepStats {
        rate,
        attempted: records.len(),
        failed,
        latency_ms: sorted(&latency),
        ordered_ms: latency,
        late_ms: records.iter().map(|r| r.1).collect(),
        span_s: last_done.saturating_duration_since(start).as_secs_f64(),
    };
    (stats, states)
}

/// The most probes one ladder walk makes, so that a run's length stays
/// bounded however far the start is from the capacity.
pub const MAX_PROBES: usize = 6;

/// A fixed geometric rate ladder: step `k` offers `base * ratio^k`
/// requests per second, `k < steps`.
#[derive(Clone, Copy, Debug)]
pub struct Ladder {
    /// Rate of step 0.
    pub base: f64,
    /// Growth factor between steps.
    pub ratio: f64,
    /// Number of steps.
    pub steps: usize,
    /// p99 latency limit, ms.
    pub limit_ms: f64,
    /// Lateness growth across a step that still counts as keeping up, ms.
    pub late_tolerance_ms: f64,
}

/// One probed ladder step.
#[derive(Clone, Debug)]
pub struct Probe {
    /// Ladder step index.
    pub step: usize,
    /// The step's measurements.
    pub stats: StepStats,
    /// Whether the step met all three conditions.
    pub passed: bool,
}

impl Ladder {
    /// The offered rate of step `k`.
    pub fn rate(&self, k: usize) -> f64 {
        self.base * self.ratio.powi(k as i32)
    }

    /// A step passes when nothing failed, p99 latency is within the limit
    /// and lateness did not grow.
    pub fn passes(&self, stats: &StepStats) -> bool {
        stats.failed == 0
            && percentile(&stats.latency_ms, 0.99) <= self.limit_ms
            && !stats.lateness_grew(self.late_tolerance_ms)
    }

    /// The highest step whose rate is at most `estimate` (step 0 if none):
    /// where a walk starts, from a rate measured earlier in the same run.
    pub fn step_below(&self, estimate: f64) -> usize {
        (0..self.steps)
            .take_while(|&k| self.rate(k) <= estimate)
            .last()
            .unwrap_or(0)
    }

    /// Walks the ladder from step `start`: up while steps pass, or down
    /// until one passes, assuming a step passes whenever a faster one does.
    /// `probe(rate)` runs one step. A step that fails is probed once more
    /// and passes if the second probe does: on a shared host one probe can
    /// land in a neighbour's burst. Starting near the expected capacity
    /// keeps a run to a few probes, and a run never makes more than
    /// [`MAX_PROBES`]: a walk that has not turned by then reports the
    /// highest step that passed. Returns every probe made, in order.
    pub fn walk(&self, start: usize, mut probe: impl FnMut(f64) -> StepStats) -> Vec<Probe> {
        let mut probes = Vec::new();
        let mut run = |step: usize, probes: &mut Vec<Probe>| {
            for _ in 0..2 {
                let stats = probe(self.rate(step));
                let passed = self.passes(&stats);
                probes.push(Probe {
                    step,
                    stats,
                    passed,
                });
                if passed {
                    return true;
                }
            }
            false
        };
        let mut step = start.min(self.steps - 1);
        let up = run(step, &mut probes);
        loop {
            if probes.len() >= MAX_PROBES {
                break;
            } else if up && step + 1 < self.steps {
                step += 1;
            } else if !up && step > 0 {
                step -= 1;
            } else {
                break;
            }
            if run(step, &mut probes) != up {
                break;
            }
        }
        probes
    }
}

/// The highest passing probe, if any.
pub fn capacity(probes: &[Probe]) -> Option<&Probe> {
    probes.iter().filter(|p| p.passed).max_by_key(|p| p.step)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic server: an M/D/1-like latency curve that blows up as
    /// the offered rate approaches `capacity`, and a backlog past it.
    fn synthetic(rate: f64, capacity: f64) -> StepStats {
        let n = 1000;
        let service_ms = 1000.0 / capacity;
        let rho = rate / capacity;
        let (latency, late): (Vec<f64>, Vec<f64>) = (0..n)
            .map(|i| {
                if rho < 1.0 {
                    let wait = service_ms * rho / (2.0 * (1.0 - rho));
                    // A mild deterministic tail: the top 1% waits 3x.
                    let tail = if i % 100 == 0 { 3.0 } else { 1.0 };
                    (service_ms + wait * tail, 0.0)
                } else {
                    // Past capacity the backlog grows linearly.
                    let backlog = i as f64 * (1.0 - 1.0 / rho) * 1000.0 / rate;
                    (service_ms + backlog, backlog)
                }
            })
            .unzip();
        StepStats {
            rate,
            attempted: n,
            failed: 0,
            latency_ms: sorted(&latency),
            ordered_ms: latency,
            late_ms: late,
            span_s: n as f64 / rate.min(capacity),
        }
    }

    #[test]
    fn ladder_finds_the_highest_step_under_the_limit() {
        let ladder = Ladder {
            base: 50.0,
            ratio: 1.1,
            steps: 40,
            limit_ms: 10.0,
            late_tolerance_ms: 2.0,
        };
        // Cross-check against an exhaustive scan of the same curve.
        let exhaustive = (0..ladder.steps)
            .filter(|&k| ladder.passes(&synthetic(ladder.rate(k), 500.0)))
            .max()
            .unwrap();
        assert!(ladder.rate(exhaustive) < 500.0);
        assert!(!ladder.passes(&synthetic(ladder.rate(exhaustive + 1), 500.0)));
        // From below, at, or above the answer, the walk lands on it; from
        // next to it, in two probes.
        for start in [
            exhaustive - 2,
            exhaustive - 1,
            exhaustive,
            exhaustive + 1,
            exhaustive + 2,
        ] {
            let probes = ladder.walk(start, |rate| synthetic(rate, 500.0));
            let best = capacity(&probes).expect("low steps pass");
            assert_eq!(best.step, exhaustive, "start {start}");
            // Failing steps are probed twice; from next to the answer the
            // walk visits at most three steps.
            let mut steps: Vec<usize> = probes.iter().map(|p| p.step).collect();
            steps.dedup();
            if start.abs_diff(exhaustive) <= 1 {
                assert!(steps.len() <= 3, "{steps:?} from {start}");
            }
        }
    }

    #[test]
    fn growing_backlog_fails_even_within_the_limit() {
        let ladder = Ladder {
            base: 100.0,
            ratio: 1.1,
            steps: 10,
            limit_ms: 1e9,
            late_tolerance_ms: 2.0,
        };
        assert!(!ladder.passes(&synthetic(600.0, 500.0)));
        assert!(ladder.passes(&synthetic(400.0, 500.0)));
    }

    #[test]
    fn a_failure_fails_the_step() {
        let mut stats = synthetic(100.0, 500.0);
        stats.failed = 1;
        let ladder = Ladder {
            base: 100.0,
            ratio: 1.1,
            steps: 10,
            limit_ms: 1e9,
            late_tolerance_ms: 2.0,
        };
        assert!(!ladder.passes(&stats));
    }

    #[test]
    fn one_disturbed_probe_does_not_fail_a_step() {
        let ladder = Ladder {
            base: 50.0,
            ratio: 1.1,
            steps: 40,
            limit_ms: 10.0,
            late_tolerance_ms: 2.0,
        };
        let mut calls = 0;
        let probes = ladder.walk(20, |rate| {
            calls += 1;
            // The first probe lands in a burst: the host runs at half speed.
            synthetic(rate, if calls == 1 { 250.0 } else { 500.0 })
        });
        assert!(!probes[0].passed && probes[1].passed);
        let exhaustive = (0..ladder.steps)
            .filter(|&k| ladder.passes(&synthetic(ladder.rate(k), 500.0)))
            .max()
            .unwrap();
        assert_eq!(capacity(&probes).unwrap().step, exhaustive);
    }

    #[test]
    fn a_long_walk_stops_at_the_probe_cap() {
        let ladder = Ladder {
            base: 50.0,
            ratio: 1.1,
            steps: 40,
            limit_ms: 10.0,
            late_tolerance_ms: 2.0,
        };
        let probes = ladder.walk(0, |rate| synthetic(rate, 500.0));
        assert_eq!(probes.len(), MAX_PROBES);
        assert!(probes.iter().all(|p| p.passed));
        assert_eq!(capacity(&probes).unwrap().step, MAX_PROBES - 1);
    }

    #[test]
    fn walk_starts_below_the_estimate() {
        let ladder = Ladder {
            base: 100.0,
            ratio: 1.1,
            steps: 31,
            limit_ms: 10.0,
            late_tolerance_ms: 2.0,
        };
        assert_eq!(ladder.step_below(50.0), 0);
        assert_eq!(ladder.step_below(100.0), 0);
        assert_eq!(ladder.step_below(122.0), 2);
        assert_eq!(ladder.step_below(1e9), 30);
    }

    #[test]
    fn no_passing_step_means_no_capacity() {
        let ladder = Ladder {
            base: 1000.0,
            ratio: 1.1,
            steps: 8,
            limit_ms: 10.0,
            late_tolerance_ms: 2.0,
        };
        let probes = ladder.walk(4, |rate| synthetic(rate, 500.0));
        assert!(capacity(&probes).is_none());
        assert_eq!(probes.len(), MAX_PROBES);
    }

    #[test]
    fn open_loop_runs_every_request_once() {
        let (stats, lanes) = open_loop(
            2,
            2000.0,
            40,
            |_| Vec::new(),
            |seen: &mut Vec<usize>, i| {
                seen.push(i);
                i != 7
            },
        );
        assert_eq!(stats.attempted, 40);
        assert_eq!(stats.failed, 1);
        assert!(stats.latency_ms[39].is_infinite());
        let mut all: Vec<usize> = lanes.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>());
    }
}
