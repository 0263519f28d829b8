//! Work distribution and accounting of the corpus sweep.
//!
//! The sweep hands out its apps through one `DispatchCursor` over a
//! dispatch order (`Pipeline::sweep`): every app is known before the
//! workers start and no task spawns another, so a worker takes the next
//! position until the order runs out. There is nothing to steal.
//!
//! The virtual makespan is defined on the dispatch order alone:
//! `VirtualSchedule` list-schedules the apps' deterministic virtual
//! costs (`dydroid_monkey::virtual_us`), in dispatch order, over as many
//! virtual workers as the sweep has threads, and the makespan is the
//! largest load. Which thread ran which app plays no part, so the
//! makespan `sweepbench` builds its scaling curve from is the same on
//! every run, on any machine and under any host load.

use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};

/// The sweep's work distribution: one atomic position over a dispatch
/// order of `len` entries shared by every worker. Each call to
/// [`DispatchCursor::next`] claims a distinct position, so every
/// position is handed out exactly once, whichever worker asks.
pub(crate) struct DispatchCursor {
    len: usize,
    position: AtomicUsize,
}

impl DispatchCursor {
    pub(crate) fn new(len: usize) -> Self {
        Self {
            len,
            position: AtomicUsize::new(0),
        }
    }

    /// The next position of the order, or `None` once it has run out.
    pub(crate) fn next(&self) -> Option<usize> {
        // `Relaxed` suffices: the read-modify-write alone makes each
        // position unique, and the cursor publishes no other data.
        let position = self.position.fetch_add(1, Ordering::Relaxed);
        (position < self.len).then_some(position)
    }
}

/// List scheduling of the dispatch order over virtual workers: costs
/// are filed by dispatch position as results arrive, and a
/// contiguous-prefix pointer hands each one, in dispatch order, to the
/// least-loaded virtual worker (the lowest index on a tie).
pub(crate) struct VirtualSchedule {
    /// Each position's virtual cost, `None` until its result arrives.
    costs: Vec<Option<u64>>,
    /// The first position not yet scheduled.
    next: usize,
    loads: Vec<u64>,
}

impl VirtualSchedule {
    pub(crate) fn new(workers: usize, positions: usize) -> Self {
        Self {
            costs: vec![None; positions],
            next: 0,
            loads: vec![0; workers],
        }
    }

    /// Files the cost of the app at dispatch `position` and schedules
    /// every cost the filed prefix now reaches.
    pub(crate) fn file(&mut self, position: usize, cost: u64) {
        self.costs[position] = Some(cost);
        while let Some(&Some(cost)) = self.costs.get(self.next) {
            // `min_by_key` keeps the first of equal minima.
            if let Some(load) = self.loads.iter_mut().min_by_key(|load| **load) {
                *load += cost;
            }
            self.next += 1;
        }
    }

    /// The largest virtual-worker load scheduled so far.
    pub(crate) fn makespan(&self) -> u64 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// The final per-virtual-worker loads. A position no result reached
    /// (its worker thread died) costs nothing.
    pub(crate) fn into_loads(mut self) -> Vec<u64> {
        while self.next < self.costs.len() {
            self.file(self.next, 0);
        }
        self.loads
    }
}

/// Final per-worker accounting of one sweep, surfaced in
/// [`crate::SweepStats`] and `render_perf`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Tasks this worker thread executed (wall view, like `busy_us`).
    pub executed: u64,
    /// Always 0: the sweep's workers share one dispatch cursor, so
    /// nothing is stolen. Kept while corpusbench's `scheduler.steals`
    /// metric still reads it.
    pub steals: u64,
    /// Wall time this worker thread spent executing tasks, in
    /// microseconds. Feeds no gated number.
    pub busy_us: u64,
    /// This virtual worker's load under the list schedule of the
    /// dispatch order (see the module docs), in microseconds. The
    /// maximum over workers is the sweep's virtual makespan.
    pub virtual_us: u64,
}

/// Virtual makespan of a sweep: the largest per-worker virtual-cost sum.
/// This is the quantity a perfectly balanced `w`-worker sweep divides by
/// `w`; `sweepbench` reports `makespan(1) / makespan(w)` as the
/// machine-independent scaling factor.
pub fn virtual_makespan_us(stats: &[WorkerStats]) -> u64 {
    stats.iter().map(|s| s.virtual_us).max().unwrap_or(0)
}

/// Workers that executed nothing while the sweep held enough work to go
/// around (at least two tasks per worker on average) — a wedged or
/// starved worker, not a short sweep. The observatory's stall section
/// reports these.
pub fn idle_workers(stats: &[WorkerStats]) -> usize {
    let total: u64 = stats.iter().map(|s| s.executed).sum();
    if stats.len() < 2 || total < 2 * stats.len() as u64 {
        return 0;
    }
    stats.iter().filter(|s| s.executed == 0).count()
}

/// Parallel balance of a sweep on the virtual clock: total virtual time
/// over `workers × makespan`. `1.0` is perfect balance; it approaches
/// `1/workers` when one worker carried the whole sweep (one app that
/// costs more than all the others together).
pub fn parallel_balance(stats: &[WorkerStats]) -> f64 {
    let makespan = virtual_makespan_us(stats);
    if stats.is_empty() || makespan == 0 {
        return 1.0;
    }
    let total: u64 = stats.iter().map(|s| s.virtual_us).sum();
    total as f64 / (stats.len() as f64 * makespan as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn drains_all_seeded_tasks_exactly_once() {
        let cursor = DispatchCursor::new(100);
        let mut seen = HashSet::new();
        // Callers take turns mid-drain; the position is shared, so none
        // of them sees a position another already took.
        for _caller in 0..6 {
            while let Some(position) = cursor.next() {
                assert!(
                    seen.insert(position),
                    "position {position} dispatched twice"
                );
                if seen.len() % 10 == 0 {
                    break;
                }
            }
        }
        while let Some(position) = cursor.next() {
            assert!(
                seen.insert(position),
                "position {position} dispatched twice"
            );
        }
        assert_eq!(seen.len(), 100);
        assert!(cursor.next().is_none());
    }

    #[test]
    fn concurrent_workers_partition_the_tasks() {
        let total = 1000usize;
        let cursor = DispatchCursor::new(total);
        let executed: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let counts: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cursor = &cursor;
                    let executed = &executed;
                    scope.spawn(move || {
                        let mut count = 0;
                        while let Some(position) = cursor.next() {
                            count += 1;
                            executed.lock().unwrap().push(position);
                        }
                        count
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut done = executed.into_inner().unwrap();
        done.sort_unstable();
        done.dedup();
        assert_eq!(done.len(), total, "every task ran exactly once");
        assert_eq!(counts.iter().sum::<u64>(), total as u64);
    }

    /// Splitmix64: a seeded stream for the arrival permutations.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Whatever order the results arrive in, the schedule gives every
    /// virtual worker the same load: completion order is an input it
    /// cannot see.
    #[test]
    fn arrival_order_moves_no_load() {
        let mut state = 11;
        let costs: Vec<u64> = (0..500).map(|_| splitmix(&mut state) % 5_000).collect();
        let schedule = |arrival: &[usize]| {
            let mut schedule = VirtualSchedule::new(4, costs.len());
            for &position in arrival {
                schedule.file(position, costs[position]);
            }
            let makespan = schedule.makespan();
            let loads = schedule.into_loads();
            assert_eq!(makespan, loads.iter().copied().max().unwrap());
            (loads, makespan)
        };
        let in_order: Vec<usize> = (0..costs.len()).collect();
        let expected = schedule(&in_order);
        assert_eq!(expected.0.iter().sum::<u64>(), costs.iter().sum::<u64>());
        for seed in 1..=8 {
            let mut state = seed;
            let mut arrival = in_order.clone();
            for i in (1..arrival.len()).rev() {
                arrival.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
            }
            assert_eq!(schedule(&arrival), expected, "arrival seed {seed}");
        }
    }

    #[test]
    fn least_loaded_worker_takes_the_next_cost() {
        let mut schedule = VirtualSchedule::new(3, 6);
        // Position 1 arrives first: nothing is scheduled until 0 does.
        schedule.file(1, 7);
        assert_eq!(schedule.makespan(), 0);
        schedule.file(0, 5);
        assert_eq!(schedule.makespan(), 7);
        for (position, cost) in [(2, 1), (3, 4), (4, 2)] {
            schedule.file(position, cost);
        }
        // 5 → w0, 7 → w1, 1 → w2, 4 → w2 (1 is least), 2 → w0 (5 ties
        // w2's 5 and the lower index wins); position 5 never arrives.
        assert_eq!(schedule.into_loads(), vec![7, 7, 5]);

        let mut serial = VirtualSchedule::new(1, 3);
        for (position, cost) in [(2, 3), (0, 1), (1, 2)] {
            serial.file(position, cost);
        }
        assert_eq!(serial.into_loads(), vec![6], "one worker sums the costs");
    }

    #[test]
    fn idle_and_balance_diagnostics() {
        // Short sweep: an idle worker is expected, not a stall.
        let short = vec![
            WorkerStats {
                executed: 2,
                ..Default::default()
            },
            WorkerStats::default(),
        ];
        assert_eq!(idle_workers(&short), 0);
        // Enough work for everyone, one worker did none: flagged.
        let starved = vec![
            WorkerStats {
                executed: 8,
                virtual_us: 800,
                ..Default::default()
            },
            WorkerStats::default(),
        ];
        assert_eq!(idle_workers(&starved), 1);
        assert!((parallel_balance(&starved) - 0.5).abs() < 1e-9);
        let balanced = vec![
            WorkerStats {
                executed: 4,
                virtual_us: 400,
                ..Default::default()
            },
            WorkerStats {
                executed: 4,
                virtual_us: 400,
                ..Default::default()
            },
        ];
        assert_eq!(idle_workers(&balanced), 0);
        assert!((parallel_balance(&balanced) - 1.0).abs() < 1e-9);
        assert!((parallel_balance(&[]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_is_the_largest_worker_sum() {
        let stats = vec![
            WorkerStats {
                virtual_us: 40,
                ..Default::default()
            },
            WorkerStats {
                virtual_us: 90,
                ..Default::default()
            },
        ];
        assert_eq!(virtual_makespan_us(&stats), 90);
        assert_eq!(virtual_makespan_us(&[]), 0);
    }
}
