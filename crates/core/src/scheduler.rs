//! Per-worker accounting of the corpus sweep.
//!
//! The sweep hands out its apps through one `DispatchCursor` over a
//! dispatch order (`Pipeline::sweep`): every app is known before the
//! workers start and no task spawns another, so a worker takes the next
//! position until the order runs out. There is no queue to balance and
//! nothing to steal.
//!
//! The rest of this module is the accounting: the sweep's collector
//! charges every result to the worker that produced it — tasks
//! executed, wall *busy* time, and the deterministic virtual cost of the
//! executed apps (see `dydroid_monkey::virtual_us`). The virtual columns
//! are what `sweepbench` builds its machine-independent scaling curve
//! from: the virtual *makespan* — the largest per-worker virtual sum —
//! measures load balance on a laptop and on a one-core CI container
//! alike, where wall-clock cannot speed up.

use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};

/// The sweep's work distribution: one atomic position over a dispatch
/// order shared by every worker. Each call to [`DispatchCursor::next`]
/// claims a distinct position, so every entry of the order is handed out
/// exactly once, whichever worker asks.
pub(crate) struct DispatchCursor<'a> {
    order: &'a [usize],
    position: AtomicUsize,
}

impl<'a> DispatchCursor<'a> {
    pub(crate) fn new(order: &'a [usize]) -> Self {
        Self {
            order,
            position: AtomicUsize::new(0),
        }
    }

    /// The next entry of the order, or `None` once it has run out.
    pub(crate) fn next(&self) -> Option<usize> {
        // `Relaxed` suffices: the read-modify-write alone makes each
        // position unique, `order` was written before the cursor was
        // shared, and the cursor publishes no other data.
        self.order
            .get(self.position.fetch_add(1, Ordering::Relaxed))
            .copied()
    }
}

/// Final per-worker accounting of one sweep, surfaced in
/// [`crate::SweepStats`] and `render_perf`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub executed: u64,
    /// Always 0: the sweep's workers share one dispatch cursor, so
    /// nothing is stolen. Kept while corpusbench's `scheduler.steals`
    /// metric still reads it.
    pub steals: u64,
    /// Wall time this worker spent executing tasks, in microseconds.
    pub busy_us: u64,
    /// Deterministic virtual cost of the tasks this worker executed, in
    /// microseconds. The maximum over workers is the sweep's virtual
    /// makespan.
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
/// `1/workers` when one worker carried the whole sweep (a straggler
/// pinning a worker).
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
        let order: Vec<usize> = (0..100).rev().collect();
        let cursor = DispatchCursor::new(&order);
        let mut seen = HashSet::new();
        // Callers take turns mid-drain; the position is shared, so none
        // of them sees a task another already took.
        for _caller in 0..6 {
            while let Some(task) = cursor.next() {
                assert!(seen.insert(task), "task {task} dispatched twice");
                if seen.len() % 10 == 0 {
                    break;
                }
            }
        }
        while let Some(task) = cursor.next() {
            assert!(seen.insert(task), "task {task} dispatched twice");
        }
        assert_eq!(seen.len(), 100);
        assert!(cursor.next().is_none());
    }

    #[test]
    fn concurrent_workers_partition_the_tasks() {
        let total = 1000usize;
        let order: Vec<usize> = (0..total).collect();
        let cursor = DispatchCursor::new(&order);
        let executed: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let stats: Vec<WorkerStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cursor = &cursor;
                    let executed = &executed;
                    scope.spawn(move || {
                        let mut stats = WorkerStats::default();
                        while let Some(task) = cursor.next() {
                            stats.executed += 1;
                            stats.virtual_us += 10;
                            executed.lock().unwrap().push(task);
                        }
                        stats
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut done = executed.into_inner().unwrap();
        done.sort_unstable();
        done.dedup();
        assert_eq!(done.len(), total, "every task ran exactly once");
        assert_eq!(stats.iter().map(|s| s.executed).sum::<u64>(), total as u64);
        assert_eq!(
            stats.iter().map(|s| s.virtual_us).sum::<u64>(),
            total as u64 * 10
        );
        assert!(virtual_makespan_us(&stats) >= total as u64 * 10 / 4);
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
