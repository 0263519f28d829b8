//! Live sweep progress (`tables --progress`): a thread polling the
//! gauges the sweep's collector publishes — this session's
//! `sweep.pending`, `sweep.done` and `sweep.failed`, so a resumed run
//! ends on its own `N/N` line too.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use dydroid::obs::Telemetry;

/// How often [`watch`] reads the gauges.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Renders a single-line report roughly every tenth of the session's
/// apps. The ETA projects the remaining apps' virtual-clock charge
/// (`monkey.virtual_us`) through the observed virtual time per wall
/// second, scaled by the parallel balance (`sweep.virtual_makespan_us ÷
/// monkey.virtual_us`) so a k-worker ETA is not k× too pessimistic; it
/// falls back to the serial projection without a makespan and to the
/// completion rate before any virtual time is charged. The line also
/// carries worker utilization (`sweep.busy_us` against workers × wall
/// time) and the watchdog's straggler count.
#[derive(Debug)]
pub(crate) struct Progress {
    /// The last poll (or the construction) that saw no sweep, from
    /// which rates count even if the first poll to see it finds apps done.
    started: Instant,
    /// The done count of the last line rendered.
    reported: u64,
}

impl Default for Progress {
    fn default() -> Self {
        Progress {
            started: Instant::now(),
            reported: 0,
        }
    }
}

impl Progress {
    /// Reads the gauges; returns a progress line when one is due: the
    /// done count has crossed a tenth of the pending apps since the last
    /// line, or has reached them all.
    pub(crate) fn poll(&mut self, telemetry: &Telemetry) -> Option<String> {
        let total = telemetry.gauge_value("sweep.pending");
        if total == 0 {
            self.started = Instant::now();
            return None;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let done = telemetry.gauge_value("sweep.done").min(total);
        let every = (total / 10).max(1);
        let due = done > self.reported && (done / every > self.reported / every || done == total);
        if !due {
            return None;
        }
        self.reported = done;
        let failed = telemetry.gauge_value("sweep.failed");
        let retried = telemetry.counter_value("sweep.retries");
        let virtual_us = telemetry.counter_value("monkey.virtual_us");
        let makespan_us = telemetry.gauge_value("sweep.virtual_makespan_us");
        let stalls = telemetry.counter_value("watchdog.stragglers");
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let workers = telemetry.gauge_value("sweep.workers");
        let busy_us = telemetry.gauge_value("sweep.busy_us");
        let util = if workers > 0 && elapsed > 0.0 {
            let capacity_us = workers as f64 * elapsed * 1e6;
            (busy_us as f64 / capacity_us * 100.0).min(100.0)
        } else {
            0.0
        };
        let remaining = (total - done) as f64;
        let eta = if virtual_us > 0 && elapsed > 0.0 {
            // remaining × (virtual time per app) ÷ (virtual time per
            // second), deflated to the makespan the workers actually
            // realize when the collector publishes one.
            let per_app = virtual_us as f64 / done as f64;
            let balance = if makespan_us > 0 {
                (makespan_us as f64 / virtual_us as f64).min(1.0)
            } else {
                1.0
            };
            remaining * per_app * balance / (virtual_us as f64 / elapsed).max(f64::MIN_POSITIVE)
        } else if rate > 0.0 {
            remaining / rate
        } else {
            0.0
        };
        Some(format!(
            "sweep {done}/{total} · {failed} failed · {retried} retried · \
             {rate:.1} apps/s · {util:.0}% util · {stalls} stalled · \
             {virtual_ms:.1} virtual ms charged · ETA {eta:.1}s",
            virtual_ms = virtual_us as f64 / 1_000.0,
        ))
    }
}

/// Runs `run` while a scoped thread polls `telemetry` and hands each
/// due `Progress` line to `emit`, with one last poll once `run`
/// returns — when the sweep has collected every pending app.
pub fn watch<R>(
    telemetry: &Telemetry,
    mut emit: impl FnMut(String) + Send,
    run: impl FnOnce() -> R,
) -> R {
    let (stop, stopped) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut progress = Progress::default();
            loop {
                let last =
                    stopped.recv_timeout(POLL_INTERVAL) == Err(RecvTimeoutError::Disconnected);
                if let Some(line) = progress.poll(telemetry) {
                    emit(line);
                }
                if last {
                    break;
                }
            }
        });
        let result = run();
        drop(stop);
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dydroid::{Journal, Pipeline, PipelineConfig};
    use dydroid_workload::{generate, CorpusSpec};

    #[test]
    fn progress_reports_on_schedule() {
        let t = Telemetry::new(true);
        t.counter_add("monkey.virtual_us", 500_500);
        t.counter_add("watchdog.stragglers", 3);
        t.gauge_set("sweep.workers", 4);
        t.gauge_set("sweep.busy_us", 1);
        // A 4-worker run that parallelizes perfectly: the makespan is a
        // quarter of the serial virtual time, so the ETA must shrink by
        // the same balance factor instead of staying k× pessimistic.
        t.gauge_set("sweep.virtual_makespan_us", 500_500 / 4);
        let mut progress = Progress::default();
        assert_eq!(progress.poll(&t), None, "no sweep is running yet");
        t.gauge_set("sweep.pending", 20);
        let mut lines = Vec::new();
        for i in 0..20 {
            if i % 5 == 0 {
                t.gauge_set("sweep.failed", i / 5 + 1);
            }
            t.gauge_set("sweep.done", i + 1);
            lines.extend(progress.poll(&t));
        }
        // Every 2 apps out of 20 → 10 reports, last one at 20/20.
        assert_eq!(lines.len(), 10);
        assert_eq!(progress.poll(&t), None, "nothing new, no line");
        let last = lines.last().expect("final line");
        assert!(last.contains("sweep 20/20"), "got: {last}");
        assert!(last.contains("4 failed"), "got: {last}");
        assert!(last.contains("3 stalled"), "got: {last}");
        assert!(last.contains("% util"), "got: {last}");
        assert!(last.contains("500.5 virtual ms"), "got: {last}");
        // At 20/20 nothing remains, so the balance-scaled ETA is zero.
        assert!(last.contains("ETA 0.0s"), "got: {last}");
    }

    /// A poll that lags the sweep prints one line for all the tenths it
    /// missed, and the last app always gets its line even off a tenth.
    /// A first sighting that finds apps already done counts its rate
    /// from the last poll that saw no sweep, not from itself.
    #[test]
    fn lagging_polls_print_at_most_one_line_per_tenth() {
        let t = Telemetry::new(true);
        let mut progress = Progress::default();
        assert_eq!(progress.poll(&t), None, "no sweep is running yet");
        std::thread::sleep(Duration::from_millis(20));
        t.gauge_set("sweep.pending", 25);
        let mut lines = Vec::new();
        for done in [7, 7, 8, 9, 24, 25, 25] {
            t.gauge_set("sweep.done", done);
            lines.extend(progress.poll(&t));
        }
        let field = |line: &str, n: usize| line.split(' ').nth(n).expect("field").to_owned();
        let counts: Vec<String> = lines.iter().map(|l| field(l, 1)).collect();
        assert_eq!(counts, ["7/25", "8/25", "24/25", "25/25"]);
        // 7 apps in at least 20 ms: at most 350 apps/s.
        let rate: f64 = field(&lines[0], 9).parse().expect("apps/s");
        assert!(
            rate <= 350.0,
            "rate counted from the first sighting: {}",
            lines[0]
        );
    }

    #[test]
    fn progress_eta_scales_with_parallel_balance() {
        let serial = Telemetry::new(true);
        serial.counter_add("monkey.virtual_us", 1_000_000);
        let balanced = Telemetry::new(true);
        balanced.counter_add("monkey.virtual_us", 1_000_000);
        balanced.gauge_set("sweep.virtual_makespan_us", 250_000);
        let parse_eta = |line: &str| -> f64 {
            let tail = line.rsplit("ETA ").next().expect("eta field");
            tail.trim_end_matches('s').parse().expect("eta number")
        };
        // Same wall progress, same virtual charge: the run publishing a
        // 4× parallel makespan must project ~¼ the ETA. Sleep long
        // enough that the one-decimal rendering can tell them apart
        // (ETA here is proportional to elapsed wall time, counted from
        // the first poll that sees the sweep).
        let eta_after_one_of_ten = |t: &Telemetry| {
            t.gauge_set("sweep.pending", 10);
            let mut progress = Progress::default();
            assert_eq!(progress.poll(t), None, "nothing done yet");
            std::thread::sleep(Duration::from_millis(250));
            t.gauge_set("sweep.done", 1);
            parse_eta(&progress.poll(t).expect("line at 1/10"))
        };
        let eta_serial = eta_after_one_of_ten(&serial);
        let eta_balanced = eta_after_one_of_ten(&balanced);
        assert!(eta_serial >= 1.0, "serial ETA too small: {eta_serial}");
        assert!(
            eta_balanced < eta_serial * 0.5,
            "makespan balance not applied: serial {eta_serial} vs balanced {eta_balanced}"
        );
    }

    /// On a resumed sweep the count runs over this session's apps only,
    /// so the poller still ends on the session's `N/N` line.
    #[test]
    fn watch_ends_a_resumed_sweep_on_its_final_line() {
        let corpus = generate(&CorpusSpec {
            scale: 0.001,
            seed: 5,
        });
        let dir = std::env::temp_dir().join(format!("dydroid_progress_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Journal::new(dir.join("sweep.jsonl"));
        journal.reset().expect("reset journal");
        let config = PipelineConfig {
            workers: 2,
            environment_reruns: false,
            ..Default::default()
        };
        Pipeline::new(config.clone())
            .run_resumable(&corpus, &journal)
            .expect("first session");
        // Both finalized streams hold one frame per app in corpus order:
        // keeping 20 of each leaves the rest to the resumed session.
        const KEPT: usize = 20;
        for path in [journal.path().to_path_buf(), journal.provenance_path()] {
            let text = std::fs::read_to_string(&path).expect("read stream");
            let kept: String = text.split_inclusive('\n').take(KEPT).collect();
            std::fs::write(&path, kept).expect("cut stream");
        }

        let pipeline = Pipeline::new(config);
        let mut lines = Vec::new();
        let report = watch(
            pipeline.telemetry(),
            |line| lines.push(line),
            || pipeline.run_resumable(&corpus, &journal),
        )
        .expect("resumed session");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(report.stats().recovered_records, KEPT as u64);
        let pending = corpus.len() - KEPT;
        let last = lines.last().expect("a final line");
        assert!(
            last.starts_with(&format!("sweep {pending}/{pending} ")),
            "got: {last}"
        );
        assert!(lines.len() <= 11, "more than one line per tenth: {lines:?}");
    }
}
