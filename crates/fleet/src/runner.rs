//! The one road a sweep cell takes — [`run_cell`] — and the one worker
//! pool every sweep runs on — [`run_pool`].
//!
//! Every cell is an independent simulation, so the pool is
//! embarrassingly parallel: cells are dealt round-robin onto per-worker
//! deques; a worker pops its own deque from the front and, when empty,
//! steals from the back of its siblings (classic Chase-Lev shape on
//! `std` mutexes — the queue holds cell *indices*, so steals move 8
//! bytes, never scenarios). Workers rebuild each `RackSim` from the
//! cell's [`ScenarioSpec`] locally, which keeps runs bit-deterministic
//! no matter which worker executes them, and send back `(index, value)`.
//! Results are slotted by index, so aggregate output order is grid
//! order — byte-identical whether `jobs` is 1 or 16.
//!
//! A panicking cell (e.g. an invalid spec) is caught with
//! `catch_unwind` and handed back as its message in place; the other
//! N−1 cells are unaffected.

use crate::grid::FleetCell;
use crate::merge::{CellFailure, CellResult, FleetReport};
use millisampler::{AlignedRackRun, HostSeries};
use ms_analysis::{analyze_run, RunAnalysis, RunOutcome};
use ms_dcsim::{Ns, SERVER_LINK_BPS};
use ms_workload::{Bps, DropForensic, ScenarioSpec};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Runner knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads (0 = available parallelism).
    pub jobs: usize,
    /// Server link rate fed to the analyses.
    pub link_bps: Bps,
    /// Loss-association slack in buckets (§8 methodology).
    pub loss_slack: usize,
    /// Emit a progress line to stderr as each cell finishes.
    pub progress: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            jobs: 0,
            link_bps: SERVER_LINK_BPS,
            loss_slack: 5,
            progress: false,
        }
    }
}

impl FleetConfig {
    /// Effective worker count.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        }
    }
}

/// Work-stealing queue of cell indices: one deque per worker, dealt
/// round-robin so every worker starts with a contiguous-ish share.
pub(crate) struct ShardQueue {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl ShardQueue {
    pub(crate) fn new(cells: usize, workers: usize) -> Self {
        let workers = workers.max(1);
        let mut deques: Vec<VecDeque<usize>> = (0..workers)
            .map(|_| VecDeque::with_capacity(cells / workers + 1))
            .collect();
        for idx in 0..cells {
            deques[idx % workers].push_back(idx);
        }
        ShardQueue {
            deques: deques.into_iter().map(Mutex::new).collect(),
        }
    }

    /// The next cell for `worker`: its own deque front first, then a
    /// steal from the back of each sibling. Returns `None` only when
    /// every deque is empty.
    pub(crate) fn next(&self, worker: usize) -> Option<usize> {
        let n = self.deques.len();
        let own = worker % n;
        self.pop(own, true)
            .or_else(|| (1..n).find_map(|off| self.pop((own + off) % n, false)))
    }

    /// Pops one index from deque `shard`, front or back. The guard never
    /// leaves this function, so a scan holds at most one shard lock at
    /// any instant and two workers stealing from each other cannot
    /// deadlock. A poisoned lock (a worker panicked while holding it) is
    /// recovered, not propagated: the data is a plain index queue,
    /// always valid, so one poisoned shard cannot wedge the sweep.
    fn pop(&self, shard: usize, front: bool) -> Option<usize> {
        let mut deque = match self.deques[shard].lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if front {
            deque.pop_front()
        } else {
            deque.pop_back()
        }
    }
}

/// Everything one simulated cell hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRun {
    /// The §6–8 analysis of the sampled window.
    pub analysis: RunAnalysis,
    /// Ground truth plus analysis scalars, stamped with the spec's policy.
    pub outcome: RunOutcome,
    /// Raw per-host series (empty for a silent rack).
    pub series: Vec<HostSeries>,
    /// Classified drop forensics (empty unless the spec captures them).
    pub forensics: Vec<DropForensic>,
}

/// The single place a cell runs: builds the simulation `spec` describes,
/// runs its sync window as rack `rack_id`, analyses what the samplers
/// saw and flattens it. A silent rack analyses the empty run, so its
/// outcome is the five ground-truth counters over all-zero scalars.
/// Debug builds then check the run's byte conservation
/// ([`RackSim::check_conservation`](ms_workload::RackSim::check_conservation)).
/// Panics (an invalid spec, a runaway workload) are the caller's to
/// catch — [`run_pool`] does.
pub fn run_cell(spec: &ScenarioSpec, rack_id: u32, cfg: &FleetConfig) -> CellRun {
    let mut sim = spec.build();
    let report = sim.run_sync_window(rack_id);
    #[cfg(debug_assertions)]
    sim.check_conservation();
    // Harvest the drop-forensics blackbox before the sim goes away; the
    // store is empty (capacity 0) unless the spec asked for forensics.
    let forensics = sim
        .telemetry()
        .map(|hub| hub.borrow().forensics.records().to_vec())
        .unwrap_or_default();
    let run = report.rack_run.unwrap_or_else(|| AlignedRackRun {
        rack: rack_id,
        start: Ns::ZERO,
        interval: spec.sampler.interval,
        servers: Vec::new(),
    });
    let analysis = analyze_run(&run, cfg.link_bps, cfg.loss_slack);
    let mut outcome = RunOutcome::from_analysis(
        &analysis,
        report.switch_ingress_bytes,
        report.switch_discard_bytes,
        report.flows_started,
        report.conns_completed,
        report.events,
    );
    outcome.policy = spec.policy.kind();
    CellRun {
        analysis,
        outcome,
        series: run.servers,
        forensics,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("panic with non-string payload")
    }
}

/// Workers [`run_pool`] starts for `cells` cells.
pub(crate) fn pool_workers(cells: usize, cfg: &FleetConfig) -> usize {
    cfg.effective_jobs().min(cells).max(1)
}

/// Runs `work(worker, idx)` once per cell on scoped worker threads and
/// returns the values in cell order; a cell whose `work` panicked holds
/// the panic message instead. `worker` is below [`pool_workers`] and
/// names the one thread that calls with it, so per-worker state indexed
/// by it is never contended.
///
/// The result depends only on the cells and `work` — never on `jobs`,
/// completion order, or wall-clock.
pub fn run_pool<T, F>(cells: &[FleetCell], cfg: &FleetConfig, work: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let workers = pool_workers(cells.len(), cfg);
    let queue = ShardQueue::new(cells.len(), workers);
    let done = AtomicUsize::new(0);
    let total = cells.len();
    let (tx, rx) = mpsc::channel::<(usize, Result<T, String>)>();

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let tx = tx.clone();
            let (queue, done, work) = (&queue, &done, &work);
            scope.spawn(move || {
                while let Some(idx) = queue.next(worker) {
                    let result =
                        catch_unwind(AssertUnwindSafe(|| work(worker, idx))).map_err(panic_message);
                    if cfg.progress {
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        let status = if result.is_ok() { "ok" } else { "FAILED" };
                        eprintln!("[fleet] {finished}/{total} {} {status}", cells[idx].label);
                    }
                    let _ = tx.send((idx, result));
                }
            });
        }
        drop(tx);
    });

    let mut slots: Vec<Option<Result<T, String>>> = (0..cells.len()).map(|_| None).collect();
    for (idx, result) in rx {
        slots[idx] = Some(result);
    }
    // The scope joined every worker, and each index is dealt exactly
    // once and always answered.
    slots
        .into_iter()
        .map(|slot| slot.expect("every cell is answered"))
        .collect()
}

/// Runs every cell and merges the outcomes in grid order.
///
/// The returned [`FleetReport`] depends only on the cells — never on
/// `jobs`, completion order, or wall-clock — so its CSV/JSON renderings
/// are byte-identical across thread counts.
pub fn run_fleet(cells: &[FleetCell], cfg: &FleetConfig) -> FleetReport {
    let outcomes = run_pool(cells, cfg, |_, idx| {
        run_cell(&cells[idx].spec, 0, cfg).outcome
    });
    let results = cells
        .iter()
        .zip(outcomes)
        .map(|(cell, outcome)| CellResult {
            label: cell.label.clone(),
            outcome: outcome.map_err(|message| CellFailure { message }),
        })
        .collect();
    FleetReport { results }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_queue_deals_every_index_once() {
        let q = ShardQueue::new(10, 3);
        let mut seen = Vec::new();
        // Worker 1 drains everything: its own deque, then steals.
        while let Some(i) = q.next(1) {
            seen.push(i);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shard_queue_steals_from_siblings() {
        let q = ShardQueue::new(4, 4);
        // Worker 0 pops its own cell, then three steals.
        assert!(q.next(0).is_some());
        assert!(q.next(0).is_some());
        assert!(q.next(0).is_some());
        assert!(q.next(0).is_some());
        assert_eq!(q.next(0), None);
        assert_eq!(q.next(2), None);
    }

    #[test]
    fn more_workers_than_cells_is_fine() {
        let q = ShardQueue::new(2, 8);
        assert!(q.next(5).is_some());
        assert!(q.next(5).is_some());
        assert_eq!(q.next(5), None);
    }

    #[test]
    fn concurrent_drain_delivers_every_index_exactly_once() {
        // All workers hammer the queue at once, so every own-pop /
        // sibling-steal interleaving the restructured scan allows gets
        // exercised; duplicated or dropped indices would surface as a
        // multiset mismatch.
        let workers = 4;
        let cells = 101;
        let q = ShardQueue::new(cells, workers);
        let mut all = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let q = &q;
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(idx) = q.next(w) {
                            got.push(idx);
                        }
                        got
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("drain worker must not panic"))
                .collect::<Vec<_>>()
        });
        all.sort_unstable();
        assert_eq!(all, (0..cells).collect::<Vec<_>>());
    }

    #[test]
    fn poisoned_shard_still_delivers_every_index_once() {
        // A worker that panics while holding shard 1's lock poisons it;
        // the scan must recover the deque, neither wedging nor losing or
        // repeating a cell.
        let q = ShardQueue::new(9, 3);
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = q.deques[1].lock();
                    panic!("worker dies holding shard 1");
                })
                .join()
        });
        assert!(died.is_err());
        assert!(q.deques[1].is_poisoned());
        // Worker 0 drains everything: its own front (0, 3, 6), then the
        // back of the poisoned shard 1 (7, 4, 1), then shard 2.
        let mut order = Vec::new();
        while let Some(idx) = q.next(0) {
            order.push(idx);
        }
        assert_eq!(order, [0, 3, 6, 7, 4, 1, 8, 5, 2]);
        // Its owner finds it empty rather than poisoned.
        assert_eq!(q.next(1), None);
    }

    #[test]
    fn report_is_byte_identical_across_worker_counts() {
        // The determinism contract of the stealing path: which worker
        // runs a cell must not leak into the merged report. A tiny
        // 4-cell grid keeps this fast while still forcing steals
        // (jobs=3 over 4 cells leaves one worker to steal the tail).
        let grid = crate::grid::FleetGrid {
            servers: 4,
            seeds: vec![1, 2],
            alphas: vec![0.5, 2.0],
            placements: vec![crate::grid::PlacementKind::SingleVictim],
            connections: 8,
            total_bytes: 400_000,
            ..crate::grid::FleetGrid::default()
        };
        let cells = grid.cells();
        let serial = run_fleet(
            &cells,
            &FleetConfig {
                jobs: 1,
                ..FleetConfig::default()
            },
        );
        let threaded = run_fleet(
            &cells,
            &FleetConfig {
                jobs: 3,
                ..FleetConfig::default()
            },
        );
        assert_eq!(serial.ok_count(), cells.len(), "{:?}", serial.failures());
        assert_eq!(serial.to_csv(), threaded.to_csv());
        assert_eq!(serial.to_json(), threaded.to_json());
    }
}
