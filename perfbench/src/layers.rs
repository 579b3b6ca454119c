//! Per-layer attribution for the traced run, gathered three ways that
//! leave the program untouched:
//!
//! * **counts the program reports** — [`RunReport`] fields and the
//!   decision stream, tallied by [`DecisionTally`] as it is emitted;
//! * **replays** — after the measured run, a layer's public function is
//!   fed the workload's own inputs and each call is timed (`replay_*`);
//! * **phase spans** — recorded by [`crate::spans::Spans`] around the
//!   benchmark's own calls into public entry points.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use infless_cluster::{ClusterSpec, ClusterState, InstanceConfig, InstanceId};
use infless_core::batching::RpsWindow;
use infless_core::engine::FunctionInfo;
use infless_core::metrics::RunReport;
use infless_core::{CopPredictor, DeficitRouter, RouterEntry, Scheduler, SchedulerConfig};
use infless_models::profile::ConfigGrid;
use infless_models::{HardwareModel, ProfileDatabase};
use infless_sim::{EventQueue, SimDuration, SimTime};
use infless_telemetry::{
    DecisionKind, DecisionRecord, GaugeRow, Log2Histogram, SpanEvent, TelemetrySink,
};
use infless_workload::Workload;

/// Decision-stream tallies: one count per [`DecisionKind`] plus the
/// keep-alive windows that triggered evictions.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Tally {
    /// Algorithm 1 grid candidates evaluated (first traced pass).
    pub candidates: u64,
    /// Scheduling rejections.
    pub rejects: u64,
    /// Scale-out passes.
    pub scale_out_passes: u64,
    /// Consolidation transactions opened.
    pub consolidations: u64,
    /// Consolidation transactions committed.
    pub consolidation_commits: u64,
    /// Keep-alive evictions.
    pub evictions: u64,
    /// Sum of the keep-alive windows (s) that triggered evictions.
    pub keepalive_s_sum: f64,
    /// Continuous-batching admissions.
    pub admissions: u64,
    /// In-place resizes (accepted or rejected).
    pub resizes: u64,
}

impl Tally {
    /// Folds one decision record in (latency breakdowns are ignored:
    /// the report's own five-way histograms carry them).
    pub fn observe(&mut self, rec: &DecisionRecord) {
        let DecisionRecord::Decision(d) = rec else {
            return;
        };
        match d.kind {
            DecisionKind::Candidate => self.candidates += 1,
            DecisionKind::Reject => self.rejects += 1,
            DecisionKind::ScaleOut => self.scale_out_passes += 1,
            DecisionKind::Consolidate => self.consolidations += 1,
            DecisionKind::ConsolidateCommit => self.consolidation_commits += 1,
            DecisionKind::Evict => {
                self.evictions += 1;
                self.keepalive_s_sum += d.value;
            }
            DecisionKind::Admit => self.admissions += 1,
            DecisionKind::Resize => self.resizes += 1,
            DecisionKind::Chosen
            | DecisionKind::ConsolidateRollback
            | DecisionKind::Launch
            | DecisionKind::CacheFull => {}
        }
    }
}

/// A decisions-only telemetry sink that tallies records as they are
/// emitted instead of buffering them. Spans and gauges stay off
/// (`enabled() == false`), exactly like the program's own decision tap.
#[derive(Debug, Clone, Default)]
pub struct DecisionTally {
    tally: Arc<Mutex<Tally>>,
}

impl DecisionTally {
    /// A fresh, empty tally.
    pub fn new() -> Self {
        DecisionTally::default()
    }

    /// The counts so far.
    ///
    /// # Panics
    ///
    /// Panics if a sink panicked while holding the tally.
    pub fn get(&self) -> Tally {
        *self
            .tally
            .lock()
            .expect("tally poisoned by a panicking sink")
    }

    /// Folds already-collected records in (the sharded runner hands its
    /// decision stream back instead of taking a sink).
    pub fn observe_all(&self, records: &[DecisionRecord]) {
        let mut t = self
            .tally
            .lock()
            .expect("tally poisoned by a panicking sink");
        for rec in records {
            t.observe(rec);
        }
    }
}

impl TelemetrySink for DecisionTally {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _span: SpanEvent) {}

    fn sample(&mut self, _row: &GaugeRow) {}

    fn decisions_enabled(&self) -> bool {
        true
    }

    fn record_decision(&mut self, rec: &DecisionRecord) {
        self.tally
            .lock()
            .expect("tally poisoned by a panicking sink")
            .observe(rec);
    }
}

/// Result of timing one replay: calls made and host nanoseconds per
/// call, plus a replay-specific outcome ratio.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Replay {
    /// Calls timed.
    pub calls: u64,
    /// Host nanoseconds per call.
    pub ns_per_call: f64,
    /// Replay-specific ratio (refused, placed, …); 0 when unused.
    pub ratio: f64,
}

impl Replay {
    fn new(calls: u64, elapsed_s: f64, ratio: f64) -> Replay {
        Replay {
            calls,
            ns_per_call: if calls == 0 {
                0.0
            } else {
                elapsed_s * 1e9 / calls as f64
            },
            ratio,
        }
    }
}

/// Merged end-to-end latency histogram of every function in `reports`.
pub fn merged_latency(reports: &[RunReport]) -> Log2Histogram {
    let mut h = Log2Histogram::new();
    for f in reports.iter().flat_map(|r| &r.functions) {
        h.merge(&f.latency_ms);
    }
    h
}

/// `sim`: every request's arrival and completion pushed through an
/// [`EventQueue`] and popped in time order. A request completes its
/// function's median latency after it arrives.
pub fn replay_event_queue(workload: &Workload, reports: &[RunReport]) -> Replay {
    let median_ms: Vec<f64> = reports[0]
        .functions
        .iter()
        .map(|f| f.latency_ms.quantile(0.5).unwrap_or(1.0))
        .collect();
    let mut queue: EventQueue<u8> = EventQueue::new();
    let mut popped = 0u64;
    let t0 = Instant::now();
    for &(t, f) in workload.arrivals() {
        queue.schedule(t, 0);
        queue.schedule(t + SimDuration::from_millis_f64(median_ms[f]), 1);
        while queue.peek_time().is_some_and(|next| next <= t) {
            popped += u64::from(queue.pop().is_some());
        }
    }
    while queue.pop().is_some() {
        popped += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    std::hint::black_box(popped);
    Replay::new(2 * workload.len() as u64, elapsed, 0.0)
}

/// `core.router`: [`DeficitRouter::dispatch`] once per arrival over the
/// configurations the run launched for that function. Each instance
/// accepts up to its batchsize, then refuses until its predicted
/// execution time has passed since the batch opened.
pub fn replay_router(
    workload: &Workload,
    report: &RunReport,
    functions: &[FunctionInfo],
    predictor: &CopPredictor,
) -> Replay {
    struct Slot {
        batch: u32,
        filled: u32,
        exec: SimDuration,
        opened: SimTime,
    }
    let mut routers: Vec<DeficitRouter> = functions.iter().map(|_| DeficitRouter::new()).collect();
    let mut slots: Vec<Slot> = Vec::new();
    let mut launched: Vec<(&(usize, InstanceConfig), &u64)> =
        report.config_launches.iter().collect();
    launched.sort_by_key(|((f, c), _)| (*f, c.batch(), c.resources()));
    for ((f, cfg), &count) in launched {
        let function = &functions[*f];
        let Some(exec) = predictor.predict(function.spec(), cfg.batch(), cfg.resources()) else {
            continue;
        };
        let Some(window) = RpsWindow::for_instance(exec, function.slo(), cfg.batch()) else {
            continue;
        };
        for _ in 0..count {
            let id = InstanceId::new(slots.len() as u64);
            routers[*f].push(RouterEntry {
                id,
                window,
                rate: window.r_up().max(1.0),
                sent: 0,
                predicted_exec: exec,
            });
            slots.push(Slot {
                batch: cfg.batch(),
                filled: 0,
                exec,
                opened: SimTime::ZERO,
            });
        }
    }
    let mut refused = 0u64;
    let t0 = Instant::now();
    for &(t, f) in workload.arrivals() {
        let hit = routers[f].dispatch(|id| {
            let s = &mut slots[id.raw() as usize];
            if s.filled >= s.batch && t >= s.opened + s.exec {
                s.filled = 0;
            }
            if s.filled >= s.batch {
                return false;
            }
            if s.filled == 0 {
                s.opened = t;
            }
            s.filled += 1;
            true
        });
        refused += u64::from(hit.is_none());
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let n = workload.len() as u64;
    Replay::new(n, elapsed, refused as f64 / n.max(1) as f64)
}

/// Per-second observed arrival rate of each function.
fn per_second_rates(workload: &Workload) -> Vec<Vec<f64>> {
    let secs = workload.end_time().as_secs_f64().ceil() as usize + 1;
    let mut rates = vec![vec![0.0; secs]; workload.functions()];
    for &(t, f) in workload.arrivals() {
        rates[f][t.as_secs_f64() as usize] += 1.0;
    }
    rates
}

/// Every non-zero per-second rate sample is replayed, capped at this
/// many per function.
const SCHEDULE_CALLS_PER_FUNCTION: usize = 400;

/// `core.scheduler` and `cluster`: [`Scheduler::schedule`] on a fresh
/// [`ClusterState`] for each function's per-second observed rate, then
/// the placements it made replayed as cluster transactions
/// (`try_begin_txn` + `try_place` + commit, or rollback when a
/// placement fails) and through the sharded replica journal
/// (`take_journal` + `apply_ops`). Returns (scheduler, txn, journal).
pub fn replay_scheduler_cluster(
    workload: &Workload,
    functions: &[FunctionInfo],
    predictor: &CopPredictor,
    cluster: ClusterSpec,
) -> (Replay, Replay, Replay) {
    let rates = per_second_rates(workload);
    let mut scheduler = Scheduler::new(SchedulerConfig::default());
    let mut sched_s = 0.0;
    let (mut calls, mut asked, mut unplaced) = (0u64, 0.0, 0.0);
    let mut placed = Vec::new();
    for (f, series) in rates.iter().enumerate() {
        let function = &functions[f];
        for &rps in series
            .iter()
            .filter(|r| **r > 0.0)
            .take(SCHEDULE_CALLS_PER_FUNCTION)
        {
            let mut state = ClusterState::new(cluster);
            let t0 = Instant::now();
            let out = scheduler.schedule(predictor, function, rps, &mut state);
            sched_s += t0.elapsed().as_secs_f64();
            calls += 1;
            asked += rps;
            unplaced += out.unplaced_rps;
            let mem = predictor.instance_memory_mb(function.spec());
            placed.push(
                out.instances
                    .iter()
                    .map(|i| (i.config.resources(), mem))
                    .collect::<Vec<_>>(),
            );
        }
    }
    let scheduler_replay = Replay::new(calls, sched_s, 1.0 - unplaced / asked.max(1e-9));

    // Transactions: one per scheduling call, against one long-lived
    // cluster so capacity eventually runs out and rollbacks happen.
    let mut state = ClusterState::new(cluster);
    let t0 = Instant::now();
    for group in &placed {
        state.try_begin_txn().expect("no transaction left open");
        let ok = group
            .iter()
            .all(|&(cfg, mem)| state.try_place(cfg, mem).is_ok());
        if ok {
            state.commit_txn();
        } else {
            state.rollback_txn();
        }
    }
    let txn_replay = Replay::new(placed.len() as u64, t0.elapsed().as_secs_f64(), 0.0);

    // Journal: the same placements on a journalled primary, shipped to
    // a replica in one batch per scheduling call.
    let mut primary = ClusterState::new(cluster);
    primary.enable_journal();
    let mut replica = ClusterState::new(cluster);
    let (mut ops, mut journal_s) = (0u64, 0.0);
    for group in &placed {
        for &(cfg, mem) in group {
            if primary.try_place(cfg, mem).is_err() {
                break;
            }
        }
        let t0 = Instant::now();
        let batch = primary.take_journal();
        replica.apply_ops(&batch);
        journal_s += t0.elapsed().as_secs_f64();
        ops += batch.len() as u64;
    }
    let journal_replay = Replay::new(ops, journal_s, 0.0);
    (scheduler_replay, txn_replay, journal_replay)
}

/// `core.predictor`: [`CopPredictor::predict`] for every function over
/// every ⟨b, c, g⟩ point of [`ConfigGrid::standard`], on a fresh
/// predictor so no call is served from its memo.
pub fn replay_predictor(
    db: Arc<ProfileDatabase>,
    functions: &[FunctionInfo],
    hardware: HardwareModel,
    offset: f64,
) -> Replay {
    let predictor = CopPredictor::with_offset(db, hardware, offset);
    let grid = ConfigGrid::standard();
    let mut calls = 0u64;
    let t0 = Instant::now();
    for f in functions {
        for (b, cfg) in grid.points() {
            std::hint::black_box(predictor.predict(f.spec(), b, cfg));
            calls += 1;
        }
    }
    Replay::new(calls, t0.elapsed().as_secs_f64(), 0.0)
}

/// `telemetry`: [`Log2Histogram::add`] once per completed request, with
/// values swept across the run's observed latency range.
pub fn replay_histogram(reports: &[RunReport]) -> Replay {
    let merged = merged_latency(reports);
    let (lo, hi) = (
        merged.min().unwrap_or(1.0).max(1e-3),
        merged.max().unwrap_or(1.0).max(1e-3),
    );
    let n: u64 = reports.iter().map(RunReport::total_completed).sum();
    let ratio = (hi / lo).powf(1.0 / n.max(1) as f64);
    let mut h = Log2Histogram::new();
    let mut v = lo;
    let t0 = Instant::now();
    for _ in 0..n {
        h.add(v);
        v *= ratio;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    std::hint::black_box(h.count());
    Replay::new(n, elapsed, 0.0)
}
