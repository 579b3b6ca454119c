//! OpenFaaS+ — the enhanced-OpenFaaS baseline of §5.1.
//!
//! The paper grants the stock platform GPU access for a fair
//! comparison, but keeps its serverless semantics: every request maps
//! one-to-one onto an instance (batchsize 1), every instance gets the
//! same fixed allocation (2 CPU cores + 10 % GPU SMs), scaling is
//! purely reactive (a request with no free instance triggers a launch),
//! and idle instances die after a fixed 300-second keep-alive.
//!
//! [`Torpor`] (Yu et al.) is the same platform with one mechanism
//! changed: every model's weights stay pinned in host RAM and a launch
//! is a pipelined PCIe swap-in instead of a container boot + disk load
//! ([`OpenFaasConfig::startup`] = [`StartupKind::SwapIn`]). Differences
//! between the two in the failure sweeps are therefore attributable to
//! swap-based versus boot-based recovery alone.

use infless_cluster::{ClusterSpec, InstanceConfig, InstanceId, InstanceState, Request};
use infless_faults::{FaultEvent, FaultSchedule};
use infless_models::{HardwareModel, ResourceConfig};
use infless_sim::{EventQueue, SimDuration, SimTime};
use infless_workload::Workload;

use infless_core::driver::{self, Policy};
use infless_core::engine::{Engine, EngineEvent, FunctionInfo};
use infless_core::metrics::{RunReport, StartupKind};
use infless_core::router::LeastLoadedScratch;

/// OpenFaaS+ knobs (§5.1 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFaasConfig {
    /// The uniform per-instance allocation ("2 CPU cores and 10% GPU
    /// SMs").
    pub instance_resources: ResourceConfig,
    /// The fixed keep-alive window (300 s).
    pub keep_alive: SimDuration,
    /// Idle-reap check period.
    pub reap_period: SimDuration,
    /// Maximum concurrently cold-starting pods per function — real
    /// OpenFaaS/Kubernetes scale in rate-limited steps rather than one
    /// pod per queued request.
    pub max_concurrent_starts: usize,
    /// How a launch starts: [`StartupKind::Cold`] boots the container
    /// and loads the model (OpenFaaS+); [`StartupKind::SwapIn`] swaps
    /// host-pinned weights onto the GPU (Torpor), which also turns on
    /// device-memory booking.
    pub startup: StartupKind,
}

impl Default for OpenFaasConfig {
    fn default() -> Self {
        OpenFaasConfig {
            instance_resources: ResourceConfig::new(2, 10),
            keep_alive: SimDuration::from_secs(300),
            reap_period: SimDuration::from_secs(1),
            max_concurrent_starts: 8,
            startup: StartupKind::Cold,
        }
    }
}

/// The OpenFaaS+ platform.
///
/// # Example
///
/// ```
/// use infless_baselines::OpenFaasPlus;
/// use infless_cluster::ClusterSpec;
/// use infless_core::apps::Application;
/// use infless_sim::SimDuration;
/// use infless_workload::{FunctionLoad, Workload};
///
/// let app = Application::qa_robot();
/// let loads: Vec<_> = app.functions().iter()
///     .map(|_| FunctionLoad::constant(10.0, SimDuration::from_secs(10)))
///     .collect();
/// let workload = Workload::build(&loads, 1);
/// let report = OpenFaasPlus::new(ClusterSpec::testbed(), app.functions().to_vec(), 1)
///     .run(&workload);
/// assert!(report.total_completed() > 0);
/// ```
#[derive(Debug)]
pub struct OpenFaasPlus {
    engine: Engine,
    config: OpenFaasConfig,
    faults: FaultSchedule,
    route_scratch: LeastLoadedScratch,
}

impl OpenFaasPlus {
    /// Builds the platform with default §5.1 settings.
    pub fn new(cluster: ClusterSpec, functions: Vec<FunctionInfo>, seed: u64) -> Self {
        Self::with_config(cluster, functions, OpenFaasConfig::default(), seed)
    }

    /// Builds the platform with custom settings.
    pub fn with_config(
        cluster: ClusterSpec,
        functions: Vec<FunctionInfo>,
        config: OpenFaasConfig,
        seed: u64,
    ) -> Self {
        let swap_in = config.startup == StartupKind::SwapIn;
        let name = if swap_in { "Torpor" } else { "OpenFaaS+" };
        let mut engine = Engine::new(name, cluster, HardwareModel::default(), functions, seed);
        if swap_in {
            // Weights are host-resident from deploy time, so every GPU
            // placement books device memory from the start.
            engine.enable_device_memory();
        }
        OpenFaasPlus {
            engine,
            config,
            faults: FaultSchedule::empty(),
            route_scratch: LeastLoadedScratch::default(),
        }
    }

    /// Attaches a fault schedule to inject during [`Self::run`]. The
    /// default (an empty schedule) changes nothing.
    pub fn with_fault_schedule(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches a telemetry sink (the default no-op sink records
    /// nothing and changes nothing).
    pub fn with_telemetry(mut self, sink: Box<dyn infless_telemetry::TelemetrySink>) -> Self {
        self.engine.set_telemetry(sink);
        self
    }

    /// Runs the workload to completion.
    pub fn run(mut self, workload: &Workload) -> RunReport {
        let faults = std::mem::take(&mut self.faults);
        driver::run(&mut self, workload, &faults);
        self.engine.finish()
    }

    /// Tries to place `req` (an arrival or a fault-displaced retry);
    /// returns `false` when it could not be accepted anywhere.
    fn place(&mut self, f: usize, req: Request, queue: &mut EventQueue<EngineEvent>) -> bool {
        let now = self.engine.now();
        if let Some(id) = self.free_instance(f, now) {
            let accepted = self.engine.enqueue(id, req, queue);
            debug_assert!(accepted, "a free instance always accepts one request");
            return true;
        }
        // Reactive scale-out: one instance per unserved request. There
        // is no pre-warming: every pod pays the full container boot +
        // model load, or (Torpor) the swap-in from host RAM. Scaling is
        // rate-limited, as Kubernetes' is.
        let starting = self
            .engine
            .instances_of(f)
            .iter()
            .filter(|id| self.engine.instance(**id).is_starting(now))
            .count();
        if starting < self.config.max_concurrent_starts {
            let cfg = InstanceConfig::new(1, self.config.instance_resources);
            let startup = self.config.startup;
            if let Ok(id) = self
                .engine
                .launch_anywhere(f, cfg, startup, SimDuration::MAX, queue)
            {
                let accepted = self.engine.enqueue(id, req, queue);
                debug_assert!(accepted);
                return true;
            }
        }
        // Rate-limited (or cluster full): queue one-deep behind any pod
        // with space, else reject.
        let engine = &self.engine;
        let ordered = self
            .route_scratch
            .order(engine.instances_of(f), |id| engine.instance(id).queue_len());
        for &id in ordered {
            if self.engine.enqueue(id, req, queue) {
                return true;
            }
        }
        false
    }

    fn free_instance(&self, f: usize, now: SimTime) -> Option<InstanceId> {
        self.engine.instances_of(f).iter().copied().find(|id| {
            let inst = self.engine.instance(*id);
            inst.queue_len() == 0
                && !inst.is_starting(now)
                && !matches!(inst.state(), InstanceState::Busy { .. })
        })
    }

    fn reap(&mut self, now: SimTime) {
        let dead: Vec<InstanceId> = (0..self.engine.functions().len())
            .flat_map(|f| self.engine.instances_of(f).to_vec())
            .filter(|id| self.engine.instance(*id).idle_for(now) > self.config.keep_alive)
            .collect();
        for id in dead {
            self.engine.retire(id);
        }
    }
}

impl Policy for OpenFaasPlus {
    fn engine(&mut self) -> &mut Engine {
        &mut self.engine
    }

    fn tick_period(&self) -> SimDuration {
        self.config.reap_period
    }

    /// One-to-one dispatch: a free (idle, empty-queue) instance takes
    /// the request; otherwise a new pod is launched for it — subject to
    /// the platform's scaling rate limit, beyond which the request
    /// queues one-deep behind a busy/starting pod or is rejected.
    fn on_arrival(&mut self, f: usize, queue: &mut EventQueue<EngineEvent>) {
        let req = self.engine.mint_request(f);
        if !self.place(f, req, queue) {
            self.engine.drop_request(&req);
        }
    }

    fn on_tick(&mut self, _queue: &mut EventQueue<EngineEvent>) {
        let now = self.engine.now();
        self.reap(now);
        self.engine.sample_cluster();
    }

    /// Reactive recovery: displaced requests with SLO budget left
    /// re-enter placement (which launches replacement pods exactly as a
    /// fresh arrival would); the rest are shed.
    fn on_fault(&mut self, fault: FaultEvent, queue: &mut EventQueue<EngineEvent>) {
        let outcome = self.engine.on_fault(fault);
        for req in outcome.displaced {
            let f = req.function.raw();
            let slo = self.engine.functions()[f].slo();
            let now = self.engine.now();
            if now.saturating_since(req.arrival) < slo && self.place(f, req, queue) {
                self.engine.record_retry(&req);
            } else {
                self.engine.shed_request(&req);
            }
        }
    }
}

/// The Torpor platform: OpenFaaS+ with swap-in launches. Equivalent to
/// [`OpenFaasPlus::with_config`] with [`OpenFaasConfig::startup`] set
/// to [`StartupKind::SwapIn`].
///
/// # Example
///
/// ```
/// use infless_baselines::Torpor;
/// use infless_cluster::ClusterSpec;
/// use infless_core::apps::Application;
/// use infless_sim::SimDuration;
/// use infless_workload::{FunctionLoad, Workload};
///
/// let app = Application::qa_robot();
/// let loads: Vec<_> = app.functions().iter()
///     .map(|_| FunctionLoad::constant(10.0, SimDuration::from_secs(10)))
///     .collect();
/// let workload = Workload::build(&loads, 1);
/// let report = Torpor::new(ClusterSpec::testbed(), app.functions().to_vec(), 1)
///     .run(&workload);
/// assert!(report.swap_launches > 0);
/// ```
#[derive(Debug)]
pub struct Torpor(pub(crate) OpenFaasPlus);

impl Torpor {
    /// Builds the platform with the OpenFaaS+ defaults and swap-in
    /// launches.
    pub fn new(cluster: ClusterSpec, functions: Vec<FunctionInfo>, seed: u64) -> Self {
        let config = OpenFaasConfig {
            startup: StartupKind::SwapIn,
            ..OpenFaasConfig::default()
        };
        Torpor(OpenFaasPlus::with_config(cluster, functions, config, seed))
    }

    /// As [`OpenFaasPlus::with_fault_schedule`].
    pub fn with_fault_schedule(self, faults: FaultSchedule) -> Self {
        Torpor(self.0.with_fault_schedule(faults))
    }

    /// As [`OpenFaasPlus::with_telemetry`].
    pub fn with_telemetry(self, sink: Box<dyn infless_telemetry::TelemetrySink>) -> Self {
        Torpor(self.0.with_telemetry(sink))
    }

    /// As [`OpenFaasPlus::run`].
    pub fn run(self, workload: &Workload) -> RunReport {
        self.0.run(workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infless_core::apps::Application;
    use infless_faults::FaultPlan;
    use infless_workload::FunctionLoad;

    fn workload(rps: f64, secs: u64) -> (Application, Workload) {
        let app = Application::qa_robot();
        let loads: Vec<FunctionLoad> = app
            .functions()
            .iter()
            .map(|_| FunctionLoad::constant(rps, SimDuration::from_secs(secs)))
            .collect();
        let w = Workload::build(&loads, 5);
        (app, w)
    }

    fn run(rps: f64, secs: u64) -> RunReport {
        let (app, w) = workload(rps, secs);
        OpenFaasPlus::new(ClusterSpec::testbed(), app.functions().to_vec(), 5).run(&w)
    }

    fn run_torpor(rps: f64, secs: u64) -> RunReport {
        let (app, w) = workload(rps, secs);
        Torpor::new(ClusterSpec::testbed(), app.functions().to_vec(), 5).run(&w)
    }

    #[test]
    fn serves_requests_one_to_one() {
        let report = run(20.0, 30);
        assert!(report.total_completed() > 0);
        // Everything executes at batchsize 1.
        for f in &report.functions {
            assert!(f.per_batch_completed.keys().all(|b| *b == 1));
        }
    }

    #[test]
    fn spawns_many_instances() {
        // One-to-one mapping creates far more instances than requests
        // strictly need (Observation #4).
        let report = run(50.0, 30);
        assert!(
            report.launches > 20,
            "expected instance sprawl, got {} launches",
            report.launches
        );
    }

    #[test]
    fn fixed_keepalive_retires_nothing_in_short_runs() {
        let report = run(20.0, 30);
        assert_eq!(
            report.retirements, 0,
            "300s keep-alive cannot expire within a 30s run"
        );
    }

    #[test]
    fn drops_when_cluster_exhausted() {
        let app = Application::qa_robot();
        let loads: Vec<FunctionLoad> = app
            .functions()
            .iter()
            .map(|_| FunctionLoad::constant(500.0, SimDuration::from_secs(10)))
            .collect();
        let workload = Workload::build(&loads, 5);
        let tiny = ClusterSpec {
            servers: 1,
            cores_per_server: 4,
            gpus_per_server: 1,
            mem_per_server_mb: 128.0 * 1024.0,
            gpu_mem_per_device_mb: 0.0,
        };
        let report = OpenFaasPlus::new(tiny, app.functions().to_vec(), 5).run(&workload);
        assert!(report.total_dropped() > 0);
    }

    #[test]
    fn deterministic() {
        let a = run(15.0, 20);
        let b = run(15.0, 20);
        assert_eq!(a.total_completed(), b.total_completed());
        assert_eq!(a.launches, b.launches);
    }

    #[test]
    fn every_launch_is_a_swap_in() {
        let report = run_torpor(20.0, 30);
        assert!(report.total_completed() > 0);
        assert!(report.swap_launches > 0);
        assert_eq!(report.cold_launches, 0, "Torpor never boots from disk");
        assert_eq!(report.swap_launches, report.launches);
    }

    #[test]
    fn swap_starts_beat_openfaas_cold_starts() {
        let (app, w) = workload(20.0, 30);
        let torpor = Torpor::new(ClusterSpec::testbed(), app.functions().to_vec(), 5).run(&w);
        let ofp = OpenFaasPlus::new(ClusterSpec::testbed(), app.functions().to_vec(), 5).run(&w);
        assert!(torpor.functions[0].cold_ms.count() > 0);
        assert!(ofp.functions[0].cold_ms.count() > 0);
        let t_cold = torpor.functions[0].cold_ms.mean();
        let o_cold = ofp.functions[0].cold_ms.mean();
        assert!(
            t_cold < o_cold / 2.0,
            "swap-in start ({t_cold:.0} ms) should be far below boot ({o_cold:.0} ms)"
        );
    }

    #[test]
    fn swap_recovery_beats_boot_recovery_under_faults() {
        // Bursty load keeps the reactive fleets launching after the
        // sweep's crashes, so the recapacity probes actually credit;
        // identical seeds on both systems make the gap a pure
        // swap-vs-boot recovery gap.
        use infless_workload::TracePattern;
        let app = Application::qa_robot();
        let dur = SimDuration::from_mins(3);
        let loads: Vec<FunctionLoad> = app
            .functions()
            .iter()
            .map(|_| FunctionLoad::trace(TracePattern::Bursty, 80.0, dur, 42))
            .collect();
        let w = Workload::build(&loads, 42);
        let schedule = || {
            FaultSchedule::generate(
                &FaultPlan::sweep(4.0),
                ClusterSpec::testbed().servers,
                dur,
                9,
            )
        };
        let torpor = Torpor::new(ClusterSpec::testbed(), app.functions().to_vec(), 5)
            .with_fault_schedule(schedule())
            .run(&w);
        let ofp = OpenFaasPlus::new(ClusterSpec::testbed(), app.functions().to_vec(), 5)
            .with_fault_schedule(schedule())
            .run(&w);
        let t = torpor.failures.mean_time_to_recapacity_ms();
        let o = ofp.failures.mean_time_to_recapacity_ms();
        assert!(t.is_some(), "no recapacity samples on the Torpor run");
        assert!(
            t.unwrap() < o.unwrap_or(f64::MAX) / 2.0,
            "swap recovery ({t:?} ms) should clearly beat boot recovery ({o:?} ms)"
        );
    }

    #[test]
    fn torpor_is_deterministic() {
        let a = run_torpor(15.0, 20);
        let b = run_torpor(15.0, 20);
        assert_eq!(a.total_completed(), b.total_completed());
        assert_eq!(a.launches, b.launches);
        assert_eq!(a.swap_launches, b.swap_launches);
    }
}
