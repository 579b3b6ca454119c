//! The four benchmark workloads: how each one's inputs are generated
//! from the workload seed, how its platform is built, and how one
//! measured repetition runs.
//!
//! Every workload is open loop in simulated time: arrivals come from a
//! pre-generated [`Workload`] schedule whatever the platform does, so a
//! backlog delays later requests instead of slowing the generator.

use std::sync::Arc;
use std::time::Instant;

use infless_baselines::{BatchPlatform, OpenFaasPlus, Torpor};
use infless_cluster::ClusterSpec;
use infless_core::apps::Application;
use infless_core::engine::FunctionInfo;
use infless_core::metrics::RunReport;
use infless_core::platform::{InflessConfig, InflessPlatform, ScalePolicy};
use infless_core::residency::ResidencyConfig;
use infless_core::ShardedInfless;
use infless_faults::{FaultPlan, FaultSchedule};
use infless_llm::{LlmClass, LlmConfig};
use infless_models::profile::ConfigGrid;
use infless_models::{CacheOutcome, HardwareModel, ModelId, ModelSpec, ProfileDatabase};
use infless_sim::rng::derive_seed;
use infless_sim::SimDuration;
use infless_telemetry::TelemetrySink;
use infless_workload::{FunctionLoad, RateSeries, TracePattern, Workload};

use crate::layers::DecisionTally;
use crate::spans::Spans;

/// The platform's own seed (engine noise, COP profiling). Fixed, so
/// every workload seed shares one COP database.
pub const PLATFORM_SEED: u64 = 11;

/// Seed of the parts that define a workload rather than sample it: the
/// trace patterns' rate curves and the fault script. The workload seed
/// draws the Poisson arrival instants from those fixed curves.
pub const SCENARIO_SEED: u64 = 42;

/// Shard count of the `fleet_sharded` workload (at most the host's two
/// cores).
pub const FLEET_SHARDS: usize = 2;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// OSVT on the Table 2 testbed at a constant Poisson rate, default
    /// eager loop: the data plane does nearly all the work.
    SteadyOneshot,
    /// Every feature composed (trace-shaped one-shot functions, LLM
    /// chat and summarize, residency tier, faults, vertical-first):
    /// the control plane does most of the work.
    BurstyControl,
    /// The epoch-barrier sharded runner at S = 2 on a 200-server fleet.
    FleetSharded,
    /// OpenFaaS+, BATCH and Torpor one after another on OSVT.
    BaselinesOneshot,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::SteadyOneshot,
        Kind::BurstyControl,
        Kind::FleetSharded,
        Kind::BaselinesOneshot,
    ];

    /// Independent sub-workloads one run simulates (each with its own
    /// arrival sample), pooled so one run's simulated metrics rest on
    /// more than one draw.
    pub fn sub_workloads(self) -> usize {
        match self {
            Kind::SteadyOneshot => 24,
            Kind::BurstyControl => 12,
            Kind::FleetSharded => 8,
            Kind::BaselinesOneshot => 4,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SteadyOneshot => "steady_oneshot",
            Kind::BurstyControl => "bursty_control",
            Kind::FleetSharded => "fleet_sharded",
            Kind::BaselinesOneshot => "baselines_oneshot",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Everything a workload's platform is built from, generated from the
/// workload seed before any platform exists.
pub struct Inputs {
    /// Which workload these are.
    pub kind: Kind,
    /// The cluster.
    pub cluster: ClusterSpec,
    /// The deployed functions.
    pub functions: Vec<FunctionInfo>,
    /// The arrival schedule.
    pub workload: Workload,
    /// Injected faults (empty unless `bursty_control`).
    pub faults: FaultSchedule,
    /// INFless knobs (unused by `baselines_oneshot`).
    pub config: InflessConfig,
}

/// Simulated length of each `bursty_control` sub-workload, seconds.
const BURSTY_SECS: u64 = 900;

/// Poisson arrivals at a constant mean rate.
fn steady(rps: f64, secs: u64) -> FunctionLoad {
    FunctionLoad::poisson(RateSeries::constant(rps, SimDuration::from_secs(secs)))
}

impl Inputs {
    /// Generates every sub-workload's inputs for workload seed `seed`.
    pub fn generate_all(kind: Kind, seed: u64, spans: &mut Spans) -> Vec<Inputs> {
        (0..kind.sub_workloads())
            .map(|k| Inputs::generate(kind, derive_seed(seed, &format!("perfbench/sub{k}")), spans))
            .collect()
    }

    /// Generates one sub-workload's inputs from its arrival seed,
    /// recording the `workload.build_s` span around [`Workload::build`].
    pub fn generate(kind: Kind, seed: u64, spans: &mut Spans) -> Inputs {
        let mut config = InflessConfig::default();
        let mut plan = FaultPlan::none();
        let (cluster, functions, loads, secs) = match kind {
            Kind::SteadyOneshot => {
                let app = Application::osvt();
                let loads = app.functions().iter().map(|_| steady(8_000.0, 8)).collect();
                (ClusterSpec::testbed(), app.functions().to_vec(), loads, 8)
            }
            Kind::BurstyControl => {
                config.residency = ResidencyConfig::enabled();
                config.llm = LlmConfig::continuous();
                config.scale_policy = ScalePolicy::VerticalFirst;
                plan = FaultPlan::sweep(1.0);
                let secs = SimDuration::from_secs(BURSTY_SECS);
                let one_shot = |id: ModelId, slo_ms: u64| {
                    FunctionInfo::new(id.spec(), SimDuration::from_millis(slo_ms))
                };
                let functions = vec![
                    one_shot(ModelId::ResNet50, 200),
                    one_shot(ModelId::MobileNet, 200),
                    one_shot(ModelId::Ssd, 300),
                    one_shot(ModelId::Dssm2389, 100),
                    FunctionInfo::new(ModelId::BertV1.spec(), SimDuration::from_secs(4))
                        .with_llm(LlmClass::chat()),
                    FunctionInfo::new(ModelId::BertV1.spec(), SimDuration::from_secs(60))
                        .with_llm(LlmClass::summarize()),
                ];
                let trace = |i: u64, pattern: TracePattern, rps: f64| {
                    FunctionLoad::trace(pattern, rps, secs, SCENARIO_SEED + i)
                };
                let loads = vec![
                    trace(0, TracePattern::Bursty, 150.0),
                    trace(1, TracePattern::Periodic, 90.0),
                    trace(2, TracePattern::Diurnal, 60.0),
                    trace(3, TracePattern::Sporadic, 30.0),
                    trace(4, TracePattern::Bursty, 12.0),
                    FunctionLoad::poisson(RateSeries::constant(2.0, secs)),
                ];
                (ClusterSpec::testbed(), functions, loads, BURSTY_SECS)
            }
            Kind::FleetSharded => {
                let app = Application::synthetic(8);
                let loads = app
                    .functions()
                    .iter()
                    .map(|_| steady(2_500.0, 20))
                    .collect();
                (ClusterSpec::large(200), app.functions().to_vec(), loads, 20)
            }
            Kind::BaselinesOneshot => {
                let app = Application::osvt();
                let loads = app.functions().iter().map(|_| steady(500.0, 30)).collect();
                (ClusterSpec::testbed(), app.functions().to_vec(), loads, 30)
            }
        };
        let workload = spans.time("workload.build_s", || Workload::build(&loads, seed));
        let faults = if plan.is_empty() {
            FaultSchedule::empty()
        } else {
            let horizon = SimDuration::from_secs(secs);
            FaultSchedule::generate(&plan, cluster.servers, horizon, SCENARIO_SEED)
        };
        Inputs {
            kind,
            cluster,
            functions,
            workload,
            faults,
            config,
        }
    }

    /// Arrivals per declared function.
    pub fn arrivals_per_function(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.functions.len()];
        for &(_, f) in self.workload.arrivals() {
            counts[f] += 1;
        }
        counts
    }

    /// Acquires the COP profile database the platforms will use, under
    /// the `models.profile_db_s` span. Later lookups of the same key in
    /// this process are in-memory hits.
    pub fn acquire_profile_db(&self, spans: &mut Spans) -> (Arc<ProfileDatabase>, CacheOutcome) {
        let hardware = HardwareModel::new(self.config.hardware);
        let specs: Vec<ModelSpec> = self.functions.iter().map(|f| f.spec().clone()).collect();
        spans.time("models.profile_db_s", || {
            ProfileDatabase::cached_with_outcome(
                &hardware,
                &specs,
                &ConfigGrid::standard(),
                PLATFORM_SEED,
            )
        })
    }

    /// Builds the workload's platform(s) under the
    /// `core.platform_new_s` span. `tally` (decision tracing) attaches
    /// to every eager platform; the sharded runner takes none.
    pub fn build(&self, spans: &mut Spans, tally: Option<&DecisionTally>) -> Prepared {
        spans.time("core.platform_new_s", || self.build_untimed(tally))
    }

    fn build_untimed(&self, tally: Option<&DecisionTally>) -> Prepared {
        let sink = || -> Box<dyn TelemetrySink> {
            Box::new(tally.expect("called only with a tally").clone())
        };
        match self.kind {
            Kind::SteadyOneshot | Kind::BurstyControl => {
                let mut p = self.eager_platform();
                if tally.is_some() {
                    p = p.with_telemetry(sink());
                }
                Prepared::Eager(Box::new(p))
            }
            Kind::FleetSharded => Prepared::Sharded(Box::new(self.sharded())),
            Kind::BaselinesOneshot => {
                let (cluster, functions) = (self.cluster, || self.functions.clone());
                let mut o = OpenFaasPlus::new(cluster, functions(), PLATFORM_SEED);
                let mut b = BatchPlatform::new(cluster, functions(), PLATFORM_SEED);
                let mut t = Torpor::new(cluster, functions(), PLATFORM_SEED);
                if tally.is_some() {
                    o = o.with_telemetry(sink());
                    b = b.with_telemetry(sink());
                    t = t.with_telemetry(sink());
                }
                Prepared::Baselines(Box::new((o, b, t)))
            }
        }
    }

    /// The epoch-barrier sharded runner over these inputs.
    pub fn sharded(&self) -> ShardedInfless {
        ShardedInfless::new(
            self.cluster,
            self.functions.clone(),
            self.config,
            PLATFORM_SEED,
        )
        .with_fault_schedule(self.faults.clone())
    }

    /// An INFless platform on the default eager loop over these inputs.
    pub fn eager_platform(&self) -> InflessPlatform {
        InflessPlatform::new(
            self.cluster,
            self.functions.clone(),
            self.config,
            PLATFORM_SEED,
        )
        .with_fault_schedule(self.faults.clone())
    }
}

/// A built, ready-to-run workload platform.
pub enum Prepared {
    /// One INFless platform on the default eager loop.
    Eager(Box<InflessPlatform>),
    /// The epoch-barrier sharded runner.
    Sharded(Box<ShardedInfless>),
    /// OpenFaaS+, BATCH and Torpor, run in that order.
    Baselines(Box<(OpenFaasPlus, BatchPlatform, Torpor)>),
}

/// One measured repetition.
pub struct RunOutput {
    /// One report per system run (three for `baselines_oneshot`).
    pub reports: Vec<RunReport>,
    /// Host seconds of each system run, in order.
    pub run_s: Vec<f64>,
}

impl RunOutput {
    /// Host seconds of the whole repetition (setup excluded).
    pub fn total_s(&self) -> f64 {
        self.run_s.iter().sum()
    }
}

fn timed(f: impl FnOnce() -> RunReport) -> (RunReport, f64) {
    let t0 = Instant::now();
    let report = f();
    (report, t0.elapsed().as_secs_f64())
}

impl Prepared {
    /// Runs the platform(s) over `workload` (sharded runs use `shards`).
    pub fn run(self, workload: &Workload, shards: usize) -> RunOutput {
        let runs: Vec<(RunReport, f64)> = match self {
            Prepared::Eager(p) => vec![timed(|| p.run(workload))],
            Prepared::Sharded(s) => vec![timed(|| s.run(workload, shards))],
            Prepared::Baselines(trio) => {
                let (o, b, t) = *trio;
                vec![
                    timed(|| o.run(workload)),
                    timed(|| b.run(workload)),
                    timed(|| t.run(workload)),
                ]
            }
        };
        let (reports, run_s) = runs.into_iter().unzip();
        RunOutput { reports, run_s }
    }
}
