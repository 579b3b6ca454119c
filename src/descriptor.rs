//! Deployment descriptors: the paper's Fig. 5 function template, as a
//! JSON scenario file.
//!
//! INFless accepts inference deployments declaratively — function name,
//! model, latency SLO and batchsize cap (`faas-cli` parses the YAML in
//! the original). This module provides the equivalent for the
//! reproduction: a [`Scenario`] describing the cluster, the platform,
//! the deployed functions with their loads, and optional function
//! chains. `cargo run --bin inflessctl -- scenarios/osvt.json` runs one
//! end to end.
//!
//! # Example
//!
//! ```
//! use infless::descriptor::Scenario;
//! use infless::RunConfig;
//!
//! let json = r#"{
//!   "platform": "infless",
//!   "seed": 7,
//!   "cluster": { "servers": 2 },
//!   "functions": [
//!     { "name": "detector", "model": "SSD", "slo_ms": 200,
//!       "load": { "kind": "constant", "rps": 20.0, "duration_secs": 10 } }
//!   ]
//! }"#;
//! let scenario = Scenario::from_json(json)?;
//! let report = scenario.execute(RunConfig::new())?;
//! assert!(report.total_completed() > 0);
//! # Ok::<(), infless::descriptor::ScenarioError>(())
//! ```
//!
//! Shards, telemetry sinks, fault schedules and residency overrides
//! all ride in the [`RunConfig`] — `RunConfig::new().shards(4)`
//! replays the same scenario through the epoch-barrier sharded engine,
//! byte-identically.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use serde::Deserialize;

use infless_baselines::{execute, Deployment, ExecuteError, System};
use infless_cluster::ClusterSpec;
use infless_core::chains::ChainSpec;
use infless_core::engine::FunctionInfo;
use infless_core::metrics::RunReport;
use infless_core::platform::{ColdStartConfig, InflessConfig, ScalePolicy};
use infless_core::residency::ResidencyConfig;
use infless_core::runconfig::RunConfig;
use infless_faults::{FaultPlan, FaultSchedule};
use infless_llm::{LlmClass, LlmConfig};
use infless_models::ModelId;
use infless_sim::SimDuration;
use infless_workload::{FunctionLoad, TracePattern, Workload};

/// Which platform serves the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum PlatformKind {
    /// The paper's system.
    Infless,
    /// The one-to-one baseline.
    Openfaas,
    /// The OTP batching baseline.
    Batch,
}

impl PlatformKind {
    /// The system this platform name selects.
    pub fn system(self) -> System {
        match self {
            PlatformKind::Infless => System::Infless,
            PlatformKind::Openfaas => System::OpenFaasPlus,
            PlatformKind::Batch => System::Batch,
        }
    }
}

/// Cluster shape (defaults to the Table 2 testbed).
#[derive(Debug, Clone, Copy, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ClusterDescriptor {
    /// Number of servers.
    pub servers: usize,
    /// CPU threads per server.
    pub cores_per_server: u32,
    /// GPUs per server.
    pub gpus_per_server: usize,
    /// Memory per server, MB.
    pub mem_per_server_mb: f64,
    /// Device memory per GPU, MB (0 = hardware default).
    pub gpu_mem_per_device_mb: f64,
}

impl Default for ClusterDescriptor {
    fn default() -> Self {
        let t = ClusterSpec::testbed();
        ClusterDescriptor {
            servers: t.servers,
            cores_per_server: t.cores_per_server,
            gpus_per_server: t.gpus_per_server,
            mem_per_server_mb: t.mem_per_server_mb,
            gpu_mem_per_device_mb: t.gpu_mem_per_device_mb,
        }
    }
}

impl ClusterDescriptor {
    fn to_spec(self) -> ClusterSpec {
        ClusterSpec {
            servers: self.servers,
            cores_per_server: self.cores_per_server,
            gpus_per_server: self.gpus_per_server,
            mem_per_server_mb: self.mem_per_server_mb,
            gpu_mem_per_device_mb: self.gpu_mem_per_device_mb,
        }
    }
}

/// The load offered to one function.
#[derive(Debug, Clone, Deserialize)]
#[serde(tag = "kind", rename_all = "lowercase", deny_unknown_fields)]
pub enum LoadDescriptor {
    /// Evenly-spaced arrivals.
    Constant {
        /// Requests per second.
        rps: f64,
        /// Load duration in seconds.
        duration_secs: u64,
    },
    /// A synthetic production-trace pattern (Poisson arrivals).
    Trace {
        /// `sporadic` / `periodic` / `bursty` / `diurnal`.
        pattern: String,
        /// Time-average RPS.
        mean_rps: f64,
        /// Load duration in seconds.
        duration_secs: u64,
    },
    /// A row of an Azure-format invocation CSV, replayed as Poisson
    /// arrivals per minute.
    Csv {
        /// Path to the trace file (relative to the working directory).
        path: String,
        /// The row's function identifier.
        function: String,
    },
    /// No external load (chain-interior stages).
    None,
}

/// The autoregressive class of one function, by workload archetype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum LlmClassKind {
    /// Interactive chat: short prompts/outputs, tight TTFT and TPOT.
    Chat,
    /// Batch summarization: long prompts/outputs, loose per-token
    /// targets (the end-to-end SLO dominates).
    Summarize,
}

impl LlmClassKind {
    fn to_class(self) -> LlmClass {
        match self {
            LlmClassKind::Chat => LlmClass::chat(),
            LlmClassKind::Summarize => LlmClass::summarize(),
        }
    }
}

/// One deployed function (the Fig. 5 template).
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FunctionDescriptor {
    /// The function's name (referenced by chains).
    pub name: String,
    /// Model name from the zoo (case/separator-insensitive).
    pub model: String,
    /// Latency SLO in milliseconds.
    pub slo_ms: u64,
    /// Optional batchsize cap (`maxBatchsize`).
    #[serde(default)]
    pub max_batch: Option<u32>,
    /// Optional autoregressive class (`chat` / `summarize`). Requires
    /// the scenario's `llm` block to be enabled; omitted means the
    /// function serves one-shot inference.
    #[serde(default)]
    pub llm_class: Option<LlmClassKind>,
    /// The offered load.
    pub load: LoadDescriptor,
}

/// A function chain (the §7 extension).
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChainDescriptor {
    /// The chain's name.
    pub name: String,
    /// Stage function names, in order.
    pub stages: Vec<String>,
    /// End-to-end SLO in milliseconds.
    pub e2e_slo_ms: u64,
}

/// A complete, runnable scenario.
#[derive(Debug, Clone, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Scenario {
    /// The platform to run (`infless` / `openfaas` / `batch`).
    pub platform: PlatformKind,
    /// Run seed (all randomness derives from it).
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Cluster shape (Table 2 testbed by default).
    #[serde(default)]
    pub cluster: ClusterDescriptor,
    /// The deployed functions.
    pub functions: Vec<FunctionDescriptor>,
    /// Function chains (INFless platform only).
    #[serde(default)]
    pub chains: Vec<ChainDescriptor>,
    /// Optional fault-injection plan (per-hour rates for server
    /// crashes, instance kills, cold-start failures and stragglers).
    /// Omitted or all-zero means a healthy cluster.
    #[serde(default)]
    pub faults: Option<FaultPlan>,
    /// GPU memory-tier knobs (INFless platform only). Omitted means
    /// disabled — the run stays bit-identical to the pre-tier engine.
    #[serde(default)]
    pub residency: ResidencyConfig,
    /// Autoregressive (LLM) serving knobs. Omitted means disabled —
    /// the run stays bit-identical to the pre-LLM engine.
    #[serde(default)]
    pub llm: LlmConfig,
    /// Residual-coverage scaling policy (`horizontal` /
    /// `vertical-first`). Omitted means `horizontal` — launch-only,
    /// bit-identical to the pre-resize engine.
    #[serde(default)]
    pub policy: ScalePolicy,
}

/// The most requests one function's load may offer: the simulator
/// holds every arrival in memory (16 bytes each).
const MAX_ARRIVALS_PER_FUNCTION: f64 = 1e8;

fn default_seed() -> u64 {
    42
}

/// Everything a platform run needs, built once from the descriptor.
struct ScenarioParts {
    functions: Vec<FunctionInfo>,
    workload: Workload,
    chains: Vec<ChainSpec>,
    cluster: ClusterSpec,
    schedule: FaultSchedule,
}

/// Errors building or running a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// The scenario (or a trace it loads) could not be read.
    Io(std::io::Error),
    /// An output artifact could not be written.
    Output {
        /// The artifact's path.
        path: PathBuf,
        /// Why the write failed.
        source: std::io::Error,
    },
    /// JSON was malformed.
    Json(serde_json::Error),
    /// The scenario was semantically invalid.
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Io(e) => write!(f, "failed to read scenario: {e}"),
            ScenarioError::Output { path, source } => {
                write!(f, "failed to write {}: {source}", path.display())
            }
            ScenarioError::Json(e) => write!(f, "failed to parse scenario: {e}"),
            ScenarioError::Invalid(m) => write!(f, "invalid scenario: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Io(e) | ScenarioError::Output { source: e, .. } => Some(e),
            ScenarioError::Json(e) => Some(e),
            ScenarioError::Invalid(_) => None,
        }
    }
}

impl From<std::io::Error> for ScenarioError {
    fn from(e: std::io::Error) -> Self {
        ScenarioError::Io(e)
    }
}

impl From<ExecuteError> for ScenarioError {
    fn from(e: ExecuteError) -> Self {
        match e {
            ExecuteError::Invalid(m) => ScenarioError::Invalid(m),
            ExecuteError::Output { path, source } => ScenarioError::Output { path, source },
        }
    }
}

impl From<serde_json::Error> for ScenarioError {
    fn from(e: serde_json::Error) -> Self {
        ScenarioError::Json(e)
    }
}

impl Scenario {
    /// Parses a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Json`] on malformed JSON and
    /// [`ScenarioError::Invalid`] on semantic problems (unknown model,
    /// unknown chain stage, …).
    pub fn from_json(json: &str) -> Result<Self, ScenarioError> {
        let scenario: Scenario = serde_json::from_str(json)?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Loads a scenario from a file.
    ///
    /// # Errors
    ///
    /// As [`Scenario::from_json`], plus I/O errors.
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, ScenarioError> {
        Self::from_json(&fs::read_to_string(path)?)
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        let invalid = |m: String| Err(ScenarioError::Invalid(m));
        if self.functions.is_empty() {
            return invalid("no functions declared".into());
        }
        let c = &self.cluster;
        if c.servers == 0 || c.cores_per_server == 0 {
            return invalid("the cluster needs at least one server with one core".into());
        }
        if !(c.mem_per_server_mb > 0.0 && c.mem_per_server_mb.is_finite()) {
            return invalid("mem_per_server_mb must be positive".into());
        }
        for f in &self.functions {
            f.model
                .parse::<ModelId>()
                .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
            if f.slo_ms == 0 {
                return invalid(format!("function {:?} has a zero SLO", f.name));
            }
            if f.max_batch == Some(0) {
                return invalid(format!("function {:?} has a zero max_batch", f.name));
            }
            if let LoadDescriptor::Constant { rps, duration_secs }
            | LoadDescriptor::Trace {
                mean_rps: rps,
                duration_secs,
                ..
            } = &f.load
            {
                if !(rps.is_finite() && *rps >= 0.0) || *duration_secs == 0 {
                    return invalid(format!(
                        "function {:?} needs a finite, non-negative rate over a positive duration",
                        f.name
                    ));
                }
                if rps * *duration_secs as f64 > MAX_ARRIVALS_PER_FUNCTION {
                    return invalid(format!(
                        "function {:?} offers more than {MAX_ARRIVALS_PER_FUNCTION:e} requests",
                        f.name
                    ));
                }
            }
            if let LoadDescriptor::Trace { pattern, .. } = &f.load {
                parse_pattern(pattern)?;
            }
            if f.llm_class.is_some() && !self.llm.enabled {
                return Err(ScenarioError::Invalid(format!(
                    "function {:?} declares an llm_class but the scenario's \
                     llm block is disabled",
                    f.name
                )));
            }
        }
        for c in &self.chains {
            if self.platform != PlatformKind::Infless {
                return Err(ScenarioError::Invalid(
                    "function chains require the INFless platform".into(),
                ));
            }
            for stage in &c.stages {
                if !self.functions.iter().any(|f| &f.name == stage) {
                    return Err(ScenarioError::Invalid(format!(
                        "chain {:?} references unknown function {stage:?}",
                        c.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Builds the function table, chains and workload and runs the
    /// chosen platform through [`infless_baselines::execute()`].
    ///
    /// The [`RunConfig`] carries everything that varies a run of the
    /// same descriptor: shard count (an explicit count — even 1 —
    /// drives the INFless platform through the epoch-barrier sharded
    /// engine, byte-identically for every shard count), a telemetry
    /// sink (attaching [`infless_telemetry::NullSink`] is bit-identical
    /// to attaching none), an explicit fault schedule (overrides the
    /// descriptor's `faults` plan when set), and residency, LLM and
    /// scale-policy overrides (each beats the descriptor's own block).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if a CSV load cannot be read or a
    /// referenced row is missing; [`ScenarioError::Invalid`] when
    /// `config` fails [`RunConfig::validate`] or requests a sharded
    /// run for a baseline platform (only the INFless engine is
    /// sharded).
    pub fn execute(&self, config: RunConfig) -> Result<RunReport, ScenarioError> {
        let llm = config.llm.unwrap_or(self.llm);
        let parts = self.build_parts(llm)?;
        let deployment = Deployment {
            cluster: parts.cluster,
            functions: parts.functions,
            chains: parts.chains,
            workload: &parts.workload,
            seed: self.seed,
            infless: InflessConfig {
                coldstart: ColdStartConfig::Lsth { gamma: 0.5 },
                residency: self.residency,
                llm,
                scale_policy: self.policy,
                ..InflessConfig::default()
            },
        };
        let config = if config.fault_schedule.is_some() {
            config
        } else {
            config.fault_schedule(parts.schedule)
        };
        Ok(execute(self.platform.system(), deployment, config)?)
    }

    /// Builds everything a platform needs from the descriptor: the
    /// function table, the workload, the chains, the cluster spec and
    /// the fault schedule.
    fn build_parts(&self, llm: LlmConfig) -> Result<ScenarioParts, ScenarioError> {
        let functions: Vec<FunctionInfo> = self
            .functions
            .iter()
            .map(|f| {
                let id: ModelId = f.model.parse().expect("validated");
                let slo = SimDuration::from_millis(f.slo_ms);
                let info = match f.max_batch {
                    Some(cap) => FunctionInfo::with_max_batch(id.spec(), slo, cap),
                    None => FunctionInfo::new(id.spec(), slo),
                };
                // Classes attach only when the effective llm block is
                // enabled, so a disabled run is the pre-LLM engine.
                match f.llm_class {
                    Some(kind) if llm.enabled => info.with_llm(kind.to_class()),
                    _ => info,
                }
            })
            .collect();

        let loads: Result<Vec<FunctionLoad>, ScenarioError> = self
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| self.build_load(i, f))
            .collect();
        let workload = Workload::build(&loads?, self.seed);

        let chains: Vec<ChainSpec> = self
            .chains
            .iter()
            .map(|c| {
                let stages = c
                    .stages
                    .iter()
                    .map(|name| {
                        self.functions
                            .iter()
                            .position(|f| &f.name == name)
                            .expect("validated")
                    })
                    .collect();
                ChainSpec::new(
                    c.name.clone(),
                    stages,
                    SimDuration::from_millis(c.e2e_slo_ms),
                )
            })
            .collect();

        let cluster = self.cluster.to_spec();
        // One schedule per scenario: every platform run from the same
        // file faces the identical fault sequence.
        let schedule = match &self.faults {
            Some(plan) => {
                let horizon = workload
                    .end_time()
                    .saturating_since(infless_sim::SimTime::ZERO);
                FaultSchedule::generate(plan, cluster.servers, horizon, self.seed)
            }
            None => FaultSchedule::empty(),
        };
        Ok(ScenarioParts {
            functions,
            workload,
            chains,
            cluster,
            schedule,
        })
    }

    fn build_load(
        &self,
        index: usize,
        f: &FunctionDescriptor,
    ) -> Result<FunctionLoad, ScenarioError> {
        match &f.load {
            LoadDescriptor::Constant { rps, duration_secs } => Ok(FunctionLoad::constant(
                *rps,
                SimDuration::from_secs(*duration_secs),
            )),
            LoadDescriptor::Trace {
                pattern,
                mean_rps,
                duration_secs,
            } => Ok(FunctionLoad::trace(
                parse_pattern(pattern).expect("validated"),
                *mean_rps,
                SimDuration::from_secs(*duration_secs),
                self.seed + index as u64,
            )),
            LoadDescriptor::Csv { path, function } => {
                let file = fs::File::open(path)?;
                let rows = infless_workload::read_csv(file)
                    .map_err(|e| ScenarioError::Invalid(e.to_string()))?;
                let row = rows.iter().find(|r| r.name() == function).ok_or_else(|| {
                    ScenarioError::Invalid(format!("trace {path:?} has no row named {function:?}"))
                })?;
                // The same volume cap `validate` puts on rate loads; a
                // trace's volume is only known once its row is read.
                let series = row.to_series();
                if series.expected_requests() > MAX_ARRIVALS_PER_FUNCTION {
                    return Err(ScenarioError::Invalid(format!(
                        "function {:?} offers more than {MAX_ARRIVALS_PER_FUNCTION:e} requests \
                         (trace {path:?}, row {function:?})",
                        f.name
                    )));
                }
                Ok(FunctionLoad::poisson(series))
            }
            LoadDescriptor::None => Ok(FunctionLoad::explicit(Vec::new())),
        }
    }
}

fn parse_pattern(name: &str) -> Result<TracePattern, ScenarioError> {
    TracePattern::all()
        .into_iter()
        .find(|p| p.name() == name.to_ascii_lowercase())
        .ok_or_else(|| ScenarioError::Invalid(format!("unknown trace pattern {name:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "platform": "infless",
        "cluster": { "servers": 2 },
        "functions": [
            { "name": "a", "model": "MobileNet", "slo_ms": 100,
              "load": { "kind": "constant", "rps": 15.0, "duration_secs": 10 } }
        ]
    }"#;

    #[test]
    fn minimal_scenario_parses_and_runs() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        assert_eq!(s.seed, 42, "seed defaults");
        assert_eq!(s.cluster.cores_per_server, 32, "cluster fields default");
        assert!(!s.residency.enabled, "residency defaults to disabled");
        let report = s.execute(RunConfig::new()).unwrap();
        assert_eq!(report.total_completed() + report.total_dropped(), 150);
    }

    #[test]
    fn rejects_unknown_model() {
        let bad = MINIMAL.replace("MobileNet", "AlexNet");
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown model"));
    }

    #[test]
    fn rejects_unknown_chain_stage() {
        let json = r#"{
            "platform": "infless",
            "functions": [
                { "name": "a", "model": "SSD", "slo_ms": 200,
                  "load": { "kind": "none" } },
                { "name": "b", "model": "ResNet-50", "slo_ms": 200,
                  "load": { "kind": "none" } }
            ],
            "chains": [ { "name": "c", "stages": ["a", "nope"], "e2e_slo_ms": 400 } ]
        }"#;
        let err = Scenario::from_json(json).unwrap_err();
        assert!(err.to_string().contains("unknown function"));
    }

    #[test]
    fn rejects_chains_on_baselines() {
        let json = r#"{
            "platform": "batch",
            "functions": [
                { "name": "a", "model": "SSD", "slo_ms": 200, "load": { "kind": "none" } },
                { "name": "b", "model": "ResNet-50", "slo_ms": 200, "load": { "kind": "none" } }
            ],
            "chains": [ { "name": "c", "stages": ["a", "b"], "e2e_slo_ms": 400 } ]
        }"#;
        let err = Scenario::from_json(json).unwrap_err();
        assert!(err.to_string().contains("INFless platform"));
    }

    #[test]
    fn rejects_unknown_fields() {
        let json = MINIMAL.replace("\"seed\"", "\"sneed\"");
        let with_extra = json.replace(
            "\"platform\": \"infless\",",
            "\"platform\": \"infless\", \"turbo\": true,",
        );
        assert!(Scenario::from_json(&with_extra).is_err());
    }

    /// Every malformed numeric field is an `Invalid` error, never a
    /// panic or a silent all-violations run.
    fn assert_invalid(json: &str, needle: &str) {
        match Scenario::from_json(json) {
            Err(ScenarioError::Invalid(m)) => assert!(m.contains(needle), "{m}"),
            other => panic!("expected an Invalid error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_negative_rate() {
        assert_invalid(&MINIMAL.replace("15.0", "-1.0"), "non-negative rate");
    }

    #[test]
    fn rejects_zero_max_batch() {
        let json = MINIMAL.replace("\"slo_ms\": 100,", "\"slo_ms\": 100, \"max_batch\": 0,");
        assert_invalid(&json, "zero max_batch");
    }

    #[test]
    fn rejects_zero_cores_per_server() {
        let json = MINIMAL.replace("\"servers\": 2", "\"servers\": 2, \"cores_per_server\": 0");
        assert_invalid(&json, "one core");
    }

    #[test]
    fn rejects_unallocatable_rate() {
        let json = MINIMAL.replace(
            "\"kind\": \"constant\", \"rps\": 15.0",
            "\"kind\": \"trace\", \"pattern\": \"bursty\", \"mean_rps\": 1e300",
        );
        assert_invalid(&json, "more than");
    }

    #[test]
    fn rejects_zero_duration() {
        let json = MINIMAL.replace("\"duration_secs\": 10", "\"duration_secs\": 0");
        assert_invalid(&json, "positive duration");
    }

    #[test]
    fn rejects_zero_memory() {
        let json = MINIMAL.replace("\"servers\": 2", "\"servers\": 2, \"mem_per_server_mb\": 0");
        assert_invalid(&json, "mem_per_server_mb");
    }

    #[test]
    fn rejects_zero_servers() {
        assert_invalid(
            &MINIMAL.replace("\"servers\": 2", "\"servers\": 0"),
            "one server",
        );
    }

    #[test]
    fn chain_scenario_runs_end_to_end() {
        let json = r#"{
            "platform": "infless",
            "seed": 3,
            "cluster": { "servers": 4 },
            "functions": [
                { "name": "detect", "model": "SSD", "slo_ms": 200,
                  "load": { "kind": "constant", "rps": 20.0, "duration_secs": 15 } },
                { "name": "classify", "model": "resnet50", "slo_ms": 200, "max_batch": 8,
                  "load": { "kind": "none" } }
            ],
            "chains": [ { "name": "pipeline", "stages": ["detect", "classify"], "e2e_slo_ms": 450 } ]
        }"#;
        let report = Scenario::from_json(json)
            .unwrap()
            .execute(RunConfig::new())
            .unwrap();
        assert_eq!(report.chains.len(), 1);
        assert!(report.chains[0].completed > 100);
        // The max_batch cap holds: classify never batches beyond 8.
        let classify = &report.functions[1];
        assert!(classify.per_batch_completed.keys().all(|b| *b <= 8));
    }

    #[test]
    fn sharded_run_is_shard_count_invariant() {
        let s = Scenario::from_json(MINIMAL).unwrap();
        let r1 = s.execute(RunConfig::new().shards(1)).unwrap();
        let r3 = s.execute(RunConfig::new().shards(3)).unwrap();
        assert_eq!(r1.canonical_json(), r3.canonical_json());
    }

    #[test]
    fn sharded_run_rejects_baselines_and_bad_configs() {
        // Explicit zero shards is a uniform RunConfig error (the CLI
        // surfaces it before execute is ever reached).
        assert!(infless_core::runconfig::RunConfig::validate_explicit_shards(0).is_err());
        // Sharded + telemetry is rejected by RunConfig::validate.
        let s = Scenario::from_json(MINIMAL).unwrap();
        let cfg = RunConfig::new()
            .shards(2)
            .telemetry(Box::new(infless_telemetry::NullSink));
        assert!(s.execute(cfg).is_err());
        // Only the INFless engine is sharded.
        let batch = MINIMAL.replace("\"infless\"", "\"batch\"");
        let s = Scenario::from_json(&batch).unwrap();
        assert!(s.execute(RunConfig::new().shards(2)).is_err());
    }

    #[test]
    fn residency_block_round_trips_and_rejects_unknown_fields() {
        let json = MINIMAL.replace(
            "\"platform\": \"infless\",",
            "\"platform\": \"infless\", \"residency\": { \"enabled\": true },",
        );
        let s = Scenario::from_json(&json).unwrap();
        assert!(s.residency.enabled);
        assert_eq!(
            s.residency.host_cache_mb,
            infless_core::residency::DEFAULT_HOST_CACHE_MB,
            "omitted knobs take their defaults"
        );
        let report = s.execute(RunConfig::new()).unwrap();
        assert_eq!(report.total_completed() + report.total_dropped(), 150);

        let bad = MINIMAL.replace(
            "\"platform\": \"infless\",",
            "\"platform\": \"infless\", \"residency\": { \"enabld\": true },",
        );
        assert!(Scenario::from_json(&bad).is_err());
    }

    #[test]
    fn policy_field_round_trips_and_rejects_unknown_values() {
        // Omitted means horizontal — the pre-resize engine.
        let plain = Scenario::from_json(MINIMAL).unwrap();
        assert_eq!(plain.policy, ScalePolicy::Horizontal);

        let json = MINIMAL.replace(
            "\"platform\": \"infless\",",
            "\"platform\": \"infless\", \"policy\": \"vertical-first\",",
        );
        let s = Scenario::from_json(&json).unwrap();
        assert_eq!(s.policy, ScalePolicy::VerticalFirst);
        let report = s.execute(RunConfig::new()).unwrap();
        assert_eq!(report.total_completed() + report.total_dropped(), 150);

        // A RunConfig override beats the descriptor's field.
        let report = s
            .execute(RunConfig::new().scale_policy(ScalePolicy::Horizontal))
            .unwrap();
        let baseline = plain.execute(RunConfig::new()).unwrap();
        assert_eq!(report.canonical_json(), baseline.canonical_json());

        let bad = json.replace("vertical-first", "diagonal");
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown scale policy"), "{err}");
    }

    const LLM_MINIMAL: &str = r#"{
        "platform": "infless",
        "cluster": { "servers": 2 },
        "llm": { "enabled": true, "batching": "continuous" },
        "functions": [
            { "name": "chat", "model": "Bert-v1", "slo_ms": 10000, "llm_class": "chat",
              "load": { "kind": "constant", "rps": 5.0, "duration_secs": 10 } }
        ]
    }"#;

    #[test]
    fn llm_block_round_trips_and_rejects_unknown_fields() {
        let s = Scenario::from_json(LLM_MINIMAL).unwrap();
        assert!(s.llm.enabled);
        assert_eq!(s.llm.batching, infless_llm::LlmBatching::Continuous);
        assert_eq!(s.functions[0].llm_class, Some(LlmClassKind::Chat));
        // Omitted block is the disabled default.
        let plain = Scenario::from_json(MINIMAL).unwrap();
        assert!(!plain.llm.enabled);
        assert_eq!(plain.llm.batching, infless_llm::LlmBatching::Static);
        // Unknown fields inside the block are rejected.
        let bad = LLM_MINIMAL.replace("\"enabled\"", "\"enbaled\"");
        assert!(Scenario::from_json(&bad).is_err());
        // Unknown class names are rejected.
        let bad = LLM_MINIMAL.replace("\"chat\",", "\"poetry\",");
        assert!(Scenario::from_json(&bad).is_err());
    }

    #[test]
    fn llm_class_requires_enabled_block() {
        let bad = LLM_MINIMAL.replace(
            "\"llm\": { \"enabled\": true, \"batching\": \"continuous\" },",
            "",
        );
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("llm block is disabled"), "{err}");
    }

    #[test]
    fn llm_scenario_reports_token_metrics() {
        let s = Scenario::from_json(LLM_MINIMAL).unwrap();
        let report = s.execute(RunConfig::new()).unwrap();
        assert!(report.total_completed() > 0);
        let llm = report.functions[0]
            .llm
            .as_ref()
            .expect("LLM stats on an autoregressive function");
        assert_eq!(llm.ttft_ms.count(), report.total_completed());
        assert!(llm.decoded_tokens > 0);
        assert_eq!(
            report.kv_allocated_bytes,
            report.kv_freed_bytes + report.kv_resident_bytes
        );
    }

    #[test]
    fn csv_load_replays_a_trace_row() {
        let dir = std::env::temp_dir().join("infless-descriptor-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        let rows = vec![infless_workload::TraceRow::new("hot", vec![600; 5])];
        let mut buf = Vec::new();
        infless_workload::write_csv(&rows, &mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();

        let json = format!(
            r#"{{
                "platform": "infless",
                "cluster": {{ "servers": 2 }},
                "functions": [
                    {{ "name": "f", "model": "MNIST", "slo_ms": 50,
                       "load": {{ "kind": "csv", "path": {path:?}, "function": "hot" }} }}
                ]
            }}"#
        );
        let report = Scenario::from_json(&json)
            .unwrap()
            .execute(RunConfig::new())
            .unwrap();
        // ~10 rps over 5 minutes.
        let total = report.total_completed() + report.total_dropped();
        assert!((2000..4500).contains(&(total as usize)), "total {total}");
    }

    /// A trace row past the volume cap is an error, not an abort in
    /// the arrival generator's allocation.
    #[test]
    fn csv_load_over_the_volume_cap_is_rejected() {
        let dir = std::env::temp_dir().join("infless-descriptor-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("huge-{}.csv", std::process::id()));
        let rows = vec![infless_workload::TraceRow::new(
            "huge",
            vec![1_000_000_000_000],
        )];
        let mut buf = Vec::new();
        infless_workload::write_csv(&rows, &mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();

        let json = format!(
            r#"{{
                "platform": "infless",
                "cluster": {{ "servers": 2 }},
                "functions": [
                    {{ "name": "f", "model": "MNIST", "slo_ms": 50,
                       "load": {{ "kind": "csv", "path": {path:?}, "function": "huge" }} }}
                ]
            }}"#
        );
        let scenario = Scenario::from_json(&json).unwrap();
        let err = scenario.execute(RunConfig::new()).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, ScenarioError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("more than"), "{err}");
    }
}
