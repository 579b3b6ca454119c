//! The one execution entry point: [`execute`] runs any [`System`] on a
//! [`Deployment`] under a [`RunConfig`].
//!
//! Bench harnesses ([`System::execute`]), scenario descriptors and
//! tests all come through here, so every run mode honours every knob
//! the same way: shards, fault schedule, telemetry sink, residency,
//! LLM serving, scale policy, and the decision-trace, flight-recorder
//! and metrics artifacts.

use std::fmt;
use std::path::{Path, PathBuf};

use infless_cluster::ClusterSpec;
use infless_core::chains::ChainSpec;
use infless_core::driver::Policy;
use infless_core::engine::FunctionInfo;
use infless_core::metrics::RunReport;
use infless_core::platform::{InflessConfig, InflessPlatform};
use infless_core::runconfig::RunConfig;
use infless_core::sharded::ShardedInfless;
use infless_faults::FaultSchedule;
use infless_llm::LlmConfig;
use infless_telemetry::{
    sort_decisions, write_decision_trace, DecisionBufferSink, DecisionRecord, FlightRecorder,
    GaugeRow, MetricsHandle, MetricsRegistry, NullSink, SpanEvent, TelemetrySink, TraceMeta,
};
use infless_workload::Workload;

use crate::{BatchConfig, BatchPlacement, BatchPlatform, OpenFaasPlus, Torpor};

/// The platforms under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The one-to-one baseline.
    OpenFaasPlus,
    /// The OTP batching baseline.
    Batch,
    /// BATCH with best-fit placement (Fig. 17b).
    BatchRs,
    /// The paper's system.
    Infless,
    /// OpenFaaS+ with swap-in launches from a host-RAM model cache.
    Torpor,
}

impl System {
    /// The Figs. 11/12/15 comparison trio.
    pub fn trio() -> [System; 3] {
        [System::OpenFaasPlus, System::Batch, System::Infless]
    }

    /// The trio plus the Torpor swap baseline — the cold-start and
    /// failure-sweep comparison set.
    pub fn all() -> [System; 4] {
        [
            System::OpenFaasPlus,
            System::Batch,
            System::Torpor,
            System::Infless,
        ]
    }

    /// Display name (also the report's `platform` field).
    pub fn name(self) -> &'static str {
        match self {
            System::OpenFaasPlus => "OpenFaaS+",
            System::Batch => "BATCH",
            System::BatchRs => "BATCH+RS",
            System::Infless => "INFless",
            System::Torpor => "Torpor",
        }
    }

    /// Runs this system with default knobs — shorthand for
    /// [`System::execute`] with a default [`RunConfig`].
    pub fn run(
        self,
        cluster: ClusterSpec,
        functions: &[FunctionInfo],
        workload: &Workload,
        seed: u64,
    ) -> RunReport {
        self.execute(cluster, functions, workload, seed, RunConfig::new())
    }

    /// [`execute`] on a chainless deployment with the default INFless
    /// configuration. A default `config` is the classic single-core,
    /// fault-free, telemetry-free run, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics where [`execute`] returns an error: an invalid `config`,
    /// a sharded run of a baseline, or an artifact that cannot be
    /// written.
    pub fn execute(
        self,
        cluster: ClusterSpec,
        functions: &[FunctionInfo],
        workload: &Workload,
        seed: u64,
        config: RunConfig,
    ) -> RunReport {
        let deployment = Deployment {
            cluster,
            functions: functions.to_vec(),
            chains: Vec::new(),
            workload,
            seed,
            infless: InflessConfig::default(),
        };
        execute(self, deployment, config)
            .unwrap_or_else(|e| panic!("{} run failed: {e}", self.name()))
    }
}

/// What a run deploys, whichever system serves it.
#[derive(Debug, Clone)]
pub struct Deployment<'a> {
    /// Cluster shape.
    pub cluster: ClusterSpec,
    /// The deployed functions.
    pub functions: Vec<FunctionInfo>,
    /// Function chains (INFless only).
    pub chains: Vec<ChainSpec>,
    /// The offered load.
    pub workload: &'a Workload,
    /// Run seed.
    pub seed: u64,
    /// INFless's knobs. The run config's `residency`, `llm` and
    /// `scale_policy` override the matching fields; the baselines read
    /// only the resulting `llm`.
    pub infless: InflessConfig,
}

/// Why [`execute`] refused or failed a run.
#[derive(Debug)]
pub enum ExecuteError {
    /// The run config or deployment is invalid for this system.
    Invalid(String),
    /// The output artifact at `path` could not be written.
    Output {
        /// The artifact's path.
        path: PathBuf,
        /// Why the write failed.
        source: std::io::Error,
    },
}

impl ExecuteError {
    /// Maps a write failure on `path` to [`ExecuteError::Output`].
    fn output(path: &Path) -> impl FnOnce(std::io::Error) -> ExecuteError + '_ {
        move |source| ExecuteError::Output {
            path: path.to_path_buf(),
            source,
        }
    }
}

impl fmt::Display for ExecuteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecuteError::Invalid(m) => f.write_str(m),
            ExecuteError::Output { path, source } => {
                write!(f, "failed to write {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for ExecuteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecuteError::Invalid(_) => None,
            ExecuteError::Output { source, .. } => Some(source),
        }
    }
}

/// Runs `system` on `deployment` under `config` and writes the
/// artifacts `config` asks for.
///
/// An explicit shard count (even 1) drives INFless through the
/// epoch-barrier [`ShardedInfless`] engine; everything else runs on the
/// single-core event loop. The decision trace is written in canonical
/// `(t, function, seq)` order at every shard count.
///
/// # Errors
///
/// [`ExecuteError::Invalid`] when `config` fails
/// [`RunConfig::validate`], when a baseline is asked to shard or to
/// run chains; [`ExecuteError::Output`] when an artifact cannot be
/// written. The flight-recorder dump is created (truncated) before the
/// run starts, so an unwritable path fails here rather than mid-run,
/// and a re-run replaces the previous run's dumps.
pub fn execute(
    system: System,
    deployment: Deployment<'_>,
    config: RunConfig,
) -> Result<RunReport, ExecuteError> {
    config
        .validate()
        .map_err(|e| ExecuteError::Invalid(e.to_string()))?;
    let sharded = config.is_sharded().then(|| config.effective_shards());
    let Deployment {
        cluster,
        functions,
        chains,
        workload,
        seed,
        mut infless,
    } = deployment;
    if system != System::Infless && !chains.is_empty() {
        return Err(ExecuteError::Invalid(
            "function chains require the INFless platform".into(),
        ));
    }
    if let Some(residency) = config.residency {
        infless.residency = residency;
    }
    if let Some(llm) = config.llm {
        infless.llm = llm;
    }
    if let Some(policy) = config.scale_policy {
        infless.scale_policy = policy;
    }
    let schedule = config.fault_schedule.unwrap_or_else(FaultSchedule::empty);
    let metrics = config
        .metrics_out
        .as_ref()
        .map(|_| MetricsRegistry::handle());

    // Every engine announces itself under the system's name.
    let meta = TraceMeta {
        platform: system.name().to_string(),
        functions: functions
            .iter()
            .map(|f| f.spec().name().to_string())
            .collect(),
    };

    let report = if let Some(shards) = sharded {
        if system != System::Infless {
            return Err(ExecuteError::Invalid(
                "sharded execution requires the INFless platform".into(),
            ));
        }
        let mut runner = ShardedInfless::with_chains(cluster, functions, chains, infless, seed)
            .with_fault_schedule(schedule);
        if let Some(handle) = &metrics {
            runner = runner.with_metrics(handle.clone());
        }
        match &config.decisions_out {
            Some(path) => {
                let (report, records) = runner.run_with_decisions(workload, shards);
                write_decision_trace(path, &meta, &records).map_err(ExecuteError::output(path))?;
                report
            }
            None => runner.run(workload, shards),
        }
    } else {
        // The decisions tap buffers every record alongside whatever
        // the user's sink does with them; the flight recorder wraps
        // outermost so its ring sees every span.
        let mut sink = config.telemetry.unwrap_or_else(|| Box::new(NullSink));
        let tap = config
            .decisions_out
            .as_ref()
            .map(|_| DecisionBufferSink::new());
        if let Some(buf) = &tap {
            sink = Box::new(DecisionTap {
                inner: sink,
                buf: buf.clone(),
            });
        }
        if let Some(path) = &config.flight_out {
            std::fs::File::create(path).map_err(ExecuteError::output(path))?;
            sink = Box::new(FlightRecorder::new(sink, path.clone()));
        }
        let kit = Kit {
            sink,
            metrics: metrics.clone(),
            llm: infless.llm,
        };
        let batch_rs = BatchConfig {
            placement: BatchPlacement::BestFit,
            ..BatchConfig::default()
        };
        let report = match system {
            System::Infless => kit
                .fit(InflessPlatform::with_chains(
                    cluster, functions, chains, infless, seed,
                ))
                .with_fault_schedule(schedule)
                .run(workload),
            System::OpenFaasPlus => kit
                .fit(OpenFaasPlus::new(cluster, functions, seed))
                .with_fault_schedule(schedule)
                .run(workload),
            System::Torpor => kit
                .fit(Torpor::new(cluster, functions, seed).0)
                .with_fault_schedule(schedule)
                .run(workload),
            System::Batch => kit
                .fit(BatchPlatform::new(cluster, functions, seed))
                .with_fault_schedule(schedule)
                .run(workload),
            System::BatchRs => kit
                .fit(BatchPlatform::with_config(
                    cluster, functions, batch_rs, seed,
                ))
                .with_fault_schedule(schedule)
                .run(workload),
        };
        if let (Some(buf), Some(path)) = (&tap, &config.decisions_out) {
            let mut records = buf.drain();
            sort_decisions(&mut records);
            write_decision_trace(path, &meta, &records).map_err(ExecuteError::output(path))?;
        }
        report
    };
    if let (Some(handle), Some(path)) = (&metrics, &config.metrics_out) {
        export_metrics(&report, handle, path).map_err(ExecuteError::output(path))?;
    }
    Ok(report)
}

/// The engine-level knobs [`execute`] fits to every single-core
/// platform before it runs.
struct Kit {
    sink: Box<dyn TelemetrySink>,
    metrics: Option<MetricsHandle>,
    llm: LlmConfig,
}

impl Kit {
    fn fit<P: Policy>(self, mut platform: P) -> P {
        let engine = platform.engine();
        engine.set_telemetry(self.sink);
        if let Some(handle) = self.metrics {
            engine.set_metrics(handle);
        }
        // Decode-batching discipline plus device-memory booking for KV
        // arenas; a disabled config changes nothing.
        if self.llm.enabled {
            engine.set_llm_batching(self.llm.batching);
            engine.enable_device_memory();
        }
        platform
    }
}

/// Wraps a run's telemetry sink with a decisions tap: every decision
/// record is buffered (for the decision-trace artifact) *and*
/// forwarded to the inner sink. The tap reports `decisions_enabled`
/// itself but delegates `enabled` — wrapping a [`NullSink`] turns on
/// decision emission without paying for span construction.
#[derive(Debug)]
struct DecisionTap {
    inner: Box<dyn TelemetrySink>,
    buf: DecisionBufferSink,
}

impl TelemetrySink for DecisionTap {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn begin(&mut self, meta: &TraceMeta) {
        self.inner.begin(meta);
    }

    fn record(&mut self, span: SpanEvent) {
        self.inner.record(span);
    }

    fn sample(&mut self, row: &GaugeRow) {
        self.inner.sample(row);
    }

    fn decisions_enabled(&self) -> bool {
        true
    }

    fn record_decision(&mut self, rec: &DecisionRecord) {
        self.buf.record_decision(rec);
        self.inner.record_decision(rec);
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

/// Folds the finished report's totals into the metrics registry as
/// counter families and writes the Prometheus text snapshot.
fn export_metrics(report: &RunReport, handle: &MetricsHandle, path: &Path) -> std::io::Result<()> {
    let mut reg = handle.lock().expect("metrics registry poisoned");
    for f in &report.functions {
        let labels = [("function", f.name.as_str())];
        reg.counter_add(
            "infless_requests_completed_total",
            "Requests completed.",
            &labels,
            f.completed as f64,
        );
        reg.counter_add(
            "infless_requests_dropped_total",
            "Requests dropped at the gateway.",
            &labels,
            f.dropped as f64,
        );
        reg.counter_add(
            "infless_slo_violations_total",
            "Completed requests that exceeded their latency SLO.",
            &labels,
            f.violations as f64,
        );
        reg.counter_add(
            "infless_cold_requests_total",
            "Completed requests that observed a cold start.",
            &labels,
            f.cold_requests as f64,
        );
    }
    for (path_label, count) in [
        ("cold", report.cold_launches),
        ("pre_warmed", report.prewarmed_launches),
        ("swap_in", report.swap_launches),
    ] {
        reg.counter_add(
            "infless_launches_total",
            "Instance launches by startup path.",
            &[("path", path_label)],
            count as f64,
        );
    }
    reg.write_to(path)
}
