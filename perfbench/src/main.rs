//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints, as the last line of standard
//! output, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it holds the run's provenance and
//! detail (quartiles, sample counts, check failures).
//!
//! The parent process only orchestrates. Each measurement runs in a
//! fresh child process of this same executable (`--child <role>`), so
//! set-up time and peak memory are those of a process that did nothing
//! else: `setup` times one set-up (the first one, into an empty COP
//! snapshot directory the run owns, builds and snapshots the database
//! and only warms the directory), `measure` sets up and then runs the
//! workload for `--seconds`, and `traced` gathers the per-layer data.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

use infless_core::metrics::RunReport;
use infless_core::CopPredictor;
use infless_models::{CacheOutcome, HardwareModel, ProfileDatabase};
use infless_perfbench::catalogue::{END_TO_END, PER_LAYER};
use infless_perfbench::checks;
use infless_perfbench::layers::{self, DecisionTally};
use infless_perfbench::quality::{interpolated_quantile, Quality, TAIL_Q};
use infless_perfbench::reference;
use infless_perfbench::spans::Spans;
use infless_perfbench::stats::{median, quartiles};
use infless_perfbench::workloads::{Inputs, Kind, Prepared, RunOutput, FLEET_SHARDS};
use serde_json::{json, Value};

/// A seed no one tunes against: confirm a claimed gain on it.
const HELDOUT_SEED: u64 = 20_261_017;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Setup,
    Measure,
    Traced,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Setup => "setup",
            Role::Measure => "measure",
            Role::Traced => "traced",
        }
    }

    fn parse(s: &str) -> Option<Role> {
        [Role::Setup, Role::Measure, Role::Traced]
            .into_iter()
            .find(|r| r.name() == s)
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: Option<Role>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--child" => {
                child = Some(Role::parse(&value).ok_or_else(|| format!("unknown role {value}"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        child,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.child {
        Some(role) => child(role, &args, started).map(|v| println!("{}", to_line(&v))),
        None => parent(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// --- child processes ---------------------------------------------------

/// A workload set up and ready for its first simulated event.
struct Ready {
    subs: Vec<Inputs>,
    db: Arc<ProfileDatabase>,
    outcome: CacheOutcome,
    first: Prepared,
    spans: Spans,
    setup_s: f64,
}

/// Set-up: every sub-workload's inputs, the COP database and the first
/// sub-workload's platform. `setup_s` counts from process start.
fn set_up(args: &Args, started: Instant) -> Ready {
    let mut spans = Spans::new();
    let subs = Inputs::generate_all(args.kind, args.seed, &mut spans);
    let (db, outcome) = subs[0].acquire_profile_db(&mut spans);
    let first = subs[0].build(&mut spans, None);
    let setup_s = started.elapsed().as_secs_f64();
    Ready {
        subs,
        db,
        outcome,
        first,
        spans,
        setup_s,
    }
}

fn outcome_name(o: CacheOutcome) -> &'static str {
    match o {
        CacheOutcome::Built => "built",
        CacheOutcome::DiskHit => "disk_hit",
        CacheOutcome::MemoryHit => "memory_hit",
    }
}

fn child(role: Role, args: &Args, started: Instant) -> Result<Value, String> {
    let ready = set_up(args, started);
    match role {
        Role::Setup => Ok(json!({
            "setup_s": ready.setup_s,
            "setup_ref_s": reference::reference_median_s(SETUP_REFERENCE_RUNS),
            "profile_cache": outcome_name(ready.outcome),
        })),
        Role::Measure => Ok(measure(args, ready)),
        Role::Traced => traced(args, ready),
    }
}

/// The canonical rendering of a repetition: every report's canonical
/// JSON, in run order.
fn canonical(out: &RunOutput) -> String {
    out.reports
        .iter()
        .map(RunReport::canonical_json)
        .collect::<Vec<_>>()
        .join("\n")
}

fn run_checks(sub: &Inputs, out: &RunOutput, failures: &mut Vec<String>) {
    let offered = sub.arrivals_per_function();
    failures.extend(checks::every_function_offered(&offered));
    for r in &out.reports {
        failures.extend(checks::conservation(r, &offered));
    }
}

/// Sets up, then runs the sub-workloads round-robin until `--seconds`
/// of host time have passed (and each has run at least once). The
/// simulated metrics pool the first pass; every later repetition of a
/// sub-workload must reproduce its first canonical report byte for
/// byte.
fn measure(args: &Args, ready: Ready) -> Value {
    let Ready {
        subs,
        outcome,
        first,
        setup_s,
        ..
    } = ready;
    let setup_ref_s = reference::reference_median_s(SETUP_REFERENCE_RUNS);
    let mut next = Some(first);
    let mut rebuild_spans = Spans::new();
    let mut failures = Vec::new();
    let mut first_canon: Vec<Option<String>> = vec![None; subs.len()];
    let mut quality = Quality::default();
    let mut run_s: Vec<Vec<f64>> = vec![Vec::new(); subs.len()];
    let mut ref_s = Vec::new();
    let (mut arrival_rates, mut arrivals, mut completed) = (Vec::new(), Vec::new(), Vec::new());
    let mut attempted = 0u64;
    let began = Instant::now();
    for i in 0.. {
        if i >= subs.len() && began.elapsed().as_secs_f64() >= args.seconds as f64 {
            break;
        }
        let k = i % subs.len();
        let sub = &subs[k];
        let platform = next
            .take()
            .unwrap_or_else(|| sub.build(&mut rebuild_spans, None));
        ref_s.push(reference::reference_s());
        let out = platform.run(&sub.workload, FLEET_SHARDS);
        let offered = (sub.workload.len() * out.reports.len()) as u64;
        arrival_rates.push(offered as f64 / out.total_s());
        run_s[k].push(out.total_s());
        attempted += offered;
        run_checks(sub, &out, &mut failures);
        let canon = canonical(&out);
        match &first_canon[k] {
            None => {
                for r in &out.reports {
                    quality.add(r);
                }
                arrivals.push(offered as f64);
                completed.push(Quality::of(&out.reports).completed as f64);
                first_canon[k] = Some(canon);
            }
            Some(c) => failures.extend(checks::identical(
                &format!("sub-workload {k} repetition {}", i / subs.len()),
                c,
                &canon,
            )),
        }
    }
    if args.kind == Kind::FleetSharded {
        let sub = &subs[0];
        let s1 = sub.build(&mut rebuild_spans, None).run(&sub.workload, 1);
        let s2 = first_canon[0].as_deref().unwrap_or_default();
        failures.extend(checks::identical("S=1 vs S=2", &canonical(&s1), s2));
    }
    failures.extend(checks::tail_supported(TAIL_Q, quality.completed));
    json!({
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "profile_cache": outcome_name(outcome),
        "arrival_rates": arrival_rates,
        "sub_arrivals": arrivals,
        "sub_completed": completed,
        "sub_median_run_s": run_s.iter().map(|r| median(r)).collect::<Vec<_>>(),
        "reference_s": ref_s,
        "attempted": attempted,
        "completed": quality.completed,
        "offered": quality.offered,
        "slo_attainment": quality.slo_attainment(),
        "latency_p50_ms": quality.latency_q(0.5),
        "latency_p999_ms": quality.latency_q(TAIL_Q),
        "thpt_per_resource": quality.thpt_per_resource(),
        "cold_start_rate": quality.cold_start_rate(),
        "drop_rate": quality.drop_rate(),
        "peak_rss_mb": peak_rss_mb(),
        "failures": failures,
    })
}

/// Host peak resident memory of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer attribution on the first sub-workload: an untraced run,
/// a traced run (decision tally attached), the sharded comparison runs
/// for `fleet_sharded`, then the replays.
fn traced(args: &Args, ready: Ready) -> Result<Value, String> {
    let Ready {
        subs,
        db,
        outcome,
        first,
        spans,
        ..
    } = ready;
    let sub = &subs[0];
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    let mut set = |name: &'static str, v: f64| {
        assert!(
            m.insert(name, v).is_some(),
            "{name} is not a per-layer metric"
        );
    };
    let mut failures = Vec::new();
    let mut rebuild_spans = Spans::new();

    let untraced = first.run(&sub.workload, FLEET_SHARDS);
    run_checks(sub, &untraced, &mut failures);
    let tally = DecisionTally::new();
    let traced = match args.kind {
        Kind::FleetSharded => {
            let t0 = Instant::now();
            let (report, records) = sub
                .sharded()
                .run_with_decisions(&sub.workload, FLEET_SHARDS);
            let run_s = vec![t0.elapsed().as_secs_f64()];
            tally.observe_all(&records);
            RunOutput {
                reports: vec![report],
                run_s,
            }
        }
        _ => sub
            .build(&mut rebuild_spans, Some(&tally))
            .run(&sub.workload, FLEET_SHARDS),
    };
    run_checks(sub, &traced, &mut failures);
    let canon_t0 = Instant::now();
    let canon = canonical(&untraced);
    let canonical_json_s = canon_t0.elapsed().as_secs_f64();
    failures.extend(checks::identical(
        "traced vs untraced",
        &canon,
        &canonical(&traced),
    ));
    let reports = &untraced.reports;
    let t = tally.get();

    set("workload.build_s", spans.seconds("workload.build_s"));
    set("workload.arrivals", sub.workload.len() as f64);
    set("models.profile_db_s", spans.seconds("models.profile_db_s"));
    set(
        "models.profile_db_outcome",
        match outcome {
            CacheOutcome::Built => 0.0,
            CacheOutcome::DiskHit => 1.0,
            CacheOutcome::MemoryHit => 2.0,
        },
    );
    set("models.profile_entries", db.len() as f64);
    set("core.platform_new_s", spans.seconds("core.platform_new_s"));
    set("core.run_s", untraced.total_s());
    set("metrics.canonical_json_s", canonical_json_s);
    set("trace.overhead_s", traced.total_s() - untraced.total_s());

    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    set("engine.launches", sum(&|r| r.launches));
    set("engine.cold_launches", sum(&|r| r.cold_launches));
    set("engine.prewarmed_launches", sum(&|r| r.prewarmed_launches));
    set("engine.retirements", sum(&|r| r.retirements));
    set("residency.swap_launches", sum(&|r| r.swap_launches));
    let mut batch = infless_telemetry::Log2Histogram::new();
    let mut dispatch = infless_telemetry::Log2Histogram::new();
    let mut rounds = infless_telemetry::Log2Histogram::new();
    let mut fragments = Vec::new();
    let (mut peak_instances, mut max_queue, mut peak_gpu) = (0u64, 0u64, 0.0f64);
    for r in reports {
        for f in &r.functions {
            batch.merge(&f.batch_sizes);
        }
        dispatch.merge(&r.dispatch_overhead_ns);
        rounds.merge(&r.sched_overhead_hist_us);
        if let Some(mean) = r.fragment_samples.mean() {
            fragments.push(mean);
        }
        peak_instances = peak_instances.max(r.timeseries_summary.peak_instances);
        max_queue = max_queue.max(r.timeseries_summary.max_queue_depth);
        peak_gpu = peak_gpu.max(r.timeseries_summary.peak_gpu_occupancy);
    }
    set(
        "engine.batch_size_mean",
        if batch.is_empty() { 0.0 } else { batch.mean() },
    );
    set("engine.peak_instances", peak_instances as f64);
    set("engine.max_queue_depth", max_queue as f64);
    set("engine.peak_gpu_occupancy", peak_gpu);
    let q = interpolated_quantile;
    set("router.dispatch_ns_p50", q(&dispatch, 0.5));
    set("router.dispatch_ns_p99", q(&dispatch, 0.99));
    set("router.dispatch_samples", dispatch.count() as f64);
    set("scheduler.rounds", rounds.count() as f64);
    set("scheduler.round_us_p50", q(&rounds, 0.5));
    set("scheduler.round_us_p99", q(&rounds, 0.99));
    set("scheduler.candidates", t.candidates as f64);
    set("scheduler.rejects", t.rejects as f64);
    set("scheduler.scale_out_passes", t.scale_out_passes as f64);
    set("scheduler.resizes", t.resizes as f64);
    set("cluster.consolidations", t.consolidations as f64);
    set(
        "cluster.consolidation_commit_ratio",
        ratio(t.consolidation_commits as f64, t.consolidations as f64),
    );
    set(
        "cluster.fragment_ratio_mean",
        if fragments.is_empty() {
            0.0
        } else {
            fragments.iter().sum::<f64>() / fragments.len() as f64
        },
    );
    set("coldstart.evictions", t.evictions as f64);
    set(
        "coldstart.keepalive_ms_mean",
        ratio(t.keepalive_s_sum * 1000.0, t.evictions as f64),
    );

    let mut ttft = infless_telemetry::Log2Histogram::new();
    let mut tpot = infless_telemetry::Log2Histogram::new();
    let (mut cache_full, mut decoded) = (0u64, 0u64);
    let mut waits: [infless_telemetry::Log2Histogram; 5] = Default::default();
    for f in reports.iter().flat_map(|r| &r.functions) {
        if let Some(l) = &f.llm {
            ttft.merge(&l.ttft_ms);
            tpot.merge(&l.tpot_ms);
            cache_full += l.cache_full_events;
            decoded += l.decoded_tokens;
        }
        let b = &f.breakdown;
        for (w, h) in waits.iter_mut().zip([
            &b.queueing_ms,
            &b.batch_wait_ms,
            &b.startup_ms,
            &b.execution_ms,
            &b.interference_ms,
        ]) {
            w.merge(h);
        }
    }
    set("llm.admissions", t.admissions as f64);
    set("llm.cache_full_events", cache_full as f64);
    set(
        "llm.cache_full_ratio",
        ratio(cache_full as f64, (t.admissions + cache_full) as f64),
    );
    set("llm.decoded_tokens", decoded as f64);
    set("llm.ttft_p99_ms", q(&ttft, 0.99));
    set("llm.tpot_p99_ms", q(&tpot, 0.99));
    for (name, h) in [
        "wait.queueing_ms_p99",
        "wait.batch_ms_p99",
        "wait.startup_ms_p99",
        "exec.execution_ms_p99",
        "exec.interference_ms_p99",
    ]
    .into_iter()
    .zip(&waits)
    {
        set(name, q(h, 0.99));
    }
    let displaced = sum(&|r| r.failures.requests_displaced);
    set("faults.displaced", displaced);
    set(
        "faults.retry_ratio",
        ratio(sum(&|r| r.failures.requests_retried), displaced),
    );
    set("faults.shed", sum(&|r| r.failures.requests_shed));
    let recap: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.failures.recapacity_ms.iter().copied())
        .collect();
    set(
        "faults.recapacity_ms_mean",
        ratio(recap.iter().sum(), recap.len() as f64),
    );

    match args.kind {
        Kind::FleetSharded => {
            let s2 = untraced.total_s();
            let s1 = sub.build(&mut rebuild_spans, None).run(&sub.workload, 1);
            failures.extend(checks::identical("S=1 vs S=2", &canonical(&s1), &canon));
            let t0 = Instant::now();
            std::hint::black_box(sub.eager_platform().run(&sub.workload));
            let eager = t0.elapsed().as_secs_f64();
            set("sharded.s1_run_s", s1.total_s());
            set("sharded.s2_run_s", s2);
            set("sharded.speedup_s2", s1.total_s() / s2);
            set("sharded.eager_run_s", eager);
            set("sharded.s1_vs_eager", eager / s1.total_s());
        }
        Kind::BaselinesOneshot => {
            set("baselines.openfaas_run_s", untraced.run_s[0]);
            set("baselines.batch_run_s", untraced.run_s[1]);
            set("baselines.torpor_run_s", untraced.run_s[2]);
        }
        Kind::SteadyOneshot | Kind::BurstyControl => {}
    }

    // Replays.
    let events = layers::replay_event_queue(&sub.workload, reports);
    set("sim.events", events.calls as f64);
    set("sim.ns_per_event", events.ns_per_call);
    let hist = layers::replay_histogram(reports);
    set("telemetry.ns_per_hist_add", hist.ns_per_call);
    if args.kind != Kind::BaselinesOneshot {
        let hardware = HardwareModel::new(sub.config.hardware);
        let predictor =
            CopPredictor::with_offset(db.clone(), hardware.clone(), sub.config.cop_offset);
        let router = layers::replay_router(&sub.workload, &reports[0], &sub.functions, &predictor);
        set("router.ns_per_dispatch", router.ns_per_call);
        set("router.refused_ratio", router.ratio);
        set("router.replay_calls", router.calls as f64);
        let (sched, txn, journal) = layers::replay_scheduler_cluster(
            &sub.workload,
            &sub.functions,
            &predictor,
            sub.cluster,
        );
        set("scheduler.us_per_call", sched.ns_per_call / 1000.0);
        set("scheduler.placed_ratio", sched.ratio);
        set("scheduler.replay_calls", sched.calls as f64);
        set("cluster.ns_per_txn", txn.ns_per_call);
        set("cluster.replay_txns", txn.calls as f64);
        set("cluster.journal_ns_per_op", journal.ns_per_call);
        set("cluster.replay_journal_ops", journal.calls as f64);
        let predict = layers::replay_predictor(db, &sub.functions, hardware, sub.config.cop_offset);
        set("predictor.calls", predict.calls as f64);
        set("predictor.ns_per_predict", predict.ns_per_call);
    }

    let offered = Quality::of(reports).offered + Quality::of(&traced.reports).offered;
    let mut metrics = serde_json::Map::new();
    for (name, v) in m {
        metrics.insert(name.to_string(), json!(v));
    }
    Ok(json!({
        "metrics": Value::Object(metrics),
        "attempted": offered,
        "profile_cache": outcome_name(outcome),
        "failures": failures,
    }))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

// --- parent ------------------------------------------------------------

/// Reference runs timed after each set-up (their median scales it).
const SETUP_REFERENCE_RUNS: usize = 3;

/// Fresh set-up processes per run; `setup_s` is their median. The
/// `measure` process's own set-up is one of them.
fn setup_samples(kind: Kind) -> usize {
    match kind {
        // Their warm COP snapshot loads take most of the run budget.
        Kind::BurstyControl | Kind::FleetSharded => 2,
        Kind::SteadyOneshot | Kind::BaselinesOneshot => 3,
    }
}

/// The benchmark's own COP snapshot directory, removed when the run
/// ends however it ends.
struct CopDir(PathBuf);

impl Drop for CopDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spawn(role: Role, args: &Args, cop: &Path) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", role.name(), "--workload", args.kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .env("COP_CACHE_DIR", cop)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {} process: {e}", role.name()))?;
    if !out.status.success() {
        return Err(format!("{} process failed: {}", role.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("{} process printed bad JSON: {e}", role.name()))
}

fn f64_at(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("child result lacks {key}"))
}

fn f64s_at(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("child result lacks {key}"))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("{key} holds a non-number"))
        })
        .collect()
}

fn strings_at(v: &Value, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &Args) -> Value {
    // Only the checkout's own repository: git would otherwise search the
    // parent directories and report an enclosing repository's commit.
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| {
        if Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".to_string()
        }
    });
    json!({
        "workload": args.kind.name(),
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "rustc": command_line("rustc", &["--version"]),
    })
}

fn to_line(v: &Value) -> String {
    serde_json::to_string(v).expect("a JSON value always renders")
}

fn metric(value: f64, unit: &str) -> Value {
    json!({ "value": value, "unit": unit })
}

fn parent(args: &Args) -> Result<(), String> {
    let cop = CopDir(
        std::env::current_dir()
            .map_err(|e| format!("no working directory: {e}"))?
            .join(".bench_state")
            .join(format!("cop-cache-{}", std::process::id())),
    );
    std::fs::create_dir_all(&cop.0).map_err(|e| format!("cannot create COP directory: {e}"))?;
    // The first set-up builds the COP database into the empty snapshot
    // directory; it warms the directory and is not a sample.
    let warm = spawn(Role::Setup, args, &cop.0)?;
    let (metrics, attempted, failures, detail) = if args.trace {
        let r = spawn(Role::Traced, args, &cop.0)?;
        let values = r
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("no metrics")?;
        let mut metrics = serde_json::Map::new();
        for (name, unit) in PER_LAYER {
            let v = values
                .get(name)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("traced run lacks {name}"))?;
            metrics.insert(name.to_string(), metric(v, unit));
        }
        let caches = [&warm, &r].map(|v| v.get("profile_cache").cloned().unwrap_or_default());
        let detail = json!({ "profile_cache": caches.to_vec() });
        (
            metrics,
            f64_at(&r, "attempted")? as u64,
            strings_at(&r, "failures"),
            detail,
        )
    } else {
        let mut setups = Vec::new();
        let mut raw_setups = Vec::new();
        let mut caches = vec![warm.get("profile_cache").cloned().unwrap_or_default()];
        let mut children = Vec::new();
        for _ in 1..setup_samples(args.kind) {
            children.push(spawn(Role::Setup, args, &cop.0)?);
        }
        let r = spawn(Role::Measure, args, &cop.0)?;
        children.push(r.clone());
        for c in &children {
            let raw = f64_at(c, "setup_s")?;
            raw_setups.push(raw);
            setups.push(reference::scaled(raw, f64_at(c, "setup_ref_s")?));
            caches.push(c.get("profile_cache").cloned().unwrap_or_default());
        }
        // Host rates: each sub-workload's rate at the median of its
        // repetitions' run times; the median over sub-workloads, so one
        // costly arrival sample cannot swing the run.
        let sub_run_s = f64s_at(&r, "sub_median_run_s")?;
        let references = f64s_at(&r, "reference_s")?;
        let reference_s = median(&references);
        let per_sub_rate = |key: &str, scale: bool| -> Result<f64, String> {
            let counts = f64s_at(&r, key)?;
            let rates: Vec<f64> = counts
                .iter()
                .zip(&sub_run_s)
                .map(|(n, t)| {
                    n / if scale {
                        reference::scaled(*t, reference_s)
                    } else {
                        *t
                    }
                })
                .collect();
            Ok(median(&rates))
        };
        let rates = f64s_at(&r, "arrival_rates")?;
        let mut metrics = serde_json::Map::new();
        for (name, unit) in END_TO_END {
            let v = match *name {
                "arrivals_per_s" => per_sub_rate("sub_arrivals", true)?,
                "completed_per_s" => per_sub_rate("sub_completed", true)?,
                "setup_s" => median(&setups),
                _ => f64_at(&r, name)?,
            };
            metrics.insert(name.to_string(), metric(v, unit));
        }
        let (q1, q2, q3) = quartiles(&rates);
        let detail = json!({
            "reference_nominal_s": reference::NOMINAL_S,
            "reference_median_s": reference_s,
            "unscaled_arrivals_per_s": per_sub_rate("sub_arrivals", false)?,
            "unscaled_setup_s": median(&raw_setups),
            "repetition_arrivals_per_s_quartiles": [q1, q2, q3],
            "repetitions": rates.len(),
            "sub_median_run_s": r.get("sub_median_run_s").cloned().unwrap_or_default(),
            "setup_s_samples": setups,
            "profile_cache": caches,
            "latency_samples": r.get("completed").cloned().unwrap_or_default(),
            "offered": r.get("offered").cloned().unwrap_or_default(),
        });
        (
            metrics,
            f64_at(&r, "attempted")? as u64,
            strings_at(&r, "failures"),
            detail,
        )
    };
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = failures.is_empty();
    let mut info = provenance(args);
    if let (Value::Object(info), Value::Object(detail)) = (&mut info, detail) {
        for (k, v) in detail.iter() {
            info.insert(k.clone(), v.clone());
        }
        info.insert("failures".to_string(), json!(failures));
    }
    println!("{}", to_line(&info));
    let result = json!({
        "correct": correct,
        "attempted": attempted.max(1),
        "failed": if correct { 0 } else { attempted.max(1) },
        "metrics": Value::Object(metrics),
    });
    println!("{}", to_line(&result));
    Ok(())
}
