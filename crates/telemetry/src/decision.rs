//! Decision-level observability: why the platform did what it did.
//!
//! Lifecycle spans ([`crate::SpanEvent`]) say *what* happened to a
//! request; decision events say *why* the platform acted — which
//! ⟨b,c,g⟩ candidates Algorithm 1 rejected and for what reason, whether
//! a consolidation transaction committed or rolled back, which
//! keep-alive window expired an instance, whether a launch was a cold
//! boot / pre-warmed attach / host-cache swap-in, and why continuous
//! batching turned a joiner away. The same channel carries per-request
//! SLO latency decompositions ([`BreakdownEvent`]), so `trace analyze`
//! can attribute every violation to the stage that consumed the budget.
//!
//! The emission contract is the span contract: gated on
//! [`crate::TelemetrySink::decisions_enabled`], no RNG draws, no event
//! scheduling, `Copy` all-numeric records. Decision values are derived
//! from shard-invariant quantities, so a trace merged at epoch barriers
//! is byte-identical for every shard count.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::sink::TraceMeta;

/// What kind of decision a [`DecisionEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionKind {
    /// Algorithm 1 evaluated one ⟨b,c,g⟩ grid candidate for a function
    /// (`value` = efficiency density `r_up / weighted`, `aux` = the
    /// candidate's predicted execution latency in ms). Emitted once per
    /// function, on its first traced scheduling pass.
    Candidate,
    /// A scheduling round chose a config (`value` = its effective
    /// density after the startup-cost discount, `aux` = the discount
    /// factor itself).
    Chosen,
    /// A scheduling round rejected a candidate set or left demand
    /// unplaced; `reason` says why (`value` is reason-specific, e.g.
    /// the residual RPS that stayed unplaced).
    Reject,
    /// One scale-out pass finished (`value` = instances launched,
    /// `aux` = residual RPS the pass was asked to place).
    ScaleOut,
    /// A consolidation transaction opened (`value` = the current
    /// deployment's capacity density it must beat).
    Consolidate,
    /// The consolidation transaction committed (`value` = the fresh
    /// deployment's density, `aux` = weighted-capacity delta).
    ConsolidateCommit,
    /// The consolidation transaction rolled back (`reason` says why;
    /// `value`/`aux` carry the rejected trial's numbers).
    ConsolidateRollback,
    /// A keep-alive window expired an instance (`value` = the LSTH
    /// tail-window keep-alive in seconds that triggered the eviction,
    /// `aux` = how long the instance had idled).
    Evict,
    /// An instance launch chose its startup path (`reason` =
    /// `cold_boot`/`pre_warmed`/`swap_in`, `value` = startup delay s).
    Launch,
    /// Continuous batching admitted a sequence (`value` = KV tokens
    /// reserved, `aux` = arena tokens still free afterwards).
    Admit,
    /// Continuous batching rejected a joiner on KV headroom
    /// (`value` = tokens the sequence needed, `aux` = tokens free).
    CacheFull,
    /// The vertical-first scaler resized an instance in place — or
    /// tried to. Accepts carry the capacity delta `new r_up − old r_up`
    /// as `value` (negative for a downsize) and the resize latency in
    /// seconds as `aux`, with `batch`/`cpu`/`gpu` describing the *new*
    /// configuration. Rejects set `reason` (`memory` when the grow no
    /// longer fits the server, `no_candidate` when the feasible set
    /// holds nothing larger).
    Resize,
}

impl DecisionKind {
    /// Stable wire name (the JSONL `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::Candidate => "candidate",
            DecisionKind::Chosen => "chosen",
            DecisionKind::Reject => "reject",
            DecisionKind::ScaleOut => "scale_out",
            DecisionKind::Consolidate => "consolidate_begin",
            DecisionKind::ConsolidateCommit => "consolidate_commit",
            DecisionKind::ConsolidateRollback => "consolidate_rollback",
            DecisionKind::Evict => "evict",
            DecisionKind::Launch => "launch",
            DecisionKind::Admit => "admit",
            DecisionKind::CacheFull => "cache_full",
            DecisionKind::Resize => "resize",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "candidate" => DecisionKind::Candidate,
            "chosen" => DecisionKind::Chosen,
            "reject" => DecisionKind::Reject,
            "scale_out" => DecisionKind::ScaleOut,
            "consolidate_begin" => DecisionKind::Consolidate,
            "consolidate_commit" => DecisionKind::ConsolidateCommit,
            "consolidate_rollback" => DecisionKind::ConsolidateRollback,
            "evict" => DecisionKind::Evict,
            "launch" => DecisionKind::Launch,
            "admit" => DecisionKind::Admit,
            "cache_full" => DecisionKind::CacheFull,
            "resize" => DecisionKind::Resize,
            _ => return None,
        })
    }
}

/// Why a candidate, trial, or joiner was turned away (or which startup
/// path a launch took). [`DecisionReason::None`] everywhere a decision
/// needs no annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionReason {
    /// No annotation.
    None,
    /// The predictor has no profile for the candidate.
    NoProfile,
    /// No feasible RPS window: the candidate cannot meet the latency
    /// SLO at any supported rate.
    Window,
    /// The candidate's prefill latency exceeds the TTFT SLO.
    Ttft,
    /// The candidate's decode-step latency exceeds the TPOT SLO.
    Tpot,
    /// Placement failed: no server could fit the config's cores, SM
    /// share, and memory footprint.
    Memory,
    /// The batched candidate set was skipped because the residual RPS
    /// fell below the set's lower window bound.
    ResidualCap,
    /// Demand stayed unplaced at the end of the pass.
    Unplaced,
    /// Consolidation's trial deployment did not clear the density gain
    /// threshold.
    InsufficientGain,
    /// The launch is a cold boot.
    ColdBoot,
    /// The launch attaches to a pre-warmed container.
    PreWarmed,
    /// The launch swaps model weights in from the host cache.
    SwapIn,
    /// The vertical pass found no feasible candidate strictly larger
    /// (or, for a downsize, cheaper) than the current configuration.
    NoCandidate,
}

impl DecisionReason {
    /// Stable wire name (the JSONL `reason` field).
    pub fn name(self) -> &'static str {
        match self {
            DecisionReason::None => "none",
            DecisionReason::NoProfile => "no_profile",
            DecisionReason::Window => "window",
            DecisionReason::Ttft => "ttft",
            DecisionReason::Tpot => "tpot",
            DecisionReason::Memory => "memory",
            DecisionReason::ResidualCap => "residual_cap",
            DecisionReason::Unplaced => "unplaced",
            DecisionReason::InsufficientGain => "insufficient_gain",
            DecisionReason::ColdBoot => "cold_boot",
            DecisionReason::PreWarmed => "pre_warmed",
            DecisionReason::SwapIn => "swap_in",
            DecisionReason::NoCandidate => "no_candidate",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "none" => DecisionReason::None,
            "no_profile" => DecisionReason::NoProfile,
            "window" => DecisionReason::Window,
            "ttft" => DecisionReason::Ttft,
            "tpot" => DecisionReason::Tpot,
            "memory" => DecisionReason::Memory,
            "residual_cap" => DecisionReason::ResidualCap,
            "unplaced" => DecisionReason::Unplaced,
            "insufficient_gain" => DecisionReason::InsufficientGain,
            "cold_boot" => DecisionReason::ColdBoot,
            "pre_warmed" => DecisionReason::PreWarmed,
            "swap_in" => DecisionReason::SwapIn,
            "no_candidate" => DecisionReason::NoCandidate,
            _ => return None,
        })
    }
}

/// One decision. `Copy` and all-numeric like [`crate::SpanEvent`]:
/// recording one is a struct copy, never an allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionEvent {
    /// Simulated timestamp, seconds.
    pub t_s: f64,
    /// What was decided.
    pub kind: DecisionKind,
    /// Function index the decision concerns.
    pub function: u32,
    /// Per-function emission sequence number — with `(t_s, function)`
    /// it totally orders a merged multi-shard trace.
    pub seq: u64,
    /// Request id for request-scoped decisions (admit/cache_full), -1
    /// otherwise.
    pub request: i64,
    /// Instance id, or -1 when no instance is involved.
    pub instance: i64,
    /// Server id, or -1 when no server is involved.
    pub server: i64,
    /// Candidate/chosen batch size `b`, 0 when not config-scoped.
    pub batch: u32,
    /// Candidate/chosen CPU cores `c`.
    pub cpu: u32,
    /// Candidate/chosen GPU SM share `g` (percent).
    pub gpu: u32,
    /// Rejection reason or startup path.
    pub reason: DecisionReason,
    /// Kind-specific primary value (see [`DecisionKind`] docs).
    pub value: f64,
    /// Kind-specific secondary value.
    pub aux: f64,
}

impl DecisionEvent {
    /// A blank event of `kind`: all ids -1, numbers zero, reason
    /// [`DecisionReason::None`]. The emitter fills what applies;
    /// `t_s`/`function`/`seq` are stamped by the engine.
    pub fn new(kind: DecisionKind) -> Self {
        DecisionEvent {
            t_s: 0.0,
            kind,
            function: 0,
            seq: 0,
            request: -1,
            instance: -1,
            server: -1,
            batch: 0,
            cpu: 0,
            gpu: 0,
            reason: DecisionReason::None,
            value: 0.0,
            aux: 0.0,
        }
    }
}

/// Per-request SLO latency decomposition, emitted at completion. The
/// five components partition the end-to-end latency exactly:
/// `queue + batch_wait + startup + exec + interference == total`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakdownEvent {
    /// Completion timestamp, seconds.
    pub t_s: f64,
    /// Function index.
    pub function: u32,
    /// Per-function emission sequence number (shared counter with
    /// [`DecisionEvent::seq`]).
    pub seq: u64,
    /// Request id.
    pub request: u64,
    /// The function's latency SLO, ms.
    pub slo_ms: f64,
    /// Arrival → (final) instance enqueue: gateway dispatch, pending
    /// backlog, and fault-retry delay.
    pub queue_ms: f64,
    /// Enqueue → batch start, net of startup overlap: time spent
    /// waiting for the batch to fill or time out.
    pub batch_wait_ms: f64,
    /// Cold-start / swap-in time the request observed.
    pub startup_ms: f64,
    /// Execution at the profiled (noise-adjusted) speed.
    pub exec_ms: f64,
    /// Execution stretch from MPS co-residence and stragglers.
    pub interference_ms: f64,
    /// End-to-end latency — the same number the run report records.
    pub total_ms: f64,
}

/// One record on the decisions channel: a decision or a per-request
/// latency breakdown. Both land in the same JSONL artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionRecord {
    /// A platform decision.
    Decision(DecisionEvent),
    /// A completed request's latency decomposition.
    Breakdown(BreakdownEvent),
}

impl DecisionRecord {
    /// Timestamp, seconds.
    pub fn t_s(&self) -> f64 {
        match self {
            DecisionRecord::Decision(d) => d.t_s,
            DecisionRecord::Breakdown(b) => b.t_s,
        }
    }

    /// Function index.
    pub fn function(&self) -> u32 {
        match self {
            DecisionRecord::Decision(d) => d.function,
            DecisionRecord::Breakdown(b) => b.function,
        }
    }

    /// Per-function emission sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            DecisionRecord::Decision(d) => d.seq,
            DecisionRecord::Breakdown(b) => b.seq,
        }
    }

    /// The total order a merged multi-shard trace is sorted by:
    /// `(t_s, function, seq)`. Within one function `seq` is unique, so
    /// the order is total and merge output is byte-identical no matter
    /// which shard buffered which record.
    pub fn sort_key(&self) -> (f64, u32, u64) {
        (self.t_s(), self.function(), self.seq())
    }

    /// Renders the record as one JSONL line (no trailing newline) into
    /// `out`, which is cleared first.
    pub fn render(&self, out: &mut String) {
        out.clear();
        match self {
            DecisionRecord::Decision(d) => {
                write!(
                    out,
                    "{{\"t_s\":{},\"kind\":\"{}\",\"fn\":{},\"seq\":{},\"req\":{},\"inst\":{},\
                     \"srv\":{},\"batch\":{},\"cpu\":{},\"gpu\":{},\"reason\":\"{}\",\
                     \"value\":{},\"aux\":{}}}",
                    d.t_s,
                    d.kind.name(),
                    d.function,
                    d.seq,
                    d.request,
                    d.instance,
                    d.server,
                    d.batch,
                    d.cpu,
                    d.gpu,
                    d.reason.name(),
                    d.value,
                    d.aux,
                )
                .expect("write to String cannot fail");
            }
            DecisionRecord::Breakdown(b) => {
                write!(
                    out,
                    "{{\"t_s\":{},\"kind\":\"breakdown\",\"fn\":{},\"seq\":{},\"req\":{},\
                     \"slo_ms\":{},\"queue_ms\":{},\"batch_wait_ms\":{},\"startup_ms\":{},\
                     \"exec_ms\":{},\"interference_ms\":{},\"total_ms\":{}}}",
                    b.t_s,
                    b.function,
                    b.seq,
                    b.request,
                    b.slo_ms,
                    b.queue_ms,
                    b.batch_wait_ms,
                    b.startup_ms,
                    b.exec_ms,
                    b.interference_ms,
                    b.total_ms,
                )
                .expect("write to String cannot fail");
            }
        }
    }
}

/// Sorts records into their canonical [`DecisionRecord::sort_key`]
/// total order — the order the sharded merge uses, so single-core and
/// sharded traces are directly comparable.
pub fn sort_decisions(records: &mut [DecisionRecord]) {
    records.sort_by(|a, b| {
        let (ta, fa, sa) = a.sort_key();
        let (tb, fb, sb) = b.sort_key();
        ta.total_cmp(&tb).then(fa.cmp(&fb)).then(sa.cmp(&sb))
    });
}

/// Writes a complete decisions trace: the metadata record followed by
/// every record, in slice order. The sharded runner sorts its merged
/// buffer by [`DecisionRecord::sort_key`] first, which makes the file
/// byte-identical for every shard count.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_decision_trace(
    path: &Path,
    meta: &TraceMeta,
    records: &[DecisionRecord],
) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    let mut line = String::with_capacity(256);
    crate::sink::render_meta(meta, &mut line);
    out.write_all(line.as_bytes())?;
    for rec in records {
        rec.render(&mut line);
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_round_trip() {
        for kind in [
            DecisionKind::Candidate,
            DecisionKind::Chosen,
            DecisionKind::Reject,
            DecisionKind::ScaleOut,
            DecisionKind::Consolidate,
            DecisionKind::ConsolidateCommit,
            DecisionKind::ConsolidateRollback,
            DecisionKind::Evict,
            DecisionKind::Launch,
            DecisionKind::Admit,
            DecisionKind::CacheFull,
            DecisionKind::Resize,
        ] {
            assert_eq!(DecisionKind::parse(kind.name()), Some(kind));
        }
        for reason in [
            DecisionReason::None,
            DecisionReason::NoProfile,
            DecisionReason::Window,
            DecisionReason::Ttft,
            DecisionReason::Tpot,
            DecisionReason::Memory,
            DecisionReason::ResidualCap,
            DecisionReason::Unplaced,
            DecisionReason::InsufficientGain,
            DecisionReason::ColdBoot,
            DecisionReason::PreWarmed,
            DecisionReason::SwapIn,
            DecisionReason::NoCandidate,
        ] {
            assert_eq!(DecisionReason::parse(reason.name()), Some(reason));
        }
        assert_eq!(DecisionKind::parse("bogus"), None);
        assert_eq!(DecisionReason::parse("bogus"), None);
        // "breakdown" is a record discriminator, not a decision kind.
        assert_eq!(DecisionKind::parse("breakdown"), None);
    }

    #[test]
    fn render_is_fixed_key_json() {
        let mut d = DecisionEvent::new(DecisionKind::Chosen);
        d.t_s = 1.5;
        d.function = 2;
        d.seq = 7;
        d.batch = 8;
        d.cpu = 4;
        d.gpu = 20;
        d.value = 0.25;
        d.aux = 0.9;
        let mut line = String::new();
        DecisionRecord::Decision(d).render(&mut line);
        assert_eq!(
            line,
            "{\"t_s\":1.5,\"kind\":\"chosen\",\"fn\":2,\"seq\":7,\"req\":-1,\"inst\":-1,\
             \"srv\":-1,\"batch\":8,\"cpu\":4,\"gpu\":20,\"reason\":\"none\",\
             \"value\":0.25,\"aux\":0.9}"
        );
        let b = BreakdownEvent {
            t_s: 2.0,
            function: 0,
            seq: 9,
            request: 41,
            slo_ms: 100.0,
            queue_ms: 1.0,
            batch_wait_ms: 2.0,
            startup_ms: 0.0,
            exec_ms: 20.0,
            interference_ms: 3.0,
            total_ms: 26.0,
        };
        DecisionRecord::Breakdown(b).render(&mut line);
        assert!(line.contains("\"kind\":\"breakdown\""));
        assert!(line.contains("\"total_ms\":26"));
    }

    #[test]
    fn sort_key_orders_merged_records() {
        let mut a = DecisionEvent::new(DecisionKind::Launch);
        a.t_s = 1.0;
        a.function = 1;
        a.seq = 0;
        let mut b = a;
        b.function = 0;
        b.seq = 3;
        let mut records = [DecisionRecord::Decision(a), DecisionRecord::Decision(b)];
        records.sort_by(|x, y| {
            let (tx, fx, sx) = x.sort_key();
            let (ty, fy, sy) = y.sort_key();
            tx.total_cmp(&ty).then(fx.cmp(&fy)).then(sx.cmp(&sy))
        });
        assert_eq!(records[0].function(), 0);
    }
}
