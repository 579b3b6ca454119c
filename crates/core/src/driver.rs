//! The one event loop every platform runs on.
//!
//! A platform is a [`Policy`]: the hooks where systems differ
//! (dispatching an arrival, the periodic scaler, fault recovery, what
//! follows a launch or a finished batch) over a shared [`Engine`].
//! [`run`] owns the plumbing that used to be copied into every
//! platform: it stages the arrival stream ahead of the event heap,
//! seeds and re-arms the scaler tick, schedules the fault schedule and
//! delivers each event through [`dispatch`]. The sharded driver's
//! `epoch_drain` keeps its own barrier framing but delivers through the
//! same [`dispatch`].
//!
//! Hooks are statically dispatched (`P: Policy`, never `dyn`): the
//! arrival hook sits on the simulator's hottest path.

use infless_cluster::InstanceId;
use infless_faults::{FaultEvent, FaultSchedule};
use infless_sim::{EventQueue, SimDuration, SimTime, StagedStream};
use infless_telemetry::FaultTag;
use infless_workload::Workload;

use crate::engine::{CompletedBatch, Engine, EngineEvent};

/// The policy half of a platform: everything the shared loop cannot
/// decide on its own.
pub trait Policy {
    /// The engine the policy drives.
    fn engine(&mut self) -> &mut Engine;

    /// How long a gateway arrival takes to reach the platform (an
    /// on-top-of-platform buffer's dispatch delay). Zero by default.
    fn gateway_delay(&self) -> SimDuration {
        SimDuration::ZERO
    }

    /// The period of the scaler tick; the first tick fires one period
    /// after time zero.
    fn tick_period(&self) -> SimDuration;

    /// A request for function `f` reached the platform.
    fn on_arrival(&mut self, f: usize, queue: &mut EventQueue<EngineEvent>);

    /// The periodic scaler tick, at the engine's current time.
    fn on_tick(&mut self, queue: &mut EventQueue<EngineEvent>);

    /// An injected fault fired.
    fn on_fault(&mut self, fault: FaultEvent, queue: &mut EventQueue<EngineEvent>);

    /// An instance of function `f` finished starting (booted or swapped
    /// in) and the engine has started any batch waiting on it.
    fn on_ready(&mut self, _f: usize, _queue: &mut EventQueue<EngineEvent>) {}

    /// A batch (or an autoregressive episode) finished and its instance
    /// went idle.
    fn on_completion(&mut self, _done: CompletedBatch, _queue: &mut EventQueue<EngineEvent>) {}

    /// A coordinator-resolved kill directive (sharded INFless only).
    fn on_kill_directive(
        &mut self,
        _id: InstanceId,
        _tag: FaultTag,
        _queue: &mut EventQueue<EngineEvent>,
    ) {
        unreachable!("kill directives are scheduled only by the sharded INFless driver")
    }

    /// An in-flight resize finished (INFless's vertical-first policy
    /// only).
    fn on_resize_complete(&mut self, _id: InstanceId, _queue: &mut EventQueue<EngineEvent>) {
        unreachable!("resizes are scheduled only by INFless's vertical-first policy")
    }
}

/// Runs `workload` through `policy` to completion, injecting `faults`.
///
/// Arrivals stay in the sorted workload slice and merge ahead of the
/// heap at pop time: equal-timestamp ties go to the arrival, exactly as
/// if they had been pre-scheduled with the lowest sequence numbers —
/// including against faults (the request reaches the gateway an instant
/// before the machine dies). Keeping millions of arrivals out of the
/// heap is a large constant-factor win on the hot path. The scaler
/// ticks until the first tick at or past five seconds after the last
/// arrival.
pub fn run<P: Policy>(policy: &mut P, workload: &Workload, faults: &FaultSchedule) {
    let mut queue: EventQueue<EngineEvent> = EventQueue::new();
    let delay = policy.gateway_delay();
    // A uniform shift keeps the arrival list sorted.
    let shifted: Vec<(SimTime, usize)>;
    let staged = if delay == SimDuration::ZERO {
        workload.arrivals()
    } else {
        shifted = workload
            .arrivals()
            .iter()
            .map(|&(t, f)| (t + delay, f))
            .collect();
        &shifted
    };
    let mut arrivals = StagedStream::new(staged);
    let period = policy.tick_period();
    let tick_horizon = workload.end_time() + SimDuration::from_secs(5);
    if !workload.is_empty() {
        queue.schedule(SimTime::ZERO + period, EngineEvent::ScalerTick);
    }
    for &(t, ev) in faults.events() {
        queue.schedule(t, EngineEvent::Fault(ev));
    }
    while let Some((t, ev)) = arrivals.next(&mut queue, EngineEvent::Arrival) {
        dispatch(policy, t, ev, &mut queue);
        if matches!(ev, EngineEvent::ScalerTick) && t < tick_horizon {
            queue.schedule(t + period, EngineEvent::ScalerTick);
        }
    }
}

/// Advances the engine clock to `t` and delivers `ev`: the mechanical
/// part to the engine, the rest to the policy's hooks.
#[inline]
pub fn dispatch<P: Policy>(
    policy: &mut P,
    t: SimTime,
    ev: EngineEvent,
    queue: &mut EventQueue<EngineEvent>,
) {
    policy.engine().advance(t);
    match ev {
        EngineEvent::Arrival(f) => policy.on_arrival(f, queue),
        EngineEvent::InstanceReady(id) | EngineEvent::SwapComplete(id) => {
            let engine = policy.engine();
            let function = engine
                .is_live(id)
                .then(|| engine.instance(id).function().raw());
            if let EngineEvent::SwapComplete(_) = ev {
                engine.on_swap_complete(id, queue);
            } else {
                engine.on_instance_ready(id, queue);
            }
            if let Some(f) = function {
                policy.on_ready(f, queue);
            }
        }
        EngineEvent::BatchTimeout(id) => policy.engine().on_batch_timeout(id, queue),
        // Stale (None) if a fault killed the instance mid-batch; a
        // decode step is Some only when the episode drained.
        EngineEvent::BatchComplete(id) => {
            if let Some(done) = policy.engine().on_batch_complete(id, queue) {
                policy.on_completion(done, queue);
            }
        }
        EngineEvent::DecodeStep(id) => {
            if let Some(done) = policy.engine().on_decode_step(id, queue) {
                policy.on_completion(done, queue);
            }
        }
        EngineEvent::ScalerTick => policy.on_tick(queue),
        EngineEvent::Fault(fault) => policy.on_fault(fault, queue),
        EngineEvent::DirectiveKill(id, tag) => policy.on_kill_directive(id, tag, queue),
        EngineEvent::DirectiveStraggler {
            server,
            slowdown_pct,
            duration,
        } => policy
            .engine()
            .apply_straggler_directive(server, slowdown_pct, duration),
        EngineEvent::ResizeComplete(id) => policy.on_resize_complete(id, queue),
    }
}
