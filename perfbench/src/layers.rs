//! Per-layer spans measured from outside the simulator.
//!
//! The simulator has no tracing of its own, so every layer is timed at a
//! boundary the benchmark can reach: forwarding wrappers around the
//! public traits the layers talk through ([`TrngMechanism`],
//! [`TraceSource`], [`MemorySystem`]) and closures around the public
//! methods the replica loop calls. Every call is counted exactly; only
//! the calls made during a sampled loop iteration (one in
//! [`SAMPLE_EVERY`]) are timed, and a span's total time is estimated as
//! its sampled mean times its exact call count. A span's self time
//! subtracts the sampled time of the child spans that ran inside it.
//! Each sample is corrected for the cost of reading the clock, measured
//! once by [`calibrate`], since many spans last only a few nanoseconds.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::time::Instant;

use strange_cpu::{MemorySystem, TraceOp, TraceSource};
use strange_dram::{CoreId, RequestId};
use strange_trng::{BatchCommands, TrngMechanism};

/// One loop iteration in this many is timed. Odd, so the sample walks
/// through every phase of the 5:1 CPU/DRAM clock ratio and of the
/// 64-cycle finish-check period.
pub const SAMPLE_EVERY: u64 = 17;

/// The spans the benchmark records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Core::tick`.
    CpuTick,
    /// `Core::next_ready_cycle` and `Core::finish_within`.
    CpuProbe,
    /// `Core::skip_cycles`.
    CpuSkip,
    /// `MemSubsystem::tick` (engine plus DRAM channels).
    EngineTick,
    /// `MemSubsystem::next_event_at`.
    EngineProbe,
    /// `MemSubsystem::skip_to`.
    EngineSkip,
    /// `MemorySystem::{try_load, try_store, try_rng}` calls from a core.
    Enqueue,
    /// `TrngMechanism::draw`.
    TrngDraw,
    /// `TraceSource::next_op`.
    TraceNext,
}

const LAYERS: usize = 9;

/// Counts and sampled times of one span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Calls made (exact).
    pub calls: u64,
    /// Calls timed.
    pub sampled: u64,
    /// Nanoseconds spent in the timed calls.
    pub ns: u64,
    /// Nanoseconds the timed calls spent in child spans.
    pub child_ns: u64,
}

impl Span {
    fn scale(&self, ns: u64) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            ns as f64 * self.calls as f64 / self.sampled as f64 / 1e9
        }
    }

    /// Estimated seconds over all calls.
    pub fn total_s(&self) -> f64 {
        self.scale(self.ns)
    }

    /// Estimated seconds over all calls, minus the child spans.
    pub fn self_s(&self) -> f64 {
        self.scale(self.ns.saturating_sub(self.child_ns))
    }
}

/// Everything recorded on this thread since the last [`take`].
#[derive(Clone, Debug, Default)]
pub struct Recorded {
    spans: [Span; LAYERS],
    /// `MemorySystem` calls a queue refused.
    pub enqueue_rejects: u64,
}

impl Recorded {
    /// The span of `layer`.
    pub fn span(&self, layer: Layer) -> Span {
        self.spans[layer as usize]
    }
}

thread_local! {
    static SAMPLING: Cell<bool> = const { Cell::new(false) };
    static PARENT: Cell<Option<Layer>> = const { Cell::new(None) };
    static RECORDED: RefCell<Recorded> = RefCell::new(Recorded::default());
    static CLOCK_NS: Cell<u64> = const { Cell::new(0) };
}

/// Measures what timing an empty call costs on this thread: the median
/// of many samples, subtracted from every later sample.
pub fn calibrate() {
    let mut samples: Vec<u64> = (0..10_001)
        .map(|_| {
            let start = Instant::now();
            black_box(());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    CLOCK_NS.set(samples[samples.len() / 2]);
}

/// Nanoseconds since `start`, less the cost of reading the clock.
pub fn elapsed_ns(start: Instant) -> u64 {
    (start.elapsed().as_nanos() as u64).saturating_sub(CLOCK_NS.get())
}

/// Times the calls made until the next call with `false`.
pub fn set_sampling(on: bool) {
    SAMPLING.set(on);
}

/// Returns and clears what this thread recorded.
pub fn take() -> Recorded {
    RECORDED.take()
}

/// Runs `f` as one call of `layer`.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !SAMPLING.get() {
        RECORDED.with_borrow_mut(|r| r.spans[layer as usize].calls += 1);
        return f();
    }
    let parent = PARENT.replace(Some(layer));
    let start = Instant::now();
    let out = f();
    let raw = start.elapsed().as_nanos() as u64;
    let ns = raw.saturating_sub(CLOCK_NS.get());
    PARENT.set(parent);
    RECORDED.with_borrow_mut(|r| {
        let s = &mut r.spans[layer as usize];
        s.calls += 1;
        s.sampled += 1;
        s.ns += ns;
        if let Some(p) = parent {
            r.spans[p as usize].child_ns += raw;
        }
    });
    out
}

fn note_reject() {
    RECORDED.with_borrow_mut(|r| r.enqueue_rejects += 1);
}

/// A [`TrngMechanism`] that forwards to `inner` and records every draw.
pub struct TracedTrng(pub Box<dyn TrngMechanism>);

impl TrngMechanism for TracedTrng {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn batch_bits(&self) -> u32 {
        self.0.batch_bits()
    }
    fn batch_latency(&self) -> u64 {
        self.0.batch_latency()
    }
    fn demand_switch_cycles(&self) -> u64 {
        self.0.demand_switch_cycles()
    }
    fn fill_switch_cycles(&self) -> u64 {
        self.0.fill_switch_cycles()
    }
    fn batch_commands(&self) -> BatchCommands {
        self.0.batch_commands()
    }
    fn draw(&mut self, count: u32) -> u64 {
        span(Layer::TrngDraw, || self.0.draw(count))
    }
    fn sustained_throughput_gbps(&self, channels: u32) -> f64 {
        self.0.sustained_throughput_gbps(channels)
    }
    fn demand_latency_cycles(&self, channels: u32) -> u64 {
        self.0.demand_latency_cycles(channels)
    }
}

/// A [`TraceSource`] that forwards to `inner` and records every op.
pub struct TracedTrace(pub Box<dyn TraceSource + Send>);

impl TraceSource for TracedTrace {
    fn next_op(&mut self) -> TraceOp {
        span(Layer::TraceNext, || self.0.next_op())
    }
}

/// Wraps every trace of a workload in [`TracedTrace`].
pub fn traced_traces(traces: Vec<Box<dyn TraceSource + Send>>) -> Vec<Box<dyn TraceSource + Send>> {
    traces
        .into_iter()
        .map(|t| Box::new(TracedTrace(t)) as Box<dyn TraceSource + Send>)
        .collect()
}

/// The [`MemorySystem`] a core sees in the replica loop: forwards to the
/// memory subsystem and records each request and each refusal.
pub struct TracedMem<'a, M: MemorySystem>(pub &'a mut M);

impl<M: MemorySystem> MemorySystem for TracedMem<'_, M> {
    fn try_load(&mut self, core: CoreId, line_addr: u64) -> Option<RequestId> {
        let id = span(Layer::Enqueue, || self.0.try_load(core, line_addr));
        if id.is_none() {
            note_reject();
        }
        id
    }

    fn try_store(&mut self, core: CoreId, line_addr: u64) -> bool {
        let accepted = span(Layer::Enqueue, || self.0.try_store(core, line_addr));
        if !accepted {
            note_reject();
        }
        accepted
    }

    fn try_rng(&mut self, core: CoreId) -> Option<RequestId> {
        let id = span(Layer::Enqueue, || self.0.try_rng(core));
        if id.is_none() {
            note_reject();
        }
        id
    }
}
