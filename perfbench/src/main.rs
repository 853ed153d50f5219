//! Benchmark of the DR-STRaNGe simulator, `getrandom()` service, server
//! and fleet, end to end and layer by layer.
//!
//! ```text
//! strange-perfbench <phase> <workload> <seed> <seconds>
//! ```
//!
//! * `check` runs the output checks at reduced scale: fast-forward equals
//!   the per-cycle reference, the forwarding wrappers and the replica loop
//!   equal the unwrapped `System::run`, the traced `advance_until` equals
//!   the untraced run, no run hits the cycle limit, and no word is served
//!   twice.
//! * `measure` builds the workload several times (set-up time), then runs
//!   it untraced, again and again, for `seconds` and reports the
//!   end-to-end metrics. A simulation workload runs on two threads at
//!   once, one per CPU of a two-CPU host.
//! * `trace` alternates untraced and traced runs for `seconds` and reports
//!   the per-layer metrics and the tracing overhead.
//!
//! Host-time metrics are the best of many short runs: the highest
//! simulation speed and call rate, and (per layer) the lowest per-run
//! call latency percentiles. On a shared host, contention from other
//! tenants only ever slows a run, by up to half and for seconds to
//! minutes at a time, so the median run moves with the neighbours while
//! the best one tracks the program. Set-up time is a median over groups
//! of samples (see [`SETUP_GROUP`]). Simulated metrics repeat exactly,
//! and every run's digest must equal the first.
//!
//! Each phase prints one JSON object as its last line. A failed check
//! panics, so the process exits with a non-zero code. `perfbench/run.py`
//! builds this program and runs the phases each in its own process, so
//! that peak memory is measured on the measured phase alone.

mod fleet;
mod layers;
mod replica;
mod sim;

use std::collections::BTreeMap;
use std::time::Instant;

use strange_core::{SimMode, System};

use layers::{Layer, TracedTrng};
use replica::Replica;
use sim::{
    assert_unique, rng_calls, run_digest, served_words, simulated_metrics, traced_advance, Scale,
    SimInputs, Simulated,
};

/// Set-up is timed this many times before the measured runs (each
/// measured run adds one more sample).
const SETUP_REPS: usize = 8;
/// Set-up samples are taken in groups of this many consecutive ones, and
/// `setup_s` is the median of each group's fastest: set-up is a few
/// milliseconds of computation, which a neighbour's burst on the shared
/// host slows by a third for a few samples at a time.
const SETUP_GROUP: usize = 8;
/// Fewest measured runs, however long they take.
const MIN_REPS: usize = 3;

/// What a phase prints.
#[derive(Default)]
struct Output {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    digests: BTreeMap<String, String>,
}

impl Output {
    fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "{name} is not a finite number: {value}");
        self.metrics.insert(name.to_string(), value);
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:?}"))
            .collect();
        let digests: Vec<String> = self
            .digests
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        format!(
            "{{\"attempted\": {}, \"metrics\": {{{}}}, \"digests\": {{{}}}}}",
            self.attempted,
            metrics.join(", "),
            digests.join(", ")
        )
    }
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median over consecutive groups of [`SETUP_GROUP`] set-up samples
/// of each group's fastest.
fn setup_s(runs: &[&[f64]]) -> f64 {
    let fastest: Vec<f64> = runs
        .iter()
        .flat_map(|samples| samples.chunks(SETUP_GROUP).map(min))
        .collect();
    median(&fastest)
}

fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile.
fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Runs `round` until `seconds` have passed and at least `min` rounds ran.
fn repeat(seconds: f64, min: usize, mut round: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed().as_secs_f64() < seconds {
        round();
        n += 1;
    }
    n
}

/// Asserts that every value in `xs` equals the first.
fn assert_repeats<T: PartialEq + std::fmt::Debug>(what: &str, xs: &[T]) {
    for x in xs {
        assert_eq!(x, &xs[0], "{what} differs between runs of the same input");
    }
}

// ---------------------------------------------------------------- check

fn check_sim(name: &str, seed: u64, out: &mut Output) {
    let inputs = SimInputs::new(name, seed, Scale::Check);
    let mut ff = inputs.system(SimMode::FastForward);
    let r_ff = ff.run();
    let mut reference = inputs.system(SimMode::Reference);
    let r_ref = reference.run();
    assert!(!r_ff.hit_cycle_limit, "{name}: hit the cycle limit");
    assert!(
        ff.skipped_cycles() > 0,
        "{name}: fast-forward skipped nothing"
    );
    let digest = run_digest(&r_ff, served_words(&ff));
    assert_eq!(
        digest,
        run_digest(&r_ref, served_words(&reference)),
        "{name}: FastForward differs from Reference"
    );
    assert_unique(name, served_words(&ff));

    // Forwarding TRNG and traces, timing every call.
    let mut wrapped = inputs.traced_system();
    layers::set_sampling(true);
    let r_wrapped = wrapped.run();
    layers::set_sampling(false);
    assert_eq!(
        run_digest(&r_wrapped, served_words(&wrapped)),
        digest,
        "{name}: the forwarding wrappers changed the run"
    );

    // `advance_until`, traced, over the same number of cycles.
    let mut advanced = inputs.traced_system();
    let t = traced_advance(&mut advanced, r_ff.cpu_cycles);
    assert_eq!(
        t.cycles, r_ff.cpu_cycles,
        "{name}: advance_until stopped early"
    );
    assert_eq!(
        advanced.mem().stats(),
        &r_ff.stats,
        "{name}: traced engine stats differ"
    );
    assert_eq!(
        served_words(&advanced),
        served_words(&ff),
        "{name}: traced words differ"
    );
    if let Some(svc) = advanced.service() {
        assert_eq!(
            Some(svc.stats()),
            r_ff.service.as_ref(),
            "{name}: traced service stats differ"
        );
    }

    // The replica loop with the forwarding memory system.
    if inputs.workload.is_some() {
        let mut rep = Replica::new(
            inputs.config.clone(),
            layers::traced_traces(inputs.traces()),
            Box::new(TracedTrng(inputs.mechanism())),
        );
        let r_rep = rep.run(true);
        assert_eq!(
            run_digest(&r_rep, rep.mem().value_log()),
            digest,
            "{name}: the replica loop differs from System::run"
        );
    }
    layers::take();
    out.digests.insert(format!("{name}.check"), digest);
    out.attempted = 1;
}

fn check_fleet(seed: u64, out: &mut Output) {
    let plan = fleet::Plan::at(Scale::Check);
    let ff = fleet::drive(fleet::start(seed, SimMode::FastForward), plan, false);
    let reference = fleet::drive(fleet::start(seed, SimMode::Reference), plan, false);
    let digest = fleet::digest(&ff.report);
    assert_eq!(
        digest,
        fleet::digest(&reference.report),
        "fleet_flash: FastForward differs from Reference"
    );
    out.digests.insert("fleet_flash.check".into(), digest);
    out.attempted = ff.offered;
}

// -------------------------------------------------------------- measure

/// What one measuring thread saw: set-up samples, rates and digests.
#[derive(Default)]
struct SimReps {
    setups: Vec<f64>,
    rates: Vec<f64>,
    calls: Vec<f64>,
    digests: Vec<String>,
    simulated: Option<Simulated>,
}

fn sim_reps(name: &str, inputs: &SimInputs, seconds: f64) -> SimReps {
    let mut reps = SimReps::default();
    repeat(seconds, MIN_REPS, || {
        let at = Instant::now();
        let mut sys = inputs.system(SimMode::FastForward);
        reps.setups.push(at.elapsed().as_secs_f64());
        let at = Instant::now();
        let r = sys.run();
        let wall = at.elapsed().as_secs_f64();

        assert!(!r.hit_cycle_limit, "{name}: hit the cycle limit");
        reps.rates.push(r.cpu_cycles as f64 / wall / 1e6);
        reps.calls.push(rng_calls(&r) as f64 / wall);
        reps.digests.push(run_digest(&r, served_words(&sys)));
        if reps.simulated.is_none() {
            assert_unique(name, served_words(&sys));
            reps.simulated = Some(simulated_metrics(inputs, &r));
        }
    });
    reps
}

/// Runs the workload on one thread per CPU (at most two), so that a
/// neighbour contending for one physical core does not hide the
/// program's speed for the whole run.
fn measure_sim(name: &str, seed: u64, seconds: f64, out: &mut Output) {
    let inputs = SimInputs::new(name, seed, Scale::Full);
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let at = Instant::now();
            let sys = inputs.system(SimMode::FastForward);
            let s = at.elapsed().as_secs_f64();
            drop(sys);
            s
        })
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let per_thread: Vec<SimReps> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(|| sim_reps(name, &inputs, seconds)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a measuring thread panicked"))
            .collect()
    });
    let (mut rates, mut calls, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup_runs = vec![setups.as_slice()];
    for reps in &per_thread {
        setup_runs.push(&reps.setups);
        rates.extend(&reps.rates);
        calls.extend(&reps.calls);
        digests.extend(reps.digests.iter().cloned());
    }
    assert_repeats(name, &digests);
    out.set("setup_s", setup_s(&setup_runs));
    out.set("sim_mcycles_per_s", max(&rates));
    out.set("calls_per_s", max(&calls));
    let simulated = per_thread[0].simulated.as_ref().expect("at least one run");
    for &(k, v) in &simulated.end_to_end {
        out.set(k, v);
    }
    out.digests.insert(name.to_string(), digests[0].clone());
    out.attempted = rates.len() as u64;
}

fn measure_fleet(seed: u64, seconds: f64, out: &mut Output) {
    let mut setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let at = Instant::now();
            let f = fleet::start(seed, SimMode::FastForward);
            let s = at.elapsed().as_secs_f64();
            f.shutdown();
            s
        })
        .collect();
    let plan = fleet::Plan::at(Scale::Full);
    let (mut rates, mut calls, mut digests) = (vec![], vec![], vec![]);
    let mut simulated = Vec::new();
    let mut offered = 0;
    repeat(seconds, MIN_REPS, || {
        let at = Instant::now();
        let f = fleet::start(seed, SimMode::FastForward);
        setups.push(at.elapsed().as_secs_f64());
        let run = fleet::drive(f, plan, false);
        offered += run.offered;
        rates.push(run.cycles as f64 / run.wall_s / 1e6);
        calls.push(run.offered as f64 / run.wall_s);
        digests.push(fleet::digest(&run.report));
        simulated = run.simulated.end_to_end;
    });
    assert_repeats("fleet_flash", &digests);
    out.set("setup_s", setup_s(&[&setups]));
    out.set("sim_mcycles_per_s", max(&rates));
    out.set("calls_per_s", max(&calls));
    for (k, v) in simulated {
        out.set(k, v);
    }
    out.digests.insert("fleet_flash".into(), digests[0].clone());
    out.attempted = offered;
}

// ---------------------------------------------------------------- trace

/// Per-round values of each per-layer metric. Every one is either a
/// simulated value that repeats exactly or a host time, so the least
/// value is the best-of-N figure.
#[derive(Default)]
struct Rounds(BTreeMap<&'static str, Vec<f64>>);

impl Rounds {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn report(&self, out: &mut Output) {
        for (k, v) in &self.0 {
            out.set(k, min(v));
        }
    }
}

/// Counts, fractions and simulated metrics read from the untraced run's
/// outputs.
fn sim_counts(inputs: &SimInputs, sys: &System, r: &strange_core::RunResult, rounds: &mut Rounds) {
    for (k, v) in simulated_metrics(inputs, r).per_layer {
        rounds.push(k, v);
    }
    let s = &r.stats;
    rounds.push("engine.buffer_hit_frac", s.buffer_serve_rate());
    rounds.push("engine.demand_generations", s.demand_generations as f64);
    rounds.push("engine.fill_batches", s.fill_batches as f64);
    rounds.push("engine.starvation_overrides", s.starvation_overrides as f64);
    let ch = r.total_channel_stats();
    rounds.push("dram.row_hit_frac", ch.row_hit_rate());
    rounds.push("dram.idle_frac", ch.idle_fraction());
    rounds.push(
        "dram.rng_cmds",
        (ch.rng_acts + ch.rng_reads + ch.rng_pres) as f64,
    );
    let channels = sys.mem().channels();
    let rebuilds: u64 = channels
        .iter()
        .map(|c| c.read_readiness_rebuilds() + c.write_readiness_rebuilds())
        .sum();
    let recomputes: u64 = channels
        .iter()
        .map(|c| c.readiness_recompute_counts().0)
        .sum();
    rounds.push("dram.readiness_rebuilds", rebuilds as f64);
    rounds.push("dram.readiness_recomputes", recomputes as f64);
    if let Some(svc) = &r.service {
        rounds.push("health.windows_tested", s.windows_tested as f64);
        rounds.push("service.buffer_hit_frac", svc.buffer_hit_rate());
        rounds.push(
            "service.issue_blocked_frac",
            svc.issue_blocked_cycles as f64 / r.cpu_cycles as f64,
        );
    }
}

fn trace_sim(name: &str, seed: u64, seconds: f64, out: &mut Output) {
    let inputs = SimInputs::new(name, seed, Scale::Full);
    let trace_cores = inputs.workload.is_some();
    let mut rounds = Rounds::default();
    let (mut counts, mut digests) = (Vec::new(), Vec::new());
    // Wall seconds of the untraced, `advance_until`-traced and replica runs.
    let mut times: [Vec<f64>; 3] = Default::default();
    let reps = repeat(seconds, 1, || {
        let mut sys = inputs.system(SimMode::FastForward);
        let at = Instant::now();
        let r = sys.run();
        times[0].push(at.elapsed().as_secs_f64());
        let digest = run_digest(&r, served_words(&sys));
        sim_counts(&inputs, &sys, &r, &mut rounds);

        // `sim`, `trng` and `workloads`: System::advance_until with the
        // forwarding TRNG and traces.
        let mut traced = inputs.traced_system();
        layers::take();
        let at = Instant::now();
        let t = traced_advance(&mut traced, r.cpu_cycles);
        times[1].push(at.elapsed().as_secs_f64());
        let rec = layers::take();
        assert_eq!(
            served_words(&traced),
            served_words(&sys),
            "{name}: traced words differ"
        );
        if let Some(svc) = traced.service() {
            assert_eq!(
                Some(svc.stats()),
                r.service.as_ref(),
                "{name}: traced service stats differ"
            );
        }
        let steps = t.live_steps as f64;
        let spans = t.skip_spans as f64;
        rounds.push("sim.live_steps", steps);
        rounds.push("sim.step_ns", t.step_ns());
        rounds.push("sim.span_yield", spans / (steps + spans));
        rounds.push("sim.skip_spans", spans);
        rounds.push(
            "sim.skipped_frac",
            t.skipped_cycles as f64 / t.cycles as f64,
        );
        rounds.push("sim.skip_ns", t.skip_ns());
        let draw = rec.span(Layer::TrngDraw);
        rounds.push("trng.draws", draw.calls as f64);
        rounds.push("trng.draw_s", draw.total_s());
        let mut count = vec![t.counts().to_vec(), vec![draw.calls]];
        if trace_cores {
            let next = rec.span(Layer::TraceNext);
            rounds.push("workloads.ops", next.calls as f64);
            rounds.push("workloads.next_s", next.total_s());
            let at = Instant::now();
            let traces = inputs.traces();
            rounds.push("workloads.build_s", at.elapsed().as_secs_f64());
            drop(traces);

            // `cpu` and `engine`: the replica loop.
            let mut rep = Replica::new(
                inputs.config.clone(),
                layers::traced_traces(inputs.traces()),
                Box::new(TracedTrng(inputs.mechanism())),
            );
            layers::take();
            let at = Instant::now();
            let rr = rep.run(true);
            times[2].push(at.elapsed().as_secs_f64());
            let rec = layers::take();
            assert_eq!(
                run_digest(&rr, rep.mem().value_log()),
                digest,
                "{name}: the replica loop differs from System::run"
            );
            let enqueue = rec.span(Layer::Enqueue);
            rounds.push("cpu.tick_s", rec.span(Layer::CpuTick).self_s());
            rounds.push("cpu.probe_s", rec.span(Layer::CpuProbe).total_s());
            rounds.push("cpu.skip_s", rec.span(Layer::CpuSkip).total_s());
            rounds.push("engine.tick_s", rec.span(Layer::EngineTick).self_s());
            rounds.push("engine.probe_s", rec.span(Layer::EngineProbe).total_s());
            rounds.push("engine.skip_s", rec.span(Layer::EngineSkip).total_s());
            rounds.push("engine.enqueue_s", enqueue.total_s());
            rounds.push(
                "engine.enqueue_reject_frac",
                rec.enqueue_rejects as f64 / enqueue.calls.max(1) as f64,
            );
            count.push(vec![next.calls, enqueue.calls, rec.enqueue_rejects]);
        }
        counts.push(count);
        digests.push(digest);
    });
    assert_repeats(name, &counts);
    assert_repeats(name, &digests);
    rounds.report(out);
    out.set("trace.overhead_sim", min(&times[1]) / min(&times[0]) - 1.0);
    if trace_cores {
        out.set(
            "trace.overhead_replica",
            min(&times[2]) / min(&times[0]) - 1.0,
        );
    }
    out.digests.insert(name.to_string(), digests[0].clone());
    out.attempted = reps as u64;
}

fn trace_fleet(seed: u64, seconds: f64, out: &mut Output) {
    let plan = fleet::Plan::at(Scale::Full);
    let mut rounds = Rounds::default();
    let mut offered = 0;
    let mut digests = Vec::new();
    let mut times: [Vec<f64>; 2] = Default::default();
    repeat(seconds, 1, || {
        let untraced = fleet::drive(fleet::start(seed, SimMode::FastForward), plan, false);
        let run = fleet::drive(fleet::start(seed, SimMode::FastForward), plan, true);
        assert_eq!(
            fleet::digest(&run.report),
            fleet::digest(&untraced.report),
            "fleet_flash: the traced run differs"
        );
        offered += run.offered + untraced.offered;
        digests.push(fleet::digest(&run.report));
        times[0].push(untraced.wall_s);
        times[1].push(run.wall_s);
        rounds.push("call_p50_us", percentile(&untraced.call_us, 0.50));
        rounds.push("call_p99_us", percentile(&untraced.call_us, 0.99));
        for &(k, v) in &untraced.simulated.per_layer {
            rounds.push(k, v);
        }
        rounds.push("server.submit_ns", run.submit_ns);
        rounds.push("server.wait_us", run.wait_us);
        rounds.push("server.driver_cpu_s", run.driver_cpu_s);
        rounds.push("server.client_cpu_s", run.client_cpu_s);
        rounds.push("server.shutdown_s", run.shutdown_s);
        rounds.push("server.shed", run.report.admission.shed() as f64);
        rounds.push("server.deferred", run.report.admission.deferred as f64);
        rounds.push("server.timed_out", run.report.admission.timed_out as f64);
        rounds.push("fleet.open_us", run.open_us);
        rounds.push("fleet.shard_jain", run.jain);
        rounds.push("fleet.aggregate_ms", run.aggregate_ms);
    });
    assert_repeats("fleet_flash", &digests);
    rounds.report(out);
    out.set(
        "trace.overhead_fleet",
        min(&times[1]) / min(&times[0]) - 1.0,
    );
    out.digests.insert("fleet_flash".into(), digests[0].clone());
    out.attempted = offered;
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage: strange-perfbench <check|measure|trace> <workload> <seed> <seconds>";
    assert_eq!(args.len(), 5, "{usage}");
    let (phase, workload) = (args[1].as_str(), args[2].as_str());
    let seed: u64 = args[3].parse().expect(usage);
    let seconds: f64 = args[4].parse().expect(usage);
    let mut out = Output::default();
    layers::calibrate();
    match (phase, workload) {
        ("check", "fleet_flash") => check_fleet(seed, &mut out),
        ("check", w) => check_sim(w, seed, &mut out),
        ("measure", "fleet_flash") => measure_fleet(seed, seconds, &mut out),
        ("measure", w) => measure_sim(w, seed, seconds, &mut out),
        ("trace", "fleet_flash") => trace_fleet(seed, seconds, &mut out),
        ("trace", w) => trace_sim(w, seed, seconds, &mut out),
        _ => panic!("{usage}"),
    }
    if phase == "measure" {
        out.set("peak_rss_mb", peak_rss_mb());
    }
    println!("{}", out.json());
}
