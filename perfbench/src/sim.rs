//! The three simulation workloads: their inputs, the metrics read from
//! their results, and the sampled trace of `System::advance_until`.

use std::fmt::Write as _;
use std::time::Instant;

use strange_core::{RunResult, ServiceStats, SimMode, System, SystemConfig, WatchdogConfig};
use strange_dram::{CPU_CYCLES_PER_MEM_CYCLE, CPU_GHZ};
use strange_trng::{DRange, TrngMechanism};
use strange_workloads::{app_by_name, four_core_groups, wfq_service, Workload};

use crate::layers::{elapsed_ns, set_sampling, traced_traces, TracedTrng, SAMPLE_EVERY};

/// The HHHS draw of `four_core_groups`. Fixed rather than taken from the
/// benchmark seed: different draws differ in IPC and simulation speed by
/// far more than any metric's bound (the High class spans MPKI 11-45).
const MIX_GROUP_SEED: u64 = 2022;

/// Safety cap on the service run's length: 2.5 simulated seconds.
const SVC_CYCLE_LIMIT: u64 = 10_000_000_000;

/// Index of the Low tenant in `wfq_service`'s client list.
const WFQ_LOW_CLIENT: usize = 3;

/// How large a simulation run is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// Small enough for the per-cycle reference loop.
    Check,
}

/// One simulation workload instance: configuration, traces and TRNG seed.
pub struct SimInputs {
    /// The system configuration (fast-forward mode).
    pub config: SystemConfig,
    /// The trace cores' applications (`None` for the coreless service).
    pub workload: Option<Workload>,
    seed: u64,
}

impl SimInputs {
    /// Builds the inputs of workload `name` for `seed` at `scale`.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not a simulation workload.
    pub fn new(name: &str, seed: u64, scale: Scale) -> SimInputs {
        let full = scale == Scale::Full;
        let (config, workload) = match name {
            "pair_idle" => {
                let povray = app_by_name("povray").expect("povray is in the catalog");
                let instr = if full { 30_000_000 } else { 4_000_000 };
                (
                    SystemConfig::dr_strange(2).with_instruction_target(instr),
                    Some(Workload::pair(&povray, 640)),
                )
            }
            "mix_busy" => {
                let groups = four_core_groups(1, MIX_GROUP_SEED);
                let (_, hhhs) = groups
                    .into_iter()
                    .find(|(shape, _)| shape == "HHHS")
                    .expect("four_core_groups has an HHHS group");
                let instr = if full { 500_000 } else { 200_000 };
                (
                    SystemConfig::dr_strange(4).with_instruction_target(instr),
                    Some(hhhs[0].clone()),
                )
            }
            "svc_saturated" => {
                let low_requests = if full { 30 } else { 10 };
                let (mut service, fairness) = wfq_service(64, low_requests);
                service.capture_values = true;
                let mut config = SystemConfig::dr_strange(0)
                    .with_service(service)
                    .with_fairness(fairness)
                    .with_watchdog(WatchdogConfig::standard());
                // The default cap scales with the instruction target,
                // which a coreless system does not use.
                config.max_cpu_cycles = SVC_CYCLE_LIMIT;
                (config, None)
            }
            other => panic!("{other} is not a simulation workload"),
        };
        SimInputs {
            config,
            workload,
            seed,
        }
    }

    /// The applications' trace generators (empty without trace cores).
    pub fn traces(&self) -> Vec<Box<dyn strange_cpu::TraceSource + Send>> {
        self.workload
            .as_ref()
            .map(Workload::traces)
            .unwrap_or_default()
    }

    /// The TRNG mechanism, seeded by the benchmark seed.
    pub fn mechanism(&self) -> Box<dyn TrngMechanism> {
        Box::new(DRange::new(self.seed))
    }

    /// The system, unwrapped, in `mode`.
    pub fn system(&self, mode: SimMode) -> System {
        let mut sys = System::new(
            self.config.clone().with_sim_mode(mode),
            self.traces(),
            self.mechanism(),
        )
        .expect("valid configuration");
        sys.set_value_log(true);
        sys
    }

    /// The system with the forwarding TRNG and traces in place.
    pub fn traced_system(&self) -> System {
        let mut sys = System::new(
            self.config.clone(),
            traced_traces(self.traces()),
            Box::new(TracedTrng(self.mechanism())),
        )
        .expect("valid configuration");
        sys.set_value_log(true);
        sys
    }
}

/// The words a finished system served: the service's captured words, or
/// the memory subsystem's value log for trace cores.
pub fn served_words(sys: &System) -> &[u64] {
    match sys.service() {
        Some(svc) => svc.captured_words(),
        None => sys.mem().value_log(),
    }
}

/// FNV-1a over formatted text: a digest of simulated outputs that is
/// stable across runs and hosts.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

impl Digest {
    /// Adds `value`'s `Debug` form.
    pub fn add(&mut self, value: &impl std::fmt::Debug) -> &mut Self {
        write!(self, "{value:?};").expect("digest writes cannot fail");
        self
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a run's result and the words it served.
pub fn run_digest(result: &RunResult, words: &[u64]) -> String {
    Digest::default().add(result).add(&words).hex()
}

/// Panics unless no word in `words` is served twice.
pub fn assert_unique(what: &str, words: &[u64]) {
    let mut sorted = words.to_vec();
    sorted.sort_unstable();
    let before = sorted.len();
    sorted.dedup();
    assert_eq!(sorted.len(), before, "{what}: a served word was duplicated");
}

/// Megabits per simulated second of `bytes` served over `cycles`.
pub fn served_mbps(bytes: u64, cycles: u64) -> f64 {
    mbps(bytes as f64 * 8.0, cycles)
}

fn mbps(bits: f64, cycles: u64) -> f64 {
    bits / (cycles as f64 / (CPU_GHZ * 1e9)) / 1e6
}

/// Bits in one RNG request of a trace core.
const RNG_WORD_BITS: f64 = 64.0;

/// A run's simulated metrics, by name.
#[derive(Clone, Debug, Default)]
pub struct Simulated {
    /// Reported by every workload: RNG throughput delivered and the mean
    /// latency of one RNG request as its requester sees it, in CPU cycles.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Reported where the workload has the layer: IPC of trace cores,
    /// the service's latency percentiles.
    pub per_layer: Vec<(&'static str, f64)>,
}

/// RNG requests a run completed: the RNG app's words, or the service's
/// `getrandom()` calls.
pub fn rng_calls(r: &RunResult) -> u64 {
    match &r.service {
        Some(s) => s.requests_completed,
        None => r.stats.rng_completions,
    }
}

/// The simulated metrics of one run.
pub fn simulated_metrics(inputs: &SimInputs, r: &RunResult) -> Simulated {
    match (&inputs.workload, &r.service) {
        (Some(w), _) => {
            let rng = w.rng_core().expect("trace workloads include the RNG app");
            let nonrng = w.non_rng_cores();
            let ipc_nonrng =
                nonrng.iter().map(|&c| r.cores[c].ipc()).sum::<f64>() / nonrng.len() as f64;
            let bits = r.stats.rng_completions as f64 * RNG_WORD_BITS;
            Simulated {
                end_to_end: vec![
                    // Over the RNG app's run to its instruction target;
                    // it asks for no words after that.
                    (
                        "served_mbps",
                        mbps(bits, r.cores[rng].exec_cycles(r.cpu_cycles)),
                    ),
                    (
                        "rng_latency_mean_cycles",
                        r.stats.avg_rng_latency() * CPU_CYCLES_PER_MEM_CYCLE as f64,
                    ),
                ],
                per_layer: vec![("ipc_nonrng", ipc_nonrng), ("ipc_rng", r.cores[rng].ipc())],
            }
        }
        (None, Some(s)) => service_metrics(s, r.cpu_cycles),
        (None, None) => unreachable!("every simulation workload has cores or a service"),
    }
}

/// Served throughput and latencies of the service run.
fn service_metrics(s: &ServiceStats, cycles: u64) -> Simulated {
    let pct = s.latency_percentiles(&[0.50, 0.99]);
    Simulated {
        end_to_end: vec![
            ("served_mbps", served_mbps(s.bytes_served, cycles)),
            (
                "rng_latency_mean_cycles",
                s.mean_latency().expect("requests completed"),
            ),
        ],
        per_layer: vec![
            ("rng_p50_cycles", pct[0].expect("requests completed") as f64),
            ("rng_p99_cycles", pct[1].expect("requests completed") as f64),
            (
                "low_tenant_p99_cycles",
                s.client_latency_percentile(WFQ_LOW_CLIENT, 0.99)
                    .expect("the Low tenant completed requests") as f64,
            ),
        ],
    }
}

/// Counts and sampled times of `System::advance_until`'s iterations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimTrace {
    /// Iterations that ticked one cycle.
    pub live_steps: u64,
    /// Iterations that skipped a dead span.
    pub skip_spans: u64,
    /// CPU cycles covered by skips.
    pub skipped_cycles: u64,
    /// CPU cycles advanced.
    pub cycles: u64,
    step_sampled: u64,
    step_ns: u64,
    skip_sampled: u64,
    skip_ns: u64,
}

impl SimTrace {
    /// Mean nanoseconds of a sampled live step.
    pub fn step_ns(&self) -> f64 {
        self.step_ns as f64 / self.step_sampled.max(1) as f64
    }

    /// Mean nanoseconds of a sampled skip.
    pub fn skip_ns(&self) -> f64 {
        self.skip_ns as f64 / self.skip_sampled.max(1) as f64
    }

    /// The counts alone, which must repeat exactly from run to run.
    pub fn counts(&self) -> [u64; 4] {
        [
            self.live_steps,
            self.skip_spans,
            self.skipped_cycles,
            self.cycles,
        ]
    }
}

/// Advances `sys` by `cycles` through `System::advance_until`, telling
/// steps from skips by the change in `skipped_cycles()` at each call of
/// the stop callback, and timing one iteration in [`SAMPLE_EVERY`].
pub fn traced_advance(sys: &mut System, cycles: u64) -> SimTrace {
    let mut t = SimTrace::default();
    let mut iteration = 0u64;
    let mut last_skipped = sys.skipped_cycles();
    let mut started: Option<Instant> = None;
    let mut close = |t: &mut SimTrace, skipped: u64, started: Option<Instant>| {
        let skip = skipped != last_skipped;
        last_skipped = skipped;
        if skip {
            t.skip_spans += 1;
        } else {
            t.live_steps += 1;
        }
        if let Some(at) = started {
            let ns = elapsed_ns(at);
            if skip {
                t.skip_sampled += 1;
                t.skip_ns += ns;
            } else {
                t.step_sampled += 1;
                t.step_ns += ns;
            }
        }
    };
    let skipped_before = sys.skipped_cycles();
    t.cycles = sys.advance_until(cycles, |s| {
        if iteration > 0 {
            close(&mut t, s.skipped_cycles(), started.take());
        }
        let sample = iteration.is_multiple_of(SAMPLE_EVERY);
        set_sampling(sample);
        iteration += 1;
        if sample {
            started = Some(Instant::now());
        }
        false
    });
    if iteration > 0 {
        close(&mut t, sys.skipped_cycles(), started.take());
    }
    set_sampling(false);
    t.skipped_cycles = sys.skipped_cycles() - skipped_before;
    t
}
