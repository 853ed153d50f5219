//! The `fleet_flash` workload: a two-shard `FleetServer` under virtual
//! pacing and admission control, driven by one polling client thread.
//!
//! Every session is opened before any request is submitted, so each
//! shard's virtual time stands still at cycle 0 until the whole
//! population is in place. From then on a session that has just received
//! an outcome holds its shard's virtual time until the client answers
//! with its next request or closes it, which makes every simulated
//! output independent of host scheduling.

use std::time::Instant;

use strange_core::{ClientSpec, QosClass, ServiceConfig, SimMode, System, SystemConfig};
use strange_server::fleet::{FleetReport, FleetServer, FleetSession, RoutePolicy};
use strange_server::{AdmissionConfig, Pacing, SubmitOutcome};
use strange_trng::DRange;
use strange_workloads::fleet_shard_seed;

use crate::sim::{assert_unique, served_mbps, Digest, Scale, Simulated};

const SHARDS: usize = 2;
const BYTES: usize = 32;
/// Cycles between the first requests of consecutive ramp sessions.
const STAGGER: u64 = 4_000;
/// Think time of a ramp session between its calls.
const THINK: u64 = 500;
/// Think time of the Low victim.
const VICTIM_THINK: u64 = 4_000;
/// Deadline of every call, in cycles from its scheduled arrival.
const DEADLINE: u64 = 400_000;

/// The population of one run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Short-lived High ramp sessions.
    pub sessions: usize,
    /// Calls per ramp session.
    pub calls: usize,
    /// Calls of the Low victim.
    pub victim_calls: usize,
}

impl Plan {
    /// The population at `scale`.
    pub fn at(scale: Scale) -> Plan {
        match scale {
            Scale::Full => Plan {
                sessions: 96,
                calls: 60,
                victim_calls: 300,
            },
            Scale::Check => Plan {
                sessions: 16,
                calls: 12,
                victim_calls: 40,
            },
        }
    }
}

/// Per-tenant token bucket: a burst of 4 calls, then one call per
/// 10 000 cycles, well below what a ramp session asks for.
fn admission() -> AdmissionConfig {
    AdmissionConfig::protective(4, 10_000)
}

fn shard_systems(seed: u64, mode: SimMode) -> Vec<System> {
    (0..SHARDS)
        .map(|s| {
            let cfg = SystemConfig::dr_strange(0)
                .with_sim_mode(mode)
                .with_service(ServiceConfig {
                    sessions: true,
                    capture_values: true,
                    ..ServiceConfig::default()
                });
            System::new(
                cfg,
                Vec::new(),
                Box::new(DRange::new(fleet_shard_seed(seed, s))),
            )
            .expect("valid configuration")
        })
        .collect()
}

/// Builds and starts the fleet: the benchmark's set-up for this workload.
pub fn start(seed: u64, mode: SimMode) -> FleetServer {
    FleetServer::start_with_admission(
        shard_systems(seed, mode),
        RoutePolicy::RoundRobin,
        Pacing::Virtual,
        admission(),
    )
}

/// What one run produced, as seen by the client and by the report.
pub struct FleetRun {
    /// Calls submitted.
    pub offered: u64,
    /// Host round trips of served calls after each session's first, in µs.
    pub call_us: Vec<f64>,
    /// Host seconds from the first submit to the last outcome.
    pub wall_s: f64,
    /// Mean host ns of one submit call.
    pub submit_ns: f64,
    /// Mean host µs from a submit to its outcome, all calls after each
    /// session's first.
    pub wait_us: f64,
    /// Mean host µs of one `open_session` round trip.
    pub open_us: f64,
    /// CPU seconds of the shard driver threads.
    pub driver_cpu_s: f64,
    /// CPU seconds of the client thread.
    pub client_cpu_s: f64,
    /// Host seconds of `FleetServer::shutdown`.
    pub shutdown_s: f64,
    /// Host ms of the fleet aggregate and its percentiles.
    pub aggregate_ms: f64,
    /// CPU cycles the shards simulated, summed.
    pub cycles: u64,
    /// The simulated metrics.
    pub simulated: Simulated,
    /// Fleet Jain index over shard bytes.
    pub jain: f64,
    /// The final accounting.
    pub report: FleetReport,
}

struct Live {
    session: FleetSession,
    left: usize,
    think: u64,
    sent: Instant,
    first: bool,
}

/// CPU seconds (user + system) of the threads of this process whose
/// name starts with `prefix`, from `/proc/self/task/*/stat`.
fn threads_cpu_s(prefix: &str) -> f64 {
    let mut ticks = 0u64;
    let tasks = std::fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    for task in tasks.flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if comm.starts_with(prefix) {
            ticks += stat_ticks(&task.path().join("stat"));
        }
    }
    ticks as f64 / CLOCK_TICKS_PER_S
}

/// `/proc` reports CPU time in USER_HZ ticks, 100 per second on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

fn stat_ticks(path: &std::path::Path) -> u64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(11) + field(12)
}

fn client_cpu_s() -> f64 {
    stat_ticks(std::path::Path::new("/proc/thread-self/stat")) as f64 / CLOCK_TICKS_PER_S
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn mean_u64(xs: &[u64]) -> f64 {
    assert!(!xs.is_empty(), "requests completed");
    xs.iter().sum::<u64>() as f64 / xs.len() as f64
}

/// Drives one run on a started fleet and shuts it down. With `traced`,
/// also times each submit and reads the threads' CPU time.
///
/// # Panics
///
/// Panics when the accounting does not balance or a word is served twice.
pub fn drive(fleet: FleetServer, plan: Plan, traced: bool) -> FleetRun {
    let cpu_before = if traced { client_cpu_s() } else { 0.0 };
    let mut opens = Vec::with_capacity(plan.sessions + 1);
    let mut open = |spec: ClientSpec| {
        let at = Instant::now();
        let session = fleet.open_session(spec);
        opens.push(at.elapsed().as_secs_f64() * 1e6);
        session
    };
    let victim = open(ClientSpec::manual(BYTES).with_qos(QosClass::Low));
    let victim_global = victim.global;
    let mut live = vec![Live {
        session: victim,
        left: plan.victim_calls,
        think: VICTIM_THINK,
        sent: Instant::now(),
        first: true,
    }];
    for _ in 0..plan.sessions {
        live.push(Live {
            session: open(ClientSpec::manual(BYTES).with_qos(QosClass::High)),
            left: plan.calls,
            think: THINK,
            sent: Instant::now(),
            first: true,
        });
    }

    let start = Instant::now();
    let mut submit_ns = Vec::new();
    let mut submit = |l: &mut Live, delay: u64| {
        if traced {
            let at = Instant::now();
            l.session.submit_with_deadline(BYTES, delay, DEADLINE);
            submit_ns.push(at.elapsed().as_nanos() as f64);
        } else {
            l.session.submit_with_deadline(BYTES, delay, DEADLINE);
        }
        l.sent = Instant::now();
        l.left -= 1;
    };
    // The victim starts at once; ramp session i joins i × STAGGER cycles in.
    for (i, l) in live.iter_mut().enumerate() {
        submit(l, i as u64 * STAGGER);
    }

    let (mut offered, mut served, mut shed, mut timed_out) = (live.len() as u64, 0, 0, 0);
    let mut call_us = Vec::new();
    let mut wait_us = Vec::new();
    while !live.is_empty() {
        let mut progressed = false;
        let mut i = 0;
        while i < live.len() {
            let Some(outcome) = live[i].session.try_recv_outcome() else {
                i += 1;
                continue;
            };
            progressed = true;
            let l = &mut live[i];
            let rtt_us = l.sent.elapsed().as_secs_f64() * 1e6;
            let mut delay = l.think;
            match outcome {
                SubmitOutcome::Served(_) => {
                    served += 1;
                    if !l.first {
                        call_us.push(rtt_us);
                    }
                }
                SubmitOutcome::Shed(hint) => {
                    shed += 1;
                    delay = delay.max(hint.cycles);
                }
                SubmitOutcome::TimedOut { .. } => timed_out += 1,
            }
            if !l.first {
                wait_us.push(rtt_us);
            }
            l.first = false;
            if l.left > 0 {
                submit(l, delay);
                offered += 1;
                i += 1;
            } else {
                live.swap_remove(i).session.close();
            }
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (driver_cpu_s, client_cpu_s) = if traced {
        (
            threads_cpu_s("strange-server-"),
            client_cpu_s() - cpu_before,
        )
    } else {
        (0.0, 0.0)
    };

    let at = Instant::now();
    let report = fleet.shutdown();
    let shutdown_s = at.elapsed().as_secs_f64();

    let at = Instant::now();
    let stats = report.fleet_stats();
    let p50 = stats.latency_percentile(0.50).expect("requests completed");
    let p99 = stats.latency_percentile(0.99).expect("requests completed");
    let jain = stats.jain().expect("the fleet served bytes");
    let aggregate_ms = at.elapsed().as_secs_f64() * 1e3;

    assert_eq!(
        offered,
        served + shed + timed_out,
        "offered != completed + shed + timed out"
    );
    assert_eq!(
        report.admission.shed(),
        shed,
        "server and client disagree on sheds"
    );
    assert_eq!(
        report.admission.timed_out, timed_out,
        "server and client disagree on timeouts"
    );
    let completed: u64 = report
        .shards
        .iter()
        .map(|r| r.stats.requests_completed)
        .sum();
    assert_eq!(
        completed, report.admission.accepted,
        "an admitted request never completed"
    );
    let words: Vec<u64> = report
        .shards
        .iter()
        .flat_map(|r| r.captured.iter().copied())
        .collect();
    assert_unique("fleet_flash", &words);

    let span = report
        .shards
        .iter()
        .map(|r| r.cpu_cycles)
        .max()
        .unwrap_or(0);
    let cycles = report.shards.iter().map(|r| r.cpu_cycles).sum();
    let (shard, local) = report.sessions[victim_global];
    let victim_p99 = report.shards[shard]
        .stats
        .client_latency_percentile(local, 0.99)
        .expect("the victim completed requests");
    let simulated = Simulated {
        end_to_end: vec![
            ("served_mbps", served_mbps(stats.bytes_served, span)),
            ("rng_latency_mean_cycles", mean_u64(&stats.latency_log)),
        ],
        per_layer: vec![
            ("rng_p50_cycles", p50 as f64),
            ("rng_p99_cycles", p99 as f64),
            ("low_tenant_p99_cycles", victim_p99 as f64),
            ("refused_frac", (shed + timed_out) as f64 / offered as f64),
        ],
    };

    FleetRun {
        offered,
        call_us,
        wall_s,
        submit_ns: mean(&submit_ns),
        wait_us: mean(&wait_us),
        open_us: mean(&opens),
        driver_cpu_s,
        client_cpu_s,
        shutdown_s,
        aggregate_ms,
        cycles,
        simulated,
        jain,
        report,
    }
}

/// Digest of every simulated output of a run.
pub fn digest(report: &FleetReport) -> String {
    Digest::default()
        .add(&report.shards)
        .add(&report.sessions)
        .add(&report.admission)
        .hex()
}
