//! A copy of `System::run`'s fast-forward loop for trace workloads,
//! built only from the public `Core` and `MemSubsystem` methods, so that
//! each layer's calls can be timed from outside. The output checks prove
//! its `RunResult` bit-identical to `System::run`'s.

use strange_core::{Completion, CoreOutcome, MemSubsystem, RunResult, SimMode, SystemConfig};
use strange_cpu::{Core, TraceSource};
use strange_dram::CPU_CYCLES_PER_MEM_CYCLE;
use strange_trng::TrngMechanism;

use crate::layers::{set_sampling, span, Layer, TracedMem, SAMPLE_EVERY};

/// `System::run` checks for the end of the run on multiples of this.
const FINISH_CHECK_PERIOD: u64 = 64;

/// Cores and memory subsystem of one trace workload, driven by the
/// benchmark instead of `System`.
pub struct Replica {
    config: SystemConfig,
    cores: Vec<Core>,
    mem: MemSubsystem,
    cpu_cycle: u64,
    completions: Vec<Completion>,
}

impl Replica {
    /// Builds the replica of `System::new(config, traces, mechanism)`.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid, uses the reference
    /// loop or the service layer, or does not match the trace count.
    pub fn new(
        config: SystemConfig,
        traces: Vec<Box<dyn TraceSource + Send>>,
        mechanism: Box<dyn TrngMechanism>,
    ) -> Self {
        config.validate().expect("valid configuration");
        assert_eq!(
            config.sim_mode,
            SimMode::FastForward,
            "the replica is the fast-forward loop"
        );
        assert!(
            config.service.clients.is_empty() && !config.service.sessions,
            "the replica loop runs trace workloads only"
        );
        assert_eq!(traces.len(), config.cores, "one trace per core");
        let cores = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| Core::new(i, config.core, t, config.instruction_target))
            .collect();
        let mut mem = MemSubsystem::new(config.clone(), mechanism);
        mem.set_value_log(true);
        Replica {
            config,
            cores,
            mem,
            cpu_cycle: 0,
            completions: Vec::new(),
        }
    }

    /// The memory subsystem (served words after the run).
    pub fn mem(&self) -> &MemSubsystem {
        &self.mem
    }

    fn step_one(&mut self) {
        let now = self.cpu_cycle;
        if now.is_multiple_of(CPU_CYCLES_PER_MEM_CYCLE) {
            let mem_now = now / CPU_CYCLES_PER_MEM_CYCLE;
            span(Layer::EngineTick, || {
                self.mem.tick(mem_now, &mut self.completions)
            });
            for done in self.completions.drain(..) {
                self.cores[done.core].complete(done.id);
            }
        }
        for core in &mut self.cores {
            let mem = &mut self.mem;
            span(Layer::CpuTick, || core.tick(now, &mut TracedMem(mem)));
        }
        self.cpu_cycle += 1;
    }

    fn next_event(&self, stop: u64) -> u64 {
        let now = self.cpu_cycle;
        let mut end = stop;
        for core in &self.cores {
            match span(Layer::CpuProbe, || core.next_ready_cycle(now)) {
                None => {}
                Some(t) if t <= now => return now,
                Some(t) => end = end.min(t),
            }
        }
        let mem_next = now.div_ceil(CPU_CYCLES_PER_MEM_CYCLE);
        let mem_event = span(Layer::EngineProbe, || self.mem.next_event_at(mem_next));
        if mem_event != u64::MAX {
            end = end.min(mem_event.saturating_mul(CPU_CYCLES_PER_MEM_CYCLE));
        }
        end.max(now)
    }

    fn capped_at_run_end(&self, target: u64) -> u64 {
        let now = self.cpu_cycle;
        if target <= now {
            return target;
        }
        let span_len = target - now;
        let mut last_finish = now;
        for core in &self.cores {
            match span(Layer::CpuProbe, || core.finish_within(now, span_len)) {
                Some(at) => last_finish = last_finish.max(at),
                None => return target,
            }
        }
        let boundary = (last_finish / FINISH_CHECK_PERIOD + 1) * FINISH_CHECK_PERIOD;
        target.min(boundary)
    }

    fn skip_to(&mut self, target: u64) {
        let now = self.cpu_cycle;
        let mem_lo = now.div_ceil(CPU_CYCLES_PER_MEM_CYCLE);
        let mem_hi = target.div_ceil(CPU_CYCLES_PER_MEM_CYCLE);
        if mem_hi > mem_lo {
            span(Layer::EngineSkip, || self.mem.skip_to(mem_lo, mem_hi));
        }
        for core in &mut self.cores {
            span(Layer::CpuSkip, || core.skip_cycles(now, target - now));
        }
        self.cpu_cycle = target;
    }

    /// Runs to the end like `System::run`. With `sampled`, one loop
    /// iteration in [`SAMPLE_EVERY`] is timed.
    pub fn run(&mut self, sampled: bool) -> RunResult {
        let limit = self.config.cycle_limit();
        let mut iteration = 0u64;
        while self.cpu_cycle < limit {
            if self.cpu_cycle.is_multiple_of(FINISH_CHECK_PERIOD)
                && self.cores.iter().all(Core::is_finished)
            {
                break;
            }
            set_sampling(sampled && iteration.is_multiple_of(SAMPLE_EVERY));
            iteration += 1;
            let target = self.capped_at_run_end(self.next_event(limit));
            if target > self.cpu_cycle {
                self.skip_to(target);
            } else {
                self.step_one();
            }
        }
        set_sampling(false);
        self.mem.finish();
        RunResult {
            cores: self
                .cores
                .iter()
                .map(|c| CoreOutcome {
                    finish: c.finish().copied(),
                    end_stats: *c.stats(),
                })
                .collect(),
            stats: self.mem.stats().clone(),
            channels: self
                .mem
                .channels()
                .iter()
                .map(|c| c.stats().clone())
                .collect(),
            service: None,
            cpu_cycles: self.cpu_cycle,
            mem_cycles: self.cpu_cycle / CPU_CYCLES_PER_MEM_CYCLE,
            hit_cycle_limit: !self.cores.iter().all(Core::is_finished),
        }
    }
}
