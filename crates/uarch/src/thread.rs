//! A simulated hardware thread executing native kernels.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use lotus_sim::{Span, Time};

use crate::cost::{evaluate, KernelCost};
use crate::feed::KernelSpanFeed;
use crate::kernels::KernelId;
use crate::machine::Machine;
use crate::profiler::HwProfiler;

/// One completed kernel invocation on a hardware thread, kept in a short
/// per-thread history for the sampling driver's skid model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invocation {
    /// The kernel that ran.
    pub kernel: KernelId,
    /// When it started.
    pub start: Time,
    /// When it ended.
    pub end: Time,
}

/// How many recent invocations each thread remembers for skid lookback.
const HISTORY: usize = 48;

/// The execution context a simulated process uses to run native kernels.
///
/// A `CpuThread` keeps a *cursor* — the virtual time at which the next
/// kernel will start. Transform code executes kernels back-to-back without
/// touching the simulation scheduler; the owning process then advances the
/// simulated clock to the cursor in one step. This keeps per-kernel timing
/// exact while costing only a handful of scheduler interactions per batch.
///
/// ```
/// use std::sync::Arc;
/// use lotus_sim::Time;
/// use lotus_uarch::{CostCoeffs, CpuThread, Machine, MachineConfig};
///
/// let machine = Machine::new(MachineConfig::cloudlab_c4130());
/// let idct = machine.kernel("jpeg_idct_islow", "libjpeg.so.9", CostCoeffs::compute_default());
/// let mut cpu = CpuThread::new(Arc::clone(&machine));
/// cpu.set_cursor(Time::ZERO);
/// let cost = cpu.exec(idct, 64.0 * 64.0);
/// assert_eq!(cpu.cursor(), Time::ZERO + cost.elapsed);
/// ```
#[derive(Debug, Clone)]
pub struct CpuThread {
    machine: Arc<Machine>,
    profiler: Option<Arc<HwProfiler>>,
    native_feed: Option<Arc<KernelSpanFeed>>,
    op_context: Option<String>,
    cursor: Time,
    recent: VecDeque<Invocation>,
}

impl CpuThread {
    /// Creates a thread with the cursor at [`Time::ZERO`] and no profiler.
    #[must_use]
    pub fn new(machine: Arc<Machine>) -> CpuThread {
        CpuThread {
            machine,
            profiler: None,
            native_feed: None,
            op_context: None,
            cursor: Time::ZERO,
            recent: VecDeque::new(),
        }
    }

    /// The machine this thread executes on.
    #[must_use]
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Attaches a hardware profiler session; subsequent kernel executions
    /// are reported to it.
    pub fn attach_profiler(&mut self, profiler: Arc<HwProfiler>) {
        self.profiler = Some(profiler);
    }

    /// Detaches any attached profiler session.
    pub fn detach_profiler(&mut self) {
        self.profiler = None;
    }

    /// Attaches a native kernel-span feed; subsequent
    /// [`CpuThread::observe_native`] blocks are wall-timed and reported
    /// to it. Without a feed, observation is a zero-cost pass-through.
    pub fn attach_native_feed(&mut self, feed: Arc<KernelSpanFeed>) {
        self.native_feed = Some(feed);
    }

    /// The attached native feed, if any.
    #[must_use]
    pub fn native_feed(&self) -> Option<&Arc<KernelSpanFeed>> {
        self.native_feed.as_ref()
    }

    /// Sets the high-level operation name attributed to subsequent
    /// observed kernel spans (e.g. `"Loader"` before decode, the
    /// transform's name before each transform). Stored only while a
    /// native feed is attached, so unprofiled runs pay nothing.
    pub fn set_op_context(&mut self, op: &str) {
        if self.native_feed.is_some() {
            let buf = self.op_context.get_or_insert_with(String::new);
            buf.clear();
            buf.push_str(op);
        }
    }

    /// Runs `f` — the *real* compute behind `kernel` — and, when a
    /// collecting native feed is attached, wall-times it and records the
    /// span under the current op context. Never charges any simulated
    /// cost: cost accounting stays with [`CpuThread::exec`] /
    /// `charge_*`-style code, observation only watches.
    pub fn observe_native<R>(&mut self, kernel: KernelId, f: impl FnOnce() -> R) -> R {
        let Some(feed) = self
            .native_feed
            .as_ref()
            .filter(|feed| feed.is_collecting())
        else {
            return f();
        };
        let feed = Arc::clone(feed);
        let start = Instant::now();
        let out = f();
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        feed.record(kernel, self.op_context.as_deref(), start, elapsed_ns);
        out
    }

    /// The virtual time at which the next kernel will start.
    #[must_use]
    pub fn cursor(&self) -> Time {
        self.cursor
    }

    /// Moves the cursor (typically to `ctx.now()` at the start of a fetch).
    pub fn set_cursor(&mut self, at: Time) {
        self.cursor = at;
    }

    /// Executes `kernel` over `work` units at the machine's current load,
    /// advancing the cursor and reporting to the attached profiler.
    /// Returns the evaluated cost.
    pub fn exec(&mut self, kernel: KernelId, work: f64) -> KernelCost {
        let load = self.machine.load();
        self.exec_at_load(kernel, work, load)
    }

    /// Like [`CpuThread::exec`] but with an explicit load value (used by
    /// tests and the isolation harness, which runs alone on the machine).
    pub fn exec_at_load(&mut self, kernel: KernelId, work: f64, load: f64) -> KernelCost {
        let coeffs = self.machine.kernel_cost(kernel);
        let cost = evaluate(self.machine.config(), &coeffs, work, load);
        if let Some(profiler) = &self.profiler {
            self.recent.make_contiguous();
            profiler.record(self.recent.as_slices().0, kernel, self.cursor, &cost);
        }
        let start = self.cursor;
        self.cursor += cost.elapsed;
        if self.recent.len() == HISTORY {
            self.recent.pop_front();
        }
        self.recent.push_back(Invocation {
            kernel,
            start,
            end: self.cursor,
        });
        cost
    }

    /// Advances the cursor without executing anything (models `sleep()` —
    /// the gap LotusMap inserts to defeat attribution skid, and any other
    /// off-CPU time). The invocation history keeps its real timestamps,
    /// so the gap itself defeats skid lookback.
    pub fn idle(&mut self, span: Span) {
        self.cursor += span;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::CostCoeffs;
    use crate::machine::MachineConfig;
    use crate::profiler::{HwProfiler, ProfilerConfig};

    #[test]
    fn exec_advances_cursor_by_cost() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let k = machine.kernel("k", "lib", CostCoeffs::compute_default());
        let mut cpu = CpuThread::new(machine);
        let c1 = cpu.exec(k, 1000.0);
        let c2 = cpu.exec(k, 1000.0);
        assert_eq!(
            cpu.cursor().as_nanos(),
            c1.elapsed.as_nanos() + c2.elapsed.as_nanos()
        );
    }

    #[test]
    fn idle_advances_without_recording() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let prof = Arc::new(HwProfiler::new(ProfilerConfig::counting()));
        let mut cpu = CpuThread::new(Arc::clone(&machine));
        cpu.attach_profiler(Arc::clone(&prof));
        cpu.idle(Span::from_secs(1));
        assert_eq!(cpu.cursor().as_nanos(), 1_000_000_000);
        assert!(prof.report(&machine).is_empty());
    }

    #[test]
    fn profiler_sees_executions() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let k = machine.kernel("seen", "lib", CostCoeffs::compute_default());
        let prof = Arc::new(HwProfiler::new(ProfilerConfig::counting()));
        let mut cpu = CpuThread::new(Arc::clone(&machine));
        cpu.attach_profiler(Arc::clone(&prof));
        cpu.exec(k, 500.0);
        let report = prof.report(&machine);
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].name, "seen");
    }

    #[test]
    fn observe_native_reports_wall_spans_without_charging_cost() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let k = machine.kernel("native_fn", "lib", CostCoeffs::compute_default());
        let feed = Arc::new(KernelSpanFeed::new());
        let mut cpu = CpuThread::new(Arc::clone(&machine));
        // No feed: pure pass-through, op context not even stored.
        cpu.set_op_context("Ignored");
        assert_eq!(cpu.observe_native(k, || 7), 7);
        cpu.attach_native_feed(Arc::clone(&feed));
        cpu.set_op_context("Loader");
        let before = cpu.cursor();
        let out = cpu.observe_native(k, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            42
        });
        assert_eq!(out, 42);
        assert_eq!(cpu.cursor(), before, "observation never charges cost");
        let samples = feed.take_samples();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].op.as_deref(), Some("Loader"));
        assert!(samples[0].elapsed_ns >= 1_000_000);
    }

    #[test]
    fn paused_feed_observes_nothing() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let k = machine.kernel("native_fn", "lib", CostCoeffs::compute_default());
        let feed = Arc::new(KernelSpanFeed::new_paused());
        let mut cpu = CpuThread::new(Arc::clone(&machine));
        cpu.attach_native_feed(Arc::clone(&feed));
        cpu.observe_native(k, || ());
        assert!(feed.is_empty());
        feed.resume();
        cpu.observe_native(k, || ());
        assert_eq!(feed.len(), 1);
    }

    #[test]
    fn load_slows_execution() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let k = machine.kernel("k", "lib", CostCoeffs::compute_default());
        let mut cpu = CpuThread::new(Arc::clone(&machine));
        let idle = cpu.exec(k, 100_000.0);
        for _ in 0..28 {
            machine.thread_started_compute();
        }
        let busy = cpu.exec(k, 100_000.0);
        assert!(busy.elapsed > idle.elapsed);
    }
}
