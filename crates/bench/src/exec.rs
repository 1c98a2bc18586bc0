//! Parallel sweep executor with process-wide memoization.
//!
//! Every figure/table regeneration is a *sweep*: a batch of independent
//! `(SimConfig, workload, scale)` simulations whose reports are then
//! reduced into TSV rows. This module runs such batches across a pool
//! of worker threads (one per CPU by default, overridable with the
//! `EHSIM_JOBS` environment variable) and memoizes completed reports in
//! a process-wide cache, so repeated configurations — most prominently
//! the `NVSRAM(ideal)` baselines that almost every figure normalizes
//! against — are simulated exactly once per process no matter how many
//! figures request them.
//!
//! **Direct execution.** Every simulation runs its kernel natively on
//! the simulated machine ([`ehsim::Simulator::run_with`]). Re-running a
//! kernel costs less than decoding a recorded Bus trace of it, so the
//! executor keeps no traces: [`ehsim::BusTrace`] record/replay serves
//! the CLI (`record-bus`, `replay`, `import-trace`) and event-level
//! bisection, and the replay-equivalence suite pins replay to direct
//! execution across the design grid. `EHSIM_BATCH_CHECK=1` runs every
//! simulation a second time, alone, on the per-retire settlement
//! reference path and asserts the two reports identical.
//!
//! **Lockstep work items.** Workers claim *work items*, not single
//! jobs. Misses on the same `(workload, scale)` and power trace whose
//! configs integrate a capacitor share one item, run by one kernel execution driving all
//! their machines in lockstep ([`ehsim::Simulator::run_group_with`]):
//! per-retire settlement is a latency-bound f64 chain, and lockstep
//! lets the CPU overlap the lanes' chains. An item's summed simulated
//! memory (NVM image, plus the oracle under `verify`) stays within the
//! suite's largest single workload at that scale, so peak memory does
//! not grow. No-failure, streamed and over-budget jobs run alone. A
//! group's wall time is split evenly across its lanes' heartbeats.
//!
//! **Persistent result store.** `EHSIM_RESULT_STORE=<dir>` persists
//! completed *reports* across processes in
//! [`ehsim_farm::ResultStore`], keyed by the same injective `SimKey`
//! as the memo cache. A memo miss consults the store before executing
//! anything; a validated hit returns the stored report (byte-identical
//! to execution — simulation is deterministic and the codec is
//! bit-exact), any validation failure falls back to execution, and
//! fresh results refresh the store. The serial reference and the
//! batch cross-check never touch it. Hits/misses/rejects are counted
//! in [`ExecStats`].
//!
//! Guarantees:
//!
//! * **Deterministic results.** [`run_batch`] returns reports in
//!   submission order, and simulations are pure functions of their
//!   `(SimConfig, workload, scale)` key, so neither the worker count
//!   nor the scheduling order can change any output byte. A regression
//!   test compares engine-generated figures against a serial,
//!   cache-free rerun byte for byte.
//! * **Complete keys.** The memo key is an explicit, injective
//!   encoding of every [`SimConfig`] field (design, geometry, policies,
//!   trace, capacitor, CPU/NVM/charging parameters, verify,
//!   max-outages) plus the scale and workload index, built by
//!   exhaustively destructuring the config — adding a field to
//!   `SimConfig` is a compile error here until the key learns about
//!   it, and floats are keyed by their exact bit patterns. Jobs
//!   carrying a custom power trace are never memoized.
//!
//! Setting `EHSIM_SWEEP_SERIAL=1` bypasses the pool and the memo cache
//! (every job executes inline, in order); the byte-identity tests use
//! it to produce the serial reference.
//!
//! Setting `EHSIM_TRACE_WORKLOAD=<name>` additionally streams an event
//! timeline for every simulation of that workload: each one writes a
//! JSON-lines event stream (loadable by `ehsim-analyze` /
//! `ehsim-cli diff-traces`, convertible to Chrome/interval exports
//! with `ehsim-cli convert-trace`) into `EHSIM_TRACE_DIR` (default
//! `traces/`), named `<workload>__<design>__<trace>.events.jsonl`.
//! Events flow through a bounded-buffer [`StreamingObserver`] straight
//! to disk, so tracing adds no per-event memory footprint, and
//! observation does not change any simulated value, so figures
//! regenerated with tracing on are byte-identical.

use crate::telemetry;
use ehsim::{ObserverBox, Report, SimConfig, Simulator};
use ehsim_energy::TraceKind;
use ehsim_obs::{Phase, StreamStatsHandle, StreamingObserver};
use ehsim_workloads::Scale;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One simulation of the sweep: a configuration applied to workload
/// number `workload` of the fixed 23-kernel suite at `scale`.
#[derive(Debug, Clone)]
pub struct Job {
    /// The configuration to simulate.
    pub cfg: SimConfig,
    /// Index into [`ehsim_workloads::all23`] (figure order).
    pub workload: usize,
    /// Workload scale.
    pub scale: Scale,
}

impl Job {
    /// Convenience constructor.
    pub fn new(cfg: SimConfig, workload: usize, scale: Scale) -> Self {
        Self {
            cfg,
            workload,
            scale,
        }
    }
}

/// Snapshot of the executor's process-wide counters (for the
/// `BENCH_sweep.json` emitter and progress lines).
#[derive(Debug, Clone, Copy)]
pub struct ExecStats {
    /// Simulations actually executed.
    pub sims_run: u64,
    /// Batch entries satisfied from the memo cache (or deduplicated
    /// within a batch).
    pub memo_hits: u64,
    /// Total instructions retired across all executed simulations.
    pub simulated_instructions: u64,
    /// Memo misses served from the persistent `EHSIM_RESULT_STORE`
    /// (no execution at all).
    pub store_hits: u64,
    /// Memo misses that also missed the persistent store (and, having
    /// executed, refreshed it).
    pub store_misses: u64,
    /// Result-store entries rejected by load-time validation
    /// (truncated, corrupt, stale version); each fell back to
    /// execution.
    pub store_rejects: u64,
}

struct Counters {
    sims: AtomicU64,
    memo_hits: AtomicU64,
    instructions: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    store_rejects: AtomicU64,
}

fn counters() -> &'static Counters {
    static C: OnceLock<Counters> = OnceLock::new();
    C.get_or_init(|| Counters {
        sims: AtomicU64::new(0),
        memo_hits: AtomicU64::new(0),
        instructions: AtomicU64::new(0),
        store_hits: AtomicU64::new(0),
        store_misses: AtomicU64::new(0),
        store_rejects: AtomicU64::new(0),
    })
}

fn cache() -> &'static Mutex<HashMap<MemoKey, Arc<Report>>> {
    static C: OnceLock<Mutex<HashMap<MemoKey, Arc<Report>>>> = OnceLock::new();
    C.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Current executor counters.
pub fn stats() -> ExecStats {
    let c = counters();
    ExecStats {
        sims_run: c.sims.load(Ordering::Relaxed),
        memo_hits: c.memo_hits.load(Ordering::Relaxed),
        simulated_instructions: c.instructions.load(Ordering::Relaxed),
        store_hits: c.store_hits.load(Ordering::Relaxed),
        store_misses: c.store_misses.load(Ordering::Relaxed),
        store_rejects: c.store_rejects.load(Ordering::Relaxed),
    }
}

/// Worker count: `EHSIM_JOBS` if set (minimum 1), otherwise the
/// machine's available parallelism.
pub fn jobs() -> usize {
    std::env::var("EHSIM_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

fn serial_uncached() -> bool {
    std::env::var_os("EHSIM_SWEEP_SERIAL").is_some_and(|v| v != "0")
}

/// Execution-engine label for benchmark artifacts: `"direct"`, with a
/// `+batch-check` suffix under `EHSIM_BATCH_CHECK=1`.
pub fn engine() -> &'static str {
    if batch_check() {
        "direct+batch-check"
    } else {
        "direct"
    }
}

/// `EHSIM_BATCH_CHECK=1`: run every simulation through *both*
/// settlement engines — the default batched one and the per-retire
/// reference path — and assert the reports field-for-field identical.
fn batch_check() -> bool {
    std::env::var_os("EHSIM_BATCH_CHECK").is_some_and(|v| v != "0")
}

/// Name of workload `ix` in the fixed 23-kernel suite, without
/// constructing the kernels (names are scale-independent and built
/// once per process).
fn workload_name(ix: usize) -> &'static str {
    static NAMES: OnceLock<Vec<String>> = OnceLock::new();
    NAMES
        .get_or_init(|| {
            ehsim_workloads::all23(Scale::Small)
                .iter()
                .map(|w| w.name().to_string())
                .collect()
        })
        .get(ix)
        .unwrap_or_else(|| panic!("workload index {ix} out of range"))
}

/// Canonical memo key: the injective word encoding of a [`Job`],
/// shared verbatim with the persistent result store — see
/// [`ehsim_farm::key`], where the encoding (and its per-field
/// distinctness tests) now lives. In-memory memo and on-disk store
/// keying on the same identity is what makes a store hit exactly the
/// report the memo would have cached.
type MemoKey = ehsim_farm::SimKey;

/// Memo/store key, or `None` when the job must not be memoized
/// (custom traces have no stable identity).
fn memo_key(job: &Job) -> Option<MemoKey> {
    ehsim_farm::sim_key(&job.cfg, job.workload, job.scale)
}

/// `EHSIM_RESULT_STORE=<dir>`: the persistent content-addressed result
/// store ([`ehsim_farm::ResultStore`]). Read/written only on the memo
/// miss path of the engine executor — the serial reference and the
/// `EHSIM_BATCH_CHECK` cross-check never touch it, since they exist to
/// re-execute for real.
fn result_store() -> Option<&'static ehsim_farm::ResultStore> {
    static S: OnceLock<Option<ehsim_farm::ResultStore>> = OnceLock::new();
    S.get_or_init(|| {
        std::env::var_os("EHSIM_RESULT_STORE")
            .filter(|v| !v.is_empty())
            .map(ehsim_farm::ResultStore::open)
    })
    .as_ref()
}

/// The workload name whose simulations should also dump event
/// timelines (`EHSIM_TRACE_WORKLOAD`), if any.
fn trace_workload() -> Option<&'static str> {
    static W: OnceLock<Option<String>> = OnceLock::new();
    W.get_or_init(|| {
        std::env::var("EHSIM_TRACE_WORKLOAD")
            .ok()
            .filter(|w| !w.is_empty())
    })
    .as_deref()
}

/// Turns a design/trace label into a filename fragment.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Opens the JSONL event-stream sink for one traced simulation:
/// `EHSIM_TRACE_DIR` (default `traces/`) /
/// `<workload>__<design>__<trace>.events.jsonl`. Events stream through
/// a bounded buffer straight to disk (no in-RAM timeline); observation
/// never perturbs the simulation, and open failures only warn and fall
/// back to no observation — a sweep must not die over a timeline.
fn stream_sink(job: &Job, workload: &str) -> (ObserverBox, Option<StreamStatsHandle>) {
    let dir = std::env::var("EHSIM_TRACE_DIR").unwrap_or_else(|_| "traces".into());
    let dir = std::path::PathBuf::from(dir);
    let stem = format!(
        "{}__{}__{}",
        sanitize(workload),
        sanitize(job.cfg.design.label()),
        sanitize(job.cfg.trace_label())
    );
    let open = || -> std::io::Result<StreamingObserver> {
        std::fs::create_dir_all(&dir)?;
        StreamingObserver::to_path(&dir.join(format!("{stem}.events.jsonl")))
    };
    match open() {
        Ok(obs) => {
            // Keep a stats handle only when profiling: the simulator
            // closes the stream before returning, so the handle carries
            // the final event count for the observer-emit op tally.
            let handle = telemetry::profiler().enabled().then(|| obs.stats_handle());
            (ObserverBox::custom(obs), handle)
        }
        Err(e) => {
            eprintln!("warning: failed to open event stream for {stem}: {e}");
            (ObserverBox::Noop, None)
        }
    }
}

/// Feeds per-sim op counts into the profiler once a simulation
/// returns: settle windows from the machine, streamed events from the
/// (already closed) observer's stats handle.
fn record_sim_ops(settles: u64, emit_stats: Option<StreamStatsHandle>) {
    let p = telemetry::profiler();
    if !p.enabled() {
        return;
    }
    p.add_ops(Phase::Settle, settles);
    if let Some(h) = emit_stats {
        if let Ok(s) = h.lock() {
            p.add_ops(Phase::ObserverEmit, s.events);
        }
    }
}

/// Runs one job by building the kernel suite and executing the kernel
/// on the simulated machine. Panics with context on simulation errors
/// — the harness treats them as fatal.
fn run_direct(job: &Job, streaming: bool) -> Report {
    let _t = telemetry::scope(Phase::DirectSim);
    let workloads = ehsim_workloads::all23(job.scale);
    let w = workloads
        .get(job.workload)
        .unwrap_or_else(|| panic!("workload index {} out of range", job.workload));
    let (obs, emit_stats) = if streaming {
        stream_sink(job, w.name())
    } else {
        (ObserverBox::Noop, None)
    };
    let (report, machine) = Simulator::new(job.cfg.clone())
        .run_with(w.as_ref(), obs)
        .unwrap_or_else(|e| sim_failed(job, e));
    record_sim_ops(machine.settle_windows(), emit_stats);
    report
}

/// The harness treats a simulation error as fatal: panic with context.
fn sim_failed(job: &Job, e: ehsim::SimError) -> ! {
    panic!(
        "{} / {} on {}: {e}",
        job.cfg.design.label(),
        workload_name(job.workload),
        job.cfg.trace_label()
    )
}

/// Runs the jobs of one lockstep work item — all on the same
/// `(workload, scale)` — with one kernel execution
/// ([`Simulator::run_group_with`]). Each report is exactly what
/// [`run_direct`] returns for its job.
fn run_grouped(jobs: &[&Job]) -> Vec<Report> {
    let _t = telemetry::scope(Phase::DirectSim);
    let lead = jobs[0];
    let workloads = ehsim_workloads::all23(lead.scale);
    let w = workloads
        .get(lead.workload)
        .unwrap_or_else(|| panic!("workload index {} out of range", lead.workload));
    let cfgs: Vec<SimConfig> = jobs.iter().map(|j| j.cfg.clone()).collect();
    Simulator::run_group_with(&cfgs, w.as_ref())
        .into_iter()
        .zip(jobs)
        .map(|(outcome, job)| {
            let (report, machine) = outcome.unwrap_or_else(|e| sim_failed(job, e));
            record_sim_ops(machine.settle_windows(), None);
            report
        })
        .collect()
}

/// Whether `job`'s simulation should stream an event timeline
/// (`EHSIM_TRACE_WORKLOAD`).
fn streaming(job: &Job) -> bool {
    trace_workload() == Some(workload_name(job.workload))
}

/// Runs one job on the engine path (with the `EHSIM_BATCH_CHECK`
/// cross-check when enabled), updating the process-wide counters.
fn simulate(job: &Job) -> Report {
    let start_ns = telemetry::sim_clock_start();
    let report = run_direct(job, streaming(job));
    batch_cross_check(job, &report);
    finish(
        job,
        engine(),
        telemetry::sim_clock_elapsed(start_ns),
        &report,
    );
    report
}

/// Runs a lockstep work item on the engine path. Under
/// `EHSIM_BATCH_CHECK` each job's reference run stays a solo run, so
/// the check pins the grouped path against the per-retire reference.
/// The group's wall time is split evenly across its lanes, so the
/// lanes' heartbeats add up to exactly the time the worker spent.
fn simulate_group(jobs: &[&Job]) -> Vec<Report> {
    let start_ns = telemetry::sim_clock_start();
    let reports = run_grouped(jobs);
    for (job, report) in jobs.iter().zip(&reports) {
        batch_cross_check(job, report);
    }
    let wall_ns = telemetry::sim_clock_elapsed(start_ns);
    let lanes = jobs.len() as u64;
    for (lane, (job, report)) in (0u64..).zip(jobs.iter().zip(&reports)) {
        let share = wall_ns / lanes + u64::from(lane < wall_ns % lanes);
        finish(job, engine(), share, report);
    }
    reports
}

/// `EHSIM_BATCH_CHECK=1`: the same simulation again, with every machine
/// constructed on the per-retire reference settlement path, must give
/// the same report.
fn batch_cross_check(job: &Job, report: &Report) {
    if !batch_check() {
        return;
    }
    let reference = ehsim::with_settle_batching_disabled(|| run_direct(job, false));
    assert_eq!(
        &reference,
        report,
        "batched settlement diverged from the per-retire reference: {} / {} on {}",
        job.cfg.design.label(),
        workload_name(job.workload),
        job.cfg.trace_label()
    );
}

/// Counter bump and heartbeat shared by the engine and serial-reference
/// paths; `elapsed_ns` is the host time charged to this simulation.
fn finish(job: &Job, engine: &str, elapsed_ns: u64, report: &Report) {
    let c = counters();
    c.sims.fetch_add(1, Ordering::Relaxed);
    c.instructions
        .fetch_add(report.instructions, Ordering::Relaxed);
    telemetry::sim_completed(
        job.cfg.design.label(),
        job.cfg.trace_label(),
        workload_name(job.workload),
        engine,
        elapsed_ns,
        report,
    );
}

/// The persistent result store, when configured and this run may use
/// it: the batch cross-check exists to re-execute, so it never reads
/// or writes the store.
fn active_store() -> Option<&'static ehsim_farm::ResultStore> {
    result_store().filter(|_| !batch_check())
}

/// Looks a memo miss up in the persistent result store. A store hit is
/// *not* an executed simulation: no heartbeat, no `sims_run` bump —
/// only `store_hits` — so "heartbeat count == sims actually executed"
/// stays true for farm clients.
fn load_stored(key: Option<&MemoKey>) -> Option<Report> {
    let (store, key) = (active_store()?, key?);
    match store.load(key) {
        ehsim_farm::LoadOutcome::Hit(report) => {
            counters().store_hits.fetch_add(1, Ordering::Relaxed);
            return Some(*report);
        }
        ehsim_farm::LoadOutcome::Miss => {
            counters().store_misses.fetch_add(1, Ordering::Relaxed);
        }
        ehsim_farm::LoadOutcome::Reject(reason) => {
            counters().store_rejects.fetch_add(1, Ordering::Relaxed);
            eprintln!("warning: result store entry rejected ({reason}); re-executing");
        }
    }
    None
}

/// Refreshes the persistent result store with a freshly executed
/// report, best-effort.
fn persist(key: Option<&MemoKey>, report: &Report) {
    let (Some(store), Some(key)) = (active_store(), key) else {
        return;
    };
    if let Err(e) = store.save(key, report) {
        eprintln!(
            "warning: failed to persist result for {}: {e}",
            report.workload
        );
    }
}

/// Executes one work item of a batch's misses (indices into `misses`)
/// — alone, or as one lockstep group — and refreshes the store.
fn run_item(
    item: &[usize],
    misses: &[&Job],
    keys: &[Option<MemoKey>],
    results: &[OnceLock<Arc<Report>>],
) {
    let reports = match item {
        [i] => vec![simulate(misses[*i])],
        _ => simulate_group(&item.iter().map(|&i| misses[i]).collect::<Vec<_>>()),
    };
    for (&i, report) in item.iter().zip(reports) {
        persist(keys[i].as_ref(), &report);
        let _ = results[i].set(Arc::new(report));
    }
}

/// Runs `f(i)` for every `i` in `0..n` on a scoped pool of up to
/// [`jobs`] workers, each claiming the next index.
fn on_pool(n: usize, f: impl Fn(usize) + Sync) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs().min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                f(i);
            });
        }
    });
}

/// Simulated memory one job's machine holds: the workload's NVM image,
/// plus the oracle copy under `verify`.
fn lane_bytes(job: &Job) -> u64 {
    let nvm = u64::from(workload_mem(job.scale)[job.workload]);
    if job.cfg.verify {
        2 * nvm
    } else {
        nvm
    }
}

/// NVM bytes of every suite workload at `scale` (built once per scale).
fn workload_mem(scale: Scale) -> &'static [u32] {
    static SMALL: OnceLock<Vec<u32>> = OnceLock::new();
    static DEFAULT: OnceLock<Vec<u32>> = OnceLock::new();
    let cell = match scale {
        Scale::Small => &SMALL,
        Scale::Default => &DEFAULT,
    };
    cell.get_or_init(|| {
        ehsim_workloads::all23(scale)
            .iter()
            .map(|w| w.mem_bytes())
            .collect()
    })
}

/// A lockstep group's memory budget: the suite's largest single
/// workload at `scale`, the most one solo simulation holds. Groups
/// stay within it, so grouping never raises peak memory.
fn group_budget(scale: Scale) -> u64 {
    workload_mem(scale)
        .iter()
        .copied()
        .map(u64::from)
        .max()
        .unwrap_or(0)
}

/// Whether a job may share a lockstep group: only a config that
/// integrates a capacitor has the per-retire settlement chain that
/// lockstep overlaps (without failures lockstep measured no gain), and
/// a streamed timeline needs its own observed machine.
fn groupable(job: &Job) -> bool {
    job.cfg.failures_enabled() && !streaming(job)
}

/// Splits a batch's misses (by index) into work items. Groupable misses
/// on the same `(workload, scale)` and built-in power trace share an
/// item, in submission order, while the item's summed [`lane_bytes`]
/// fit the [`group_budget`]; every other miss is an item of its own.
/// Keying on the trace keeps one built trace (64 KiB of segments) per
/// group, as a solo simulation has; a custom trace is the job's own
/// and costs a lane nothing.
fn work_items(misses: &[&Job], groupable: impl Fn(&Job) -> bool) -> Vec<Vec<usize>> {
    let mut items: Vec<Vec<usize>> = Vec::new();
    // The open item of each group key and its summed bytes.
    let mut open: HashMap<(usize, Scale, TraceKind), (usize, u64)> = HashMap::new();
    for (i, job) in misses.iter().enumerate() {
        if !groupable(job) {
            items.push(vec![i]);
            continue;
        }
        let key = (job.workload, job.scale, job.cfg.trace);
        let bytes = lane_bytes(job);
        match open.get_mut(&key) {
            Some((ix, used)) if *used + bytes <= group_budget(job.scale) => {
                items[*ix].push(i);
                *used += bytes;
            }
            _ => {
                open.insert(key, (items.len(), bytes));
                items.push(vec![i]);
            }
        }
    }
    items
}

enum Slot {
    Done(Arc<Report>),
    Pending(usize),
}

/// Runs a batch of jobs and returns their reports in submission order.
///
/// Jobs already in the memo cache are returned without simulating;
/// duplicate keys within the batch simulate once. The remaining misses
/// execute on a [`std::thread::scope`] work queue of [`jobs`] workers.
pub fn run_batch(batch: &[Job]) -> Vec<Arc<Report>> {
    if serial_uncached() {
        return batch
            .iter()
            .map(|j| {
                let start_ns = telemetry::sim_clock_start();
                let report = run_direct(j, streaming(j));
                finish(j, "serial", telemetry::sim_clock_elapsed(start_ns), &report);
                Arc::new(report)
            })
            .collect();
    }

    // Resolve against the cache and deduplicate within the batch.
    let mut slots: Vec<Slot> = Vec::with_capacity(batch.len());
    let mut misses: Vec<&Job> = Vec::new();
    let mut miss_keys: Vec<Option<MemoKey>> = Vec::new();
    {
        let _t = telemetry::scope(Phase::MemoLookup);
        let cache = cache().lock().expect("sweep cache poisoned");
        let mut pending: HashMap<MemoKey, usize> = HashMap::new();
        for job in batch {
            match memo_key(job) {
                Some(key) => {
                    if let Some(hit) = cache.get(&key) {
                        counters().memo_hits.fetch_add(1, Ordering::Relaxed);
                        slots.push(Slot::Done(Arc::clone(hit)));
                    } else if let Some(&ix) = pending.get(&key) {
                        counters().memo_hits.fetch_add(1, Ordering::Relaxed);
                        slots.push(Slot::Pending(ix));
                    } else {
                        let ix = misses.len();
                        misses.push(job);
                        miss_keys.push(Some(key.clone()));
                        pending.insert(key, ix);
                        slots.push(Slot::Pending(ix));
                    }
                }
                None => {
                    let ix = misses.len();
                    misses.push(job);
                    miss_keys.push(None);
                    slots.push(Slot::Pending(ix));
                }
            }
        }
    }

    // Serve what the persistent store holds, then execute the rest,
    // one work item at a time. Store loads run per job, so a warm
    // store is read on every worker. The main thread only waits here;
    // workers profile their own phases on their own scope stacks.
    // Worker-wait is excluded from the attribution percentage.
    let results: Vec<OnceLock<Arc<Report>>> = (0..misses.len()).map(|_| OnceLock::new()).collect();
    if !misses.is_empty() {
        let _t = telemetry::scope(Phase::WorkerWait);
        if active_store().is_some() {
            on_pool(misses.len(), |i| {
                if let Some(report) = load_stored(miss_keys[i].as_ref()) {
                    let _ = results[i].set(Arc::new(report));
                }
            });
        }
        let pending: Vec<usize> = (0..misses.len())
            .filter(|&i| results[i].get().is_none())
            .collect();
        let pending_jobs: Vec<&Job> = pending.iter().map(|&i| misses[i]).collect();
        let items: Vec<Vec<usize>> = work_items(&pending_jobs, groupable)
            .into_iter()
            .map(|item| item.into_iter().map(|k| pending[k]).collect())
            .collect();
        on_pool(items.len(), |k| {
            run_item(&items[k], &misses, &miss_keys, &results);
        });
    }

    // Publish new results and assemble in submission order.
    let results: Vec<Arc<Report>> = results
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("worker completed every claimed work item")
        })
        .collect();
    {
        let _t = telemetry::scope(Phase::MemoLookup);
        let mut cache = cache().lock().expect("sweep cache poisoned");
        for (key, report) in miss_keys.iter().zip(&results) {
            if let Some(key) = key {
                cache.insert(key.clone(), Arc::clone(report));
            }
        }
    }
    slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Done(r) => r,
            Slot::Pending(ix) => Arc::clone(&results[ix]),
        })
        .collect()
}

/// The canonical workload index of every suite workload at `scale`:
/// the identity `0..23`. The executor keeps no content dedup, so every
/// workload is its own representative; the map is built from the
/// suite's length alone and records nothing.
pub fn canonical_map(scale: Scale) -> Vec<usize> {
    (0..ehsim_workloads::all23(scale).len()).collect()
}

/// Runs the full 23-workload suite for each configuration, sharing one
/// batch (and therefore the worker pool and the memo cache) across all
/// of them. Returns one report vector per configuration, in order.
pub fn run_suites(cfgs: &[SimConfig], scale: Scale) -> Vec<Vec<Arc<Report>>> {
    let count = ehsim_workloads::all23(scale).len();
    let batch: Vec<Job> = cfgs
        .iter()
        .flat_map(|cfg| (0..count).map(move |w| Job::new(cfg.clone(), w, scale)))
        .collect();
    let flat = run_batch(&batch);
    flat.chunks(count).map(|c| c.to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The memo key is the farm's [`ehsim_farm::SimKey`], verbatim —
    /// the per-field injectivity tests live next to the encoding in
    /// `ehsim-farm::key`; this pin only guards the delegation.
    #[test]
    fn memo_key_delegates_to_farm() {
        let job = Job::new(SimConfig::wl_cache(), 3, Scale::Small);
        assert_eq!(
            memo_key(&job),
            ehsim_farm::sim_key(&job.cfg, job.workload, job.scale)
        );
        assert!(memo_key(&job).is_some());
    }

    #[test]
    fn scale_and_workload_feed_the_key() {
        let cfg = SimConfig::nvsram();
        let a = memo_key(&Job::new(cfg.clone(), 0, Scale::Small)).unwrap();
        let b = memo_key(&Job::new(cfg.clone(), 1, Scale::Small)).unwrap();
        let c = memo_key(&Job::new(cfg, 0, Scale::Default)).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn equal_jobs_share_a_key() {
        let a = memo_key(&Job::new(SimConfig::wl_cache(), 3, Scale::Small));
        let b = memo_key(&Job::new(SimConfig::wl_cache(), 3, Scale::Small));
        assert_eq!(a, b);
    }

    #[test]
    fn custom_traces_are_never_memoized() {
        let trace = ehsim_energy::PowerTrace::constant(100.0);
        let cfg = SimConfig::wl_cache().with_custom_trace(trace);
        assert_eq!(memo_key(&Job::new(cfg, 0, Scale::Small)), None);
    }

    /// Lockstep work items at both scales, over every design × a
    /// no-failure and two harvested traces × every workload, plus
    /// verified and custom-trace jobs: every miss lands in exactly one
    /// item; an item shares one `(workload, scale, trace)` in submission
    /// order;
    /// a multi-lane item holds only failure-enabled, unstreamed jobs
    /// and fits the memory budget; no-failure and streamed jobs always
    /// run alone.
    #[test]
    fn work_items_group_within_the_memory_budget() {
        let custom = ehsim_energy::PowerTrace::constant(5_000.0);
        // A stand-in for `EHSIM_TRACE_WORKLOAD`, which the process
        // environment fixes.
        let streamed = |job: &Job| job.workload == 3;
        for scale in [Scale::Small, Scale::Default] {
            let n = workload_mem(scale).len();
            let mut designs = SimConfig::all_designs();
            designs.push(SimConfig::wl_cache_dyn());
            let mut batch = Vec::new();
            for kind in [TraceKind::None, TraceKind::Rf1, TraceKind::Rf3] {
                for cfg in &designs {
                    for w in 0..n {
                        batch.push(Job::new(cfg.clone().with_trace(kind), w, scale));
                    }
                }
            }
            for w in 0..n {
                let verified = SimConfig::wl_cache()
                    .with_trace(TraceKind::Rf1)
                    .with_verify();
                batch.push(Job::new(verified, w, scale));
                let harvested = SimConfig::nvsram().with_custom_trace(custom.clone());
                batch.push(Job::new(harvested, w, scale));
            }
            let misses: Vec<&Job> = batch.iter().collect();
            let items = work_items(&misses, |j| j.cfg.failures_enabled() && !streamed(j));

            let mut seen: Vec<usize> = items.concat();
            seen.sort_unstable();
            assert_eq!(seen, (0..misses.len()).collect::<Vec<_>>());
            for item in &items {
                let lead = misses[item[0]];
                assert!(item.windows(2).all(|p| p[0] < p[1]), "submission order");
                for &i in item {
                    let job = misses[i];
                    assert_eq!(
                        (job.workload, job.scale, job.cfg.trace),
                        (lead.workload, lead.scale, lead.cfg.trace)
                    );
                    if !job.cfg.failures_enabled() || streamed(job) {
                        assert_eq!(item.len(), 1, "no-failure and streamed jobs run alone");
                    }
                }
                if item.len() > 1 {
                    let bytes: u64 = item.iter().map(|&i| lane_bytes(misses[i])).sum();
                    assert!(bytes <= group_budget(scale), "{bytes} over budget");
                }
            }
            assert!(
                items.iter().any(|i| i.len() >= designs.len()),
                "groups form"
            );
            assert!(!groupable(&Job::new(SimConfig::wl_cache(), 0, scale)));
        }
    }

    /// The executor contract the benchmark harness builds against: the
    /// canonical map is the identity and costs no execution, and the
    /// engine label names direct execution.
    #[test]
    fn canonical_map_is_the_identity_and_engine_is_direct() {
        let before = stats();
        assert_eq!(canonical_map(Scale::Small), (0..23).collect::<Vec<_>>());
        assert_eq!(canonical_map(Scale::Default), (0..23).collect::<Vec<_>>());
        let after = stats();
        assert_eq!(
            (before.sims_run, before.simulated_instructions),
            (after.sims_run, after.simulated_instructions)
        );
        // No trace recording anywhere in the executor (the split
        // literal keeps this assertion from matching itself).
        let src = include_str!("exec.rs");
        assert!(!src.contains(concat!("BusTrace", "::")));
        assert!(!src.contains(concat!(".re", "play")));
        let suffix = if batch_check() { "+batch-check" } else { "" };
        assert_eq!(engine(), format!("direct{suffix}"));
    }
}
