//! Workload runner of the repository benchmark; `perfbench/run.py`
//! drives it and checks what it produces.
//!
//! Every invocation is one fresh process doing one job, because the
//! sweep executor's memo cache is process-wide:
//!
//! - `suite --scale S` does a sweep's set-up and exits: process start,
//!   suite construction, and the executor's first use of every kernel
//!   (trace recording and dedup fingerprinting).
//! - `figures --scale S --names a,b,..` regenerates the named figures
//!   through `ehsim_bench::figures`, in that order, and saves each with
//!   `Table::save` (so under `./results/` of the working directory).
//!   The executor reads its usual `EHSIM_*` variables, so
//!   `EHSIM_RESULT_STORE` turns a run into a store fill or a warm serve.
//! - `trace --scale S --names .. --powers none,rf1` is the traced run. It
//!   times calls into each layer's public functions from outside the
//!   program: the executor through its heartbeat sink, the figure
//!   reduction and TSV writes around the figure calls, the result store
//!   through `ResultStore::load`/`save`, and a layer peel that replays
//!   every suite kernel's `BusTrace` through stacks of increasing depth.
//!
//! Each job prints, as its last line on stdout, `PERFBENCH <json>`.

use ehsim::{BusOp, BusTrace, DesignKind, ObserverBox, Report, SimConfig, Simulator};
use ehsim_bench::{exec, figures, telemetry, Table};
use ehsim_cache::designs::{NvCacheWb, NvSramCache, ReplayCache, VCacheWt, WriteBufferCache};
use ehsim_cache::{CacheDesign, CacheGeometry, CacheStats, MemCtx, ReplacementPolicy, TagArray};
use ehsim_energy::{EnergyMeter, TraceKind};
use ehsim_farm::{LoadOutcome, ResultStore, SimKey};
use ehsim_mem::{FunctionalMem, NvmPort, Ps};
use ehsim_obs::SimHeartbeat;
use ehsim_workloads::Scale;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Stated tolerance between the summed layer self times and a second
/// timing of the same traced replays. The self times are differences of
/// adjacent stacks, so their sum is the first traced timing by
/// construction and the gap (`sim.reconcile_err`) measures only host
/// noise between two timings of the same work (0.2–2% on a shared
/// 2-vCPU host). It is reported, not checked: noise must not fail a run
/// whose outputs are correct.
const RECONCILE_TOLERANCE: f64 = 0.10;

/// How far below zero a layer's summed self time may read, as a share of
/// the layer sum, before the peel counts it as misattributed. A stack
/// that does less work than the one beneath it (for instance a `drive`
/// loop slower than `Machine`'s own) shows up as a clearly negative self
/// time; host noise between adjacent stacks stays well inside this.
const NEGATIVE_SELF_TOLERANCE: f64 = 0.02;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    match args.first().map(String::as_str) {
        Some("suite") => cmd_suite(rest),
        Some("figures") => cmd_figures(rest),
        Some("trace") => cmd_trace(rest),
        _ => die("usage: perfbench (suite|figures|trace) --scale small|default [--names a,b] [--powers none,rf1]"),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn scale_arg(args: &[String]) -> Scale {
    match opt(args, "--scale") {
        Some("small") => Scale::Small,
        Some("default") => Scale::Default,
        _ => die("--scale must be small or default"),
    }
}

fn figure_list(args: &[String]) -> Vec<(&'static str, figures::FigureFn)> {
    let names = opt(args, "--names").unwrap_or_else(|| die("--names is required"));
    names
        .split(',')
        .map(|n| {
            figures::ALL
                .iter()
                .copied()
                .find(|(m, _)| *m == n)
                .unwrap_or_else(|| die(&format!("unknown figure {n}")))
        })
        .collect()
}

fn power_list(args: &[String]) -> Vec<TraceKind> {
    let powers = opt(args, "--powers").unwrap_or_else(|| die("--powers is required"));
    powers
        .split(',')
        .map(|p| match p {
            "none" => TraceKind::None,
            "rf1" => TraceKind::Rf1,
            _ => die(&format!("unknown power trace {p}")),
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in kB; 0 where
/// `/proc` is unavailable.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Flat JSON object writer for the result line. Keys and string values
/// are plain labels (no quotes or backslashes).
#[derive(Default)]
struct Json(Vec<String>);

impl Json {
    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() { v } else { 0.0 };
        self.0.push(format!("\"{key}\":{v}"));
        self
    }
    fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.0.push(format!("\"{key}\":{v}"));
        self
    }
    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.0.push(format!("\"{key}\":\"{v}\""));
        self
    }
    fn ints(&mut self, key: &str, v: &[u64]) -> &mut Self {
        let items: Vec<String> = v.iter().map(u64::to_string).collect();
        self.0.push(format!("\"{key}\":[{}]", items.join(",")));
        self
    }
    fn emit(&self) {
        println!("PERFBENCH {{{}}}", self.0.join(","));
    }
}

/// Output checks made inside the traced run; failures are described on
/// stderr and counted in the result.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// Set-up a sweep pays before its first simulation: suite construction,
/// then the executor's per-process first use of every kernel — trace
/// recording and content-dedup fingerprinting — which `run_batch` does
/// while computing memo keys and `exec::canonical_map` does alone.
fn cmd_suite(args: &[String]) {
    let scale = scale_arg(args);
    let (build_s, suite) = timed(|| ehsim_workloads::all23(scale));
    let (first_use_s, map) = timed(|| exec::canonical_map(scale));
    let mut j = Json::default();
    j.num("build_s", build_s)
        .num("first_use_s", first_use_s)
        .int("kernels", black_box(suite).len() as u64)
        .int("canonical", map.len() as u64);
    j.emit();
}

fn cmd_figures(args: &[String]) {
    let start = Instant::now();
    let scale = scale_arg(args);
    for (name, f) in figure_list(args) {
        f(scale).save(name);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let st = exec::stats();
    let mut j = Json::default();
    j.num("wall_s", wall_s)
        .int("sims_run", st.sims_run)
        .int("instructions", st.simulated_instructions)
        .int("store_hits", st.store_hits)
        .int("store_rejects", st.store_rejects)
        .int("vm_hwm_kb", vm_hwm_kb())
        .str("engine", exec::engine());
    j.emit();
}

fn cmd_trace(args: &[String]) {
    let scale = scale_arg(args);
    let list = figure_list(args);
    let powers = power_list(args);
    let mut j = Json::default();
    let mut checks = Checks::default();
    exec_and_figures(scale, &list, &mut j, &mut checks);
    store_layer(&mut j, &mut checks);
    peel(scale, &powers, &mut j, &mut checks);
    j.int("attempted", checks.attempted)
        .int("failed", checks.failed)
        .int("vm_hwm_kb", vm_hwm_kb())
        .str("engine", exec::engine());
    j.emit();
}

/// Executor and figure layers: one pass through the figure functions
/// with the heartbeat sink attached (every executed sim reports its
/// elapsed time), then a memo-warm second pass — every batch entry a
/// memo hit — which leaves the figures' own reduction, then the TSV
/// writes.
fn exec_and_figures(
    scale: Scale,
    list: &[(&'static str, figures::FigureFn)],
    j: &mut Json,
    checks: &mut Checks,
) {
    let samples: Arc<Mutex<Vec<u64>>> = Arc::default();
    let sink = Arc::clone(&samples);
    telemetry::add_heartbeat_sink(Arc::new(move |hb: &SimHeartbeat| {
        sink.lock()
            .expect("heartbeat samples poisoned")
            .push(hb.elapsed_ns);
    }));
    let workers = exec::jobs();
    let (exec_wall, tables) = timed(|| list.iter().map(|(_, f)| f(scale)).collect::<Vec<Table>>());
    let st = exec::stats();
    let (reduce_s, ()) = timed(|| {
        for ((name, f), table) in list.iter().zip(&tables) {
            let again = f(scale);
            checks.check(again.contents() == table.contents(), || {
                format!("{name}: memo-warm rerun differs from the first pass")
            });
        }
    });
    let (write_s, ()) = timed(|| {
        for ((name, _), table) in list.iter().zip(&tables) {
            table.save(name);
        }
    });
    let tsv_bytes: u64 = tables.iter().map(|t| t.contents().len() as u64).sum();
    let samples = samples.lock().expect("heartbeat samples poisoned").clone();
    let busy = samples.iter().sum::<u64>() as f64 / 1e9;
    let capacity = exec_wall * workers as f64;
    let entries = st.memo_hits + st.sims_run + st.store_hits;
    j.num("exec.wall_s", exec_wall)
        .num("exec.busy_s", busy)
        .num("exec.idle_s", (capacity - busy).max(0.0))
        .num("exec.worker_util", busy / capacity)
        .num(
            "exec.memo_hit_ratio",
            st.memo_hits as f64 / entries.max(1) as f64,
        )
        .int("exec.sims_run", st.sims_run)
        .ints("exec.sim_ns", &samples)
        .num("figures.reduce_s", reduce_s)
        .num("figures.tsv_write_s", write_s)
        .int("figures.tsv_bytes", tsv_bytes);
}

/// The store key recorded in a `.ehres` entry's header: magic (8
/// bytes), key-encoding version (u32), word count (u32), then the key
/// words, all little-endian.
fn stored_key(path: &Path) -> Option<SimKey> {
    let bytes = std::fs::read(path).ok()?;
    let n = u32::from_le_bytes(bytes.get(12..16)?.try_into().ok()?) as usize;
    if n > 1024 {
        return None;
    }
    let words = bytes
        .get(16..16 + 8 * n)?
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        .collect();
    Some(SimKey::from_words(words))
}

/// Store layer: loads every entry of the store named by
/// `EHSIM_RESULT_STORE` by its recorded key, then saves the loaded
/// reports into a fresh store. All zero for a run without a store.
fn store_layer(j: &mut Json, checks: &mut Checks) {
    let mut loads = 0u64;
    let (mut hits, mut rejects, mut bytes_read, mut saves) = (0u64, 0u64, 0u64, 0u64);
    let (mut load_s, mut save_s) = (0.0, 0.0);
    if let Some(dir) = std::env::var_os("EHSIM_RESULT_STORE").filter(|v| !v.is_empty()) {
        let store = ResultStore::open(&dir);
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.extension().is_some_and(|x| x == "ehres"))
                    .collect()
            })
            .unwrap_or_default();
        paths.sort();
        let keys: Vec<SimKey> = paths.iter().filter_map(|p| stored_key(p)).collect();
        checks.check(!keys.is_empty() && keys.len() == paths.len(), || {
            format!(
                "store keys: {} readable of {} entries",
                keys.len(),
                paths.len()
            )
        });
        bytes_read = paths
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();
        let (t, outcomes) = timed(|| keys.iter().map(|k| store.load(k)).collect::<Vec<_>>());
        load_s = t;
        loads = keys.len() as u64;
        let mut reports: Vec<(&SimKey, Report)> = Vec::new();
        for (key, outcome) in keys.iter().zip(outcomes) {
            match outcome {
                LoadOutcome::Hit(r) => {
                    hits += 1;
                    reports.push((key, *r));
                }
                LoadOutcome::Reject(_) => rejects += 1,
                LoadOutcome::Miss => {}
            }
        }
        checks.check(hits == loads, || {
            format!("store: {hits} hits of {loads} loads")
        });
        let copy_dir = Path::new("store-copy");
        let _ = std::fs::remove_dir_all(copy_dir);
        let copy = ResultStore::open(copy_dir);
        let (t, ok) = timed(|| reports.iter().all(|(k, r)| copy.save(k, r).is_ok()));
        save_s = t;
        saves = reports.len() as u64;
        checks.check(ok, || "store: a save failed".to_string());
    }
    j.num("store.load_s", load_s)
        .int("store.loads", loads)
        .num("store.hit_ratio", hits as f64 / loads.max(1) as f64)
        .int("store.rejects", rejects)
        .int("store.bytes_read", bytes_read)
        .num("store.save_s", save_s)
        .int("store.saves", saves);
}

/// Short metric-name key of a design.
fn design_key(kind: &DesignKind) -> &'static str {
    match kind {
        DesignKind::NvSram => "nvsram",
        DesignKind::NvCacheWb => "nvwb",
        DesignKind::VCacheWt => "vwt",
        DesignKind::Replay { .. } => "replay",
        DesignKind::WBuf { .. } => "wbuf",
        DesignKind::Wl { .. } => "wl",
    }
}

/// Stack 1: the decode walk alone, folding each op into a value the
/// optimiser must keep. Returns the op count.
fn decode_walk(trace: &BusTrace) -> u64 {
    let (mut n, mut acc) = (0u64, 0u64);
    for op in trace.cursor() {
        n += 1;
        acc = acc.wrapping_add(match op {
            BusOp::Load { addr, .. } | BusOp::Store { addr, .. } => u64::from(addr),
            BusOp::Compute { cycles } => cycles,
        });
    }
    black_box(acc);
    n
}

/// Stack 2: decode plus a tag array of the default geometry, driven by
/// the stream's addresses (`lookup`, then `touch` on a hit or
/// `victim` + `fill` on a miss). Returns (lookups, hits).
fn tag_walk(trace: &BusTrace, geom: CacheGeometry) -> (u64, u64) {
    let mut array = TagArray::new(geom, ReplacementPolicy::Lru);
    let zeros = vec![0u8; geom.line_bytes() as usize];
    let (mut lookups, mut hits) = (0u64, 0u64);
    for op in trace.cursor() {
        let addr = match op {
            BusOp::Load { addr, .. } | BusOp::Store { addr, .. } => addr,
            BusOp::Compute { .. } => continue,
        };
        lookups += 1;
        match array.lookup(addr) {
            Some(sw) => {
                hits += 1;
                array.touch(sw);
            }
            None => {
                let sw = array.victim(addr);
                array.fill(sw, addr, &zeros);
            }
        }
    }
    black_box(&array);
    (lookups, hits)
}

/// NVM port work of the design stack, in simulated units.
#[derive(Default)]
struct PortTally {
    ops: u64,
    busy_ps: Ps,
}

/// Stack 3: decode plus the design protocol, each load/store served by
/// the design through a `MemCtx` that owns the NVM port, with the clock
/// advanced as the machine advances it — but no energy settlement and
/// no outages (the capacitor reads as full). Mirrors the machine's
/// design construction, whose `DesignBox` is private to `ehsim`.
fn design_stack(cfg: &SimConfig, trace: &BusTrace) -> PortTally {
    let (geom, policy) = (cfg.geometry, cfg.cache_policy);
    match &cfg.design {
        DesignKind::VCacheWt => drive(VCacheWt::new(geom, policy), false, cfg, trace),
        DesignKind::NvCacheWb => drive(NvCacheWb::new(geom, policy), false, cfg, trace),
        DesignKind::NvSram => drive(NvSramCache::new(geom, policy), false, cfg, trace),
        DesignKind::Replay { region_instrs } => drive(
            ReplayCache::new(geom, policy, *region_instrs, cfg.cpu.compute_pj_per_cycle),
            true,
            cfg,
            trace,
        ),
        DesignKind::WBuf { capacity } => drive(
            WriteBufferCache::new(geom, policy, *capacity),
            false,
            cfg,
            trace,
        ),
        DesignKind::Wl {
            thresholds,
            dq_policy,
            adaptation,
        } => {
            let mut b = wl_cache::WlCacheBuilder::new();
            b.geometry(geom)
                .cache_policy(policy)
                .thresholds(*thresholds)
                .dq_policy(*dq_policy)
                .adaptation(*adaptation);
            drive(b.build(), false, cfg, trace)
        }
    }
}

fn drive<D: CacheDesign>(
    mut design: D,
    hook: bool,
    cfg: &SimConfig,
    trace: &BusTrace,
) -> PortTally {
    let line = cfg.geometry.line_bytes();
    let size = trace.mem_bytes().max(line).div_ceil(line) * line;
    let (timing, energy) = (&cfg.nvm_timing, &cfg.nvm_energy);
    let mut port = NvmPort::new();
    let mut nvm = FunctionalMem::new(size);
    let mut meter = EnergyMeter::new();
    let mut stats = CacheStats::new();
    let mut obs = ObserverBox::Noop;
    let cap_voltage = design.thresholds().v_on;
    let ppc = cfg.cpu.ps_per_cycle;
    let read_ps = timing.line_read_ps();
    let line_write_ps = timing.line_write_ps() + timing.line_write_recovery_ps();
    let word_write_ps = timing.word_write_ps() + timing.word_write_recovery_ps();
    let line = u64::from(line);
    let mut tally = PortTally::default();
    let (mut now, mut instrs): (Ps, u64) = (0, 0);
    macro_rules! ctx {
        () => {
            MemCtx {
                now,
                port: &mut port,
                timing,
                energy,
                nvm: &mut nvm,
                meter: &mut meter,
                stats: &mut stats,
                cap_voltage,
                obs: &mut obs,
            }
        };
    }
    for op in trace.cursor() {
        let (read0, write0, words0) = (
            stats.nvm_read_bytes,
            stats.nvm_write_bytes,
            stats.word_writes,
        );
        let mut word_bytes = 0;
        match op {
            BusOp::Load { addr, size } => {
                let (done, value) = design.load(&mut ctx!(), addr, size);
                black_box(value);
                now = done.max(now + ppc);
                instrs += 1;
                if hook {
                    now = now.max(design.on_instructions(&mut ctx!(), instrs));
                }
            }
            BusOp::Store { addr, size } => {
                let done = design.store(&mut ctx!(), addr, size, 0);
                now = done.max(now + ppc);
                instrs += 1;
                word_bytes = u64::from(size.bytes());
                if hook {
                    now = now.max(design.on_instructions(&mut ctx!(), instrs));
                }
            }
            BusOp::Compute { cycles } => {
                let mut left = cycles;
                while left > 0 {
                    let chunk = left.min(ehsim::params::COMPUTE_CHUNK_CYCLES);
                    left -= chunk;
                    now += chunk * ppc;
                    instrs += chunk;
                    if hook {
                        now = now.max(design.on_instructions(&mut ctx!(), instrs));
                    }
                }
            }
        }
        let words = stats.word_writes - words0;
        let reads = (stats.nvm_read_bytes - read0) / line;
        let line_writes = (stats.nvm_write_bytes - write0 - words * word_bytes) / line;
        tally.ops += reads + line_writes + words;
        tally.busy_ps += reads * read_ps + line_writes * line_write_ps + words * word_write_ps;
    }
    black_box(&nvm);
    tally
}

/// Stack 4 (`recording == false`) and 5: the full `Simulator::replay`,
/// untraced or with the recording observer. Returns the report, the
/// settlement windows and the recorded event count.
fn full_replay(cfg: &SimConfig, trace: &BusTrace, recording: bool) -> Option<(Report, u64, u64)> {
    let obs = if recording {
        ObserverBox::recording()
    } else {
        ObserverBox::Noop
    };
    let (report, machine) = Simulator::new(cfg.clone()).replay_with(trace, obs).ok()?;
    let events = machine
        .observer()
        .recorder()
        .map_or(0, |r| r.events_len() as u64);
    Some((report, machine.settle_windows(), events))
}

/// The layer peel: every suite kernel at `scale`, recorded once, then
/// replayed for each power trace and design through stacks of
/// increasing depth: decode; then the tag array; then the design
/// protocol and port; then energy settlement and outages (the full
/// untraced replay); then the recording observer. A layer's self time
/// is the difference between adjacent stacks. The stacks of one
/// (kernel, design) pair run back to back, so slow drifts in host speed
/// hit them alike; the decode and tag-array stacks are
/// design-independent, so they are timed once per kernel and counted
/// once per design replay. The traced replay is timed a second time
/// right after the stacks, the figure the layer sum is reconciled with,
/// and direct execution (`Simulator::run`) is timed alongside. Every
/// report is checked against the kernel checksum and against the other
/// engines, and no layer's self time may be clearly negative.
fn peel(scale: Scale, powers: &[TraceKind], j: &mut Json, checks: &mut Checks) {
    let suite = ehsim_workloads::all23(scale);
    let (mut kernel_s, mut record_s) = (0.0, 0.0);
    let (mut ops, mut encoded) = (0u64, 0u64);
    let mut traces = Vec::with_capacity(suite.len());
    for w in &suite {
        let (t, sum) = timed(|| w.run(&mut FunctionalMem::new(w.mem_bytes())));
        kernel_s += t;
        let (t, trace) = timed(|| BusTrace::record(w.as_ref()));
        record_s += t;
        checks.check(trace.checksum() == sum, || {
            format!("{}: recorded checksum differs from the kernel's", w.name())
        });
        ops += trace.ops();
        encoded += trace.encoded_len() as u64;
        traces.push(trace);
    }

    let geom = SimConfig::wl_cache().geometry;
    let designs = SimConfig::all_designs();
    let n_designs = designs.len() as u64;
    let mut design_self = vec![0.0; designs.len()];
    let mut line_writes = vec![0u64; designs.len()];
    let (mut decode_s, mut decode_ops, mut tag_s) = (0.0, 0u64, 0.0);
    let (mut lookups, mut tag_hits) = (0u64, 0u64);
    let (mut port_ops, mut port_busy) = (0u64, 0u64);
    let (mut energy_s, mut settles, mut outages) = (0.0, 0u64, 0u64);
    let (mut obs_s, mut events, mut dq_stalls) = (0.0, 0u64, 0u64);
    let (mut replay_s, mut traced_s, mut direct_s, mut repeat_s) = (0.0, 0.0, 0.0, 0.0);
    for &power in powers {
        for (w, trace) in suite.iter().zip(&traces) {
            let (t1, n) = timed(|| decode_walk(trace));
            checks.check(n == trace.ops(), || {
                format!("{}: decode walk op count", w.name())
            });
            let (t2, (l, h)) = timed(|| tag_walk(trace, geom));
            decode_s += n_designs as f64 * t1;
            tag_s += n_designs as f64 * (t2 - t1);
            decode_ops += n_designs * n;
            lookups += n_designs * l;
            tag_hits += n_designs * h;
            for (d, cfg) in designs.iter().enumerate() {
                let cfg = cfg.clone().with_trace(power);
                let label = || {
                    format!(
                        "{} / {} on {}",
                        w.name(),
                        cfg.design.label(),
                        cfg.trace_label()
                    )
                };
                let (t3, port) = timed(|| design_stack(&cfg, trace));
                let (t4, plain) = timed(|| full_replay(&cfg, trace, false));
                let (t5, traced) = timed(|| full_replay(&cfg, trace, true));
                let (t5b, again) = timed(|| full_replay(&cfg, trace, true));
                let (td, direct) = timed(|| Simulator::new(cfg.clone()).run(w.as_ref()).ok());
                let (Some((report, windows, _)), Some((traced_report, _, ev))) = (plain, traced)
                else {
                    checks.check(false, || format!("{}: simulation error", label()));
                    continue;
                };
                checks.check(report.checksum == trace.checksum(), || {
                    format!("{}: checksum", label())
                });
                checks.check(traced_report == report, || {
                    format!("{}: traced replay differs", label())
                });
                checks.check(again.is_some_and(|(r, ..)| r == report), || {
                    format!("{}: repeated traced replay differs", label())
                });
                checks.check(direct.as_ref() == Some(&report), || {
                    format!("{}: direct run differs from replay", label())
                });
                design_self[d] += t3 - t2;
                port_ops += port.ops;
                port_busy += port.busy_ps;
                energy_s += t4 - t3;
                obs_s += t5 - t4;
                replay_s += t4;
                traced_s += t5;
                repeat_s += t5b;
                direct_s += td;
                line_writes[d] += report.cache.evict_writebacks
                    + report.cache.async_writebacks
                    + report.cache.checkpoint_lines;
                settles += windows;
                outages += report.outages;
                events += ev;
                dq_stalls += report.wl.as_ref().map_or(0, |wl| wl.stalls);
            }
        }
    }
    let layer_sum = decode_s + tag_s + design_self.iter().sum::<f64>() + energy_s + obs_s;
    let reconcile_err = (layer_sum - repeat_s).abs() / repeat_s;
    let layers = [
        ("record.decode_s", decode_s),
        ("tag_array.s", tag_s),
        ("energy.s", energy_s),
        ("obs.recording_s", obs_s),
    ];
    let design_layers = designs
        .iter()
        .zip(&design_self)
        .map(|(cfg, s)| (design_key(&cfg.design), *s));
    for (name, self_s) in layers.into_iter().chain(design_layers) {
        checks.check(self_s >= -NEGATIVE_SELF_TOLERANCE * layer_sum, || {
            format!("layer {name}: self time {self_s:.3} s of a {layer_sum:.3} s layer sum")
        });
    }

    j.num("workloads.kernel_s", kernel_s)
        .int("workloads.ops", ops)
        .num("record.record_s", record_s)
        .num("record.decode_s", decode_s)
        .num(
            "record.decode_ns_per_op",
            decode_s * 1e9 / decode_ops.max(1) as f64,
        )
        .int("record.encoded_bytes", encoded)
        .num("tag_array.s", tag_s)
        .int("tag_array.lookups", lookups)
        .num(
            "tag_array.hit_ratio",
            tag_hits as f64 / lookups.max(1) as f64,
        )
        .num(
            "tag_array.ns_per_lookup",
            tag_s * 1e9 / lookups.max(1) as f64,
        );
    for ((cfg, self_s), writes) in designs.iter().zip(&design_self).zip(&line_writes) {
        let key = design_key(&cfg.design);
        j.num(&format!("design.{key}.s"), *self_s)
            .int(&format!("design.{key}.nvm_line_writes"), *writes);
    }
    j.int("design.wl.dq_stalls", dq_stalls)
        .int("port.ops", port_ops)
        .int("port.busy_ps", port_busy)
        .num("energy.s", energy_s)
        .int("energy.settle_windows", settles)
        .int("energy.outages", outages)
        .num(
            "energy.ns_per_settle",
            energy_s * 1e9 / settles.max(1) as f64,
        )
        .num("obs.recording_s", obs_s)
        .int("obs.events", events)
        .num("obs.ns_per_event", obs_s * 1e9 / events.max(1) as f64)
        .num("sim.replay_s", replay_s)
        .num("sim.direct_s", direct_s)
        .num("sim.trace_overhead", traced_s / replay_s)
        .num("sim.layer_sum_s", layer_sum)
        .num("sim.traced_replay_s", repeat_s)
        .num("sim.reconcile_err", reconcile_err)
        .num("sim.reconcile_tolerance", RECONCILE_TOLERANCE);
}
