//! Lockstep equivalence: [`Simulator::run_group`] must return, for
//! every configuration, exactly what a solo [`Simulator::run`] returns —
//! reports field for field, errors variant for variant — whether the
//! group ran in lockstep or fell back to solo runs.
//!
//! Every kernel goes through a [`Counted`] wrapper, so each test also
//! pins *which* path ran: one kernel execution for a lockstep group,
//! one more per configuration after a fallback.

use ehsim::{with_settle_batching_disabled, Report, SimConfig, SimError, Simulator};
use ehsim_energy::{PowerTrace, TraceKind};
use ehsim_mem::{Bus, Workload};
use ehsim_workloads::Scale;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A workload that counts how often its kernel runs.
struct Counted<'a> {
    inner: &'a dyn Workload,
    runs: AtomicUsize,
}

impl<'a> Counted<'a> {
    fn new(inner: &'a dyn Workload) -> Self {
        Self {
            inner,
            runs: AtomicUsize::new(0),
        }
    }

    fn runs(&self) -> usize {
        self.runs.load(Ordering::Relaxed)
    }
}

impl Workload for Counted<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn mem_bytes(&self) -> u32 {
        self.inner.mem_bytes()
    }
    fn run(&self, bus: &mut dyn Bus) -> u64 {
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.inner.run(bus)
    }
}

/// The five paper designs plus WL-Cache with the dynamic `maxline`
/// raise (the design whose thresholds move mid-run).
fn designs() -> Vec<SimConfig> {
    let mut cfgs = SimConfig::all_designs();
    cfgs.push(SimConfig::wl_cache_dyn());
    cfgs
}

fn solo(cfg: &SimConfig, w: &dyn Workload) -> Result<Report, SimError> {
    Simulator::new(cfg.clone()).run(w)
}

/// Runs `cfgs` as one group on `w`, asserts every lane equals its solo
/// run and that the group ran in lockstep (one kernel execution), and
/// returns the lanes' results.
fn assert_group_matches(cfgs: &[SimConfig], w: &dyn Workload) -> Vec<Result<Report, SimError>> {
    let counted = Counted::new(w);
    let group = Simulator::run_group(cfgs, &counted);
    assert_eq!(group.len(), cfgs.len());
    assert_eq!(
        counted.runs(),
        1,
        "{}: the group fell back to solo runs",
        w.name()
    );
    for (cfg, lane) in cfgs.iter().zip(&group) {
        assert_eq!(
            lane,
            &solo(cfg, w),
            "lockstep diverged for {} / {} / {}",
            w.name(),
            cfg.design.label(),
            cfg.trace_label()
        );
    }
    group
}

/// The harvested grid, one design group per (workload, trace).
fn design_grid() {
    for w in ehsim_workloads::all23(Scale::Small) {
        for kind in [TraceKind::Rf1, TraceKind::Rf3, TraceKind::Solar] {
            let cfgs: Vec<SimConfig> = designs().into_iter().map(|c| c.with_trace(kind)).collect();
            assert_group_matches(&cfgs, w.as_ref());
        }
    }
}

/// Every workload × every design (plus WL-Cache(dyn)) × Power Trace 1,
/// Power Trace 3 (the outage-heaviest) and solar.
#[test]
fn design_grid_runs_exactly_in_lockstep() {
    design_grid();
}

/// The same grid with every machine on the per-retire reference
/// settlement path.
#[test]
fn design_grid_runs_exactly_in_lockstep_without_settle_batching() {
    with_settle_batching_disabled(design_grid);
}

/// One group mixing lanes on different power sources — built-in
/// traces, no failures and a custom trace — and a verified lane.
#[test]
fn mixed_trace_group_runs_exactly() {
    let custom = PowerTrace::from_segments(vec![(400_000_000, 9_000.0), (900_000_000, 50.0)]);
    for w in ehsim_workloads::all23(Scale::Small).iter().step_by(4) {
        let cfgs = vec![
            SimConfig::wl_cache().with_trace(TraceKind::Rf1),
            SimConfig::nvsram().with_trace(TraceKind::Solar),
            SimConfig::replay().with_trace(TraceKind::None),
            SimConfig::wl_cache_dyn().with_trace(TraceKind::Rf3),
            SimConfig::vcache_wt().with_custom_trace(custom.clone()),
            SimConfig::nvcache_wb()
                .with_trace(TraceKind::Rf2)
                .with_verify(),
            SimConfig::wl_cache().with_trace(TraceKind::Rf1),
        ];
        assert_group_matches(&cfgs, w.as_ref());
    }
}

/// Small kernels see few outages on the paper's 1 µF buffer. A 0.1 µF
/// buffer on Power Trace 3, verified, puts the grid through more than
/// a hundred outages (checkpoint, recharge, reboot, threshold
/// adaptation).
#[test]
fn outage_heavy_group_runs_exactly() {
    let mut outages = 0;
    for w in ehsim_workloads::all23(Scale::Small) {
        let cfgs: Vec<SimConfig> = designs()
            .into_iter()
            .map(|c| {
                c.with_capacitor_uf(0.1)
                    .with_trace(TraceKind::Rf3)
                    .with_verify()
            })
            .collect();
        outages += assert_group_matches(&cfgs, w.as_ref())
            .iter()
            .map(|r| r.as_ref().map_or(0, |r| r.outages))
            .sum::<u64>();
    }
    assert!(outages > 100, "only {outages} outages across the grid");
}

/// A group of one lane with no power failures is a plain solo run.
#[test]
fn one_lane_no_failure_group_runs_exactly() {
    for w in ehsim_workloads::all23(Scale::Small) {
        assert_group_matches(&[SimConfig::wl_cache()], w.as_ref());
    }
}

#[test]
fn empty_group_runs_nothing() {
    let suite = ehsim_workloads::all23(Scale::Small);
    let counted = Counted::new(suite[0].as_ref());
    assert!(Simulator::run_group(&[], &counted).is_empty());
    assert_eq!(counted.runs(), 0);
}

/// One lane that hits its outage limit aborts the lockstep run; the
/// group falls back to solo runs, so that lane returns exactly the
/// error a solo run returns and every other lane its solo report.
#[test]
fn aborting_lane_falls_back_to_solo_runs() {
    let suite = ehsim_workloads::all23(Scale::Small);
    let w = suite
        .iter()
        .find(|w| w.name() == "g721decode")
        .expect("g721decode is in the suite");
    let mut doomed = SimConfig::nvsram()
        .with_capacitor_uf(0.1)
        .with_trace(TraceKind::Rf3);
    doomed.max_outages = 0;
    let cfgs = vec![
        SimConfig::wl_cache().with_trace(TraceKind::Rf3),
        doomed.clone(),
        SimConfig::replay().with_trace(TraceKind::Rf1),
    ];
    let counted = Counted::new(w.as_ref());
    let group = Simulator::run_group(&cfgs, &counted);
    assert_eq!(counted.runs(), 1 + cfgs.len(), "the group fell back");

    let expected = solo(&doomed, w.as_ref());
    assert_eq!(expected, Err(SimError::TooManyOutages { limit: 0 }));
    assert_eq!(group[1], expected);
    for i in [0, 2] {
        let report = solo(&cfgs[i], w.as_ref()).expect("healthy lane completes");
        assert_eq!(group[i].as_ref(), Ok(&report), "lane {i} changed");
    }
}
