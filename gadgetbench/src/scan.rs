//! One scan: `.tof` bytes to final report through the public layer
//! APIs, then the correctness checks, which run outside the timed
//! region.

use crate::gen::{Job, Kind, FLEET_WORKERS};
use crate::rss;
use crate::trace::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use teapot_campaign::{Campaign, CampaignReport};
use teapot_core::{rewrite_with_stats, RewriteOptions};
use teapot_fabric::{run_fleet_threads, FabricStats, FleetOptions};
use teapot_obj::Binary;
use teapot_triage::{triage_report_timed, TriageOptions, TriagePhaseTimes, TriageStats};
use teapot_vm::{Program, VmCounters};

/// Layer timings and counts of one scan, read from the layers' public
/// stat structs.
#[derive(Default)]
pub struct Layers {
    pub parse_s: f64,
    pub rewrite_s: f64,
    pub program_s: f64,
    /// Wall seconds of the campaign loop (`campaign` span) or of the
    /// whole fleet campaign (`fabric` span).
    pub campaign_s: f64,
    pub triage_s: f64,
    pub branches: u64,
    pub asan_checks: u64,
    pub decoded_insts: u64,
    pub compiled_records: u64,
    pub vm: VmCounters,
    pub execs: u64,
    pub unique_gadgets: u64,
    pub witnesses: u64,
    pub first_gadget_execs: u64,
    pub fabric: FabricStats,
    pub triage: TriageStats,
    pub triage_times: TriagePhaseTimes,
    pub root_causes: u64,
    pub tp: u64,
    pub fp: u64,
    pub fnn: u64,
}

pub struct Scan {
    pub program: &'static str,
    /// CPU seconds from `.tof` bytes to the final report.
    pub scan_s: f64,
    /// Wall seconds of the same region, printed for comparison.
    pub wall_s: f64,
    /// Peak resident MiB of the process during the timed region.
    pub peak_rss_mb: f64,
    pub layers: Layers,
    /// Why the scan failed: an error, a panic or a failed check.
    pub error: Option<String>,
}

impl Scan {
    /// Seconds before the first execution: parse + rewrite + program.
    pub fn setup_s(&self) -> f64 {
        self.layers.parse_s + self.layers.rewrite_s + self.layers.program_s
    }
}

/// What the timed region hands to the checks.
struct Output {
    inst: Binary,
    report: CampaignReport,
}

/// Scans `job` and checks the result. Never panics: a panic anywhere
/// in the layers is caught and reported as the scan's error.
pub fn scan(kind: Kind, job: &Job, tr: &mut Tracer) -> Scan {
    tr.set_scan(job.id);
    let mut layers = Layers::default();
    let (mut scan_s, mut wall_s, mut peak_rss_mb) = (0.0, 0.0, 0.0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        rss::reset_peak();
        let started = Instant::now();
        let (out, secs) = tr.span("scan", |tr| timed(kind, job, tr, &mut layers));
        wall_s = started.elapsed().as_secs_f64();
        scan_s = secs;
        peak_rss_mb = rss::peak_mb();
        check(kind, job, &out?, tr, &mut layers)
    }));
    let error = match result {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(e),
        Err(_) => {
            tr.close_open();
            Some("panicked".to_string())
        }
    };
    if let Some(e) = &error {
        eprintln!("scan {} ({}): {e}", job.id, job.program);
    }
    Scan {
        program: job.program,
        scan_s,
        wall_s,
        peak_rss_mb,
        layers,
        error,
    }
}

/// The timed region: parse, rewrite, fuzz (single host or fleet) and,
/// where the workload triages, triage.
fn timed(kind: Kind, job: &Job, tr: &mut Tracer, l: &mut Layers) -> Result<Output, String> {
    let (bin, secs) = tr.span("obj.parse", |_| Binary::from_bytes(&job.tof));
    l.parse_s = secs;
    let bin = bin.map_err(|e| format!("parse: {e}"))?;
    let (inst, secs) = tr.span("core.rewrite", |_| {
        rewrite_with_stats(&bin, &RewriteOptions::default())
    });
    l.rewrite_s = secs;
    let (inst, rs) = inst.map_err(|e| format!("rewrite: {e}"))?;
    l.branches = rs.branches as u64;
    l.asan_checks = rs.asan_checks as u64;

    if kind == Kind::FleetSweep {
        // Fleet workers build their own `Program` from the leased
        // bytes, inside the `fabric` span.
        let opts = FleetOptions {
            workers: FLEET_WORKERS,
            ..FleetOptions::default()
        };
        let (outcome, secs) = tr.span("fabric", |_| {
            run_fleet_threads(&inst, &job.seeds, &job.config, opts)
        });
        l.campaign_s = secs;
        let outcome = outcome.map_err(|e| format!("fleet: {e}"))?;
        l.fabric = outcome.stats.clone();
        let report = outcome.campaign.report();
        return Ok(Output { inst, report });
    }

    let (prog, secs) = tr.span("vm.program", |_| Program::shared(&inst));
    l.program_s = secs;
    l.decoded_insts = prog.stats().insts as u64;
    l.compiled_records = prog.compile_stats().records as u64;
    let mut campaign = Campaign::new(job.config.clone()).map_err(|e| format!("campaign: {e}"))?;
    let (report, secs) = tr.span("campaign", |tr| {
        while !campaign.finished() {
            tr.span("campaign.epoch", |_| {
                campaign.run_epoch_shared(&prog, &job.seeds)
            });
        }
        campaign.report()
    });
    l.campaign_s = secs;
    l.vm = campaign.merged_vm_counters();
    l.first_gadget_execs = campaign.time_to_first_gadget_execs().unwrap_or(0);

    if kind.triages() {
        let ((db, stats, times), secs) = tr.span("triage", |_| {
            triage_report_timed(
                job.program,
                &inst,
                &job.config,
                &report,
                &TriageOptions::default(),
            )
        });
        l.triage_s = secs;
        l.triage = stats;
        l.triage_times = times;
        l.root_causes = db.entries().len() as u64;
    }
    Ok(Output { inst, report })
}

/// Correctness checks, outside the timed region. Any failure fails the
/// scan.
fn check(
    kind: Kind,
    job: &Job,
    out: &Output,
    tr: &mut Tracer,
    l: &mut Layers,
) -> Result<(), String> {
    let cfg = &job.config;
    let report = &out.report;
    l.execs = report.iters;
    l.unique_gadgets = report.unique_gadgets() as u64;
    l.witnesses = report.witnesses.len() as u64;

    // Every shard runs the seeds and its whole budget; imports from
    // sibling shards come on top.
    let shards = u64::from(cfg.shards);
    let floor = shards * (u64::from(cfg.epochs) * cfg.iters_per_epoch + job.seeds.len() as u64);
    let per_shard: u64 = report.per_shard.iter().map(|s| s.iters).sum();
    if report.iters < floor || per_shard != report.iters {
        return Err(format!(
            "ran {} execs ({per_shard} over shards), budget is at least {floor}",
            report.iters
        ));
    }

    if kind == Kind::FleetSweep {
        // The fleet must reproduce a single-host campaign of the same
        // config byte for byte. The reference also supplies the VM
        // counters, which are a pure function of the config.
        let (prog, secs) = tr.span("vm.program", |_| Program::shared(&out.inst));
        l.program_s = secs;
        l.decoded_insts = prog.stats().insts as u64;
        l.compiled_records = prog.compile_stats().records as u64;
        let mut reference = Campaign::new(cfg.clone()).map_err(|e| format!("campaign: {e}"))?;
        let single = reference.run_shared(&prog, &job.seeds);
        if single.to_json() != report.to_json() {
            return Err("fleet report differs from the single-host report".into());
        }
        l.vm = reference.merged_vm_counters();
        l.first_gadget_execs = reference.time_to_first_gadget_execs().unwrap_or(0);
    } else {
        // PHT only: the RSB and STL models must never have fired.
        let v = &l.vm;
        if v.checkpoints[1..]
            .iter()
            .chain(&v.rollbacks[1..])
            .chain(&v.rob_stops[1..])
            .any(|&c| c != 0)
        {
            return Err("rsb/stl counters are nonzero with only pht enabled".into());
        }
    }

    if kind.triages() {
        if l.triage.replay_failures != 0 {
            return Err(format!(
                "{} witness(es) did not replay",
                l.triage.replay_failures
            ));
        }
        if l.triage.witnesses != report.witnesses.len() {
            return Err("triage skipped witnesses".into());
        }
        if !job.injected.is_empty() {
            let (tp, fp, fnn) =
                teapot_workloads::classify_reports(&job.truth, &report.gadgets, &job.injected);
            l.tp = tp as u64;
            l.fp = fp as u64;
            l.fnn = fnn as u64;
        }
    }
    Ok(())
}
