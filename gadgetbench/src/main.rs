//! End-to-end scan benchmark for the teapot gadget scanner.
//!
//! ```text
//! gadgetbench --workload <deep-fuzz|gadget-triage|fleet-sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it scans whole rounds of freshly generated binaries
//! until `--seconds` have passed and reports the end-to-end metrics as
//! aggregates over every scan, in CPU seconds scaled to the reference
//! host speed (`host.rs`). With `--trace 1` it scans a fixed number
//! of rounds twice per binary (untraced, then traced, alternating the
//! order), reports the per-layer metrics and runs the layout probe. The
//! last stdout line is the JSON result; everything above it is for
//! people. See README.md.

mod cpu;
mod gen;
mod host;
mod probe;
mod rss;
mod scan;
mod trace;

use gen::{Generator, Kind};
use scan::Scan;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

struct Args {
    kind: Kind,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&workload).ok_or(format!("unknown workload {workload}"))?;
    Ok(Args {
        kind,
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gadgetbench: {e}");
            eprintln!(
                "usage: gadgetbench --workload <deep-fuzz|gadget-triage|fleet-sweep> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    rss::pin_mmap_threshold();
    // Layer panics are caught per scan and counted as failures; keep
    // their messages to one line each.
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    }
}

/// Rounds of the traced run: fixed, so its counts are exact functions
/// of the seed and comparable between program versions.
fn trace_rounds(kind: Kind) -> usize {
    match kind {
        Kind::DeepFuzz => 12,
        Kind::GadgetTriage => 10,
        Kind::FleetSweep => 6,
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        // A zero denominator (a layer a workload never calls) reads 0.
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn untraced(args: &Args) -> ExitCode {
    let mut gen = Generator::new(args.kind, args.seed);
    let mut tr = Tracer::new(false);
    let mut scans: Vec<Scan> = Vec::new();
    // Host reference pass times, one after every scan, outside the
    // scans' timed regions.
    let mut passes: Vec<f64> = Vec::new();
    let mut rounds = 0;
    let started = Instant::now();
    while rounds == 0 || started.elapsed().as_secs_f64() < args.seconds {
        for job in gen.round() {
            scans.push(scan::scan(args.kind, &job, &mut tr));
            match host::sample() {
                Ok(s) => passes.push(s),
                Err(e) => {
                    eprintln!("gadgetbench: host reference: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        rounds += 1;
    }
    let programs = gen.programs();
    let all: Vec<&Scan> = scans.iter().filter(|s| s.error.is_none()).collect();

    // Each metric is the mean over the workload's programs of the
    // median over that program's scans. Every run scans whole rounds,
    // so each program weighs the same; the median per program keeps
    // the few scans that take two or three times the usual (a mutated
    // input that runs to the fuel cap, a long minimisation) from moving
    // the figure, where a mean over binaries moved with how many of
    // them a run happened to draw. The plain mean and the tail
    // percentile over all scans are printed beside it.
    let per_program = |f: &dyn Fn(&Scan) -> f64| {
        mean(programs.iter().map(|w| {
            median(
                all.iter()
                    .filter(|s| s.program == w.name)
                    .map(|s| f(s))
                    .filter(|x| x.is_finite())
                    .collect(),
            )
        }))
    };
    let cpu_scan_s = per_program(&|s| s.scan_s);
    let cpu_setup_s = per_program(&|s| s.setup_s());
    // Executions over campaign seconds, each the same robust per-scan
    // figure, so fast and slow programs weigh by their time as in a
    // total over the run.
    let cpu_execs_per_s =
        per_program(&|s| s.layers.execs as f64) / per_program(&|s| s.layers.campaign_s);
    // CPU seconds to seconds at the reference host speed. One factor
    // for the whole run: the run's median pass time is steadier than
    // any one sample, and the medians per program already absorb short
    // bursts.
    let pass_s = median(passes);
    let scale = host::scale(pass_s);
    let (scan_s, setup_s, execs_per_s) = (
        scale * cpu_scan_s,
        scale * cpu_setup_s,
        cpu_execs_per_s / scale,
    );
    let metrics = vec![
        m("scan_s", scan_s, "s"),
        m("setup_s", setup_s, "s"),
        m("execs_per_s", execs_per_s, "1/s"),
        m("peak_rss_mb", per_program(&|s| s.peak_rss_mb), "MiB"),
    ];

    let attempted = scans.len();
    let failed = attempted - all.len();
    println!(
        "workload {} seed {}: {} rounds of {} binaries in {:.1} s",
        args.workload,
        args.seed,
        rounds,
        programs.len(),
        started.elapsed().as_secs_f64()
    );
    print_metrics(&metrics);
    println!(
        "unscaled CPU figures: scan_s {cpu_scan_s:.4} s, setup_s {cpu_setup_s:.6} s, \
         execs_per_s {cpu_execs_per_s:.1} 1/s; host reference pass {:.2} ms \
         (nominal {:.2} ms, median of {} samples)",
        1e3 * pass_s,
        1e3 * host::NOMINAL_S,
        attempted
    );
    println!(
        "scan CPU s over all {} scans: mean {:.4} s; {}",
        all.len(),
        mean(all.iter().map(|s| s.scan_s)),
        percentiles_line(all.iter().map(|s| s.scan_s).collect())
    );
    println!(
        "scan wall s over all {} scans: mean {:.4} s; per-program median, mean over programs {:.4} s",
        all.len(),
        mean(all.iter().map(|s| s.wall_s)),
        per_program(&|s| s.wall_s)
    );
    println!(
        "peak_rss_mb over all scans: max {:.2} MiB",
        all.iter().map(|s| s.peak_rss_mb).fold(0.0, f64::max)
    );
    // Guest work is a pure function of the seed: it separates a change
    // in the generated work from a change in the speed of doing it.
    let retired: u64 = all
        .iter()
        .map(|s| s.layers.vm.compiled_insts + s.layers.vm.slice_insts + s.layers.vm.step_insts)
        .sum();
    let execs: u64 = all.iter().map(|s| s.layers.execs).sum();
    println!(
        "guest work: {:.3} M insts retired and {:.1} execs per scan",
        retired as f64 / 1e6 / all.len() as f64,
        execs as f64 / all.len() as f64
    );
    println!("per program: scans, mean scan s, execs, witnesses, triage replays");
    for w in programs {
        let mine: Vec<&&Scan> = all.iter().filter(|s| s.program == w.name).collect();
        let k = mine.len() as f64;
        let avg = |f: fn(&Scan) -> f64| mine.iter().map(|s| f(s)).sum::<f64>() / k;
        println!(
            "  {:<12} {:>3} {:>8.4} {:>8.1} {:>6.2} {:>8.1}",
            w.name,
            mine.len(),
            avg(|s| s.scan_s),
            avg(|s| s.layers.execs as f64),
            avg(|s| s.layers.witnesses as f64),
            avg(|s| s.layers.triage.replays as f64)
        );
    }
    println!(
        "failed_share = {} ratio ({failed} of {attempted} scans)",
        failed as f64 / attempted as f64
    );
    println!("{}", result_json(failed, attempted, &metrics));
    ExitCode::SUCCESS
}

fn traced(args: &Args) -> ExitCode {
    let mut gen = Generator::new(args.kind, args.seed);
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let (mut plain, mut scans): (Vec<Scan>, Vec<Scan>) = (Vec::new(), Vec::new());
    for _ in 0..trace_rounds(args.kind) {
        for job in gen.round() {
            // Alternate which pass sees the binary first, so warm
            // caches favour neither side of the overhead comparison.
            if job.id % 2 == 0 {
                plain.push(scan::scan(args.kind, &job, &mut off));
                scans.push(scan::scan(args.kind, &job, &mut tr));
            } else {
                scans.push(scan::scan(args.kind, &job, &mut tr));
                plain.push(scan::scan(args.kind, &job, &mut off));
            }
        }
    }
    let spreads = match probe::run(15) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gadgetbench: layout probe: {e}");
            return ExitCode::FAILURE;
        }
    };

    let failed = scans
        .iter()
        .chain(&plain)
        .filter(|s| s.error.is_some())
        .count();
    let n = scans.len() as f64;
    let spans = tr.spans();
    let selfs = trace::self_times(spans);
    let sum = |f: fn(&Scan) -> u64| scans.iter().map(f).sum::<u64>() as f64;
    let per_scan_ms = |f: fn(&Scan) -> f64| 1e3 * scans.iter().map(f).sum::<f64>() / n;
    let vm = |f: fn(&teapot_vm::VmCounters) -> u64| {
        scans.iter().map(|s| f(&s.layers.vm)).sum::<u64>() as f64
    };
    let retired = vm(|v| v.compiled_insts + v.slice_insts + v.step_insts);
    let campaign_s: f64 = scans.iter().map(|s| s.layers.campaign_s).sum();
    let (epoch_s, epochs) = trace::total(spans, "campaign.epoch");
    let fabric_epochs = sum(|s| s.layers.fabric.epochs);
    let triage_s: f64 = scans.iter().map(|s| s.layers.triage_s).sum();
    let traced_s = mean(scans.iter().map(|s| s.scan_s));
    let untraced_s = mean(plain.iter().map(|s| s.scan_s));
    let samples: Vec<f64> = scans.iter().map(|s| s.scan_s).collect();
    let (p50, tail) = percentiles(samples.clone());

    let metrics = vec![
        m("obj.parse_ms", per_scan_ms(|s| s.layers.parse_s), "ms"),
        m("core.rewrite_ms", per_scan_ms(|s| s.layers.rewrite_s), "ms"),
        m("core.branches", sum(|s| s.layers.branches), "count"),
        m("core.asan_checks", sum(|s| s.layers.asan_checks), "count"),
        m("vm.program_ms", per_scan_ms(|s| s.layers.program_s), "ms"),
        m("vm.decoded_insts", sum(|s| s.layers.decoded_insts), "count"),
        m(
            "vm.compiled_records",
            sum(|s| s.layers.compiled_records),
            "count",
        ),
        m("vm.minsts_per_s", retired / campaign_s / 1e6, "Minst/s"),
        m(
            "vm.compiled_share",
            vm(|v| v.compiled_insts) / retired,
            "ratio",
        ),
        m("vm.compiled_exits", vm(|v| v.compiled_exits), "count"),
        m(
            "vm.tlb_miss_ratio",
            vm(|v| v.tlb_misses) / vm(|v| v.tlb_hits + v.tlb_misses),
            "ratio",
        ),
        m("vm.pages_allocated", vm(|v| v.pages_allocated), "count"),
        m("vm.memlog_bytes", vm(|v| v.memlog_bytes_replayed), "B"),
        m("vm.rep_spread", spreads.vm, "ratio"),
        m("host.ref_spread", spreads.reference, "ratio"),
        m(
            "specmodel.checkpoints.pht",
            vm(|v| v.checkpoints[0]),
            "count",
        ),
        m(
            "specmodel.checkpoints.rsb",
            vm(|v| v.checkpoints[1]),
            "count",
        ),
        m(
            "specmodel.checkpoints.stl",
            vm(|v| v.checkpoints[2]),
            "count",
        ),
        m("specmodel.rollbacks.pht", vm(|v| v.rollbacks[0]), "count"),
        m("specmodel.rollbacks.rsb", vm(|v| v.rollbacks[1]), "count"),
        m("specmodel.rollbacks.stl", vm(|v| v.rollbacks[2]), "count"),
        m("specmodel.rob_stops.pht", vm(|v| v.rob_stops[0]), "count"),
        m("specmodel.rob_stops.rsb", vm(|v| v.rob_stops[1]), "count"),
        m("specmodel.rob_stops.stl", vm(|v| v.rob_stops[2]), "count"),
        m("fuzz.execs", sum(|s| s.layers.execs), "count"),
        m(
            "fuzz.unique_gadgets",
            sum(|s| s.layers.unique_gadgets),
            "count",
        ),
        m("fuzz.witnesses", sum(|s| s.layers.witnesses), "count"),
        m(
            "fuzz.first_gadget_execs",
            sum(|s| s.layers.first_gadget_execs),
            "count",
        ),
        m(
            "campaign.ms",
            1e3 * trace::total(spans, "campaign").0 / n,
            "ms",
        ),
        m("campaign.epoch_ms", 1e3 * epoch_s / epochs as f64, "ms"),
        m(
            "campaign.self_ms",
            1e3 * selfs.get("campaign").copied().unwrap_or(0.0) / n,
            "ms",
        ),
        m("fabric.ms", 1e3 * trace::total(spans, "fabric").0 / n, "ms"),
        m("fabric.leases", sum(|s| s.layers.fabric.leases), "count"),
        m("fabric.deltas", sum(|s| s.layers.fabric.deltas), "count"),
        m(
            "fabric.delta_bytes_per_epoch",
            sum(|s| s.layers.fabric.delta_bytes) / fabric_epochs,
            "B",
        ),
        m(
            "fabric.merge_ms",
            sum(|s| s.layers.fabric.merge_ms) / n,
            "ms",
        ),
        m("triage.ms", per_scan_ms(|s| s.layers.triage_s), "ms"),
        m(
            "triage.replay_ms",
            sum(|s| s.layers.triage_times.replay_ms) / n,
            "ms",
        ),
        m(
            "triage.minimize_ms",
            sum(|s| s.layers.triage_times.minimize_ms) / n,
            "ms",
        ),
        m("triage.replays", sum(|s| s.layers.triage.replays), "count"),
        m(
            "triage.minimize_steps",
            sum(|s| s.layers.triage.minimize_steps),
            "count",
        ),
        m(
            "triage.replays_per_s",
            sum(|s| s.layers.triage.replays) / triage_s,
            "1/s",
        ),
        m("triage.root_causes", sum(|s| s.layers.root_causes), "count"),
        m(
            "triage.replay_failures",
            sum(|s| s.layers.triage.replay_failures as u64),
            "count",
        ),
        m("triage.true_positives", sum(|s| s.layers.tp), "count"),
        m("triage.false_positives", sum(|s| s.layers.fp), "count"),
        m("triage.false_negatives", sum(|s| s.layers.fnn), "count"),
        m("scan.traced_s", traced_s, "s"),
        m("scan.untraced_s", untraced_s, "s"),
        m("scan.p50_ms", 1e3 * p50, "ms"),
        m("scan.tail_ms", tail.map_or(0.0, |(t, _)| 1e3 * t), "ms"),
        m("scan.samples", n, "count"),
        m("trace.overhead_share", traced_s / untraced_s - 1.0, "ratio"),
        m(
            "trace.uncovered_ms",
            1e3 * selfs.get("scan").copied().unwrap_or(0.0) / n,
            "ms",
        ),
    ];

    println!(
        "workload {} seed {} (traced): {} binaries, each scanned untraced and traced",
        args.workload,
        args.seed,
        scans.len()
    );
    println!("self time per span, ms per scan (scan = time no layer span covers):");
    for (name, secs) in &selfs {
        println!("  {name:<16} {:>10.3}", 1e3 * secs / n);
    }
    println!(
        "scan_s traced {traced_s:.4} s vs untraced {untraced_s:.4} s: tracing overhead {:+.2}%",
        100.0 * (traced_s / untraced_s - 1.0)
    );
    println!("{}", percentiles_line(samples));
    println!(
        "layout probe: vm.rep_spread {:.3} vs host.ref_spread {:.3} (p90/p10 over {} reps)",
        spreads.vm, spreads.reference, spreads.reps
    );
    print_metrics(&metrics);

    let path = PathBuf::from(format!(
        "gadgetbench/traces/{}-{}.jsonl",
        args.workload, args.seed
    ));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!(
        "{}",
        result_json(failed, scans.len() + plain.len(), &metrics)
    );
    ExitCode::SUCCESS
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n as f64
}

/// Median, plus the highest percentile with at least ten samples
/// beyond it and its rank in percent, where that rank is above 50.
fn percentiles(mut xs: Vec<f64>) -> (f64, Option<(f64, f64)>) {
    let p50 = median(xs.clone());
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    let tail = (n > 20).then(|| (xs[n - 11], 100.0 * (n - 10) as f64 / n as f64));
    (p50, tail)
}

fn percentiles_line(xs: Vec<f64>) -> String {
    let n = xs.len();
    match percentiles(xs) {
        (p50, Some((tail, pct))) => format!(
            "per-scan p50 {p50:.4} s, p{pct:.0} {tail:.4} s (10 samples beyond it, {n} samples)"
        ),
        (p50, None) => {
            format!("per-scan p50 {p50:.4} s ({n} samples; too few for a tail percentile)")
        }
    }
}

fn print_metrics(metrics: &[Metric]) {
    for x in metrics {
        println!("{} = {} {}", x.name, x.value, x.unit);
    }
}

fn result_json(failed: usize, attempted: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
