//! Ground-truth taint provenance: on the planted Spectre workloads a
//! provenance replay resolves the *exact* attacker-controlled input
//! bytes that reach the leaking access — and no others — while a
//! provenance-off run of the same input reports identical gadgets with
//! no origins and no leak-site events (the zero-perturbation side).

use teapot_cc::{compile_to_binary, Options};
use teapot_core::{rewrite, RewriteOptions};
use teapot_obj::Binary;
use teapot_rt::{GadgetReport, SpecModelSet, TraceEvent};
use teapot_vm::{DispatchTier, ExecContext, Machine, Program, RunOptions, SpecHeuristics};

fn instrumented(src: &str) -> Binary {
    let mut bin = compile_to_binary(src, &Options::gcc_like()).unwrap();
    bin.strip();
    rewrite(&bin, &RewriteOptions::default()).unwrap()
}

/// One recorded run: gadget reports plus the witness trace, with the
/// origin shadow on or off.
fn run_traced(
    bin: &Binary,
    input: &[u8],
    models: &str,
    provenance: bool,
) -> (Vec<GadgetReport>, Vec<TraceEvent>) {
    let prog = Program::shared(bin);
    let mut ctx = ExecContext::new(&prog);
    ctx.set_witness_recording(true);
    ctx.set_provenance(provenance);
    let mut heur = SpecHeuristics::default();
    let opts = RunOptions {
        input: input.to_vec(),
        models: SpecModelSet::parse(models).unwrap(),
        ..RunOptions::default()
    };
    Machine::with_context(&prog, &mut ctx, opts).run_stats(&mut heur);
    let trace = ctx.trace().to_vec();
    (ctx.take_gadgets(), trace)
}

/// The OOB-index trigger for both planted model workloads (index 20
/// lands in the 16-byte array's right redzone).
const TRIGGER: &[u8] = &[0x14, 0x00];

/// Every origin-carrying event must stay inside `0..=max_offset` — the
/// "fires for no other offsets" half of the ground truth.
fn assert_origins_within(trace: &[TraceEvent], max_offset: u32) {
    for ev in trace {
        if let Some((lo, hi)) = ev.origin().offsets() {
            assert!(
                hi <= max_offset && lo <= hi,
                "origin {lo}-{hi} outside the {}-byte input: {ev:?}",
                max_offset + 1
            );
        }
    }
}

#[test]
fn pht_gadget_leaks_exactly_input_byte_one() {
    // The classic Spectre-V1 shape: only `inbuf[1]` steers the OOB
    // access, so the leak's provenance is the single input byte 1.
    let bin = instrumented(
        "
        char bar[256]; int baz; char inbuf[16];
        int main() {
            char *foo = malloc(16);
            read_input(inbuf, 16);
            if (inbuf[1] < 10) { baz = bar[foo[inbuf[1]]]; }
            return 0;
        }",
    );
    let (gadgets, trace) = run_traced(&bin, &[0x00, 0x14], "pht", true);
    assert!(!gadgets.is_empty(), "planted V1 gadget fires");
    let leaks: Vec<_> = trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::LeakSite { .. }))
        .collect();
    assert!(!leaks.is_empty(), "leak sites recorded: {trace:?}");
    for leak in &leaks {
        assert_eq!(
            leak.origin().offsets(),
            Some((1, 1)),
            "the leak traces to input byte 1 alone: {leak:?}"
        );
    }
}

#[test]
fn rsb_and_stl_leaks_trace_to_input_bytes_zero_and_one() {
    // Both planted workloads build the attacker index from
    // `in[0] + (in[1] << 8)`: the leaking access must resolve to the
    // input-byte interval 0-1, and nothing in the trace may name any
    // other offset.
    for (wl, models) in [
        (teapot_workloads::rsb_like(), "pht,rsb"),
        (teapot_workloads::stl_like(), "pht,stl"),
    ] {
        let bin = instrumented(wl.plain_source().as_str());
        let (gadgets, trace) = run_traced(&bin, TRIGGER, models, true);
        assert!(!gadgets.is_empty(), "{}: planted gadget fires", wl.name);
        assert_origins_within(&trace, 1);
        let leak = trace
            .iter()
            .find(|e| matches!(e, TraceEvent::LeakSite { .. }))
            .unwrap_or_else(|| panic!("{}: no leak site in {trace:?}", wl.name));
        assert_eq!(
            leak.origin().offsets(),
            Some((0, 1)),
            "{}: leak traces to input bytes 0-1: {leak:?}",
            wl.name
        );
    }
}

#[test]
fn provenance_off_is_origin_free_and_gadget_identical() {
    for (wl, models) in [
        (teapot_workloads::rsb_like(), "pht,rsb"),
        (teapot_workloads::stl_like(), "pht,stl"),
    ] {
        let bin = instrumented(wl.plain_source().as_str());
        let (on, _) = run_traced(&bin, TRIGGER, models, true);
        let (off, trace_off) = run_traced(&bin, TRIGGER, models, false);
        // The origin shadow observes; it never changes what is found.
        assert_eq!(on, off, "{}: same gadgets either way", wl.name);
        // Campaign-mode traces carry neither origins nor leak sites.
        for ev in &trace_off {
            assert!(ev.origin().is_none(), "{}: stray origin {ev:?}", wl.name);
            assert!(
                !matches!(ev, TraceEvent::LeakSite { .. }),
                "{}: stray leak site {ev:?}",
                wl.name
            );
        }
    }
}

#[test]
fn provenance_counters_count_only_provenance_runs() {
    let bin = instrumented(teapot_workloads::rsb_like().plain_source().as_str());
    let prog = Program::shared(&bin);
    let run = |provenance: bool| {
        let mut ctx = ExecContext::new(&prog);
        ctx.set_witness_recording(true);
        ctx.set_provenance(provenance);
        let mut heur = SpecHeuristics::default();
        let opts = RunOptions {
            input: TRIGGER.to_vec(),
            models: SpecModelSet::parse("pht,rsb").unwrap(),
            ..RunOptions::default()
        };
        Machine::with_context(&prog, &mut ctx, opts).run_stats(&mut heur);
        ctx.counters_snapshot()
    };
    let on = run(true);
    assert!(on.prov_bytes > 0, "origin bytes written: {on:?}");
    assert!(on.prov_folds > 0, "origin folds performed: {on:?}");
    assert!(on.prov_leaks > 0, "leak sites counted: {on:?}");
    let off = run(false);
    assert_eq!(off.prov_bytes, 0);
    assert_eq!(off.prov_folds, 0);
    assert_eq!(off.prov_leaks, 0);
}

#[test]
fn provenance_runs_stay_on_the_step_tier_with_identical_outcomes() {
    // The compiled templates carry no origin propagation, so a
    // provenance run must retire every instruction through `step()` —
    // and still produce exactly the outcome of a provenance-off run
    // forced onto the same tier.
    for (wl, models) in [
        (teapot_workloads::rsb_like(), "pht,rsb"),
        (teapot_workloads::stl_like(), "pht,stl"),
    ] {
        let bin = instrumented(wl.plain_source().as_str());
        let prog = Program::shared(&bin);
        let run = |provenance: bool| {
            let mut ctx = ExecContext::new(&prog);
            ctx.set_witness_recording(true);
            ctx.set_provenance(provenance);
            let mut heur = SpecHeuristics::default();
            let opts = RunOptions {
                input: TRIGGER.to_vec(),
                models: SpecModelSet::parse(models).unwrap(),
                ..RunOptions::default()
            };
            let mut m = Machine::with_context(&prog, &mut ctx, opts);
            if !provenance {
                m.set_dispatch_tier(DispatchTier::Step);
            }
            let outcome = m.run(&mut heur);
            (outcome, ctx.counters_snapshot())
        };
        let (on, c) = run(true);
        assert!(!on.gadgets.is_empty(), "{}: planted gadget fires", wl.name);
        assert!(c.prov_bytes > 0, "{}: the origin shadow ran", wl.name);
        assert_eq!(c.compiled_insts, 0, "{}: no compiled records", wl.name);
        assert_eq!(c.step_insts, on.insts, "{}: every inst on step()", wl.name);
        let (off, _) = run(false);
        let what = wl.name;
        assert_eq!(on.status, off.status, "{what}: status");
        assert_eq!(on.cost, off.cost, "{what}: cost units");
        assert_eq!(on.insts, off.insts, "{what}: instruction count");
        assert_eq!(on.gadgets, off.gadgets, "{what}: gadget reports");
        assert_eq!(
            on.cov_normal.raw(),
            off.cov_normal.raw(),
            "{what}: normal cov"
        );
        assert_eq!(on.cov_spec.raw(), off.cov_spec.raw(), "{what}: spec cov");
        assert_eq!(on.output, off.output, "{what}: program output");
        assert_eq!(on.sim_entries, off.sim_entries, "{what}: sim entries");
        assert_eq!(on.rollbacks, off.rollbacks, "{what}: rollbacks");
        assert_eq!(on.escapes, off.escapes, "{what}: escapes");
    }
}
