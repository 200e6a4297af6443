//! Layout-sensitivity probe (traced run only).
//!
//! Repeats one fixed campaign, each time with fresh contexts, and
//! reports the p90/p10 spread of its CPU time beside the same spread
//! for the host reference kernel (`host.rs`), which runs in a fresh
//! process each time and so allocates afresh too. A campaign spread
//! well above the kernel's is the program's own sensitivity to where
//! its data lands, not host noise.

use crate::cpu::cpu_now;
use crate::host;
use std::hint::black_box;
use teapot_campaign::{Campaign, CampaignConfig};
use teapot_cc::Options;
use teapot_core::{rewrite, RewriteOptions};
use teapot_vm::Program;

pub struct Spreads {
    pub vm: f64,
    pub reference: f64,
    pub reps: usize,
}

pub fn run(reps: usize) -> Result<Spreads, String> {
    let w = teapot_workloads::ssl_like();
    let mut cots = w
        .build(&Options::gcc_like())
        .expect("openssl-like compiles");
    cots.strip();
    let bin = rewrite(&cots, &RewriteOptions::default()).expect("openssl-like rewrites");
    let prog = Program::shared(&bin);
    let cfg = CampaignConfig {
        seed: 7,
        shards: 1,
        workers: 1,
        epochs: 1,
        iters_per_epoch: 150,
        dictionary: w.dictionary.clone(),
        ..CampaignConfig::default()
    };
    let mut vm = Vec::with_capacity(reps);
    let mut reference = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = cpu_now();
        let mut c = Campaign::new(cfg.clone()).expect("probe config is valid");
        black_box(c.run_shared(&prog, &w.seeds));
        vm.push(cpu_now() - started);
        reference.push(host::sample()?);
    }
    Ok(Spreads {
        vm: spread(&mut vm),
        reference: spread(&mut reference),
        reps,
    })
}

/// p90 / p10 of `samples`.
fn spread(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let at = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize];
    at(0.9) / at(0.1)
}
