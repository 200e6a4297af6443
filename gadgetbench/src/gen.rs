//! Seeded input generator: turns a workload seed into a stream of
//! scan jobs. A job carries the stripped `.tof` bytes (all the program
//! under test ever sees) and, kept on the benchmark's side, the
//! unstripped binary and injected variant ids used as ground truth.

use teapot_campaign::CampaignConfig;
use teapot_cc::Options;
use teapot_obj::Binary;
use teapot_rt::{DetectorConfig, SpecModelSet};
use teapot_workloads::{gadgets, Workload};

/// splitmix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct values from `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        (0..k)
            .map(|_| pool.swap_remove(self.below(pool.len())))
            .collect()
    }
}

/// The three workloads. Each stresses a different layer, so a saving
/// in one layer shows on one workload and is predicted to be absent on
/// the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Plain (un-injected) jsmn/libhtp parsers, PHT only, one campaign
    /// worker thread, long campaigns. Chosen because the VM dispatch and
    /// memory hot loop is nearly the whole scan and triage has almost
    /// nothing to do: VM or JIT work shows here, triage work does not.
    DeepFuzz,
    /// All five programs with three corpus gadgets injected at seeded
    /// points behind the attacker-direct prelude, short campaigns and
    /// full triage (ddmin + provenance). Chosen because triage takes a
    /// large share of the wall time (about 40%, against 5% on
    /// deep-fuzz) and the binaries vary in size and gadget density; the
    /// injected ground truth grades the findings.
    GadgetTriage,
    /// Distinct binaries (seeded injections and lowerings, plus the
    /// planted RSB/STL programs) fuzzed by a loopback fleet of one
    /// worker thread, all three speculation models, many short epochs,
    /// no triage. Chosen because it is the only workload that exercises
    /// the fabric (wire, deltas, merges, leases) and the RSB/STL models.
    FleetSweep,
}

/// Worker threads of the `fleet-sweep` loopback fleet. One, so the
/// worker and the coordinator (on the benchmark's thread) fit the two
/// vCPUs of the reference host: with two workers beside the
/// coordinator, the run measured how the host scheduled three busy
/// threads as much as the fabric. One worker still takes leases, ships
/// deltas over the wire and has them merged at every barrier.
pub const FLEET_WORKERS: usize = 1;

/// Gadgets injected per binary. Fixed, and the variant ids are dealt
/// from a shuffled deck, so every run holds about the same mix of
/// gadget variants and the triage work per run varies little.
const INJECTED: usize = 3;

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "deep-fuzz" => Some(Kind::DeepFuzz),
            "gadget-triage" => Some(Kind::GadgetTriage),
            "fleet-sweep" => Some(Kind::FleetSweep),
            _ => None,
        }
    }

    /// The programs one round of scans covers, in order. Every run
    /// scans whole rounds, so each run holds the same program mix.
    pub fn programs(self) -> Vec<Workload> {
        match self {
            Kind::DeepFuzz => vec![teapot_workloads::jsmn_like(), teapot_workloads::htp_like()],
            Kind::GadgetTriage => teapot_workloads::all(),
            Kind::FleetSweep => {
                let mut v = teapot_workloads::all();
                v.extend(teapot_workloads::spec_suite());
                v
            }
        }
    }

    pub fn triages(self) -> bool {
        self != Kind::FleetSweep
    }
}

/// One generated binary and everything needed to scan and grade it.
pub struct Job {
    pub id: usize,
    pub program: &'static str,
    /// Stripped `.tof` bytes handed to the scanner.
    pub tof: Vec<u8>,
    /// The same binary with symbols, for ground-truth classification.
    pub truth: Binary,
    /// Injected gadget-corpus variant ids (empty for plain builds).
    pub injected: Vec<usize>,
    pub seeds: Vec<Vec<u8>>,
    pub config: CampaignConfig,
}

/// The seeded job stream of one workload.
pub struct Generator {
    kind: Kind,
    programs: Vec<Workload>,
    rng: Rng,
    /// Variant ids not dealt yet from the current shuffle.
    deck: Vec<usize>,
    next_id: usize,
}

impl Generator {
    pub fn new(kind: Kind, seed: u64) -> Generator {
        Generator {
            kind,
            programs: kind.programs(),
            rng: Rng::new(seed),
            deck: Vec::new(),
            next_id: 0,
        }
    }

    pub fn programs(&self) -> &[Workload] {
        &self.programs
    }

    /// One round: a fresh binary of every program, in program order.
    pub fn round(&mut self) -> Vec<Job> {
        (0..self.programs.len()).map(|p| self.job(p)).collect()
    }

    /// Draws the next binary of program `p`: lowering, injected-variant
    /// assignment and campaign seed all come from the seed.
    fn job(&mut self, p: usize) -> Job {
        let id = self.next_id;
        self.next_id += 1;
        let w = &self.programs[p];
        let base = if self.rng.below(2) == 0 {
            Options::gcc_like()
        } else {
            Options::clang_like()
        };
        let opts = Options {
            unit_name: format!("{}-{id}", w.name),
            ..base
        };
        // Plain builds for deep-fuzz and the planted RSB/STL programs;
        // everything else gets gadgets at distinct seeded points with
        // distinct variant ids (a duplicate id would not compile).
        let points = w.inject_points();
        let (src, injected) = if self.kind == Kind::DeepFuzz || points == 0 {
            (w.plain_source(), Vec::new())
        } else {
            let at = self.rng.distinct(INJECTED, points);
            let mut ids: Vec<usize> = Vec::with_capacity(INJECTED);
            while ids.len() < INJECTED {
                let v = deal(&mut self.rng, &mut self.deck);
                if !ids.contains(&v) {
                    ids.push(v);
                }
            }
            let mut assignments = vec![None; points];
            for (&point, &v) in at.iter().zip(&ids) {
                assignments[point] = Some(v);
            }
            (w.injected_source(&assignments), ids)
        };
        let truth = teapot_cc::compile_to_binary(&src, &opts)
            .unwrap_or_else(|e| panic!("generated {} source does not compile: {e}", w.name));
        let mut stripped = truth.clone();
        stripped.strip();

        // Injected builds read two leading prelude bytes for the gadget
        // input; seed them out of bounds (the fuzzer mutates them anyway).
        let seeds = if injected.is_empty() {
            w.seeds.clone()
        } else {
            w.seeds
                .iter()
                .map(|s| [&[0xff, 0x00][..], s].concat())
                .collect()
        };
        let mut config = CampaignConfig {
            seed: self.rng.next_u64(),
            workers: 1,
            // A typical run costs ~0.2M; the cap keeps one runaway mutated
            // input (or its triage replays) from dominating a binary's scan.
            fuel_per_run: 1_000_000,
            dictionary: w.dictionary.clone(),
            ..CampaignConfig::default()
        };
        match self.kind {
            Kind::DeepFuzz => {
                config.shards = 2;
                config.epochs = 2;
                config.iters_per_epoch = 50;
            }
            Kind::GadgetTriage => {
                config.shards = 1;
                config.epochs = 2;
                config.iters_per_epoch = 20;
                config.detector = DetectorConfig::artificial();
            }
            Kind::FleetSweep => {
                config.shards = 2;
                config.epochs = 6;
                config.iters_per_epoch = 5;
                config.models = SpecModelSet::ALL;
            }
        }
        Job {
            id,
            program: w.name,
            tof: stripped.to_bytes(),
            truth,
            injected,
            seeds,
            config,
        }
    }
}

/// Next variant id from `deck`, reshuffled when it runs out.
fn deal(rng: &mut Rng, deck: &mut Vec<usize>) -> usize {
    if deck.is_empty() {
        *deck = rng.distinct(gadgets::COUNT, gadgets::COUNT);
    }
    deck.pop().expect("deck was just refilled") + 1
}
