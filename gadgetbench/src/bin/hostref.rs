//! Host-speed reference kernel: `hostref` times one pass of a fixed
//! bytecode interpreter and prints its CPU seconds.
//!
//! It is a binary of its own, with no dependency on the program under
//! test, so the placement of its code is fixed by this file and the
//! standard library alone; in the benchmark's own binary it would move
//! whenever the program's code does, and an interpreter loop's speed
//! depends on where its code lands. The benchmark starts it afresh for every
//! sample, so no single process's memory placement weighs on a run.
//! See `host.rs`.

#[path = "../cpu.rs"]
mod cpu;

use cpu::cpu_now;
use std::hint::black_box;

/// Steps of one timed pass (about 13 ms on the reference host).
const STEPS: usize = 4_000_000;

fn main() {
    println!("{}", Reference::new().time());
}

/// A 4096-instruction program of 16 opcodes over eight registers and a
/// 4 MiB data array, drawn once from a fixed seed.
struct Reference {
    code: Vec<(u8, u8, u8, u32)>,
    mem: Vec<u64>,
}

impl Reference {
    fn new() -> Reference {
        let mut x = 0x1234_5678_9abc_def1u64;
        let code = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (
                    (x % 16) as u8,
                    ((x >> 8) % 8) as u8,
                    ((x >> 16) % 8) as u8,
                    (x >> 32) as u32,
                )
            })
            .collect();
        Reference {
            code,
            mem: vec![1; 1 << 19],
        }
    }

    /// CPU seconds of one kernel pass. An untimed quarter pass first
    /// fills the caches and the branch history, so the timed pass
    /// starts warm.
    fn time(&mut self) -> f64 {
        black_box(self.run(black_box(STEPS / 4)));
        let started = cpu_now();
        black_box(self.run(black_box(STEPS)));
        cpu_now() - started
    }

    fn run(&mut self, steps: usize) -> u64 {
        let mut reg = [1u64; 8];
        let mut pc = 0usize;
        let n = self.code.len();
        let m = self.mem.len() - 1;
        for _ in 0..steps {
            let (op, a, b, imm) = self.code[pc];
            let (a, b) = (a as usize, b as usize);
            pc += 1;
            match op {
                0 => reg[a] = reg[a].wrapping_add(reg[b]),
                1 => reg[a] = reg[a].wrapping_sub(u64::from(imm)),
                2 => reg[a] ^= reg[b].rotate_left(imm & 63),
                3 => reg[a] = reg[a].wrapping_mul(reg[b] | 1),
                4 => reg[a] = self.mem[(reg[b] as usize ^ imm as usize) & m],
                5 => self.mem[(reg[a] as usize ^ imm as usize) & m] = reg[b],
                6 => reg[a] = reg[b] >> (imm & 31),
                7 => reg[a] = u64::from(imm),
                8 => {
                    if reg[a] & 1 == 0 {
                        pc = (pc + (imm as usize & 15)) % n;
                    }
                }
                9 => {
                    if reg[a] < reg[b] {
                        pc = imm as usize % n;
                    }
                }
                10 => reg[a] = reg[a].wrapping_add(self.mem[(reg[a] as usize >> 3) & m]),
                11 => reg[a] |= reg[b] & u64::from(imm),
                12 => reg[a] = u64::from(reg[a].count_ones()) + reg[b],
                13 => reg[a] = reg[a].min(reg[b]) ^ u64::from(imm),
                14 => pc = (imm as usize ^ reg[a] as usize & 7) % n,
                _ => reg[a] = reg[a].wrapping_add(1),
            }
            if pc >= n {
                pc = 0;
            }
        }
        reg.iter().fold(0, |s, &v| s ^ v)
    }
}
