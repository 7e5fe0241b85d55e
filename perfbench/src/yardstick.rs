//! The host-speed yardstick.
//!
//! The hosts the benchmark runs on are shared, and their speed moves:
//! the same code on the same host ran up to 1.8x slower in one set of
//! runs than in the set before it, with on-CPU time equal to wall time.
//! A run therefore also times a fixed piece of the benchmark's own work
//! between its requests and rounds, and reports its end-to-end timings
//! scaled by [`REFERENCE_S`] over that work's median time in the run:
//! seconds on a host that does the yardstick's work in [`REFERENCE_S`].
//! The work is two halves of about equal time, since the workloads mix
//! both: a chain of dependent integer steps, which runs at the core's
//! clock, and random probes into a 2 MiB hash table, which wait on the
//! caches. It calls no `rc11` code, so a change to the program moves the
//! scaled timings and never the yardstick.

use crate::sys::SplitMix64;
use std::cell::RefCell;
use std::time::Instant;

/// The yardstick's median time, seconds, on the host the benchmark was
/// defined on (Intel Xeon, 2.1 GHz, 2 CPUs of a shared host).
pub const REFERENCE_S: f64 = 0.0012;

/// Steps in the chain.
const CHAIN_STEPS: u32 = 400_000;
/// Slots in the probed table (2 MiB of `u64`).
const TABLE_SLOTS: usize = 1 << 18;
/// Keys inserted into the table per probe walk.
const PROBES: u32 = 40_000;

thread_local! {
    /// The probed table, allocated once per thread so that a walk never
    /// waits on the allocator or on fresh pages.
    static TABLE: RefCell<Vec<u64>> = RefCell::new(vec![0; TABLE_SLOTS]);
}

/// The chain: each step depends on the one before.
fn chain() -> u64 {
    let mut g = SplitMix64::new(0x5EED, 0xC10C);
    let mut acc = 0u64;
    for _ in 0..CHAIN_STEPS {
        acc = acc.rotate_left(5) ^ g.next_u64();
    }
    acc
}

/// The probe walk: clear the table, then insert seeded keys by linear
/// probing; returns the keys found already present.
fn probe(table: &mut [u64]) -> u64 {
    table.fill(0);
    let mask = table.len() - 1;
    let mut g = SplitMix64::new(0x5EED, 0x7AB1);
    let mut found = 0;
    for _ in 0..PROBES {
        let key = (g.next_u64() % (PROBES as u64)) | 1;
        let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask;
        loop {
            if table[slot] == key {
                found += 1;
                break;
            }
            if table[slot] == 0 {
                table[slot] = key;
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    found
}

/// One timing of the yardstick's two halves, seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The chain.
    pub chain_s: f64,
    /// The probe walk.
    pub probe_s: f64,
}

impl Sample {
    /// Both halves.
    pub fn total(&self) -> f64 {
        self.chain_s + self.probe_s
    }
}

/// Time the chain and the probe walk once.
pub fn time_once() -> Sample {
    let t = Instant::now();
    std::hint::black_box(chain());
    let chain_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    TABLE.with(|table| std::hint::black_box(probe(&mut table.borrow_mut())));
    Sample {
        chain_s,
        probe_s: t.elapsed().as_secs_f64(),
    }
}

/// The median of each half and of the totals, seconds:
/// `(chain, probe, total)`.
pub fn medians(samples: &[Sample]) -> (f64, f64, f64) {
    let med = |f: fn(&Sample) -> f64| {
        crate::stats::summarize(&samples.iter().map(f).collect::<Vec<_>>()).median
    };
    (med(|s| s.chain_s), med(|s| s.probe_s), med(Sample::total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_fixed() {
        assert_eq!(chain(), chain());
        let mut table = vec![0; TABLE_SLOTS];
        let found = probe(&mut table);
        assert_eq!(found, probe(&mut table));
        assert!(found > 0 && found < u64::from(PROBES));
        let s = time_once();
        assert!(s.chain_s > 0.0 && s.probe_s > 0.0);
    }
}
