//! Host-side readings: peak resident memory and CPU time from `/proc`,
//! and the calibration loop host times are normalized by.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Seconds [`calibrate`] takes on the development sandbox when it is
/// quiet. A host time is reported as `measured x CALIBRATION_REF_S /
/// calibrate()`: seconds at that machine's speed, whatever machine — or
/// whatever moment of a shared machine — the run happened on.
pub const CALIBRATION_REF_S: f64 = 0.0035;

/// Rounds of [`calibrate`]: about 3.5 ms of work.
const CALIBRATION_ROUNDS: u64 = 8_000;

/// A fixed piece of work that uses none of the repository's code, so no
/// change to the repository can move it: heap, ordered-map and
/// allocate-fill-free traffic in roughly the mix the engine and the
/// simulator generate. Returns the seconds it took.
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut heap = BinaryHeap::new();
    let mut map = BTreeMap::new();
    let mut buffers: VecDeque<Vec<u8>> = VecDeque::new();
    let mut acc = 0u64;
    for i in 0..CALIBRATION_ROUNDS {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        heap.push(std::cmp::Reverse((rng >> 24, i)));
        if heap.len() > 256 {
            acc ^= heap.pop().map_or(0, |e| e.0 .0);
        }
        map.insert(rng >> 48, i);
        if map.len() > 1024 {
            acc ^= map.pop_first().map_or(0, |(k, _)| k);
        }
        let mut buffer = vec![0u8; 64 + (rng >> 53) as usize];
        buffer[0] = rng as u8;
        buffers.push_back(buffer);
        if buffers.len() > 64 {
            let old = buffers.pop_front().expect("just pushed");
            acc += old.iter().map(|&b| u64::from(b)).sum::<u64>();
        }
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// A host time measured in pieces, each piece scaled by the calibration
/// passes right before and after it. The sandbox this was built on slows
/// to half speed in bursts shorter than a second; a piece of a few tens
/// of milliseconds and the passes around it see the same burst, so the
/// scaled sum stays put where the raw sum moves by a third.
#[derive(Clone, Copy, Debug)]
pub struct Scaled {
    last_pass_s: f64,
    /// Sum of the pieces as the clock read them.
    pub raw_s: f64,
    /// Sum of the pieces at the reference machine's speed.
    pub scaled_s: f64,
}

impl Scaled {
    /// Start measuring: one calibration pass.
    pub fn start() -> Scaled {
        Scaled {
            last_pass_s: calibrate(),
            raw_s: 0.0,
            scaled_s: 0.0,
        }
    }

    /// A fresh sum that reuses this one's latest calibration pass.
    pub fn then(&self) -> Scaled {
        Scaled {
            raw_s: 0.0,
            scaled_s: 0.0,
            ..*self
        }
    }

    /// Time `f` as one piece; returns its result and its raw seconds.
    pub fn piece<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let result = f();
        let raw_s = t0.elapsed().as_secs_f64();
        let pass_s = calibrate();
        self.raw_s += raw_s;
        self.scaled_s += raw_s * CALIBRATION_REF_S / ((self.last_pass_s + pass_s) / 2.0);
        self.last_pass_s = pass_s;
        (result, raw_s)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Seconds this process has spent on a CPU (`/proc/self/schedstat`, first
/// field, nanoseconds). The benchmark is single-threaded, so the main
/// thread's figure is the process's.
pub fn cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/schedstat").ok()?;
    let ns: f64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_time_sums_its_pieces() {
        let mut t = Scaled::start();
        let (x, first) = t.piece(|| {
            std::thread::sleep(std::time::Duration::from_millis(3));
            7
        });
        let ((), second) = t.piece(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert_eq!(x, 7);
        assert!(first >= 0.003 && second >= 0.002);
        assert!((t.raw_s - first - second).abs() < 1e-12);
        assert!(t.scaled_s > 0.0);
        let next = t.then();
        assert_eq!((next.raw_s, next.scaled_s), (0.0, 0.0));
    }

    #[test]
    fn proc_readings_are_present_and_positive() {
        assert!(peak_rss_mb().unwrap() > 1.0);
        assert!(cpu_s().unwrap() >= 0.0);
    }
}
