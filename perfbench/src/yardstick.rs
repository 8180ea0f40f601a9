//! A fixed kernel that measures how fast the machine is running right now.
//!
//! The benchmark runs on a few vCPUs of a shared host, whose speed for the same
//! CPU-bound loop moves by up to 2x within a minute as neighbours come and go. The
//! yardstick is the benchmark's own code, so no change to the program can make it
//! faster or slower. Timing it between the program's calls tells how fast the
//! machine was around each call, and the end-to-end times are reported at the speed
//! where the yardstick takes [`REFERENCE_S`].
//!
//! Its work resembles a planner's or an executor's inner loop: probes into a hash
//! table within the core's private caches, and sorts of small arrays. Both are
//! bound by the core, which neighbours on the same physical core slow down. A walk
//! over a table in the shared L3 was tried as a third part: it tracked the
//! program's speed worse than none at all, and made the scaled times noisier.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// About the yardstick's reading on a quiet machine (Intel Xeon, 2.0 GHz, 2-vCPU
/// Firecracker VM): the speed the end-to-end times are reported at.
pub const REFERENCE_S: f64 = 0.5e-3;

/// Entries of the probed hash table (about 1 MiB).
const MAP_ENTRIES: u64 = 50_000;

/// Hash probes per reading.
const PROBES: u64 = 5_000;

/// Length of each sorted array and sorts per reading.
const SORT_LEN: usize = 512;
const SORTS: usize = 40;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The kernel's hash table and the state its inputs are drawn from.
pub struct Yardstick {
    /// Fixed hash keys, so the table's layout, and the reading, is the same in
    /// every process.
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    state: u64,
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Yardstick {
    /// Fill the hash map.
    pub fn new() -> Self {
        let map = (0..MAP_ENTRIES)
            .map(|i| (i.wrapping_mul(GOLDEN), i))
            .collect();
        Self { map, state: 1 }
    }

    fn kernel(&mut self) {
        let mut acc = self.state;
        for i in 0..PROBES {
            let key = ((i ^ acc) % MAP_ENTRIES).wrapping_mul(GOLDEN);
            if let Some(value) = self.map.get(&key) {
                acc = acc.wrapping_add(*value);
            }
        }
        // xorshift64 fills the arrays.
        let mut x = acc | 1;
        let mut array = [0u32; SORT_LEN];
        for round in 0..SORTS {
            for slot in array.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *slot = x as u32;
            }
            array.sort_unstable();
            acc = acc.wrapping_add(u64::from(array[round * 7 % SORT_LEN]));
        }
        self.state = std::hint::black_box(acc);
    }

    /// Seconds one run of the kernel takes now. The kernel runs twice and the
    /// second run is timed, so the reading does not depend on what the program's
    /// last call left in the caches.
    pub fn read(&mut self) -> f64 {
        self.kernel();
        let start = Instant::now();
        self.kernel();
        start.elapsed().as_secs_f64()
    }
}

/// Readings taken between the program's calls.
pub struct SpeedProbe {
    yardstick: Yardstick,
    last: f64,
    readings: Vec<f64>,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedProbe {
    /// A probe with one reading taken.
    pub fn new() -> Self {
        let mut yardstick = Yardstick::new();
        let last = yardstick.read();
        Self {
            yardstick,
            last,
            readings: vec![last],
        }
    }

    /// Take a fresh reading, so that the next call is bracketed by readings made
    /// right around it.
    pub fn refresh(&mut self) {
        self.last = self.yardstick.read();
        self.readings.push(self.last);
    }

    /// The yardstick time around a call that just ended: the mean of the reading
    /// before it and a fresh one after it.
    pub fn around(&mut self) -> f64 {
        let before = self.last;
        self.refresh();
        (before + self.last) / 2.0
    }

    /// Every reading taken, in order.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}

/// `seconds` measured while the yardstick read `yardstick`, at the reference speed.
pub fn at_reference_speed(seconds: f64, yardstick: f64) -> f64 {
    seconds * REFERENCE_S / yardstick
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reading_is_positive_and_short() {
        let mut yardstick = Yardstick::new();
        let reading = yardstick.read();
        assert!(reading > 0.0 && reading < 1.0, "{reading}");
    }

    #[test]
    fn around_brackets_with_the_previous_reading() {
        let mut probe = SpeedProbe::new();
        let first = probe.readings()[0];
        let around = probe.around();
        let second = probe.readings()[1];
        assert_eq!(around, (first + second) / 2.0);
        assert_eq!(probe.readings().len(), 2);
    }

    #[test]
    fn scaling_is_relative_to_the_reference() {
        assert_eq!(at_reference_speed(2.0, REFERENCE_S), 2.0);
        assert_eq!(at_reference_speed(2.0, 2.0 * REFERENCE_S), 1.0);
    }
}
