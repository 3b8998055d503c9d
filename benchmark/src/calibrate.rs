//! Machine-speed calibration: a fixed piece of work, timed between rounds,
//! that tells how fast this machine is running right now.
//!
//! This VM's speed moves by a third for minutes at a time, with no CPU
//! reported stolen: ten-run medians of one binary taken half an hour apart
//! differed by 19 %, and within one set of ten runs the first six read
//! 1.06–1.21 ms and the last four 1.42–1.57 ms. The kernel below slows down
//! with the engine (correlation 0.94 between 20 s windows of kernel time and
//! of answer time, over ten minutes that crossed several such shifts), so
//! every reported time is scaled to what it would have been at the machine's
//! nominal speed: `reported = measured × NOMINAL_NS ÷ median kernel time of
//! the run`. The kernel uses only the standard library, so no change to the
//! engine can move it. Each run prints the factor it applied.

use std::collections::BTreeMap;

use tracekit::wall::Stopwatch;

use crate::stats;

/// Kernel time on this machine when nothing disturbs it. On another machine
/// every reported time is off by one constant factor; comparisons between
/// two builds on one machine are not affected.
const NOMINAL_NS: f64 = 3.0e6;

const BUF_BYTES: usize = 1 << 20;
const KEYS: u64 = 3000;
const SORTED: u64 = 20_000;

/// The fixed work: a hash pass over 1 MiB, 3000 inserts into and lookups in
/// a `BTreeMap<String, u64>` (allocation, comparison, pointer chasing), and
/// a sort of 20 000 integers.
fn kernel(buf: &mut [u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in buf.iter() {
        hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut map: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..KEYS {
        map.insert(format!("key-{}", i.wrapping_mul(2_654_435_761) % 100_003), i ^ hash);
    }
    let mut acc = 0u64;
    for i in 0..KEYS {
        if let Some(v) = map.get(&format!("key-{}", i.wrapping_mul(40_503) % 100_003)) {
            acc ^= v;
        }
    }
    let mut values: Vec<u64> = (0..SORTED)
        .map(|i| i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(hash) >> 7)
        .collect();
    values.sort_unstable();
    // Feed the result back so no pass can be hoisted or dropped.
    buf[0] = (acc ^ values[100]) as u8;
    acc ^ values[7]
}

/// Times the kernel whenever asked and turns the samples into one factor.
#[derive(Debug)]
pub struct Calibrator {
    buf: Vec<u8>,
    samples_ns: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut cal = Calibrator { buf: vec![7; BUF_BYTES], samples_ns: Vec::new() };
        // First touch of the buffer and the allocator is not a sample.
        std::hint::black_box(kernel(&mut cal.buf));
        cal
    }

    /// Runs the kernel once and records how long it took.
    pub fn sample(&mut self) {
        let clock = Stopwatch::start();
        std::hint::black_box(kernel(&mut self.buf));
        self.samples_ns.push(clock.elapsed_ns() as f64);
    }

    /// What to multiply a measured time by to get the time at nominal
    /// speed: below 1 when the machine ran slow. 1 without samples.
    pub fn factor(&self) -> f64 {
        stats::median(&self.samples_ns).map_or(1.0, |median_ns| NOMINAL_NS / median_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_a_pure_function_of_its_buffer() {
        let (mut a, mut b) = (vec![7u8; BUF_BYTES], vec![7u8; BUF_BYTES]);
        assert_eq!(kernel(&mut a), kernel(&mut b));
        // The feedback byte changes the next pass.
        assert_eq!(a[0], b[0]);
        assert_eq!(kernel(&mut a), kernel(&mut b));
    }

    #[test]
    fn factor_scales_to_nominal_speed() {
        let mut cal = Calibrator { buf: Vec::new(), samples_ns: Vec::new() };
        assert_eq!(cal.factor(), 1.0);
        // A machine running at two thirds of nominal speed: times shrink by a third.
        cal.samples_ns = vec![4.5e6, 4.4e6, 9.0e6, 4.5e6, 4.6e6];
        assert_eq!(cal.factor(), NOMINAL_NS / 4.5e6);
    }
}
