//! A fixed piece of work timed next to every measurement, to take the
//! host's speed out of the end-to-end times.
//!
//! The reference box is a 2-vCPU VM on a shared host. For seconds to
//! minutes at a time it runs everything 20-40 % slower (the same
//! single-threaded body: 1.6 s, then 2.5 s, then 1.7 s), far more than
//! repetitions inside one 10-second run can average out: the medians of
//! back-to-back runs of unchanged code spread by 14-18 % between
//! quartiles, and by up to 58 % end to end. Timing one pass of this kernel
//! immediately before and after each set-up and body, and reporting
//! `measured ÷ pass × REFERENCE_PASS_S`, brought that to 6-9 % on the
//! same bodies (README "Steadiness"). The reported seconds are therefore
//! seconds of the quiet reference box, whatever the host is doing and
//! whichever host it is. A change to the measured code moves the numerator
//! only, so a ratio between two commits reads as it would on wall time.
//!
//! The kernel mixes what the workloads mix: a dependent integer chain
//! (xorshift) and read-modify-writes scattered over 1 MiB, which lives in
//! L2/L3 and so feels a noisy neighbour's cache traffic as they do.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one pass takes on the reference box when nothing disturbs it
/// (the fastest per-run median seen while sizing the workloads). It only
/// sets the scale of the reported times; their steadiness does not depend
/// on it.
pub const REFERENCE_PASS_S: f64 = 0.034;

const BUF_WORDS: usize = 1 << 17;
const STEPS: usize = 18_000_000;

pub struct Yardstick {
    buf: Vec<u64>,
    passes_s: Vec<f64>,
}

impl Yardstick {
    pub fn new() -> Self {
        Yardstick {
            buf: vec![1; BUF_WORDS],
            passes_s: Vec::new(),
        }
    }

    /// Time one pass, in seconds.
    pub fn pass(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.buf[x as usize % BUF_WORDS];
            acc = acc.wrapping_add(*slot);
            *slot = acc ^ x;
        }
        black_box(acc);
        let s = t0.elapsed().as_secs_f64();
        self.passes_s.push(s);
        s
    }

    /// `measured_s` in seconds of the quiet reference box, given the
    /// passes timed just before and just after it.
    pub fn reference_s(measured_s: f64, pass_before_s: f64, pass_after_s: f64) -> f64 {
        measured_s / (0.5 * (pass_before_s + pass_after_s)) * REFERENCE_PASS_S
    }

    /// How fast the host ran during this process, by the median pass:
    /// 1.0 is the quiet reference box, 0.8 is 20 % slower.
    pub fn host_speed(&self) -> f64 {
        REFERENCE_PASS_S / crate::harness::median(&self.passes_s)
    }
}
