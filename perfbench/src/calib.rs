//! Host-speed calibration for the grid workloads.
//!
//! On a shared virtual machine the host's speed drifts between regimes
//! lasting seconds to minutes: one fixed busy loop took from 31 to 55 ms
//! per chunk within twenty seconds, and whole 30 s grid runs differed by
//! a third. A side thread therefore times a fixed kernel that shares no
//! code with the program — xorshift-driven read-modify-writes over a
//! 16 MiB table — every 100 ms while a pass runs, in thread CPU time.
//! The pass's durations are then scaled by the mean of [`REFERENCE_MS`]
//! ÷ kernel time, which expresses them at one reference host speed. The
//! kernel tracks the simulator's speed only in part: over ten 30 s runs
//! it cut the spread of `sim_mops` from 16 % to 5 % on
//! `virt_multicore_numa` and from 14 % to 9 % on `native_grid`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Median kernel CPU time, in ms, beside a running grid pass on the
/// 2-vCPU virtual machine the bounds in `BENCHMARK.json` were set on:
/// timings at that speed are left as measured.
pub const REFERENCE_MS: f64 = 4.7;

/// Kernel steps per sample ([`REFERENCE_MS`] at the reference speed).
const STEPS: usize = 300_000;

/// Pause between samples: the side thread uses about 5 % of one core.
const PAUSE: Duration = Duration::from_millis(96);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread in ns, or `None` if the clock is
/// unavailable. CPU time rather than wall time: the side thread shares
/// the cores with the pass's workers, and time spent waiting for a core
/// says nothing about the host's speed.
fn thread_cpu_ns() -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on) for the whole
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// One timed run of the calibration kernel: thread CPU time in ms
/// (wall time where the CPU clock is unavailable).
pub fn kernel_ms(table: &mut [u64]) -> f64 {
    let start = Instant::now();
    let cpu_start = thread_cpu_ns();
    let mask = table.len() - 1;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        acc = acc.wrapping_add(table[i]).rotate_left(5) ^ x;
        table[i] = acc;
    }
    std::hint::black_box(acc);
    match (cpu_start, thread_cpu_ns()) {
        (Some(a), Some(b)) => (b - a) as f64 / 1e6,
        _ => start.elapsed().as_secs_f64() * 1e3,
    }
}

/// A side thread sampling the kernel until [`Calibrator::finish`].
pub struct Calibrator {
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<f64>>>,
    handle: JoinHandle<()>,
}

impl Calibrator {
    /// Starts sampling.
    pub fn start() -> Calibrator {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let handle = {
            let (stop, samples) = (Arc::clone(&stop), Arc::clone(&samples));
            std::thread::spawn(move || {
                let mut table = vec![1u64; 1 << 21];
                while !stop.load(Ordering::SeqCst) {
                    let ms = kernel_ms(&mut table);
                    samples.lock().expect("sample list poisoned").push(ms);
                    std::thread::sleep(PAUSE);
                }
            })
        };
        Calibrator {
            stop,
            samples,
            handle,
        }
    }

    /// Stops sampling and returns the scale for durations measured
    /// meanwhile: the mean over samples of [`REFERENCE_MS`] ÷ kernel
    /// time (1 when no sample was taken). Samples are evenly spaced in
    /// wall time, so this is the pass's time-weighted relative speed,
    /// also when the host switched regimes part-way through.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("calibration thread panicked");
        let samples = self.samples.lock().expect("sample list poisoned");
        if samples.is_empty() {
            return 1.0;
        }
        samples.iter().map(|ms| REFERENCE_MS / ms).sum::<f64>() / samples.len() as f64
    }
}
