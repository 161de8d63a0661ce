//! Host-speed probes. A shared virtual machine (measured on a 2-vCPU
//! guest) runs the same code up to 2.5× slower for stretches of
//! seconds to minutes, as the host's other tenants load it, and
//! switches within a second. So every timing is taken next to a
//! short probe of the benchmark's own (none of the program's code
//! runs in it), and scaled to the speed at which the probe takes its
//! reference time. A change to the program moves the timings and not
//! the probe, so it still shows; a slower host moves both, and cancels.
//!
//! The probe cannot tell a slow host from a process that loads it: a
//! change that adds background work to the daemon's threads slows the
//! probe too, and shows less than its full cost.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Compute-probe time at the reference speed, µs.
pub const COMPUTE_REF_US: f64 = 80.0;
/// Echo-probe round trip at the reference speed, µs.
pub const ECHO_REF_US: f64 = 6.0;
/// Iterations of the compute probe (0.08–0.25 ms on a 2.1 GHz Xeon
/// vCPU, as its host is idle or loaded).
const COMPUTE_ITERS: usize = 100;
/// Round trips of the echo probe.
const ECHO_TRIPS: usize = 8;
/// How long operations run between probes: the host switches speed
/// within a second, so the probes must bracket each few milliseconds.
const GROUP: Duration = Duration::from_millis(3);

/// Which probe scales a kind of operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// In-process computation: floating point, sorting, small
    /// allocations, number formatting and parsing, a tree map.
    Compute,
    /// A loopback TCP round trip to another thread: system calls,
    /// wake-ups and the socket path of a warm request.
    Echo,
    /// Both, as a geometric mean: a request that computes on the far
    /// side of a socket.
    Mixed,
}

/// One probe of both kinds, µs.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    compute_us: f64,
    echo_us: f64,
}

impl Probe {
    /// Reference time over measured time, for operations timed between
    /// `before` and `after`.
    pub fn factor(self, before: Reading, after: Reading) -> f64 {
        let compute = COMPUTE_REF_US * 2.0 / (before.compute_us + after.compute_us);
        let echo = ECHO_REF_US * 2.0 / (before.echo_us + after.echo_us);
        match self {
            Probe::Compute => compute,
            Probe::Echo => echo,
            Probe::Mixed => (compute * echo).sqrt(),
        }
    }
}

/// The probes of one run and their echo thread.
pub struct Pace {
    stream: TcpStream,
    echo: JoinHandle<()>,
    last: Reading,
    at: Instant,
    /// Every probe's times, µs (a note on the host's speed).
    readings: Vec<Reading>,
}

impl Pace {
    /// Starts the echo thread and takes a first reading.
    ///
    /// # Errors
    ///
    /// When the loopback socket cannot be set up.
    pub fn start() -> std::io::Result<Pace> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let echo = std::thread::spawn(move || {
            let Ok((mut s, _)) = listener.accept() else {
                return;
            };
            let _ = s.set_nodelay(true);
            let mut buf = [0u8; 64];
            while s.read_exact(&mut buf).is_ok() && s.write_all(&buf).is_ok() {}
        });
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut pace = Pace {
            stream,
            echo,
            last: Reading {
                compute_us: COMPUTE_REF_US,
                echo_us: ECHO_REF_US,
            },
            at: Instant::now(),
            readings: Vec::new(),
        };
        pace.last = pace.read()?;
        Ok(pace)
    }

    fn read(&mut self) -> std::io::Result<Reading> {
        let start = Instant::now();
        black_box(compute(COMPUTE_ITERS));
        let compute_us = start.elapsed().as_secs_f64() * 1e6;
        let mut buf = [7u8; 64];
        let start = Instant::now();
        for _ in 0..ECHO_TRIPS {
            self.stream.write_all(&buf)?;
            self.stream.read_exact(&mut buf)?;
        }
        let echo_us = start.elapsed().as_secs_f64() * 1e6 / ECHO_TRIPS as f64;
        let reading = Reading {
            compute_us,
            echo_us,
        };
        self.readings.push(reading);
        self.at = Instant::now();
        Ok(reading)
    }

    /// Probes now, and returns the factor that scales what `probe`
    /// measures since the last reading to the reference speed.
    ///
    /// # Errors
    ///
    /// When the echo thread is gone.
    pub fn factor(&mut self, probe: Probe) -> Result<f64, String> {
        let now = self.read().map_err(|e| format!("echo probe: {e}"))?;
        let f = probe.factor(self.last, now);
        self.last = now;
        Ok(f)
    }

    /// Takes a fresh reading, so the next factor covers only what
    /// follows.
    ///
    /// # Errors
    ///
    /// When the echo thread is gone.
    pub fn mark(&mut self) -> Result<(), String> {
        self.last = self.read().map_err(|e| format!("echo probe: {e}"))?;
        Ok(())
    }

    /// Whether the operations since the last reading have run long
    /// enough to be scaled.
    pub fn due(&self) -> bool {
        self.at.elapsed() >= GROUP
    }

    /// The median compute and echo probe times so far, µs.
    pub fn medians_us(&self) -> (f64, f64) {
        let median = |f: fn(&Reading) -> f64| {
            crate::stats::median(&self.readings.iter().map(f).collect::<Vec<_>>())
        };
        (median(|r| r.compute_us), median(|r| r.echo_us))
    }

    /// Closes the socket and waits for the echo thread.
    pub fn stop(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        let _ = self.echo.join();
    }
}

/// The compute probe's work: nothing of the program under test.
fn compute(iters: usize) -> f64 {
    let mut total = 0.0;
    let mut map = BTreeMap::new();
    for i in 0..iters {
        let mut v: Vec<f64> = (0..48)
            .map(|k| (((i * 48 + k) % 977) as f64 + 1.5).sqrt() * 1.0001)
            .collect();
        v.sort_by(f64::total_cmp);
        total += v.iter().map(|x| x.ln_1p()).sum::<f64>();
        let text = format!("{{\"x\":{total:.6},\"i\":{i}}}");
        let parsed: f64 = text[5..text.find(',').unwrap_or(5)].parse().unwrap_or(0.0);
        map.insert(i % 256, parsed);
        total += map.len() as f64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_scale_to_the_reference_speed() {
        let at = |c: f64, e: f64| Reading {
            compute_us: c,
            echo_us: e,
        };
        // A host twice as slow as the reference halves every time.
        let slow = at(2.0 * COMPUTE_REF_US, 2.0 * ECHO_REF_US);
        assert!((Probe::Compute.factor(slow, slow) - 0.5).abs() < 1e-12);
        assert!((Probe::Echo.factor(slow, slow) - 0.5).abs() < 1e-12);
        // The two readings around an operation are averaged.
        let fast = at(COMPUTE_REF_US, ECHO_REF_US);
        assert!((Probe::Compute.factor(fast, at(3.0 * COMPUTE_REF_US, 0.0)) - 0.5).abs() < 1e-12);
        // Mixed is the geometric mean of the two.
        let mixed = Probe::Mixed.factor(
            at(COMPUTE_REF_US, 4.0 * ECHO_REF_US),
            at(COMPUTE_REF_US, 4.0 * ECHO_REF_US),
        );
        assert!((mixed - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_echo_thread_answers_and_stops() {
        let mut pace = Pace::start().unwrap();
        let f = pace.factor(Probe::Mixed).unwrap();
        assert!(f.is_finite() && f > 0.0);
        pace.stop();
    }
}
