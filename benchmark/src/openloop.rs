//! Open-loop pacing: requests are due on a fixed schedule whether or not
//! earlier ones have completed. Latency is timed from the *due* time, so a
//! stall charges the requests queued behind it, and how late the generator
//! ran is kept beside it.

use std::time::{Duration, Instant};

pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Block until `ns` (returns at once if it has passed).
    fn sleep_until(&self, ns: u64);
}

pub struct RealClock {
    pub origin: Instant,
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sleeps to just short of `ns`, then spins: a timer wake-up alone lands
    /// 50–100 µs late on this box, which would be charged to every request.
    fn sleep_until(&self, ns: u64) {
        const SPIN_NS: u64 = 200_000;
        let now = self.now_ns();
        if ns > now + SPIN_NS {
            std::thread::sleep(Duration::from_nanos(ns - now - SPIN_NS));
        }
        while self.now_ns() < ns {
            std::hint::spin_loop();
        }
    }
}

/// Request `k` is due at `first_ns + k * period_ns`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub first_ns: u64,
    pub period_ns: u64,
}

impl Schedule {
    pub fn due(&self, k: u64) -> u64 {
        self.first_ns + k * self.period_ns
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub k: u64,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Sample {
    /// How late the generator sent the request.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }

    /// What the user waited: completion measured from the due time.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }
}

/// Send every request due before `end_ns` over one synchronous connection;
/// `op(k, sent_ns)` performs request `k` and returns when its response
/// arrived, so work it does afterwards (checking, making the next request)
/// is not timed.
pub fn drive<C: Clock>(
    clock: &C,
    schedule: Schedule,
    end_ns: u64,
    mut op: impl FnMut(u64, u64) -> u64,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for k in 0.. {
        let due_ns = schedule.due(k);
        if due_ns >= end_ns {
            break;
        }
        clock.sleep_until(due_ns);
        let sent_ns = clock.now_ns();
        let done_ns = op(k, sent_ns);
        samples.push(Sample {
            k,
            due_ns,
            sent_ns,
            done_ns,
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&self, ns: u64) {
            self.0.set(self.0.get().max(ns));
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn due_times_lateness_and_latency_under_a_stall() {
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule {
            first_ns: 0,
            period_ns: 5 * MS,
        };
        // Every request takes 1 ms, except request 2, which stalls 12 ms.
        let samples = drive(&clock, schedule, 30 * MS, |k, _| {
            let service = if k == 2 { 12 } else { 1 };
            clock.0.set(clock.0.get() + service * MS);
            clock.now_ns()
        });
        let due: Vec<u64> = samples.iter().map(|s| s.due_ns / MS).collect();
        assert_eq!(due, [0, 5, 10, 15, 20, 25]);
        let late: Vec<u64> = samples.iter().map(|s| s.late_ns() / MS).collect();
        assert_eq!(late, [0, 0, 0, 7, 3, 0]);
        // Timed from the due time, the stall shows on the requests behind it
        // (8 and 4 ms), not only on the one that stalled (12 ms).
        let latency: Vec<u64> = samples.iter().map(|s| s.latency_ns() / MS).collect();
        assert_eq!(latency, [1, 1, 12, 8, 4, 1]);
    }

    #[test]
    fn offset_schedule_interleaves_two_connections() {
        let a = Schedule {
            first_ns: 0,
            period_ns: 5 * MS,
        };
        let b = Schedule {
            first_ns: 5 * MS / 2,
            period_ns: 5 * MS,
        };
        assert_eq!(a.due(3), 15 * MS);
        assert_eq!(b.due(3), 17 * MS + MS / 2);
        let clock = FakeClock(Cell::new(0));
        let n = drive(&clock, b, 20 * MS, |_, sent| sent).len();
        assert_eq!(n, 4); // due at 2.5, 7.5, 12.5, 17.5 ms
    }
}
