//! Open-loop load generation: requests go out on a fixed schedule whether
//! or not earlier ones have been answered, the way independent HTTP
//! submitters behave. A stalled send delays later sends; that delay is
//! charged to the system (latency is timed from the *due* time) and
//! reported as generator lateness.

use std::time::{Duration, Instant};

/// The generator's view of time, so the accounting can be tested against a
/// scripted clock.
pub trait Clock {
    fn now(&self) -> Duration;
    /// Blocks until `t` (returns at once if `t` has passed).
    fn sleep_until(&self, t: Duration);
}

/// Wall time since construction.
pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        let now = self.0.elapsed();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// When request `i` of a `rate`-per-second schedule is due.
pub fn due(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Sends `count` requests at `rate` per second from one thread. `send` gets
/// the request index and its due time; it may block (a synchronous POST),
/// which makes later requests late. Returns each request's lateness: how
/// long after its due time its send began.
pub fn generate(
    clock: &impl Clock,
    count: usize,
    rate: f64,
    mut send: impl FnMut(usize, Duration),
) -> Vec<Duration> {
    let mut late = Vec::with_capacity(count);
    for i in 0..count {
        let at = due(i, rate);
        clock.sleep_until(at);
        late.push(clock.now().saturating_sub(at));
        send(i, at);
    }
    late
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Time moves only when someone sleeps or a send "takes" time.
    struct Scripted(Cell<Duration>);

    impl Clock for Scripted {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn on_time_generator_reports_zero_lateness() {
        let clock = Scripted(Cell::new(Duration::ZERO));
        // 100/s: one request every 10 ms, each send takes 2 ms.
        let late = generate(&clock, 5, 100.0, |_, _| clock.0.set(clock.0.get() + 2 * MS));
        assert_eq!(late, vec![Duration::ZERO; 5]);
    }

    #[test]
    fn a_stalled_send_makes_later_requests_late_but_keeps_their_due_times() {
        let clock = Scripted(Cell::new(Duration::ZERO));
        let mut dues = Vec::new();
        // Request 1 stalls for 25 ms on a 10 ms schedule.
        let late = generate(&clock, 5, 100.0, |i, at| {
            dues.push(at);
            let cost = if i == 1 { 25 * MS } else { MS };
            clock.0.set(clock.0.get() + cost);
        });
        // Due at 0, 10, 20, 30, 40 regardless of the stall.
        assert_eq!(dues, (0..5).map(|i| 10 * i * MS).collect::<Vec<_>>());
        // Request 1 starts on time at 10 and ends at 35: request 2 (due 20)
        // starts 15 late, request 3 (due 30) starts at 36, 6 late, and the
        // generator has caught up by request 4.
        assert_eq!(
            late,
            vec![
                Duration::ZERO,
                Duration::ZERO,
                15 * MS,
                6 * MS,
                Duration::ZERO
            ]
        );
    }

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due(0, 20.0), Duration::ZERO);
        assert_eq!(due(20, 20.0), Duration::from_secs(1));
        assert_eq!(due(3, 24.0), Duration::from_millis(125));
    }
}
