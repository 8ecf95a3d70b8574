//! Wall-clock measurement for the run-time comparison (Table VIII).

use std::time::{Duration, Instant};

/// A cumulative stopwatch. Measured regions are scoped with [`guard`]
/// (RAII: the span ends when the guard drops, on every exit path including
/// panics) or the [`time`] closure wrapper.
///
/// [`guard`]: Stopwatch::guard
/// [`time`]: Stopwatch::time
#[derive(Debug)]
pub struct Stopwatch {
    total: Duration,
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::new()
    }
}

impl Stopwatch {
    /// A stopwatch at zero.
    pub fn new() -> Self {
        Stopwatch { total: Duration::ZERO }
    }

    /// Opens a measured span that ends (and accumulates) when the returned
    /// guard is dropped. The borrow makes overlapping manual spans on the
    /// same stopwatch impossible.
    #[must_use = "the span is measured until the guard drops; binding it to _ ends it immediately"]
    pub fn guard(&mut self) -> StopwatchGuard<'_> {
        StopwatchGuard { start: Instant::now(), sw: self }
    }

    /// Total accumulated time.
    pub fn elapsed(&self) -> Duration {
        self.total
    }

    /// Times a closure, accumulating its duration, and returns its output.
    /// The duration is recorded even if the closure panics.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let _g = self.guard();
        f()
    }
}

/// An open measured span on a [`Stopwatch`]; accumulates on drop.
#[derive(Debug)]
pub struct StopwatchGuard<'a> {
    sw: &'a mut Stopwatch,
    start: Instant,
}

impl Drop for StopwatchGuard<'_> {
    fn drop(&mut self) {
        self.sw.total += self.start.elapsed();
    }
}

/// Formats a duration the way the paper's Table VIII does
/// (`s` / `min` / `h` / `d` units).
pub fn format_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs < 60.0 {
        format!("{secs:.2} s")
    } else if secs < 3600.0 {
        format!("{:.2} min", secs / 60.0)
    } else if secs < 86_400.0 {
        format!("{:.2} h", secs / 3600.0)
    } else {
        format!("{:.2} d", secs / 86_400.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_accumulates_across_spans() {
        let mut sw = Stopwatch::new();
        {
            let _g = sw.guard();
            std::thread::sleep(Duration::from_millis(5));
        }
        let first = sw.elapsed();
        assert!(first >= Duration::from_millis(5));
        sw.time(|| std::thread::sleep(Duration::from_millis(5)));
        assert!(sw.elapsed() > first);
        assert!(sw.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn guard_records_on_panic() {
        let mut sw = Stopwatch::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sw.time(|| {
                std::thread::sleep(Duration::from_millis(3));
                panic!("measured region panics");
            })
        }));
        assert!(caught.is_err());
        assert!(sw.elapsed() >= Duration::from_millis(3), "panicked span was lost");
    }

    #[test]
    fn format_units() {
        assert_eq!(format_duration(Duration::from_secs_f64(3.33)), "3.33 s");
        assert_eq!(format_duration(Duration::from_secs(120)), "2.00 min");
        assert_eq!(format_duration(Duration::from_secs(7200)), "2.00 h");
        assert_eq!(format_duration(Duration::from_secs(172_800)), "2.00 d");
    }

    #[test]
    fn format_unit_boundaries() {
        // Just under / exactly at each unit rollover.
        assert_eq!(format_duration(Duration::from_secs_f64(59.9)), "59.90 s");
        assert_eq!(format_duration(Duration::from_secs(60)), "1.00 min");
        assert_eq!(format_duration(Duration::from_secs_f64(3599.4)), "59.99 min");
        assert_eq!(format_duration(Duration::from_secs(3600)), "1.00 h");
        assert_eq!(format_duration(Duration::from_secs(86_399)), "24.00 h");
        assert_eq!(format_duration(Duration::from_secs(86_400)), "1.00 d");
        assert_eq!(format_duration(Duration::ZERO), "0.00 s");
    }
}
