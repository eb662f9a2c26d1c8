//! Timing utilities for the harness.

use std::time::{Duration, Instant};

use grfusion_common::{Error, Result};
#[cfg(test)]
use grfusion_common::ResourceKind;

/// Outcome of timing one query workload on one system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Timing {
    /// Average wall time per query.
    Avg(Duration),
    /// The system exceeded its resource budget — the paper's DNF rows
    /// (§7.2: SQLGraph beyond 4 joins on Twitter).
    DidNotFinish,
}

impl Timing {
    /// Microseconds, or `None` for DNF.
    pub fn micros(&self) -> Option<f64> {
        match self {
            Timing::Avg(d) => Some(d.as_secs_f64() * 1e6),
            Timing::DidNotFinish => None,
        }
    }

    /// Render for report tables.
    pub fn render(&self) -> String {
        match self {
            Timing::Avg(d) => format!("{:.1}", d.as_secs_f64() * 1e6),
            Timing::DidNotFinish => "DNF".to_string(),
        }
    }
}

/// Run `f` once per item of `items`, averaging wall time. The first item
/// is executed once untimed as a warm-up (plan preparation, cache
/// warming — VoltDB-style stored procedures pay compilation before the
/// measured workload too). A `ResourceExhausted` from any item turns the
/// whole series into [`Timing::DidNotFinish`]; other errors propagate.
pub fn time_per_item<T, F>(items: &[T], mut f: F) -> Result<Timing>
where
    F: FnMut(&T) -> Result<()>,
{
    if items.is_empty() {
        return Ok(Timing::Avg(Duration::ZERO));
    }
    match f(&items[0]) {
        Ok(()) => {}
        Err(Error::ResourceExhausted { .. }) => return Ok(Timing::DidNotFinish),
        Err(e) => return Err(e),
    }
    let start = Instant::now();
    for item in items {
        match f(item) {
            Ok(()) => {}
            Err(Error::ResourceExhausted { .. }) => return Ok(Timing::DidNotFinish),
            Err(e) => return Err(e),
        }
    }
    Ok(Timing::Avg(start.elapsed() / items.len() as u32))
}

/// Time a single closure.
pub fn time_once<F: FnOnce() -> Result<()>>(f: F) -> Result<Duration> {
    let start = Instant::now();
    f()?;
    Ok(start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_and_dnf() {
        let items = vec![1, 2, 3];
        let t = time_per_item(&items, |_| Ok(())).unwrap();
        assert!(matches!(t, Timing::Avg(_)));
        assert!(t.micros().is_some());

        let t = time_per_item(&items, |i| {
            if *i == 2 {
                Err(Error::resource(ResourceKind::Rows, 3, 2))
            } else {
                Ok(())
            }
        })
        .unwrap();
        assert_eq!(t, Timing::DidNotFinish);
        assert_eq!(t.render(), "DNF");
        assert!(t.micros().is_none());

        let e = time_per_item(&items, |_| Err(Error::execution("real failure")));
        assert!(e.is_err());
    }

    #[test]
    fn empty_items_zero() {
        let t = time_per_item::<i32, _>(&[], |_| Ok(())).unwrap();
        assert_eq!(t, Timing::Avg(Duration::ZERO));
    }
}
