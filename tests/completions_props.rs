//! The per-second completion counts give the time series that bucketing
//! every completion timestamp gives.
//!
//! [`Reference`] keeps each completion's timestamp and buckets them by
//! dividing its time in seconds by the bucket width. On random sorted
//! completion times — some exactly on whole seconds, so on every bucket
//! edge, and some past the window's end — at whole-second window starts
//! from 0 to 2,000 s and buckets of 1 to 60 s, `RunResult`'s `len`,
//! `timeseries` and `plateau` must match the reference bit for bit.

use proptest::prelude::*;
use tashkent::cluster::{Counters, Metrics, RunResult};
use tashkent::sim::SimTime;

/// Completions kept as timestamps.
struct Reference {
    window_start: SimTime,
    window_s: f64,
    completions: Vec<SimTime>,
}

impl Reference {
    /// `(bucket_start_s, tps)` per `bucket_s`-second bucket of the window;
    /// completions at or past the last bucket's end count in the last.
    fn timeseries(&self, bucket_s: f64) -> Vec<(f64, f64)> {
        if self.completions.is_empty() {
            return Vec::new();
        }
        let start = self.window_start.as_secs_f64();
        let end = start + self.window_s;
        let nbuckets = ((end - start) / bucket_s).ceil() as usize;
        let mut counts = vec![0u64; nbuckets.max(1)];
        for t in &self.completions {
            let idx = (((t.as_secs_f64() - start) / bucket_s) as usize).min(counts.len() - 1);
            counts[idx] += 1;
        }
        counts
            .iter()
            .enumerate()
            .map(|(i, c)| (start + i as f64 * bucket_s, *c as f64 / bucket_s))
            .collect()
    }

    /// Mean tps over the buckets starting in `[from_s, to_s)`, or 0.
    fn plateau(&self, bucket_s: f64, from_s: f64, to_s: f64) -> f64 {
        let vals: Vec<f64> = self
            .timeseries(bucket_s)
            .into_iter()
            .filter(|(t, _)| *t >= from_s && *t < to_s)
            .map(|(_, tps)| tps)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

/// A series' values as bit patterns, so equality is exact.
fn bits(series: &[(f64, f64)]) -> Vec<(u64, u64)> {
    series
        .iter()
        .map(|(t, tps)| (t.to_bits(), tps.to_bits()))
        .collect()
}

/// Records `times` in a window opened at `start` and closed at `end`.
fn finished(start: SimTime, end: SimTime, times: &[SimTime]) -> RunResult {
    let mut m = Metrics::new();
    m.start_window(start, Counters::default());
    for &t in times {
        m.record_completion(t, start, false);
    }
    m.finish(end, Counters::default(), 1, Vec::new())
}

proptest! {
    #[test]
    fn per_second_counts_match_the_timestamp_reference(
        start_s in 0u64..2_001,
        window_us in prop_oneof![
            (1u64..601).prop_map(|s| s * 1_000_000),
            0u64..600_000_001,
        ],
        offsets in proptest::collection::vec(
            prop_oneof![
                // Whole seconds: an edge of every bucket width that divides them.
                (0u64..700).prop_map(|s| s * 1_000_000),
                0u64..700_000_000,
            ],
            0..400,
        ),
        bucket in 1u64..61,
        plateau_us in (0u64..700_000_000, 0u64..400_000_000),
    ) {
        let start = SimTime::from_secs(start_s);
        let mut times: Vec<SimTime> = offsets
            .iter()
            .map(|o| SimTime::from_micros(start.as_micros() + o))
            .collect();
        times.sort_unstable();
        let r = finished(start, SimTime::from_micros(start.as_micros() + window_us), &times);
        let reference = Reference {
            window_start: r.window_start,
            window_s: r.window_s,
            completions: times,
        };
        prop_assert_eq!(r.completions.len(), reference.completions.len());
        let from_s = (start.as_micros() + plateau_us.0) as f64 / 1e6;
        let to_s = from_s + plateau_us.1 as f64 / 1e6;
        // The drawn width and every width a figure or test reads.
        for b in [bucket, 1, 5, 10, 30] {
            prop_assert_eq!(
                bits(&r.timeseries(b)),
                bits(&reference.timeseries(b as f64)),
                "{}-second buckets", b
            );
            prop_assert_eq!(
                r.plateau(b, from_s, to_s).to_bits(),
                reference.plateau(b as f64, from_s, to_s).to_bits(),
                "{}-second plateau over [{}, {})", b, from_s, to_s
            );
        }
    }
}

#[test]
fn completions_are_equal_only_when_their_timestamps_are() {
    let start = SimTime::from_secs(10);
    let end = SimTime::from_secs(20);
    let at = |ms: &[u64]| -> Vec<SimTime> {
        ms.iter()
            .map(|&ms| SimTime::from_millis(10_000 + ms))
            .collect()
    };
    let a = finished(start, end, &at(&[100, 1_500, 1_700]));
    assert_eq!(
        a.completions,
        finished(start, end, &at(&[100, 1_500, 1_700])).completions
    );
    // The same count in every second, one timestamp moved within its second.
    let b = finished(start, end, &at(&[100, 1_500, 1_701]));
    assert_eq!(a.timeseries(1), b.timeseries(1));
    assert_ne!(a.completions, b.completions);
}
