//! Time-series gauges sampled on the simulated clock.
//!
//! The registry's counters and gauges are point-in-time values; the
//! paper's headline results, however, are *trajectories* — storage growth
//! over simulated time (Figs 8/9/13/16) and bandwidth over time
//! (Figs 11/15). This module holds the machinery that turns the registry
//! into such trajectories:
//!
//! * A [`Series`] is a fixed-capacity buffer of `(t_ns, value)` points.
//!   When it fills up it *downsamples* by decimation: every second stored
//!   point is dropped (keeping the very first), halving occupancy while
//!   preserving the overall shape. Recent points therefore stay at full
//!   resolution and history gets progressively coarser — bounded memory
//!   for arbitrarily long runs.
//! * A [`SeriesStore`] maps string keys (`engine.table_rows#3`,
//!   `net.link_util#0->5`, …) to series, kept in a `BTreeMap` so every
//!   export is deterministically ordered.
//! * A [`Sampler`] owns a store plus a sampling cadence on the simulated
//!   clock. The event loop offers it the current virtual time
//!   ([`Sampler::due`]); when a tick is due the sampler hands back the
//!   *aligned* tick timestamp, so samples land on deterministic virtual
//!   instants regardless of the exact event times that triggered them.
//!
//! The sampler lives inside [`crate::Telemetry`] (see
//! [`crate::Telemetry::set_timeseries`]); layers record through
//! [`crate::Telemetry::ts_record_all`] and the whole store exports as
//! JSON-lines or CSV.

use std::collections::BTreeMap;

/// Default per-series point capacity. At a 1-second cadence this holds a
/// 17-minute run at full resolution; longer runs downsample.
pub const DEFAULT_SERIES_CAPACITY: usize = 1024;

/// A fixed-capacity time series of `(t_ns, value)` points with
/// decimation-by-2 downsampling.
///
/// Invariants: timestamps are strictly increasing (a push at the same
/// timestamp as the last point *replaces* its value — the final forced
/// sample of a run may coincide with the last periodic tick); the first
/// point ever pushed survives every decimation; the most recent push is
/// always present.
#[derive(Debug, Clone)]
pub struct Series {
    cap: usize,
    points: Vec<(u64, f64)>,
}

impl Series {
    /// An empty series holding at most `cap` points (clamped to >= 2 so
    /// first and last can always coexist).
    pub fn new(cap: usize) -> Series {
        Series {
            cap: cap.max(2),
            points: Vec::new(),
        }
    }

    /// Append a sample. Pushes at a timestamp earlier than the last
    /// stored point are ignored (the series stays monotone); a push at
    /// the same timestamp overwrites the last value.
    pub fn push(&mut self, t_ns: u64, value: f64) {
        if let Some(last) = self.points.last_mut() {
            if t_ns < last.0 {
                return;
            }
            if t_ns == last.0 {
                last.1 = value;
                return;
            }
        }
        if self.points.len() == self.cap {
            self.decimate();
        }
        self.points.push((t_ns, value));
    }

    /// Drop every second point (keeping index 0, the first sample ever),
    /// halving occupancy.
    fn decimate(&mut self) {
        let mut i = 0usize;
        self.points.retain(|_| {
            let keep = i.is_multiple_of(2);
            i += 1;
            keep
        });
    }

    /// The stored points, oldest first.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }
}

/// A deterministic (sorted-key) collection of named [`Series`].
#[derive(Debug, Clone)]
pub struct SeriesStore {
    cap: usize,
    series: BTreeMap<String, Series>,
}

impl SeriesStore {
    /// An empty store whose series each hold at most `cap` points.
    pub fn new(cap: usize) -> SeriesStore {
        SeriesStore {
            cap: cap.max(2),
            series: BTreeMap::new(),
        }
    }

    /// Append a sample to the series named `key` (created on first use).
    pub fn record(&mut self, key: &str, t_ns: u64, value: f64) {
        match self.series.get_mut(key) {
            Some(s) => s.push(t_ns, value),
            None => {
                let mut s = Series::new(self.cap);
                s.push(t_ns, value);
                self.series.insert(key.to_string(), s);
            }
        }
    }

    /// Look up one series.
    pub fn get(&self, key: &str) -> Option<&Series> {
        self.series.get(key)
    }

    /// Iterate `(key, series)` in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Series)> {
        self.series.iter().map(|(k, s)| (k.as_str(), s))
    }

    /// Serialize every series as JSON-lines: one
    /// `{"type":"series","key":K,"points":[[t_ns,v],...]}` object per
    /// line, in sorted key order. Integral values render without a
    /// decimal point (Rust's shortest-round-trip float formatting), so
    /// the output is byte-deterministic for a deterministic run.
    pub fn to_json_lines(&self) -> String {
        use crate::json::Json;
        let mut out = String::new();
        for (key, s) in self.iter() {
            let points = Json::Arr(
                s.points()
                    .iter()
                    .map(|&(t, v)| Json::Arr(vec![Json::UInt(t), Json::Float(v)]))
                    .collect(),
            );
            let line = Json::obj([
                ("type", Json::Str("series".into())),
                ("key", Json::Str(key.into())),
                ("points", points),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }

    /// Serialize as CSV with a `series,t_ns,value` header, series in
    /// sorted key order, points oldest first.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,t_ns,value\n");
        for (key, s) in self.iter() {
            for &(t, v) in s.points() {
                out.push_str(key);
                out.push(',');
                out.push_str(&t.to_string());
                out.push(',');
                out.push_str(&v.to_string());
                out.push('\n');
            }
        }
        out
    }
}

/// Cadence-driven sampling state: decides *when* the next sample is due
/// on the simulated clock and owns the [`SeriesStore`] that receives it.
#[derive(Debug, Clone)]
pub struct Sampler {
    every_nanos: u64,
    next_nanos: u64,
    store: SeriesStore,
}

impl Sampler {
    /// A sampler firing every `every_nanos` of simulated time (clamped to
    /// >= 1), with per-series capacity `cap`.
    pub fn new(every_nanos: u64, cap: usize) -> Sampler {
        let every = every_nanos.max(1);
        Sampler {
            every_nanos: every,
            next_nanos: every,
            store: SeriesStore::new(cap),
        }
    }

    /// If simulated time `now_nanos` has reached the next scheduled tick,
    /// consume it and return the *aligned* tick timestamp (the largest
    /// multiple of the cadence at or before `now_nanos`). Catch-up is
    /// single, like periodic snapshots ([`crate::Telemetry::tick`]): one sample per
    /// call even if several periods elapsed — the state in between is
    /// gone anyway. Aligned stamps make same-cadence runs of different
    /// schemes sample at identical virtual instants, so their series are
    /// directly comparable point by point.
    pub fn due(&mut self, now_nanos: u64) -> Option<u64> {
        if now_nanos < self.next_nanos {
            return None;
        }
        let periods = now_nanos / self.every_nanos;
        self.next_nanos = (periods + 1) * self.every_nanos;
        Some(periods * self.every_nanos)
    }

    /// The next instant a sample falls due, nanoseconds.
    pub fn next_nanos(&self) -> u64 {
        self.next_nanos
    }

    /// The underlying store.
    pub fn store(&self) -> &SeriesStore {
        &self.store
    }

    /// Mutable access to the store.
    pub fn store_mut(&mut self) -> &mut SeriesStore {
        &mut self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_keeps_monotone_timestamps() {
        let mut s = Series::new(8);
        s.push(10, 1.0);
        s.push(5, 9.0); // out of order: ignored
        s.push(10, 2.0); // same stamp: replaces
        s.push(20, 3.0);
        assert_eq!(s.points(), &[(10, 2.0), (20, 3.0)]);
    }

    #[test]
    fn downsampling_preserves_first_and_last() {
        let mut s = Series::new(4);
        for i in 0..100u64 {
            s.push(i * 1000, i as f64);
        }
        let pts = s.points();
        assert!(pts.len() <= 4, "capacity respected, got {}", pts.len());
        assert_eq!(pts[0], (0, 0.0), "first sample survives");
        assert_eq!(pts.last(), Some(&(99_000, 99.0)), "last sample present");
        assert!(
            s.points().windows(2).all(|w| w[0].0 < w[1].0),
            "timestamps strictly increasing: {:?}",
            s.points()
        );
    }

    #[test]
    fn downsampling_coarsens_history_not_recent() {
        let mut s = Series::new(8);
        for i in 0..32u64 {
            s.push(i, i as f64);
        }
        let pts = s.points();
        // After decimations the oldest gap is wider than the newest.
        let first_gap = pts[1].0 - pts[0].0;
        let last_gap = pts[pts.len() - 1].0 - pts[pts.len() - 2].0;
        assert!(first_gap >= last_gap, "{first_gap} >= {last_gap}");
    }

    #[test]
    fn store_orders_keys_and_exports() {
        let mut st = SeriesStore::new(16);
        st.record("b", 1, 2.0);
        st.record("a", 1, 1.5);
        st.record("a", 2, 3.0);
        let keys: Vec<&str> = st.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
        assert_eq!(
            st.to_json_lines(),
            "{\"type\":\"series\",\"key\":\"a\",\"points\":[[1,1.5],[2,3]]}\n\
             {\"type\":\"series\",\"key\":\"b\",\"points\":[[1,2]]}\n"
        );
        assert_eq!(st.to_csv(), "series,t_ns,value\na,1,1.5\na,2,3\nb,1,2\n");
    }

    #[test]
    fn sampler_returns_aligned_stamps() {
        let mut s = Sampler::new(1000, 16);
        assert_eq!(s.due(999), None);
        assert_eq!(s.due(1000), Some(1000), "due exactly on the tick");
        assert_eq!(s.due(1500), None, "not due again until 2000");
        // Catch-up is single and the stamp is aligned, not the event time.
        assert_eq!(s.due(3700), Some(3000));
        assert_eq!(s.due(3800), None);
        assert_eq!(s.due(4000), Some(4000));
    }

    #[test]
    fn sampler_cadence_is_clamped() {
        let mut s = Sampler::new(0, 4);
        assert_eq!(s.due(0), None);
        assert_eq!(s.due(1), Some(1));
        assert_eq!(s.due(2), Some(2), "a 1-ns cadence");
    }
}
