//! Multi-channel traces: named time series recorded during a simulation
//! run, with CSV export for external plotting of the paper's figures.

use crate::series::TimeSeries;
use crate::stats::SeriesStats;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A resolved handle to one [`Trace`] channel, obtained from
/// [`Trace::channel_id`]. Recording through an id
/// ([`Trace::record_id`]) skips the per-sample name lookup — the
/// batched lockstep sampling path resolves its channel set once per
/// lane and records by id thereafter.
///
/// Ids are positions in the trace's own storage: they are only
/// meaningful against the trace that issued them and stay valid for its
/// lifetime (channels are never removed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelId(usize);

/// A sample-major staging buffer for a fixed channel set: each
/// [`SampleStage::push`] appends one contiguous `[t, v0..vN]` row, so a
/// sample tick touches one growing allocation instead of N scattered
/// per-channel `Vec`s. [`Trace::flush_stage`] drains the buffer into
/// the trace's channel-major storage, reproducing exactly the samples
/// (and per-channel order) that N direct [`Trace::record_id`] calls per
/// row would have produced — digests, CSV exports and stats are
/// bit-identical.
///
/// Rows are only buffered, never reordered: within a channel, flushed
/// samples land in push order, so the [`TimeSeries::push`] monotonic-time
/// contract carries over unchanged. Interleaving direct records *into
/// the staged channels* between pushes and the flush would reorder them
/// — flush first (other channels are unaffected; the trace only orders
/// time per channel).
#[derive(Debug, Clone, Default)]
pub struct SampleStage {
    ids: Vec<ChannelId>,
    rows: Vec<f64>,
}

/// Rows buffered before [`SampleStage::is_full`] reports true: sized so
/// a stage stays a few KiB (row width ~10 f64s) and flushes amortise to
/// noise, while run-end flushes of short runs stay the common case.
const STAGE_CAPACITY_ROWS: usize = 256;

impl SampleStage {
    /// A stage for the given pre-resolved channel ids, in the column
    /// order `push` rows will use.
    pub fn new(ids: Vec<ChannelId>) -> Self {
        SampleStage {
            ids,
            rows: Vec::new(),
        }
    }

    /// Resolves `names` against `trace` and builds the stage with that
    /// column order.
    ///
    /// # Panics
    ///
    /// Panics if any name is not a channel of `trace` — stages are for
    /// pre-registered channel sets; late creation belongs to
    /// [`Trace::record`].
    pub fn for_channels(trace: &Trace, names: &[&str]) -> Self {
        SampleStage::new(
            names
                .iter()
                .map(|n| {
                    trace
                        .channel_id(n)
                        .unwrap_or_else(|| panic!("staged channel {n:?} not pre-registered"))
                })
                .collect(),
        )
    }

    /// Number of value columns per row (excluding the time column).
    pub fn width(&self) -> usize {
        self.ids.len()
    }

    /// Buffered (unflushed) row count.
    pub fn len(&self) -> usize {
        if self.ids.is_empty() {
            0
        } else {
            self.rows.len() / (self.ids.len() + 1)
        }
    }

    /// `true` when no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// `true` once the buffer reaches its target capacity — the caller
    /// should [`Trace::flush_stage`] at its next convenient boundary.
    pub fn is_full(&self) -> bool {
        self.len() >= STAGE_CAPACITY_ROWS
    }

    /// Appends one sample row: time plus one value per staged channel,
    /// in the stage's column order. One contiguous write.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `values` does not match the stage width.
    #[inline]
    pub fn push(&mut self, t: f64, values: &[f64]) {
        debug_assert_eq!(values.len(), self.ids.len());
        self.rows.push(t);
        self.rows.extend_from_slice(values);
    }
}

/// A collection of named [`TimeSeries`] channels (e.g. `temp.big`,
/// `freq.big`, `power.total`) recorded during one run.
///
/// Channels are iterated in name order for every export and for the
/// digest, so exports are deterministic regardless of creation or
/// recording order. Internally the samples live in a dense `Vec`
/// indexed by [`ChannelId`] with a name → id map alongside, so hot
/// recording paths can pre-resolve ids and skip the name lookup.
///
/// # Examples
///
/// ```
/// use teem_telemetry::Trace;
///
/// let mut tr = Trace::new();
/// tr.record("temp.big", 0.0, 81.0);
/// tr.record("temp.big", 1.0, 84.5);
/// tr.record("freq.big", 0.0, 2000.0);
/// assert_eq!(tr.channel("temp.big").unwrap().len(), 2);
/// assert!(tr.to_csv().starts_with("t,freq.big,temp.big"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Name → series index. Pre-registered names are borrowed `'static`
    /// strings; only late-created channels own theirs.
    names: BTreeMap<Cow<'static, str>, usize>,
    series: Vec<TimeSeries>,
    late_creates: u64,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates a trace with the given channels pre-created (empty).
    ///
    /// Simulation engines know their channel set up front; pre-creating
    /// it means [`Trace::record`] takes the existing-channel fast path
    /// from the first sample on and the recording hot loop never
    /// allocates a channel key. The names are `'static`, so the trace
    /// and every clone of it borrow them instead of copying each into a
    /// `String`: cloning an empty registered trace copies the map and
    /// the series table, and allocates no string per channel. Repeated
    /// names register one channel.
    pub fn with_channels(names: &[&'static str]) -> Self {
        let mut tr = Trace {
            series: Vec::with_capacity(names.len()),
            ..Trace::default()
        };
        for &name in names {
            tr.ensure_channel(Cow::Borrowed(name));
        }
        tr
    }

    /// Index of `name`'s series, creating an empty one if missing.
    fn ensure_channel(&mut self, name: Cow<'static, str>) -> usize {
        if let Some(&idx) = self.names.get(&*name) {
            return idx;
        }
        let idx = self.series.len();
        self.series.push(TimeSeries::default());
        self.names.insert(name, idx);
        idx
    }

    /// Appends a sample to the named channel, creating it on first use.
    ///
    /// Recording into an existing channel is allocation-free on the key:
    /// the map is probed by `&str` and only a genuinely new channel
    /// copies the name.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the channel's last timestamp (see
    /// [`TimeSeries::push`]).
    pub fn record(&mut self, channel: &str, t: f64, v: f64) {
        let idx = match self.names.get(channel) {
            Some(&idx) => idx,
            None => {
                // Allocating slow path — engines pre-register their
                // channel set, so this firing during a hot loop is a
                // registration bug; the counter makes it assertable.
                self.late_creates += 1;
                self.ensure_channel(Cow::Owned(channel.to_string()))
            }
        };
        self.series[idx].push(t, v);
    }

    /// How many [`Trace::record`] calls hit the allocating
    /// create-on-first-use fallback because their channel was not
    /// pre-registered ([`Trace::with_channels`]). Hot recording paths
    /// assert this stays 0 — every channel they touch must exist before
    /// stepping starts.
    pub fn late_channel_creates(&self) -> u64 {
        self.late_creates
    }

    /// Resolves a channel name to a stable [`ChannelId`] for
    /// lookup-free recording via [`Trace::record_id`]. Returns `None`
    /// for a channel that does not exist (yet).
    pub fn channel_id(&self, name: &str) -> Option<ChannelId> {
        self.names.get(name).copied().map(ChannelId)
    }

    /// Appends a sample through a pre-resolved [`ChannelId`] —
    /// semantically identical to [`Trace::record`] with the id's name,
    /// without the per-sample map probe.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this trace's
    /// [`Trace::channel_id`] (out of range), or if `t` precedes the
    /// channel's last timestamp.
    #[inline]
    pub fn record_id(&mut self, id: ChannelId, t: f64, v: f64) {
        self.series[id.0].push(t, v);
    }

    /// Looks up a channel by name.
    pub fn channel(&self, name: &str) -> Option<&TimeSeries> {
        self.names.get(name).map(|&idx| &self.series[idx])
    }

    /// Channel names in sorted order.
    pub fn channel_names(&self) -> Vec<&str> {
        self.names.keys().map(|name| &**name).collect()
    }

    /// Name-sorted iteration over `(name, series)` pairs.
    fn iter_sorted(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.names
            .iter()
            .map(move |(name, &idx)| (&**name, &self.series[idx]))
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when no channels exist.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Statistics for one channel, if present and non-empty.
    pub fn stats(&self, name: &str) -> Option<SeriesStats> {
        self.channel(name).and_then(SeriesStats::of)
    }

    /// A 64-bit FNV-1a digest over every *populated* channel name and
    /// the raw IEEE-754 bits of every `(t, v)` sample, in deterministic
    /// (name-sorted, time-ordered) iteration order.
    ///
    /// Two traces share a digest iff their recorded samples are
    /// bit-identical — the property the physics golden tests pin across
    /// hot-path refactors: any change to operation order, buffering or
    /// sensor state in the simulation engines shows up here immediately.
    ///
    /// Empty channels are skipped so engines can pre-register rarely
    /// used channels (e.g. gap telemetry on runs that never idle)
    /// without moving digests of runs that never touch them — pinned
    /// digests depend on what was recorded, not on what was declared.
    pub fn digest(&self) -> u64 {
        let mut h = crate::Fnv::new();
        for (name, series) in self.iter_sorted() {
            if series.is_empty() {
                continue;
            }
            // Framed (name length + bytes, sample count) so distinct
            // traces cannot collide by re-partitioning the concatenated
            // byte stream ("ab"+"c" vs "a"+"bc").
            h.str(name);
            h.u64(series.len() as u64);
            for s in series.iter() {
                h.f64(s.t);
                h.f64(s.v);
            }
        }
        h.finish()
    }

    /// Drains a [`SampleStage`] into this trace's channel-major
    /// storage: for each staged channel (column), its buffered samples
    /// are pushed in row order — exactly the per-channel sequence that
    /// direct [`Trace::record_id`] calls per row would have produced,
    /// so digests and exports are bit-identical to unstaged recording.
    ///
    /// Each channel reserves room for the staged rows once per flush
    /// instead of growing sample by sample. The stage keeps its channel
    /// set and capacity; only the rows are consumed.
    ///
    /// # Panics
    ///
    /// Panics if a staged id did not come from this trace, or if a
    /// staged time precedes its channel's last flushed timestamp (see
    /// [`TimeSeries::push`] — flush before directly recording into a
    /// staged channel).
    pub fn flush_stage(&mut self, stage: &mut SampleStage) {
        let width = stage.ids.len() + 1;
        let rows = stage.len();
        for (col, id) in stage.ids.iter().enumerate() {
            let series = &mut self.series[id.0];
            series.reserve(rows);
            let mut row = 0;
            while row < stage.rows.len() {
                series.push(stage.rows[row], stage.rows[row + 1 + col]);
                row += width;
            }
        }
        stage.rows.clear();
    }

    /// Exports all channels as a single CSV with a shared time column.
    ///
    /// The time grid is the union of all sample times; each channel is
    /// sampled by zero-order hold, with empty cells before a channel's
    /// first sample.
    pub fn to_csv(&self) -> String {
        let mut grid: Vec<f64> = self.series.iter().flat_map(|s| s.times()).collect();
        grid.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        grid.dedup();

        let mut out = String::from("t");
        for (name, _) in self.iter_sorted() {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for &t in &grid {
            out.push_str(&format!("{t}"));
            for (_, series) in self.iter_sorted() {
                out.push(',');
                if let Some(v) = series.value_at(t) {
                    out.push_str(&format!("{v}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Trace with {} channel(s):", self.len())?;
        for (name, series) in self.iter_sorted() {
            writeln!(f, "  {name}: {series}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_creates_channels() {
        let mut tr = Trace::new();
        tr.record("a", 0.0, 1.0);
        tr.record("b", 0.0, 2.0);
        tr.record("a", 1.0, 3.0);
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.channel("a").unwrap().len(), 2);
        assert_eq!(tr.channel_names(), vec!["a", "b"]);
        assert!(tr.channel("missing").is_none());
    }

    #[test]
    fn csv_uses_union_grid_with_hold() {
        let mut tr = Trace::new();
        tr.record("x", 0.0, 1.0);
        tr.record("x", 2.0, 3.0);
        tr.record("y", 1.0, 5.0);
        let csv = tr.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t,x,y");
        assert_eq!(lines[1], "0,1,"); // y not started yet
        assert_eq!(lines[2], "1,1,5"); // x held at 1
        assert_eq!(lines[3], "2,3,5"); // y held at 5
    }

    #[test]
    fn stats_passthrough() {
        let mut tr = Trace::new();
        tr.record("temp", 0.0, 80.0);
        tr.record("temp", 1.0, 90.0);
        let st = tr.stats("temp").unwrap();
        assert_eq!(st.max(), 90.0);
        assert!(tr.stats("none").is_none());
    }

    #[test]
    fn digest_distinguishes_content_and_framing() {
        let mut a = Trace::new();
        a.record("temp", 0.0, 80.0);
        let mut b = Trace::new();
        b.record("temp", 0.0, 80.0);
        assert_eq!(a.digest(), b.digest());
        b.record("temp", 1.0, 80.0);
        assert_ne!(a.digest(), b.digest(), "extra sample must change bits");
        let mut c = Trace::new();
        c.record("temp", 0.0, 80.5);
        assert_ne!(a.digest(), c.digest(), "value change must change bits");
        // Channel-name framing: re-partitioning names cannot collide.
        // (Populated, since empty channels are digest-invisible.)
        let mut ab_c = Trace::with_channels(&["ab", "c"]);
        let mut a_bc = Trace::with_channels(&["a", "bc"]);
        for tr in [&mut ab_c, &mut a_bc] {
            let names: Vec<String> = tr.channel_names().into_iter().map(str::to_string).collect();
            for name in names {
                tr.record(&name, 0.0, 1.0);
            }
        }
        assert_ne!(ab_c.digest(), a_bc.digest());
    }

    #[test]
    fn empty_channels_are_digest_invisible() {
        let mut bare = Trace::with_channels(&["temp.max"]);
        let mut extra = Trace::with_channels(&["temp.max", "gap.fastforward_s"]);
        bare.record("temp.max", 0.0, 80.0);
        extra.record("temp.max", 0.0, 80.0);
        assert_eq!(
            bare.digest(),
            extra.digest(),
            "pre-registering an unused channel must not move the digest"
        );
        extra.record("gap.fastforward_s", 0.0, 1.0);
        assert_ne!(bare.digest(), extra.digest(), "recorded channel counts");
    }

    #[test]
    fn flush_stage_matches_direct_recording_bitwise() {
        const NAMES: [&str; 3] = ["temp.max", "freq.big", "power.total"];
        let mut staged = Trace::with_channels(&NAMES);
        let mut direct = Trace::with_channels(&NAMES);
        let mut stage = SampleStage::for_channels(&staged, &NAMES);
        assert_eq!(stage.width(), 3);
        for i in 0..20 {
            let t = 0.1 * f64::from(i);
            let row = [80.0 + f64::from(i), 2000.0, 5.5 - 0.01 * f64::from(i)];
            stage.push(t, &row);
            for (name, v) in NAMES.iter().zip(row) {
                direct.record(name, t, v);
            }
            if i == 7 {
                // Mid-run flush: per-channel order is preserved across
                // flush boundaries.
                staged.flush_stage(&mut stage);
            }
        }
        assert_eq!(stage.len(), 12);
        staged.flush_stage(&mut stage);
        assert!(stage.is_empty());
        assert_eq!(staged.digest(), direct.digest());
        assert_eq!(staged.to_csv(), direct.to_csv());
        // The stage survives the flush and can keep recording.
        stage.push(2.0, &[90.0, 1900.0, 6.0]);
        staged.flush_stage(&mut stage);
        assert_eq!(staged.channel("temp.max").unwrap().len(), 21);
    }

    #[test]
    #[should_panic(expected = "not pre-registered")]
    fn stage_rejects_unknown_channels() {
        let tr = Trace::with_channels(&["a"]);
        let _ = SampleStage::for_channels(&tr, &["a", "missing"]);
    }

    #[test]
    fn late_channel_creates_counts_only_the_fallback() {
        let mut tr = Trace::with_channels(&["pre"]);
        tr.record("pre", 0.0, 1.0);
        assert_eq!(tr.late_channel_creates(), 0);
        tr.record("late", 0.0, 1.0);
        assert_eq!(tr.late_channel_creates(), 1);
        tr.record("late", 1.0, 2.0);
        assert_eq!(tr.late_channel_creates(), 1, "existing channels are free");
    }

    #[test]
    fn with_channels_precreates_empty_channels() {
        let tr = Trace::with_channels(&["x", "y"]);
        assert_eq!(tr.len(), 2);
        assert!(tr.channel("x").unwrap().is_empty());
        assert!(tr.stats("x").is_none(), "empty channel has no stats");
    }

    #[test]
    fn record_by_id_is_equivalent_to_record_by_name() {
        let mut by_name = Trace::with_channels(&["temp.max", "freq.big"]);
        let mut by_id = Trace::with_channels(&["temp.max", "freq.big"]);
        let temp = by_id.channel_id("temp.max").unwrap();
        let freq = by_id.channel_id("freq.big").unwrap();
        assert!(by_id.channel_id("missing").is_none());
        for i in 0..10 {
            let t = 0.1 * f64::from(i);
            by_name.record("temp.max", t, 80.0 + f64::from(i));
            by_name.record("freq.big", t, 2000.0 - f64::from(i));
            by_id.record_id(temp, t, 80.0 + f64::from(i));
            by_id.record_id(freq, t, 2000.0 - f64::from(i));
        }
        assert_eq!(by_name.digest(), by_id.digest());
        // Late creation order must not change name-sorted exports.
        by_name.record("a.late", 0.0, 1.0);
        by_id.record("a.late", 0.0, 1.0);
        assert_eq!(by_name.digest(), by_id.digest());
        assert_eq!(by_name.to_csv(), by_id.to_csv());
        assert_eq!(
            by_id.channel_names(),
            vec!["a.late", "freq.big", "temp.max"]
        );
    }

    #[test]
    fn display_lists_channels() {
        let mut tr = Trace::new();
        tr.record("temp.big", 0.0, 80.0);
        let s = tr.to_string();
        assert!(s.contains("temp.big"));
    }
}
