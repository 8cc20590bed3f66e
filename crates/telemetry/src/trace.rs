//! Multi-channel traces: named time series recorded during a simulation
//! run, with CSV export for external plotting of the paper's figures.

use crate::series::{Sample, TimeSeries};
use crate::stats::SeriesStats;
use crate::Fnv;
use std::borrow::Cow;
use std::collections::{btree_map, BTreeMap};
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
#[derive(Debug, Default)]
pub struct SampleStage {
    ids: Vec<ChannelId>,
    rows: Vec<f64>,
}

impl Clone for SampleStage {
    fn clone(&self) -> Self {
        SampleStage {
            ids: self.ids.clone(),
            rows: self.rows.clone(),
        }
    }

    /// Copies `source`'s columns and rows into this stage's buffers,
    /// keeping their allocations: a drained stage made a copy of a
    /// template's allocates nothing once its buffers are large enough.
    fn clone_from(&mut self, source: &Self) {
        self.ids.clone_from(&source.ids);
        self.rows.clone_from(&source.rows);
    }
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
    /// The digest stored by [`Trace::seal_digests`]; every mutator
    /// clears it. A clone keeps it, because it has the same contents.
    sealed: Option<u64>,
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
        self.sealed = None;
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
        self.sealed = None;
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
        self.sealed = None;
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
    /// Traces whose recorded samples are bit-identical share a digest,
    /// and any change to operation order, buffering or sensor state in
    /// the simulation engines moves it — the property the physics
    /// golden tests pin across hot-path refactors. The converse holds
    /// only up to hash collisions: a 64-bit hash can map two different
    /// traces to one value, so equal digests are strong evidence of
    /// equal samples, not proof.
    ///
    /// Empty channels are skipped so engines can pre-register rarely
    /// used channels (e.g. gap telemetry on runs that never idle)
    /// without moving digests of runs that never touch them — pinned
    /// digests depend on what was recorded, not on what was declared.
    ///
    /// Returns the digest [`Trace::seal_digests`] stored, when one is
    /// stored: the same value, computed earlier. Every mutator
    /// ([`Trace::record`], [`Trace::record_id`], [`Trace::flush_stage`])
    /// clears it. Otherwise the digest is computed on each call and
    /// nothing is stored, so a trace nobody asks about costs nothing.
    pub fn digest(&self) -> u64 {
        if let Some(digest) = self.sealed {
            return digest;
        }
        let mut h = Fnv::new();
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

    /// Computes and stores the digests of `traces`, which
    /// [`Trace::digest`] then returns until the trace is next recorded
    /// into. Each stored value equals the digest computed alone.
    ///
    /// One stream's FNV-1a chain is latency-bound, but the chains of
    /// different traces are independent: the traces are hashed in
    /// groups of two to four with their byte streams interleaved, about
    /// three times as fast per byte as one at a time (the `scenarios`
    /// bench's `digest_16_traces_*` rows). A lone trace gains nothing,
    /// so a call with one trace stores nothing.
    ///
    /// Each trace's stream is serialised through a fixed 4 KiB buffer,
    /// refilled as it is folded, so the call holds four such buffers
    /// however long the traces are.
    pub fn seal_digests(traces: &mut [&mut Trace]) {
        if traces.len() < 2 {
            return;
        }
        let mut bufs = [[0; DIGEST_BUF_BYTES]; 4];
        // Split into ⌈n/4⌉ groups of near-equal size, each 2..=4 wide.
        let groups = traces.len().div_ceil(4);
        let mut start = 0;
        for g in 1..=groups {
            let end = traces.len() * g / groups;
            match &mut traces[start..end] {
                [a, b] => seal_group([a, b], &mut bufs),
                [a, b, c] => seal_group([a, b, c], &mut bufs),
                [a, b, c, d] => seal_group([a, b, c, d], &mut bufs),
                _ => unreachable!("groups hold two to four traces"),
            }
            start = end;
        }
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
        self.sealed = None;
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

/// Bytes of one trace's digest stream serialised per refill in
/// [`Trace::seal_digests`]: a `sweep_grid` cell's whole trace (about
/// 3.3 KB) fits in one, and a long trace (a phone_day cell holds about
/// 0.6 MiB) streams through it.
const DIGEST_BUF_BYTES: usize = 4096;

/// Digests `N` traces with interleaved FNV-1a, each serialised
/// through one of `bufs`, and stores each result.
fn seal_group<const N: usize>(
    traces: [&mut &mut Trace; N],
    bufs: &mut [[u8; DIGEST_BUF_BYTES]; 4],
) {
    let mut bufs = bufs.iter_mut();
    let mut lanes = traces.each_ref().map(|t| {
        let buf = bufs.next().expect("at most four lanes");
        DigestStream::new(t, buf)
    });
    let mut accs = std::array::from_fn(|_| Fnv::new());
    // Each pass folds one buffer of every stream. Streams of one layout
    // fill equal buffers; where fills differ (a channel boundary, a
    // stream that has ended) the kernel folds the excess serially.
    loop {
        let chunks = lanes.each_mut().map(|lane| {
            let n = lane.fill();
            &lane.buf[..n]
        });
        if chunks.iter().all(|c| c.is_empty()) {
            break;
        }
        Fnv::bytes_interleaved(&mut accs, chunks);
    }
    for (trace, acc) in traces.into_iter().zip(accs) {
        trace.sealed = Some(acc.finish());
    }
}

/// One trace's digest byte stream — exactly the bytes [`Trace::digest`]
/// folds, in order — serialised on demand into a fixed buffer.
struct DigestStream<'a, 'b> {
    series: &'a [TimeSeries],
    channels: btree_map::Iter<'a, Cow<'static, str>, usize>,
    /// The current channel's unwritten parts, in stream order: its
    /// name's length, its name, its sample count, its samples.
    name_len: Option<[u8; 8]>,
    name: &'a [u8],
    count: Option<[u8; 8]>,
    samples: &'a [Sample],
    buf: &'b mut [u8; DIGEST_BUF_BYTES],
}

impl<'a, 'b> DigestStream<'a, 'b> {
    fn new(trace: &'a Trace, buf: &'b mut [u8; DIGEST_BUF_BYTES]) -> Self {
        DigestStream {
            series: &trace.series,
            channels: trace.names.iter(),
            name_len: None,
            name: &[],
            count: None,
            samples: &[],
            buf,
        }
    }

    /// Serialises the stream's next bytes into the buffer, from its
    /// start; returns how many it wrote, 0 once the stream has ended.
    fn fill(&mut self) -> usize {
        let buf = &mut *self.buf;
        let mut n = 0;
        loop {
            if let Some(bytes) = self.name_len {
                if buf.len() - n < 8 {
                    return n;
                }
                buf[n..n + 8].copy_from_slice(&bytes);
                n += 8;
                self.name_len = None;
            }
            let k = self.name.len().min(buf.len() - n);
            buf[n..n + k].copy_from_slice(&self.name[..k]);
            n += k;
            self.name = &self.name[k..];
            if !self.name.is_empty() {
                return n;
            }
            if let Some(bytes) = self.count {
                if buf.len() - n < 8 {
                    return n;
                }
                buf[n..n + 8].copy_from_slice(&bytes);
                n += 8;
                self.count = None;
            }
            let k = self.samples.len().min((buf.len() - n) / 16);
            for (out, s) in buf[n..n + 16 * k].chunks_exact_mut(16).zip(self.samples) {
                out[..8].copy_from_slice(&s.t.to_bits().to_le_bytes());
                out[8..].copy_from_slice(&s.v.to_bits().to_le_bytes());
            }
            n += 16 * k;
            self.samples = &self.samples[k..];
            if !self.samples.is_empty() {
                return n;
            }
            // The next populated channel, framed as `digest` frames it.
            let series = self.series;
            let Some((name, s)) = self
                .channels
                .by_ref()
                .map(|(name, &idx)| (name, &series[idx]))
                .find(|(_, s)| !s.is_empty())
            else {
                return n;
            };
            self.name_len = Some((name.len() as u64).to_le_bytes());
            self.name = name.as_bytes();
            self.count = Some((s.len() as u64).to_le_bytes());
            self.samples = s.iter().as_slice();
        }
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
    fn only_groups_store_digests_and_every_mutator_clears_them() {
        let mut a = Trace::with_channels(&["x"]);
        a.record("x", 0.0, 1.0);
        let x = a.channel_id("x").unwrap();
        let mut lone = a.clone();
        Trace::seal_digests(&mut [&mut lone]);
        assert_eq!(lone.sealed, None, "one stream gains nothing");

        let mut b = a.clone();
        Trace::seal_digests(&mut [&mut a, &mut b]);
        assert_eq!(
            (a.sealed, b.sealed),
            (Some(lone.digest()), Some(lone.digest()))
        );
        let mutators: [&dyn Fn(&mut Trace); 4] = [
            &|t| t.record("x", 1.0, 2.0),
            &|t| t.record_id(x, 1.0, 2.0),
            &|t| t.flush_stage(&mut SampleStage::new(vec![x])),
            &|t| {
                t.ensure_channel(Cow::Borrowed("y"));
            },
        ];
        for (i, mutate) in mutators.iter().enumerate() {
            let mut c = a.clone();
            assert!(c.sealed.is_some(), "a clone keeps the stored digest");
            mutate(&mut c);
            assert_eq!(c.sealed, None, "mutator {i} must clear the stored digest");
        }
    }

    #[test]
    fn display_lists_channels() {
        let mut tr = Trace::new();
        tr.record("temp.big", 0.0, 80.0);
        let s = tr.to_string();
        assert!(s.contains("temp.big"));
    }
}
