//! The workspace's one framed FNV-1a accumulator.
//!
//! Every content digest in the reproduction — [`Trace::digest`]
//! (golden physics pins), the scenario crate's sweep-spec fingerprint
//! and journal digest — folds with these constants. Keeping the
//! implementation in one place keeps them *provably* the same
//! constants; a drifted copy would silently unpin the golden digests.
//!
//! Inputs are **framed**: strings are hashed as length + bytes and
//! floats as their IEEE bit patterns, so distinct structures cannot
//! collide by re-partitioning a concatenated byte stream
//! (`"ab" + "c"` vs `"a" + "bc"`).
//!
//! [`Trace::digest`]: crate::Trace::digest

/// The 64-bit FNV prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Framed FNV-1a (64-bit) accumulator.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A fresh accumulator at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes (unframed — prefer the typed methods).
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// Folds `streams[i]` into `accs[i]` for every `i`: each result is
    /// exactly what [`Fnv::bytes`] leaves, byte for byte.
    ///
    /// One stream's FNV-1a chain is latency-bound (each byte waits on
    /// the previous multiply), but the chains of different streams are
    /// independent, so their common prefix is folded interleaved, one
    /// byte of every stream per iteration, and the out-of-order core
    /// overlaps the `N` multiplies. What one stream has past the
    /// shortest then folds serially.
    pub(crate) fn bytes_interleaved<const N: usize>(accs: &mut [Fnv; N], streams: [&[u8]; N]) {
        let common = streams.iter().map(|s| s.len()).min().unwrap_or(0);
        // Slicing every stream to the common length lets the compiler
        // drop the per-byte bounds checks.
        let prefix = streams.map(|s| &s[..common]);
        let mut h = accs.each_ref().map(|a| a.0);
        for i in 0..common {
            for (h, stream) in h.iter_mut().zip(&prefix) {
                *h = (*h ^ u64::from(stream[i])).wrapping_mul(PRIME);
            }
        }
        for (acc, (h, stream)) in accs.iter_mut().zip(h.into_iter().zip(streams)) {
            acc.0 = h;
            acc.bytes(&stream[common..]);
        }
    }

    /// Folds a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float's IEEE-754 bit pattern — bit-identity, not
    /// numeric equality (`-0.0 ≠ 0.0`, every NaN payload distinct).
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    /// Folds an optional float with a presence tag, so `None` and
    /// `Some(0.0)` differ.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u64(1);
                self.f64(x);
            }
            None => self.u64(0),
        }
    }

    /// Folds a string framed by its byte length.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framing_prevents_repartition_collisions() {
        let mut a = Fnv::new();
        a.str("ab");
        a.str("c");
        let mut b = Fnv::new();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn option_tagging_distinguishes_none_from_zero() {
        let mut none = Fnv::new();
        none.opt_f64(None);
        let mut zero = Fnv::new();
        zero.opt_f64(Some(0.0));
        assert_ne!(none.finish(), zero.finish());
    }

    #[test]
    fn matches_the_reference_fnv1a_vectors() {
        // Classic FNV-1a test vectors over raw bytes.
        let digest = |s: &str| {
            let mut h = Fnv::new();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x85944171f73967e8);
    }

    /// The interleaved fold against [`Fnv::bytes`], stream by stream:
    /// unequal lengths (so the tails run), zero-length streams (so the
    /// common prefix is empty) and seeded starting states.
    #[test]
    fn interleaved_lanes_equal_the_serial_fold_per_stream() {
        let data: Vec<u8> = (0..700u32)
            .map(|i| (i.wrapping_mul(37) ^ (i >> 3)) as u8)
            .collect();
        let length_sets: [[usize; 4]; 6] = [
            [0, 0, 0, 0],
            [5, 5, 5, 5],
            [0, 7, 300, 600],
            [600, 1, 599, 64],
            [17, 0, 17, 18],
            [513, 600, 511, 600],
        ];
        for lens in length_sets {
            let streams: [&[u8]; 4] = std::array::from_fn(|i| &data[i * 7..i * 7 + lens[i]]);
            let mut accs: [Fnv; 4] = std::array::from_fn(|i| {
                let mut a = Fnv::new();
                a.u64(i as u64);
                a
            });
            let mut serial = accs.clone();
            Fnv::bytes_interleaved(&mut accs, streams);
            for (acc, stream) in serial.iter_mut().zip(streams) {
                acc.bytes(stream);
            }
            for (i, (acc, serial)) in accs.iter().zip(&serial).enumerate() {
                assert_eq!(acc.finish(), serial.finish(), "stream {i} of {lens:?}");
            }
        }
        // Fewer lanes fold the same way.
        let mut two = [Fnv::new(), Fnv::new()];
        Fnv::bytes_interleaved(&mut two, [&data[..9], &data[100..]]);
        let mut a = Fnv::new();
        a.bytes(&data[..9]);
        let mut b = Fnv::new();
        b.bytes(&data[100..]);
        assert_eq!([two[0].finish(), two[1].finish()], [a.finish(), b.finish()]);
    }
}
