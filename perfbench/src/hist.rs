//! A fixed-size log-linear latency histogram.
//!
//! Values below 2^SUB_BITS nanoseconds get a bucket each; above that,
//! every power of two is cut into 2^SUB_BITS equal buckets, so a bucket
//! is at most 1/32 of its value wide. Quantiles interpolate linearly
//! inside the bucket that holds the rank. The histogram's size does not
//! depend on how many samples it takes, so the benchmark's own memory
//! stays constant however fast the engine runs.

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Powers of two above the linear range: values up to 2^40 ns (~18 min).
const OCTAVES: usize = 40 - SUB_BITS as usize;
const BUCKETS: usize = SUB + OCTAVES * SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u32; BUCKETS]>,
    n: u64,
    sum: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: Box::new([0; BUCKETS]),
            n: 0,
            sum: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let octave = (63 - v.leading_zeros()) as usize - SUB_BITS as usize;
    if octave >= OCTAVES {
        return BUCKETS - 1;
    }
    let sub = (v >> octave) as usize - SUB;
    SUB + octave * SUB + sub
}

/// Lower bound and width of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let (octave, sub) = ((i - SUB) / SUB, (i - SUB) % SUB);
    let width = (1u64 << octave) as f64;
    ((SUB + sub) as f64 * width, width)
}

impl Hist {
    /// An empty histogram whose buckets are already written, so they are
    /// resident before memory is measured rather than faulted in later.
    pub fn resident() -> Self {
        let mut h = Hist::default();
        for c in h.counts.iter_mut() {
            *c = std::hint::black_box(0);
        }
        h
    }

    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.n += 1;
        self.sum += v;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// The nearest-rank `q` quantile (`q` in 0..=1), placed inside its
    /// bucket by the rank's position among the bucket's samples. An
    /// empty histogram reads 0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if below + c >= rank {
                let (lo, width) = bounds(i);
                return lo + width * ((rank - below) as f64 - 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("rank {rank} within {} samples", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for v in [
            0,
            1,
            31,
            32,
            33,
            63,
            64,
            1000,
            12_345,
            1 << 30,
            (1 << 40) - 1,
        ] {
            let (lo, width) = bounds(bucket(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v}: {lo}+{width}"
            );
            assert!(
                width <= (v as f64 / SUB as f64).max(1.0),
                "{v}: width {width}"
            );
        }
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_stay_within_a_bucket_of_exact() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        for (q, exact) in [(0.5, 500_000.0), (0.99, 990_000.0)] {
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 1.0 / SUB as f64,
                "q{q}: {got}"
            );
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.mean(), 500_050.0);
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn merge_adds_samples() {
        let (mut a, mut b) = (Hist::default(), Hist::default());
        a.record(10);
        b.record(20);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.quantile(1.0), 30.5);
    }
}
