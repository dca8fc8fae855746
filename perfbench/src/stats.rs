//! Order statistics, the seeded random streams, and the rate-ladder search:
//! the pure parts of the benchmark, kept free of I/O so the self-tests can
//! pin them.

use std::time::Duration;

/// SplitMix64: the one seeded stream every workload draws from, so the
/// same `--seed` always yields the same graphs, sources and schedules.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// An exponential gap with mean `1 / rate`.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// A Zipf(`s`) draw over ranks `0..n`: rank `r` has weight `1 / (r+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Arrival offsets of an open-loop Poisson process at `rate` per second
/// over `span`, from the given stream.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, span: Duration) -> Vec<Duration> {
    let end = span.as_secs_f64();
    let mut t = rng.exp_gap(rate);
    let mut out = Vec::new();
    while t < end {
        out.push(Duration::from_secs_f64(t));
        t += rng.exp_gap(rate);
    }
    out
}

/// The ladder's staircase: step `k` offers Poisson arrivals at `rates[k]`
/// for `step`, starting at `k * step`, with no pause between steps.
/// Returns each arrival's step index and offset from the start.
pub fn staircase(rng: &mut Rng, rates: &[f64], step: Duration) -> Vec<(usize, Duration)> {
    rates
        .iter()
        .enumerate()
        .flat_map(|(k, &r)| {
            let base = step * k as u32;
            poisson_schedule(rng, r, step)
                .into_iter()
                .map(move |d| (k, base + d))
        })
        .collect()
}

/// Median of a sample (the mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Number of samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a sample: the value at the highest percentile that still has
/// at least [`TAIL_BEYOND`] samples above it. Returns `(value, percentile)`;
/// `None` when the sample is too small to have such a percentile.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = n - 1 - TAIL_BEYOND;
    // The percentile whose nearest-rank value is v[idx].
    let pct = 100.0 * (idx + 1) as f64 / n as f64;
    Some((v[idx], pct))
}

/// The outcome of one rate step of the ladder.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Median read latency of the step's requests, in the limit's unit;
    /// infinite when one of them failed, was refused, or never answered.
    pub latency: f64,
    /// Requests due by the end of the step but not yet answered then.
    pub backlog: usize,
}

impl Step {
    /// Whether the step meets the latency limit without a growing backlog.
    /// The backlog allowance is what Little's law gives for requests that
    /// each stay at most `limit` in the system, plus two.
    pub fn passes(&self, limit: f64) -> bool {
        let allowed = (self.rate * limit).ceil() as usize + 2;
        self.latency <= limit && self.backlog <= allowed
    }
}

/// The highest sustainable rate given ladder steps in ascending rate order.
///
/// Walks up to the first failing step and interpolates, linearly in
/// log-rate, where the latency crosses `limit` between the last passing
/// step and the first failing one (a backlog failure counts as a latency
/// of twice the limit). Returns the top rate when every step passes,
/// and zero when the first step already fails.
pub fn slo_rate(steps: &[Step], limit: f64) -> f64 {
    let mut last_pass: Option<Step> = None;
    for s in steps {
        if s.passes(limit) {
            last_pass = Some(*s);
            continue;
        }
        let Some(p) = last_pass else {
            return 0.0;
        };
        let fail_latency = if s.latency.is_finite() && s.latency > limit {
            s.latency
        } else {
            2.0 * limit
        };
        let frac = ((limit - p.latency) / (fail_latency - p.latency)).clamp(0.0, 1.0);
        return (p.rate.ln() + frac * (s.rate.ln() - p.rate.ln())).exp();
    }
    last_pass.map_or(0.0, |p| p.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, pct) = tail(&xs).unwrap();
        assert_eq!(v, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((pct - 90.0).abs() < 1e-9);
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(tail(&rev).unwrap().0, 90.0);
        // 11 samples: the smallest is the only value with ten beyond it.
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven).unwrap().0, 0.0);
        assert!(tail(&eleven[..10]).is_none());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn poisson_schedule_is_deterministic_in_its_seed() {
        let span = Duration::from_secs(20);
        let a = poisson_schedule(&mut Rng::new(7, 1), 50.0, span);
        let b = poisson_schedule(&mut Rng::new(7, 1), 50.0, span);
        assert_eq!(a, b);
        let c = poisson_schedule(&mut Rng::new(8, 1), 50.0, span);
        assert_ne!(a, c);
        // About rate × span arrivals, strictly increasing, inside the span.
        assert!((900..1100).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(*a.last().unwrap() < span);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(32, 1.1);
        let mut rng = Rng::new(3, 0);
        let mut counts = [0usize; 32];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[8] && counts[8] > counts[31]);
    }

    #[test]
    fn slo_rate_interpolates_the_limit_crossing() {
        let step = |rate, latency| Step {
            rate,
            latency,
            backlog: 0,
        };
        // Crossing halfway (in latency) between 10/s and 20/s.
        let r = slo_rate(&[step(10.0, 50.0), step(20.0, 150.0)], 100.0);
        assert!((r - (10.0f64.ln() * 0.5 + 20.0f64.ln() * 0.5).exp()).abs() < 1e-9);
        // All steps pass: the top rate. First step fails: zero.
        assert_eq!(slo_rate(&[step(10.0, 1.0), step(20.0, 2.0)], 100.0), 20.0);
        assert_eq!(slo_rate(&[step(10.0, 500.0)], 100.0), 0.0);
        // A growing backlog fails a step whose tail looks fine.
        let backlogged = Step {
            rate: 20.0,
            latency: 10.0,
            backlog: 50,
        };
        assert!(!backlogged.passes(0.1));
        let r = slo_rate(&[step(10.0, 0.05), backlogged], 0.1);
        assert!(r > 10.0 && r < 20.0);
    }
}
