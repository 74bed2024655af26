//! Seeded input generation: every node pair, Poisson gap and ingest stream
//! the workloads send comes from here, so one `--seed` always yields the
//! same inputs. A local SplitMix64 (not the vendored `rand` shim) keeps the
//! streams fixed even if that shim's generator changes.

/// SplitMix64: tiny, full-period, and good enough for load generation.
pub struct Rng(u64);

impl Rng {
    /// One independent stream per `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Due times (ns from phase start) of a Poisson process of `rate_per_s`
/// over `seconds`: exponential gaps, so bursts and lulls both occur.
pub fn poisson_schedule(rng: &mut Rng, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize + 1);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate_per_s;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// The node id ranges a workload draws from, read off the seed events.
pub struct NodeSpace {
    /// Distinct source ids, ascending; Zipf rank 0 is `srcs[0]`.
    pub srcs: Vec<u32>,
    /// Distinct destination ids, ascending.
    pub dsts: Vec<u32>,
    /// Timestamp of the last seed event.
    pub t_last: f64,
}

impl NodeSpace {
    pub fn from_events(events: &[(u32, u32, f64)]) -> Self {
        let mut srcs: Vec<u32> = events.iter().map(|e| e.0).collect();
        let mut dsts: Vec<u32> = events.iter().map(|e| e.1).collect();
        srcs.sort_unstable();
        srcs.dedup();
        dsts.sort_unstable();
        dsts.dedup();
        let t_last = events.iter().map(|e| e.2).fold(0.0, f64::max);
        NodeSpace { srcs, dsts, t_last }
    }
}

/// How a workload picks its source nodes.
#[derive(Clone, Copy)]
pub enum SrcDist {
    /// Hot roots: a few sources dominate (cache-friendly).
    Zipf(f64),
    /// Every source equally likely (cache-hostile working set).
    Uniform,
}

/// `count` `(src, dst)` pairs: sources per `dist`, destinations uniform.
pub fn node_pairs(
    rng: &mut Rng,
    space: &NodeSpace,
    dist: SrcDist,
    count: usize,
) -> Vec<(u32, u32)> {
    let zipf = match dist {
        SrcDist::Zipf(s) => Some(Zipf::new(space.srcs.len(), s)),
        SrcDist::Uniform => None,
    };
    (0..count)
        .map(|_| {
            let s = match &zipf {
                Some(z) => z.sample(rng),
                None => rng.below(space.srcs.len()),
            };
            (space.srcs[s], space.dsts[rng.below(space.dsts.len())])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_per_seed_and_differs_across_seeds() {
        let a = poisson_schedule(&mut Rng::new(1, 7), 200.0, 5.0);
        let b = poisson_schedule(&mut Rng::new(1, 7), 200.0, 5.0);
        let c = poisson_schedule(&mut Rng::new(2, 7), 200.0, 5.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 5_000_000_000);
        // mean rate within 15% of nominal over 1000 expected arrivals
        assert!((a.len() as f64 - 1000.0).abs() < 150.0, "{}", a.len());
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 1.1);
        let mut rng = Rng::new(3, 0);
        let mut hits = [0usize; 100];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[9] && hits[9] > hits[99]);
        assert!(
            hits[0] > 20_000 / 10,
            "rank 0 should take >10%: {}",
            hits[0]
        );
    }

    #[test]
    fn node_pairs_stay_inside_the_space() {
        let space = NodeSpace::from_events(&[(0, 10, 1.0), (3, 11, 2.0), (0, 12, 5.0)]);
        assert_eq!(
            (space.srcs.len(), space.dsts.len(), space.t_last),
            (2, 3, 5.0)
        );
        let mut rng = Rng::new(9, 1);
        for dist in [SrcDist::Zipf(1.1), SrcDist::Uniform] {
            for (s, d) in node_pairs(&mut rng, &space, dist, 200) {
                assert!(space.srcs.contains(&s) && space.dsts.contains(&d));
            }
        }
    }
}
