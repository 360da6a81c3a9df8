//! The seeded query generator.
//!
//! Each workload draws its queries from a fixed pool of requirements laid
//! out in strata: one stratum per load of the Fig. 6 grid for the
//! enterprise workloads, one per band of deadlines for the job workload.
//! The pool comes from a constant seed, so reference answers can be
//! recorded for every query in it ([`crate::reference`]). The run seed
//! decides the order: each round visits every stratum once, in a shuffled
//! order, and takes that stratum's next requirement. Within a stratum the
//! requirements are ranked by their limit and visited by a fixed stride
//! from a start drawn from the seed, so however many a run asks, they
//! spread evenly across the stratum. No requirement repeats until its
//! stratum is used up, and every run asks nearly the same mix of loads and
//! limits whatever its seed. The mix sets what a query costs; the seed only
//! picks which queries fill it.

use aved::units::Duration;
use aved::ServiceRequirement;

use crate::reference::fnv1a;
use crate::workload::Workload;

/// Seed of the pool generator. Changing it changes every pooled query and
/// invalidates the recorded reference answers.
const POOL_SEED: u64 = 0xA7ED_2004_5EED;

/// Step of the Fig. 6 load grid (200, 400, ..., 5000 units).
const LOAD_STEP: u32 = 200;

/// One design query: the requirement `aved design` receives.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Position in the workload's pool.
    pub id: usize,
    /// Required throughput, for enterprise queries.
    pub load: Option<u32>,
    /// The downtime budget (`--max-downtime`) or the job deadline
    /// (`--max-execution-time`), in the spec's duration syntax.
    pub limit: String,
}

impl Query {
    /// The requirement, parsed from the strings the CLI would parse.
    ///
    /// # Panics
    ///
    /// Panics if the limit is not a duration, which the generator never
    /// produces.
    #[must_use]
    pub fn requirement(&self) -> ServiceRequirement {
        let limit = self.limit();
        match self.load {
            Some(load) => ServiceRequirement::enterprise(f64::from(load), limit),
            None => ServiceRequirement::job(limit),
        }
    }

    fn limit(&self) -> Duration {
        self.limit
            .parse()
            .expect("generated limits are valid durations")
    }

    /// The requirement flags of the equivalent `aved design` command.
    #[must_use]
    pub fn cli_args(&self) -> Vec<String> {
        match self.load {
            Some(load) => vec![
                "--load".into(),
                load.to_string(),
                "--max-downtime".into(),
                self.limit.clone(),
            ],
            None => vec!["--max-execution-time".into(), self.limit.clone()],
        }
    }
}

/// SplitMix64: small, fast and well mixed — enough to draw benchmark inputs
/// reproducibly from a seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator started at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1_u64 << 53) as f64
    }

    /// Uniform in `0..n`, by multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// How a workload's pool is laid out: `strata × per_stratum` queries.
#[derive(Debug, Clone, Copy)]
struct Shape {
    strata: usize,
    per_stratum: usize,
}

fn shape(workload: Workload) -> Shape {
    match workload {
        // All 25 loads of the Fig. 6 grid.
        Workload::EcommerceDefault => Shape {
            strata: 25,
            per_stratum: 128,
        },
        // Thirty-nine equal log bands of 1–1000 h, each 0.077 decades
        // wide. Query cost swings tenfold within a decade of deadline (it
        // peaks near 1 h and near the 10–20 h crossover between resource
        // types), so narrow bands keep every run's share of slow queries,
        // and with it the tail, nearly fixed. An odd count puts a run's
        // median inside one band instead of in the gap between two.
        Workload::ScientificJob => Shape {
            strata: 39,
            per_stratum: 48,
        },
        // The lower part of the grid (200–1000): exact solves are slow
        // enough that a run holds only a few rounds.
        Workload::EcommerceExact => Shape {
            strata: 5,
            per_stratum: 64,
        },
    }
}

/// The workload's query pool; query `id` belongs to stratum
/// `id / per_stratum`.
#[must_use]
pub fn pool(workload: Workload) -> Vec<Query> {
    let Shape {
        strata,
        per_stratum,
    } = shape(workload);
    let mut rng = SplitMix64::new(POOL_SEED ^ fnv1a(workload.name().as_bytes()));
    let mut out = Vec::with_capacity(strata * per_stratum);
    for stratum in 0..strata {
        for _ in 0..per_stratum {
            let id = out.len();
            out.push(if workload == Workload::ScientificJob {
                // Deadlines log-uniform over 1–1000 h, one band per stratum.
                let u = (stratum as f64 + rng.next_f64()) / strata as f64;
                Query {
                    id,
                    load: None,
                    limit: format!("{:.4}h", 10_f64.powf(3.0 * u)),
                }
            } else {
                // Budgets log-uniform over 0.1–10⁴ min/yr at each load.
                let minutes = 10_f64.powf(-1.0 + 5.0 * rng.next_f64());
                Query {
                    id,
                    load: Some(LOAD_STEP * (stratum as u32 + 1)),
                    limit: format!("{minutes:.4}m"),
                }
            });
        }
    }
    out
}

/// The order in which one run asks a workload's pooled queries, drawn from
/// the run seed. Endless: a used-up stratum is restarted at a new offset.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: SplitMix64,
    round: Vec<usize>,
    pos: usize,
    /// Each stratum's pool ids, in order of their limit.
    ranked: Vec<Vec<usize>>,
    stride: usize,
    offsets: Vec<usize>,
    cursors: Vec<usize>,
}

/// A stride near `n / φ` that is coprime with `n`: stepping by it from any
/// start visits each of `0..n` once, and any number of consecutive steps
/// spreads nearly evenly over `0..n`.
fn spread_stride(n: usize) -> usize {
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut stride = ((n as f64 * 0.618).round() as usize).max(1);
    while gcd(stride, n) != 1 {
        stride += 1;
    }
    stride
}

impl Stream {
    /// The query order for `workload` under run seed `seed`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let Shape {
            strata,
            per_stratum,
        } = shape(workload);
        let pool = pool(workload);
        let ranked = (0..strata)
            .map(|stratum| {
                let mut ids: Vec<usize> =
                    (stratum * per_stratum..(stratum + 1) * per_stratum).collect();
                ids.sort_by(|&a, &b| {
                    let seconds = |id: usize| pool[id].limit().seconds();
                    seconds(a).total_cmp(&seconds(b))
                });
                ids
            })
            .collect();
        let mut rng = SplitMix64::new(seed);
        let offsets = (0..strata).map(|_| rng.below(per_stratum)).collect();
        Stream {
            rng,
            round: (0..strata).collect(),
            pos: strata,
            ranked,
            stride: spread_stride(per_stratum),
            offsets,
            cursors: vec![0; strata],
        }
    }

    /// `true` when the next query starts a new round: the queries asked so
    /// far cover every stratum equally often.
    #[must_use]
    pub fn at_round_start(&self) -> bool {
        self.pos == self.round.len()
    }

    /// The pool id of the next query to ask.
    pub fn next_id(&mut self) -> usize {
        if self.pos == self.round.len() {
            self.rng.shuffle(&mut self.round);
            self.pos = 0;
        }
        let stratum = self.round[self.pos];
        self.pos += 1;
        let ranked = &self.ranked[stratum];
        if self.cursors[stratum] == ranked.len() {
            self.offsets[stratum] = self.rng.below(ranked.len());
            self.cursors[stratum] = 0;
        }
        let k = (self.offsets[stratum] + self.cursors[stratum] * self.stride) % ranked.len();
        self.cursors[stratum] += 1;
        ranked[k]
    }
}
