//! Seeded workload generation: the engine seed, job sizes, admission
//! lanes and payload values all follow from the `--seed` argument, and the
//! program only ever sees the generated inputs.
//!
//! Every per-job choice is a pure function of `(seed, job index)`, so the
//! sequence a run issues does not depend on how fast the program answers.

use std::time::Duration;

use cgp::Priority;

/// The budget carried by every `Deadline` job.  It is far above any job's
/// queue wait in a closed loop of this size, so no job is ever shed on a
/// healthy build; a shed job counts as failed.
pub const DEADLINE_BUDGET: Duration = Duration::from_secs(1);

/// One step of the SplitMix64 sequence.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes two words into one, for deriving independent per-purpose seeds.
fn derive(seed: u64, tag: u64) -> u64 {
    let mut s = seed ^ tag.rotate_left(32) ^ 0xD1B5_4A32_D192_ED03;
    splitmix64(&mut s);
    splitmix64(&mut s)
}

/// Tags separating the independent streams drawn from one seed.
const TAG_ENGINE: u64 = 1;
const TAG_SIZES: u64 = 2;
const TAG_JOB: u64 = 3;
const TAG_PAYLOAD: u64 = 4;
const TAG_LANE: u64 = 5;

/// The seed the program's permutation engine runs with.
pub fn engine_seed(seed: u64) -> u64 {
    derive(seed, TAG_ENGINE)
}

/// A small deterministic generator for the benchmark's own choices.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform in `0..bound` (`bound > 0`), by widening multiply.
    fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Card `index` of an endless deal from decks of `deck` cards: deck
/// `index / deck` is `0..deck` shuffled by a Fisher–Yates driven from
/// `(stream, index / deck)`, and the card is its `index % deck`-th entry.
fn deal(stream: u64, index: u64, deck: u64) -> usize {
    let mut rng = Rng::new(derive(stream, index / deck));
    let mut cards: Vec<usize> = (0..deck as usize).collect();
    for i in (1..cards.len()).rev() {
        cards.swap(i, rng.below(i as u64 + 1) as usize);
    }
    cards[(index % deck) as usize]
}

/// The payload of one job: item `j` holds `(j ^ xor) * mul` with `mul`
/// odd, a bijection of `j`.  The values look random to the program, yet an
/// expected output can be recomputed from the reference index permutation
/// in one sequential pass, with no copy of the input kept around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadKey {
    xor: u64,
    mul: u64,
}

impl PayloadKey {
    /// The key of job `job` under `seed`.
    pub fn for_job(seed: u64, job: u64) -> Self {
        let a = derive(derive(seed, TAG_PAYLOAD), job);
        PayloadKey {
            xor: a,
            mul: derive(a, job) | 1,
        }
    }

    #[inline]
    pub fn value(&self, j: u64) -> u64 {
        (j ^ self.xor).wrapping_mul(self.mul)
    }

    /// Writes the `n` payload items into `out`, reusing its allocation.
    pub fn fill(&self, n: usize, out: &mut Vec<u64>) {
        out.clear();
        out.extend((0..n as u64).map(|j| self.value(j)));
    }

    /// Whether `out` is this payload rearranged by `perm`, i.e.
    /// `out[i] == input[perm[i]]` for every `i`.
    pub fn matches(&self, perm: &[u64], out: &[u64]) -> bool {
        out.len() == perm.len() && perm.iter().zip(out).all(|(&p, &o)| self.value(p) == o)
    }
}

/// Whether `perm` is a permutation of `0..perm.len()`.
pub fn is_permutation(perm: &[u64]) -> bool {
    let mut seen = vec![false; perm.len()];
    perm.iter().all(|&p| {
        let slot = seen.get_mut(p as usize);
        match slot {
            Some(s) if !*s => {
                *s = true;
                true
            }
            _ => false,
        }
    })
}

/// One job of the service tiers' mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    pub size: usize,
    pub priority: Priority,
    pub key: PayloadKey,
}

/// The job mix shared by the `fleet` and `wire` workloads: sizes dealt
/// from a seeded, log-uniform pool of distinct sizes, and lanes ¾ Normal,
/// ⅛ High, ⅛ Deadline.
#[derive(Debug, Clone)]
pub struct Mix {
    seed: u64,
    /// The seeded size pool, sorted and without duplicates.  A bounded pool
    /// lets the benchmark compute one reference permutation per size.
    sizes: Vec<usize>,
}

impl Mix {
    /// A pool of up to `pool` sizes, each `2^x` items for `x` uniform in
    /// `[min_log2, max_log2]`.  The draws are stratified, one per equal
    /// slice of the range, so the pool's mean size (and with it the
    /// work per job) barely moves from seed to seed.
    pub fn new(seed: u64, min_log2: u32, max_log2: u32, pool: usize) -> Self {
        let mut rng = Rng::new(derive(seed, TAG_SIZES));
        let span = (max_log2 - min_log2) as f64;
        let mut sizes: Vec<usize> = (0..pool)
            .map(|i| {
                let x = (i as f64 + rng.unit()) / pool as f64;
                (min_log2 as f64 + span * x).exp2() as usize
            })
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        Mix { seed, sizes }
    }

    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The `job`-th job of the run.
    ///
    /// Sizes and lanes are dealt from shuffled decks: every consecutive
    /// round of `sizes().len()` jobs uses each pool size once, and every
    /// round of 8 jobs has 6 Normal, 1 High and 1 Deadline job, each round
    /// in its own seeded order.  Any stretch of the run then carries close
    /// to the same work, so the latency tail reflects the program rather
    /// than a chance cluster of large jobs.
    pub fn job(&self, job: u64) -> JobSpec {
        let pool = self.sizes.len() as u64;
        let size = self.sizes[deal(derive(self.seed, TAG_JOB), job, pool)];
        let priority = match deal(derive(self.seed, TAG_LANE), job, 8) {
            0 => Priority::High,
            1 => Priority::Deadline(DEADLINE_BUDGET),
            _ => Priority::Normal,
        };
        JobSpec {
            size,
            priority,
            key: PayloadKey::for_job(self.seed, job),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_sizes_lanes_and_payloads() {
        let a = Mix::new(7, 8, 18, 64);
        let b = Mix::new(7, 8, 18, 64);
        assert_eq!(a.sizes(), b.sizes());
        for job in 0..500 {
            assert_eq!(a.job(job), b.job(job));
        }
        let (mut x, mut y) = (Vec::new(), Vec::new());
        a.job(3).key.fill(100, &mut x);
        b.job(3).key.fill(100, &mut y);
        assert_eq!(x, y);
        assert_eq!(engine_seed(7), engine_seed(7));
    }

    #[test]
    fn different_seeds_give_different_sequences() {
        let a = Mix::new(7, 8, 18, 64);
        let b = Mix::new(8, 8, 18, 64);
        assert_ne!(a.sizes(), b.sizes());
        let jobs = |m: &Mix| (0..64).map(|j| m.job(j)).collect::<Vec<_>>();
        assert_ne!(jobs(&a), jobs(&b));
        assert_ne!(PayloadKey::for_job(7, 0), PayloadKey::for_job(8, 0));
        assert_ne!(engine_seed(7), engine_seed(8));
    }

    #[test]
    fn mix_has_the_documented_shape() {
        let mix = Mix::new(11, 8, 18, 64);
        assert!(mix.sizes().len() > 48, "the pool keeps most draws distinct");
        assert!(mix.sizes().iter().all(|&n| (256..=1 << 18).contains(&n)));
        let jobs: Vec<JobSpec> = (0..8000).map(|j| mix.job(j)).collect();
        let share = |p: fn(&Priority) -> bool| {
            jobs.iter().filter(|j| p(&j.priority)).count() as f64 / jobs.len() as f64
        };
        assert!((share(|p| *p == Priority::Normal) - 0.75).abs() < 0.03);
        assert!((share(|p| *p == Priority::High) - 0.125).abs() < 0.02);
        assert!((share(|p| matches!(p, Priority::Deadline(_))) - 0.125).abs() < 0.02);
    }

    #[test]
    fn every_round_deals_each_size_once_and_the_lanes_in_proportion() {
        let mix = Mix::new(13, 8, 18, 64);
        let pool = mix.sizes().len();
        for round in 0..4 {
            let mut sizes: Vec<usize> = (0..pool)
                .map(|i| mix.job((round * pool + i) as u64).size)
                .collect();
            sizes.sort_unstable();
            assert_eq!(sizes, mix.sizes(), "round {round}");
        }
        for round in 0..32u64 {
            let lanes: Vec<Priority> = (0..8).map(|i| mix.job(round * 8 + i).priority).collect();
            assert_eq!(lanes.iter().filter(|p| **p == Priority::High).count(), 1);
            assert_eq!(lanes.iter().filter(|p| **p == Priority::Normal).count(), 6);
        }
    }

    #[test]
    fn payload_check_accepts_the_gather_and_rejects_a_corruption() {
        let key = PayloadKey::for_job(5, 9);
        let perm: Vec<u64> = vec![3, 0, 4, 1, 2];
        assert!(is_permutation(&perm));
        let mut input = Vec::new();
        key.fill(perm.len(), &mut input);
        let mut out: Vec<u64> = perm.iter().map(|&p| input[p as usize]).collect();
        assert!(key.matches(&perm, &out));
        out.swap(0, 1);
        assert!(!key.matches(&perm, &out));
        assert!(!key.matches(&perm, &out[..4]));
        assert!(!is_permutation(&[0, 2, 2]));
        assert!(!is_permutation(&[0, 3, 1]));
    }
}
