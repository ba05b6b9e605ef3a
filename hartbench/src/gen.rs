//! The benchmark's own seeded input generators: a splitmix64 PRNG,
//! 62-symbol Random keys, a Zipf sampler, op streams with precomputed
//! expected results, and a digest proving two runs saw the same inputs.
//!
//! They live here rather than in the repository's generator crates so an
//! edit there can never move this yardstick.

use hart::{Key, Value};
use std::collections::HashSet;

/// The paper's Random-workload alphabet.
pub const ALPHABET: &[u8; 62] = b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";

/// splitmix64 (Steele, Lea & Flood): tiny, fast, and fully determined by
/// its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose (`tag`) of one seed.
    pub fn derive(seed: u64, tag: &str) -> Rng {
        let mut d = Digest::new();
        d.bytes(tag.as_bytes());
        Rng::new(seed ^ d.0)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (Lemire's multiply-shift; bias < 2⁻³²).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` distinct Random keys: length uniform in 5..=16, symbols uniform over
/// [`ALPHABET`] (the paper's §IV-B Random workload).
pub fn random_keys(n: usize, rng: &mut Rng) -> Vec<Key> {
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    let mut buf = [0u8; 16];
    while out.len() < n {
        let len = 5 + rng.below(12) as usize;
        for b in &mut buf[..len] {
            *b = ALPHABET[rng.below(62) as usize];
        }
        let k = Key::new(&buf[..len]).expect("alphabet keys are valid");
        if seen.insert(k) {
            out.push(k);
        }
    }
    out
}

/// The value a write of `version` stores under key index `key`: both halves
/// are checked on read, so a value from the wrong key or the wrong write
/// cannot pass.
pub fn value(key: u32, version: u32) -> Value {
    Value::from_u64(((key as u64) << 32) | version as u64)
}

/// YCSB's Zipfian generator (Gray et al., "Quickly generating
/// billion-record synthetic databases"): rank 0 is the most popular of
/// `0..n`. The workloads use a rank as a key index, and key indices name
/// seeded [`random_keys`], so the hot set is one fixed, seeded scatter over
/// the key space, as in YCSB's scrambled Zipfian.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0, "zipf parameters");
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// Probability of rank 0.
    #[cfg(test)]
    pub fn p_top(&self) -> f64 {
        1.0 / self.zetan
    }
}

/// One embedded op, as a key index into the workload's key table plus the
/// write version it stores or the version a read must return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Insert a key not in the tree; must return `Ok`.
    Insert { key: u32, version: u32 },
    /// Search a live key; must return `value(key, version)`.
    Search { key: u32, version: u32 },
    /// Update a live key; must return `Ok(true)`.
    Update { key: u32, version: u32 },
    /// Delete a live key; must return `Ok(true)`.
    Delete { key: u32 },
    /// Scan `limit` rows from a live key to the end of the key space.
    Scan { key: u32, limit: u32 },
}

/// Op classes, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    Insert,
    Search,
    Update,
    Delete,
    Scan,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Insert,
        Class::Search,
        Class::Update,
        Class::Delete,
        Class::Scan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Insert => "insert",
            Class::Search => "search",
            Class::Update => "update",
            Class::Delete => "delete",
            Class::Scan => "scan",
        }
    }

    pub fn is_read(self) -> bool {
        matches!(self, Class::Search | Class::Scan)
    }
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Insert { .. } => Class::Insert,
            Op::Search { .. } => Class::Search,
            Op::Update { .. } => Class::Update,
            Op::Delete { .. } => Class::Delete,
            Op::Scan { .. } => Class::Scan,
        }
    }

    pub fn key(&self) -> u32 {
        match *self {
            Op::Insert { key, .. }
            | Op::Search { key, .. }
            | Op::Update { key, .. }
            | Op::Delete { key }
            | Op::Scan { key, .. } => key,
        }
    }

    fn feed(&self, d: &mut Digest, keys: &[Key]) {
        let (tag, a) = match *self {
            Op::Insert { version, .. } => (1u8, version),
            Op::Search { version, .. } => (2, version),
            Op::Update { version, .. } => (3, version),
            Op::Delete { .. } => (4, 0),
            Op::Scan { limit, .. } => (5, limit),
        };
        d.bytes(&[tag]);
        d.bytes(keys[self.key() as usize].as_slice());
        d.u64(a as u64);
    }
}

/// Expected live state of every key (`None` = absent), advanced op by op
/// while a stream is generated or replayed.
#[derive(Clone, Debug)]
pub struct Live {
    version: Vec<Option<u32>>,
    /// Live key indices, for uniform picks; `pos` maps key → slot.
    members: Vec<u32>,
    pos: Vec<u32>,
}

const NOT_LIVE: u32 = u32::MAX;

impl Live {
    pub fn new(n_keys: usize) -> Live {
        Live {
            version: vec![None; n_keys],
            members: Vec::new(),
            pos: vec![NOT_LIVE; n_keys],
        }
    }

    /// Keys `0..n`, all live at `version`.
    pub fn full(n: usize, version: u32) -> Live {
        let mut live = Live::new(n);
        for key in 0..n as u32 {
            live.apply(&Op::Insert { key, version });
        }
        live
    }

    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn version(&self, key: u32) -> Option<u32> {
        self.version.get(key as usize).copied().flatten()
    }

    pub fn pick(&self, rng: &mut Rng) -> u32 {
        self.members[rng.below(self.members.len() as u64) as usize]
    }

    /// Apply one op's effect (reads change nothing). Inserts may name keys
    /// past the initial capacity.
    pub fn apply(&mut self, op: &Op) {
        match *op {
            Op::Insert { key, version } => {
                if key as usize >= self.version.len() {
                    self.version.resize(key as usize + 1, None);
                    self.pos.resize(key as usize + 1, NOT_LIVE);
                }
                debug_assert!(self.version[key as usize].is_none(), "insert of a live key");
                self.version[key as usize] = Some(version);
                self.pos[key as usize] = self.members.len() as u32;
                self.members.push(key);
            }
            Op::Update { key, version } => self.version[key as usize] = Some(version),
            Op::Delete { key } => {
                self.version[key as usize] = None;
                let slot = std::mem::replace(&mut self.pos[key as usize], NOT_LIVE) as usize;
                let last = self.members.pop().expect("delete from an empty live set");
                if last != key {
                    self.members[slot] = last;
                    self.pos[last as usize] = slot as u32;
                }
            }
            Op::Search { .. } | Op::Scan { .. } => {}
        }
    }

    /// Every live key with its version, ascending by key index.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.version
            .iter()
            .enumerate()
            .filter_map(|(k, v)| v.map(|v| (k as u32, v)))
    }
}

/// FNV-1a/64 over everything that defines a workload's inputs.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn ops(&mut self, ops: &[Op], keys: &[Key]) {
        self.u64(ops.len() as u64);
        for op in ops {
            op.feed(self, keys);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_distinct_in_alphabet_and_seeded() {
        let a = random_keys(5000, &mut Rng::new(1));
        let b = random_keys(5000, &mut Rng::new(1));
        let c = random_keys(5000, &mut Rng::new(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), a.len());
        for k in &a {
            assert!((5..=16).contains(&k.len()));
            assert!(k.as_slice().iter().all(|b| ALPHABET.contains(b)));
        }
    }

    #[test]
    fn zipf_stays_in_range_and_is_skewed() {
        let n = 1000;
        let z = Zipf::new(n, 0.99);
        let mut rng = Rng::new(9);
        let mut counts = vec![0u64; n as usize];
        let draws = 200_000;
        for _ in 0..draws {
            let r = z.sample(&mut rng);
            assert!(r < n);
            counts[r as usize] += 1;
        }
        // Rank 0 is drawn with probability 1/zeta(n) (within 5 %).
        let p0 = counts[0] as f64 / draws as f64;
        assert!(
            (p0 / z.p_top() - 1.0).abs() < 0.05,
            "p0 {p0} vs {}",
            z.p_top()
        );
        // Popularity falls with rank, and the top 1 % of ranks draws far
        // more than its uniform 1 % share.
        assert!(counts[0] > counts[1] && counts[1] > counts[9] && counts[9] > counts[99]);
        let top: u64 = counts[..10].iter().sum();
        assert!(top as f64 / draws as f64 > 0.3, "top-1% share {top}");
        // Every rank stays reachable: the tail is not cut off.
        assert!(counts[n as usize / 2..].iter().sum::<u64>() > 0);
    }

    #[test]
    fn live_set_tracks_inserts_updates_and_deletes() {
        let mut live = Live::new(4);
        for key in 0..3 {
            live.apply(&Op::Insert { key, version: 1 });
        }
        live.apply(&Op::Update { key: 1, version: 7 });
        live.apply(&Op::Delete { key: 0 });
        assert_eq!(live.len(), 2);
        assert_eq!(live.version(0), None);
        assert_eq!(live.iter().collect::<Vec<_>>(), vec![(1, 7), (2, 1)]);
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            assert!(matches!(live.pick(&mut rng), 1 | 2));
        }
    }

    #[test]
    fn values_bind_key_and_version() {
        assert_ne!(value(1, 2), value(2, 1));
        assert_eq!(value(3, 4).as_u64(), (3 << 32) | 4);
    }
}
