//! Seeded inputs and the client-side references the outputs are checked
//! against. Everything the fleet receives is generated here from the
//! workload seed; the program under test sees only the records.

use std::collections::{HashMap, HashSet};

/// SplitMix64: tiny, seedable, and identical on every platform.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn letters(&mut self, len: usize, alphabet: &[u8]) -> Vec<u8> {
        (0..len)
            .map(|_| alphabet[self.below(alphabet.len() as u64) as usize])
            .collect()
    }
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";

/// Lines in each job corpus.
pub const LINES: usize = 20_000;
/// Tokens per line of the zipf corpus.
pub const TOKENS_PER_LINE: usize = 8;
/// Distinct words the zipf corpus draws from.
pub const VOCAB: usize = 1_024;
/// Unique tokens per line of the unique-heavy corpus (80K in all).
pub const UNIQUE_PER_LINE: usize = 4;
/// Rows the `recover` workload loads per cycle.
pub const USER_ROWS: usize = 20_000;

/// `VOCAB` distinct two- and three-letter words, most frequent first.
fn vocabulary(rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut seen = HashSet::new();
    let mut words = Vec::with_capacity(VOCAB);
    while words.len() < VOCAB {
        let len = 2 + rng.below(2) as usize;
        let w = rng.letters(len, LOWER);
        if seen.insert(w.clone()) {
            words.push(w);
        }
    }
    words
}

/// Draws word ranks by the Zipf–Mandelbrot law, probability ∝
/// 1/(rank + 1 + `SHIFT`): a power-law tail with heavy repetition, so a
/// source-side combine has real work to do. The shift flattens the head
/// (the top word is ~1.2% of tokens; plain Zipf gives it 13%). With a
/// steep head, which node the top words hash to decides whether that
/// node's ingest spills: across 100 corpora at shift 2.7 the hottest of
/// 3 nodes took 1.03–1.44× the mean share, and corpora past ~1.3× ran
/// each job in 1.7× the time. At shift 20 the range is 1.03–1.24×.
struct Zipf {
    cumulative: Vec<f64>,
}

const SHIFT: f64 = 20.0;

impl Zipf {
    fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                acc += 1.0 / (r as f64 + 1.0 + SHIFT);
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

fn join_tokens(tokens: &[&[u8]]) -> Vec<u8> {
    tokens.join(&b' ')
}

/// `LINES` lines of `TOKENS_PER_LINE` zipf-drawn words (~540 KB).
/// `variant` picks one of several independent corpora per seed.
pub fn zipf_corpus(seed: u64, variant: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed, 1 + 16 * variant);
    let vocab = vocabulary(&mut rng);
    let zipf = Zipf::new(VOCAB);
    (0..LINES)
        .map(|_| {
            let words: Vec<&[u8]> = (0..TOKENS_PER_LINE)
                .map(|_| vocab[zipf.draw(&mut rng)].as_slice())
                .collect();
            join_tokens(&words)
        })
        .collect()
}

/// `LINES` lines of two zipf words around `UNIQUE_PER_LINE` tokens that
/// occur exactly once in the corpus (80K distinct keys): the per-mapper
/// reduce accumulators are many times a 64 KB pool.
pub fn unique_heavy_corpus(seed: u64, variant: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed, 2 + 16 * variant);
    let vocab = vocabulary(&mut rng);
    let zipf = Zipf::new(VOCAB);
    let mut seen = HashSet::new();
    (0..LINES)
        .map(|_| {
            let mut owned: Vec<Vec<u8>> = Vec::with_capacity(UNIQUE_PER_LINE + 2);
            owned.push(vocab[zipf.draw(&mut rng)].clone());
            while owned.len() < UNIQUE_PER_LINE + 1 {
                // Seven characters with a leading 'u': never a vocabulary
                // word, and re-drawn on the rare collision.
                let mut t = b"u".to_vec();
                t.extend(rng.letters(6, ALNUM));
                if seen.insert(t.clone()) {
                    owned.push(t);
                }
            }
            owned.push(vocab[zipf.draw(&mut rng)].clone());
            let words: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
            join_tokens(&words)
        })
        .collect()
}

/// `USER_ROWS` rows `id|handle|profile`, keyed by `id` and replicated by
/// `handle`. The id lengths are invented, not taken from a measured
/// population: one id in three is exactly 8 bytes, to put a known share
/// of keys on the hash's 8-byte path, and the rest spread evenly over
/// 5–7 and 9–12 bytes. The profile pads a row to ~250 bytes so one
/// slot's recovery moves several MB.
pub fn user_rows(seed: u64) -> Vec<Vec<u8>> {
    const OTHER_LENS: [usize; 7] = [5, 6, 7, 9, 10, 11, 12];
    let mut rng = Rng::new(seed, 3);
    let mut ids = HashSet::new();
    let mut rows = Vec::with_capacity(USER_ROWS);
    while rows.len() < USER_ROWS {
        let len = if rng.below(3) == 0 {
            8
        } else {
            OTHER_LENS[rng.below(OTHER_LENS.len() as u64) as usize]
        };
        let mut id = b"u".to_vec();
        id.extend(rng.letters(len - 1, ALNUM));
        if !ids.insert(id.clone()) {
            continue;
        }
        let handle_len = 6 + rng.below(9) as usize;
        let profile_len = 200 + rng.below(60) as usize;
        let mut row = id;
        row.push(b'|');
        row.extend(rng.letters(handle_len, LOWER));
        row.push(b'|');
        row.extend(rng.letters(profile_len, ALNUM));
        rows.push(row);
    }
    rows
}

/// An order-independent digest of a record multiset: count plus two
/// wrapping sums of independent 64-bit hashes. Equal multisets always
/// match; a missing, extra or altered record changes both sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub count: u64,
    sum_a: u64,
    sum_b: u64,
}

impl Digest {
    pub fn add(&mut self, rec: &[u8]) {
        let (mut a, mut b) = (0x243F_6A88_85A3_08D3u64, 0x1319_8A2E_0370_7344u64);
        for &byte in rec {
            a = mix64(a ^ byte as u64);
            b = (b ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.count += 1;
        self.sum_a = self.sum_a.wrapping_add(mix64(a ^ rec.len() as u64));
        self.sum_b = self.sum_b.wrapping_add(mix64(b));
    }

    pub fn of<'a>(records: impl IntoIterator<Item = &'a [u8]>) -> Self {
        let mut d = Digest::default();
        for r in records {
            d.add(r);
        }
        d
    }
}

/// Every space-separated token of the corpus, in order (the reference
/// for a tokenize map).
pub fn tokens(corpus: &[Vec<u8>]) -> impl Iterator<Item = &[u8]> {
    corpus
        .iter()
        .flat_map(|line| line.split(|&b| b == b' ').filter(|t| !t.is_empty()))
}

/// The expected output of a per-token count: `word|count` records.
pub fn word_count_records(corpus: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut counts: HashMap<&[u8], u64> = HashMap::new();
    for t in tokens(corpus) {
        *counts.entry(t).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .map(|(word, n)| {
            let mut rec = word.to_vec();
            rec.push(b'|');
            rec.extend(n.to_string().into_bytes());
            rec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(zipf_corpus(7, 0), zipf_corpus(7, 0));
        assert_ne!(zipf_corpus(7, 0), zipf_corpus(8, 0));
        assert_ne!(zipf_corpus(7, 0), zipf_corpus(7, 1));
        assert_eq!(user_rows(7), user_rows(7));
    }

    #[test]
    fn unique_heavy_has_the_stated_key_count() {
        let corpus = unique_heavy_corpus(3, 0);
        let distinct: HashSet<&[u8]> = tokens(&corpus).filter(|t| t.len() == 7).collect();
        assert_eq!(distinct.len(), LINES * UNIQUE_PER_LINE);
    }

    #[test]
    fn some_user_ids_are_exactly_eight_bytes() {
        let rows = user_rows(1);
        let eight = rows
            .iter()
            .filter(|r| r.iter().position(|&b| b == b'|') == Some(8))
            .count();
        assert!(eight > USER_ROWS / 5, "{eight}");
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = Digest::of([&b"x"[..], b"y", b"y"]);
        assert_eq!(a, Digest::of([&b"y"[..], b"x", b"y"]));
        assert_ne!(a, Digest::of([&b"y"[..], b"x", b"x"]));
        assert_ne!(a, Digest::of([&b"x"[..], b"y"]));
    }
}
