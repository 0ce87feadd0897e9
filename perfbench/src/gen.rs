//! Seeded workload generation. Every byte a run submits is built here from
//! the `--seed`, before any timing starts; the same seed always yields the
//! same bytes.
//!
//! The suite designs are the 35 registered ISCAS85/EPFL/ISCAS89 generators
//! written as BLIF. The seed renames their internal signals, which changes
//! the bytes but not the canonical digest, so a renamed resubmission is a
//! cache hit.

use std::collections::HashSet;

use xsfq_aig::digest::{canonical_digest, Digest};
use xsfq_aig::io::{read_netlist_auto, write_blif};
use xsfq_aig::Aig;

/// Renamed copies generated per suite design for hot traffic.
pub const HOT_VARIANTS: usize = 4;

/// SplitMix64: a tiny, fully specified generator, so a seed means the same
/// inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `len` draws from `0..n`, uniform but balanced: back-to-back shuffled
    /// permutations of `0..n`, so every value appears equally often (to
    /// within one) in any prefix of whole blocks. A seed then changes the
    /// order of a mix, not its composition.
    pub fn balanced(&mut self, n: usize, len: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(len + n);
        while out.len() < len {
            let mut block: Vec<usize> = (0..n).collect();
            self.shuffle(&mut block);
            out.extend(block);
        }
        out.truncate(len);
        out
    }
}

/// One design as the program receives it.
pub struct Design {
    /// Registered name (also the BLIF model name).
    pub name: String,
    /// The BLIF bytes submitted.
    pub blif: Vec<u8>,
    /// The writer's BLIF before renaming, which renamed copies start from.
    plain: Vec<u8>,
    /// `blif`, parsed.
    pub aig: Aig,
    /// Canonical digest: the daemon's cache key for these bytes.
    pub digest: Digest,
}

impl Design {
    fn from_blif(name: &str, plain: Vec<u8>, blif: Vec<u8>) -> Design {
        let aig = read_netlist_auto(&blif).expect("generated BLIF parses");
        let digest = canonical_digest(&aig);
        Design {
            name: name.to_string(),
            blif,
            plain,
            aig,
            digest,
        }
    }
}

fn blif_of(aig: &Aig) -> Vec<u8> {
    let mut buf = Vec::new();
    write_blif(aig, &mut buf).expect("BLIF to memory");
    buf
}

/// Rename every internal `nd<i>` signal of writer-produced BLIF to a
/// `salt`-specific name. Ports and latches (a latch is named after its
/// output signal) keep their names, so the parsed graph and its canonical
/// digest are unchanged.
pub fn rename_internal(blif: &[u8], salt: u64) -> Vec<u8> {
    let text = std::str::from_utf8(blif).expect("writer BLIF is UTF-8");
    let latches: HashSet<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix(".latch "))
        .filter_map(|l| l.split(' ').nth(1))
        .collect();
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    for line in text.lines() {
        for (i, word) in line.split(' ').enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match word.strip_prefix("nd") {
                Some(id)
                    if !id.is_empty()
                        && id.bytes().all(|b| b.is_ascii_digit())
                        && !latches.contains(word) =>
                {
                    out.push_str(&format!("s{salt:x}_{id}"));
                }
                _ => out.push_str(word),
            }
        }
        out.push('\n');
    }
    out.into_bytes()
}

/// The 35 registered designs in registry order, with internal names
/// renamed by `seed`.
pub fn suite(seed: u64) -> Vec<Design> {
    xsfq_benchmarks::all()
        .into_iter()
        .map(|b| {
            let plain = blif_of(&(b.build)());
            let blif = rename_internal(&plain, seed);
            Design::from_blif(b.name, plain, blif)
        })
        .collect()
}

/// A renamed copy of `design` with the same digest (asserted). It starts
/// from the writer's names: `design.blif` carries seeded names already,
/// which [`rename_internal`] leaves alone.
pub fn renamed(design: &Design, salt: u64) -> Vec<u8> {
    let blif = rename_internal(&design.plain, salt);
    let back = read_netlist_auto(&blif).expect("renamed BLIF parses");
    assert_eq!(
        canonical_digest(&back),
        design.digest,
        "{}: renaming changed the digest",
        design.name
    );
    blif
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = suite(7);
        let b = suite(7);
        let c = suite(8);
        assert_eq!(a.len(), 35);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.blif, y.blif);
            assert_ne!(x.blif, z.blif, "{}", x.name);
            // Renaming is invisible to the cache key.
            assert_eq!(x.digest, z.digest, "{}", x.name);
            let (r1, r2) = (renamed(x, 3), renamed(y, 3));
            assert_eq!(r1, r2);
            assert_ne!(r1, x.blif, "{}", x.name);
        }
        let (mut ra, mut rb) = (Rng::new(7, 1), Rng::new(7, 1));
        assert_eq!(ra.balanced(35, 1000), rb.balanced(35, 1000));
    }

    #[test]
    fn balanced_draws_cover_every_value_per_block() {
        let v = Rng::new(1, 1).balanced(35, 70);
        let mut counts = [0usize; 35];
        for d in v {
            counts[d] += 1;
        }
        assert!(counts.iter().all(|&c| c == 2));
    }
}
