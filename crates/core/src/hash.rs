//! Stable content hashing of (circuit × configuration) pairs.
//!
//! A FIRES result is a pure function of the circuit's structure and the
//! [`FiresConfig`] it runs under, so the pair's content hash is a valid
//! cache key for canonical reports and engine builds: two submissions
//! hash equal iff the analysis would produce byte-identical canonical
//! output. `fires serve` keys its result store with it, and offline
//! `fires report` consumers can use it to dedup repeated work.
//!
//! The hash is splitmix64-based (no dependencies): every field is folded
//! into the running state as a 64-bit word and the state is re-mixed per
//! word, so adjacent fields cannot cancel and single-bit field changes
//! avalanche through the final value. It is **stable across processes,
//! platforms and releases** — it depends only on content, never on
//! memory layout or collection iteration order — and golden-value tests
//! pin the recipe: changing it is a cache/journal compatibility break
//! and must be deliberate.
//!
//! The circuit side reuses the canonical structural hash
//! [`Circuit::content_hash`] (names, kinds, fanin wiring, output list);
//! the configuration side covers every result-bearing knob of
//! [`FiresConfig`] and deliberately excludes the `progress` hook, which
//! is pure observability.

use fires_netlist::Circuit;

use crate::config::{FiresConfig, ValidationPolicy};

/// The splitmix64 finalizer: cheap, well-mixed, dependency-free. The
/// one copy in the workspace; `fires-jobs` builds its chaos rolls on it.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// An order-sensitive 64-bit content hasher over words.
///
/// Each written word is combined with the running state and the state is
/// re-mixed through [`splitmix64`], so `write(a); write(b)` and
/// `write(b); write(a)` produce different hashes and a zero word still
/// advances the state (absent and zero-valued optional fields stay
/// distinguishable through the domain tags callers write).
#[derive(Clone, Copy, Debug)]
pub struct ContentHasher {
    state: u64,
}

impl ContentHasher {
    /// A hasher seeded with a domain tag, so hashes of different record
    /// kinds never collide by construction.
    pub fn new(domain: u64) -> ContentHasher {
        ContentHasher {
            state: splitmix64(domain),
        }
    }

    /// Folds one word into the state.
    pub fn write_u64(&mut self, word: u64) -> &mut Self {
        self.state = splitmix64(self.state ^ word.wrapping_mul(0x2545_f491_4f6c_dd1d));
        self
    }

    /// Folds a usize in (as u64, platform-independent).
    pub fn write_usize(&mut self, word: usize) -> &mut Self {
        self.write_u64(word as u64)
    }

    /// Folds a bool in.
    pub fn write_bool(&mut self, b: bool) -> &mut Self {
        self.write_u64(u64::from(b))
    }

    /// The final hash.
    pub fn finish(&self) -> u64 {
        splitmix64(self.state)
    }
}

/// Domain tag of [`FiresConfig::content_hash`] ("conf" in ASCII).
const DOMAIN_CONFIG: u64 = 0x63_6f_6e_66;
/// Domain tag of [`content_hash`] ("task" in ASCII).
const DOMAIN_TASK: u64 = 0x74_61_73_6b;

impl FiresConfig {
    /// A stable 64-bit content hash of every result-bearing knob.
    ///
    /// Covers `max_frames`, `validate`, `validation_policy`, `blame_cap`
    /// and `mark_budget`; excludes the `progress` hook (a function
    /// pointer with no bearing on results). Stable across processes and
    /// releases — pinned by a golden-value test.
    pub fn content_hash(&self) -> u64 {
        let mut h = ContentHasher::new(DOMAIN_CONFIG);
        h.write_usize(self.max_frames)
            .write_bool(self.validate)
            .write_u64(match self.validation_policy {
                ValidationPolicy::AnyFrame => 0,
                ValidationPolicy::EarlierFrames => 1,
            })
            .write_usize(self.blame_cap)
            .write_usize(self.mark_budget);
        h.finish()
    }
}

/// The stable content hash of one (circuit × configuration) analysis:
/// equal iff the canonical FIRES results are guaranteed byte-identical.
///
/// This is the cache key `fires serve` stores canonical reports under
/// (combined with any per-stem [`Budget`](crate::Budget) step limit,
/// which also changes results — see `fires-serve`'s key derivation).
pub fn content_hash(circuit: &Circuit, config: &FiresConfig) -> u64 {
    let mut h = ContentHasher::new(DOMAIN_TASK);
    h.write_u64(circuit.content_hash())
        .write_u64(config.content_hash());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fires_netlist::bench;

    fn fig3() -> Circuit {
        bench::parse("INPUT(a)\nOUTPUT(d)\nOUTPUT(c)\nb = DFF(a)\nc = DFF(a)\nd = AND(b, c)\n")
            .unwrap()
    }

    /// Golden values: these literals pin the hash recipe. If this test
    /// fails, the recipe changed — which invalidates every persisted
    /// cache key and journal fingerprint derived from it. Bump them only
    /// as a deliberate compatibility break.
    #[test]
    fn golden_values_pin_the_recipe() {
        assert_eq!(
            FiresConfig::default().content_hash(),
            0x72f4_e2df_9bfc_ae01,
            "FiresConfig::content_hash recipe drifted"
        );
        assert_eq!(
            content_hash(&fig3(), &FiresConfig::default()),
            0xe371_bdef_8975_295a,
            "content_hash(circuit, config) recipe drifted"
        );
    }

    /// Every result-bearing config field must perturb the hash.
    #[test]
    fn config_mutations_change_the_hash() {
        let base = FiresConfig::default();
        let mutations: Vec<FiresConfig> = vec![
            FiresConfig {
                max_frames: base.max_frames + 1,
                ..base
            },
            FiresConfig {
                validate: !base.validate,
                ..base
            },
            FiresConfig {
                validation_policy: ValidationPolicy::EarlierFrames,
                ..base
            },
            FiresConfig {
                blame_cap: base.blame_cap + 1,
                ..base
            },
            FiresConfig {
                mark_budget: base.mark_budget + 1,
                ..base
            },
        ];
        let mut seen = std::collections::HashSet::new();
        seen.insert(base.content_hash());
        for (i, m) in mutations.iter().enumerate() {
            assert!(
                seen.insert(m.content_hash()),
                "mutation {i} did not change the hash"
            );
        }
    }

    /// The `progress` hook is observability, not content.
    #[test]
    fn progress_hook_is_excluded() {
        fn hook(_: crate::ProgressEvent) {}
        let with = FiresConfig::default().with_progress(hook);
        assert_eq!(with.content_hash(), FiresConfig::default().content_hash());
    }

    /// Circuit structure and configuration both feed the pair hash, and
    /// swapping which side a change lands on cannot collide.
    #[test]
    fn pair_hash_tracks_both_sides() {
        let c = fig3();
        let base = content_hash(&c, &FiresConfig::default());
        assert_eq!(content_hash(&c, &FiresConfig::default()), base);
        let other_cfg = FiresConfig::with_max_frames(7);
        assert_ne!(content_hash(&c, &other_cfg), base);
        let other_circuit =
            bench::parse("INPUT(a)\nOUTPUT(d)\nb = DFF(a)\nd = AND(b, a)\n").unwrap();
        assert_ne!(content_hash(&other_circuit, &FiresConfig::default()), base);
    }

    /// Order sensitivity and zero-word progress: the word fold is not a
    /// plain XOR that reordered or zero fields could cancel.
    #[test]
    fn hasher_is_order_sensitive() {
        let ab = {
            let mut h = ContentHasher::new(1);
            h.write_u64(2).write_u64(3);
            h.finish()
        };
        let ba = {
            let mut h = ContentHasher::new(1);
            h.write_u64(3).write_u64(2);
            h.finish()
        };
        assert_ne!(ab, ba);
        let zero_once = {
            let mut h = ContentHasher::new(1);
            h.write_u64(0);
            h.finish()
        };
        let zero_twice = {
            let mut h = ContentHasher::new(1);
            h.write_u64(0).write_u64(0);
            h.finish()
        };
        assert_ne!(zero_once, zero_twice);
    }
}
