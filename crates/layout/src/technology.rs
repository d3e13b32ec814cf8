//! λ-based design rules (Mead & Conway style, paper ref. [25]).
//!
//! All dimensions are in **grid units**; the technology fixes how many grid
//! units one λ spans, so "scaling λ" retargets a whole library — the
//! motivation for the leaf-cell compactor of Chapter 6.

use crate::Layer;
use std::collections::HashMap;

/// Minimum-width and minimum-spacing rules for one technology.
///
/// Spacing is symmetric: `spacing(a, b) == spacing(b, a)`. Pairs without an
/// entry do not interact (no constraint is generated between them).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DesignRules {
    min_width: HashMap<Layer, i64>,
    /// Dense and symmetric, indexed by [`Layer::index`]: the compactors
    /// and the DRC read it once per box pair.
    min_spacing: [[Option<i64>; Layer::ALL.len()]; Layer::ALL.len()],
    /// Extra poly width required over diffusion (transistor gate rule of
    /// paper §6.4.3).
    pub gate_width: i64,
    /// Metal/poly overlap around a contact cut (Fig 6.9 expansion).
    pub contact_overlap: i64,
    /// Size of a single square contact cut.
    pub contact_cut_size: i64,
    /// Spacing between adjacent cuts in a multi-cut contact.
    pub contact_cut_spacing: i64,
}

impl DesignRules {
    /// Creates an empty rule set (no constraints at all).
    pub fn new() -> DesignRules {
        DesignRules::default()
    }

    /// Sets the minimum width of a layer.
    pub fn set_min_width(&mut self, layer: Layer, w: i64) -> &mut Self {
        self.min_width.insert(layer, w);
        self
    }

    /// Sets the minimum spacing between two layers (symmetric).
    pub fn set_min_spacing(&mut self, a: Layer, b: Layer, s: i64) -> &mut Self {
        self.min_spacing[a.index()][b.index()] = Some(s);
        self.min_spacing[b.index()][a.index()] = Some(s);
        self
    }

    /// Minimum width of a layer (0 when unconstrained).
    pub fn min_width(&self, layer: Layer) -> i64 {
        self.min_width.get(&layer).copied().unwrap_or(0)
    }

    /// Minimum spacing between two layers, `None` when they don't interact.
    pub fn min_spacing(&self, a: Layer, b: Layer) -> Option<i64> {
        self.min_spacing[a.index()][b.index()]
    }

    /// Every spacing rule, once per unordered layer pair.
    fn spacings(&self) -> impl Iterator<Item = (usize, usize, i64)> + '_ {
        self.min_spacing
            .iter()
            .enumerate()
            .flat_map(|(a, row)| {
                row[a..]
                    .iter()
                    .enumerate()
                    .map(move |(d, s)| (a, a + d, *s))
            })
            .filter_map(|(a, b, s)| Some((a, b, s?)))
    }

    /// The technology's smallest spacing rule across every interacting
    /// layer pair (0 for an empty rule set). The leaf compactor clamps
    /// free pitch variables to this floor so an interface whose cross
    /// material happens not to interact cannot solve its pitch to a
    /// physically meaningless 0.
    pub fn spacing_floor(&self) -> i64 {
        self.spacings().map(|(_, _, s)| s).min().unwrap_or(0)
    }

    /// The technology's largest spacing rule across every interacting
    /// layer pair (0 for an empty rule set): no two boxes further apart
    /// than this can constrain each other. Derived from the rules, never
    /// set on its own.
    pub fn max_spacing(&self) -> i64 {
        self.spacings().map(|(_, _, s)| s).max().unwrap_or(0)
    }

    /// Deterministic content digest of the rule set — part of every
    /// incremental-compaction cache key, so two rule sets hash equal iff
    /// they constrain identically. The hash maps are absorbed in sorted
    /// key order; iteration order never leaks into the digest.
    pub fn content_hash(&self) -> u64 {
        let mut h = crate::hash::ContentHasher::new();
        let mut widths: Vec<(usize, i64)> = self
            .min_width
            .iter()
            .map(|(&l, &w)| (l.index(), w))
            .collect();
        widths.sort_unstable();
        h.write_u64(widths.len() as u64);
        for (l, w) in widths {
            h.write_u64(l as u64).write_i64(w);
        }
        // Ascending `(a, b)` with `a <= b`, one entry per rule: persisted
        // cache keys fold this digest, so the absorb order must not move.
        let spacings: Vec<(usize, usize, i64)> = self.spacings().collect();
        h.write_u64(spacings.len() as u64);
        for (a, b, s) in spacings {
            h.write_u64(a as u64).write_u64(b as u64).write_i64(s);
        }
        h.write_i64(self.gate_width)
            .write_i64(self.contact_overlap)
            .write_i64(self.contact_cut_size)
            .write_i64(self.contact_cut_spacing);
        h.finish()
    }
}

/// A named technology: λ scale plus its [`DesignRules`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Technology {
    /// Human-readable name, e.g. `"mc-lambda-2"`.
    pub name: String,
    /// Grid units per λ.
    pub lambda: i64,
    /// The design rule set, already multiplied out into grid units.
    pub rules: DesignRules,
}

impl Technology {
    /// The classic Mead–Conway rule set at a given λ (in grid units).
    ///
    /// Widths: diffusion/poly/metal1 = 2λ/2λ/3λ; spacings: diff–diff 3λ,
    /// poly–poly 2λ, poly–diff 1λ, metal–metal 3λ; cut 2λ square with 1λ
    /// overlap; gates are 2λ wide poly over diffusion.
    pub fn mead_conway(lambda: i64) -> Technology {
        assert!(lambda > 0, "lambda must be positive");
        let mut r = DesignRules::new();
        r.set_min_width(Layer::Diffusion, 2 * lambda)
            .set_min_width(Layer::Poly, 2 * lambda)
            .set_min_width(Layer::Metal1, 3 * lambda)
            .set_min_width(Layer::Metal2, 4 * lambda)
            .set_min_width(Layer::Cut, 2 * lambda)
            .set_min_width(Layer::Contact, 4 * lambda);
        r.set_min_spacing(Layer::Diffusion, Layer::Diffusion, 3 * lambda)
            .set_min_spacing(Layer::Poly, Layer::Poly, 2 * lambda)
            .set_min_spacing(Layer::Poly, Layer::Diffusion, lambda)
            .set_min_spacing(Layer::Metal1, Layer::Metal1, 3 * lambda)
            .set_min_spacing(Layer::Metal2, Layer::Metal2, 4 * lambda)
            .set_min_spacing(Layer::Cut, Layer::Cut, 2 * lambda)
            .set_min_spacing(Layer::Contact, Layer::Contact, 2 * lambda);
        r.gate_width = 2 * lambda;
        r.contact_overlap = lambda;
        r.contact_cut_size = 2 * lambda;
        r.contact_cut_spacing = 2 * lambda;
        Technology {
            name: format!("mc-lambda-{lambda}"),
            lambda,
            rules: r,
        }
    }
}

impl Default for Technology {
    fn default() -> Technology {
        Technology::mead_conway(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spacing_is_symmetric() {
        let t = Technology::mead_conway(2);
        assert_eq!(
            t.rules.min_spacing(Layer::Poly, Layer::Diffusion),
            t.rules.min_spacing(Layer::Diffusion, Layer::Poly)
        );
        assert_eq!(t.rules.min_spacing(Layer::Poly, Layer::Diffusion), Some(2));
    }

    #[test]
    fn unrelated_layers_dont_interact() {
        let t = Technology::mead_conway(2);
        assert_eq!(t.rules.min_spacing(Layer::Metal1, Layer::Poly), None);
        assert_eq!(t.rules.min_width(Layer::Label), 0);
    }

    #[test]
    fn scaling_lambda_scales_rules() {
        let a = Technology::mead_conway(1);
        let b = Technology::mead_conway(3);
        assert_eq!(
            a.rules.min_width(Layer::Poly) * 3,
            b.rules.min_width(Layer::Poly)
        );
        assert_eq!(
            a.rules
                .min_spacing(Layer::Diffusion, Layer::Diffusion)
                .unwrap()
                * 3,
            b.rules
                .min_spacing(Layer::Diffusion, Layer::Diffusion)
                .unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn zero_lambda_rejected() {
        let _ = Technology::mead_conway(0);
    }

    #[test]
    fn spacing_floor_is_the_smallest_rule() {
        let t = Technology::mead_conway(2);
        // Poly–diffusion at 1λ is the tightest Mead–Conway spacing.
        assert_eq!(t.rules.spacing_floor(), 2);
        assert_eq!(DesignRules::new().spacing_floor(), 0);
    }

    #[test]
    fn max_spacing_is_the_largest_rule() {
        let t = Technology::mead_conway(2);
        // Metal2–metal2 at 4λ is the widest Mead–Conway spacing.
        assert_eq!(t.rules.max_spacing(), 8);
        assert_eq!(DesignRules::new().max_spacing(), 0);
    }

    #[test]
    fn content_hash_tracks_the_rules() {
        let a = Technology::mead_conway(2).rules;
        let b = Technology::mead_conway(2).rules;
        assert_eq!(a.content_hash(), b.content_hash());
        let mut c = Technology::mead_conway(2).rules;
        c.set_min_spacing(Layer::Poly, Layer::Poly, 6);
        assert_ne!(a.content_hash(), c.content_hash());
        assert_ne!(
            a.content_hash(),
            Technology::mead_conway(3).rules.content_hash()
        );
    }

    #[test]
    fn builder_style_overrides() {
        let mut r = DesignRules::new();
        r.set_min_width(Layer::Poly, 5)
            .set_min_width(Layer::Poly, 7);
        assert_eq!(r.min_width(Layer::Poly), 7);
    }
}
