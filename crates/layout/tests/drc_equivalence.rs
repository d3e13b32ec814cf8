//! Equivalence proptests for the grid DRC (experiment E16).
//!
//! `drc::check` finds spacing partners through a 2-D bucket grid so each
//! box only visits the cells within its rule distance; the retired
//! all-pairs loop survives as `drc::check_pairwise`. These properties
//! prove the two produce the *identical* violation list — same pairs,
//! same measured gaps, same order — on random box soups, including the
//! degenerate cases a grid could plausibly mishandle: zero-area boxes,
//! exactly-touching boxes, boxes at exactly the rule distance or on cell
//! boundaries, negative coordinates, coordinates at the edge of the
//! ±2³⁰ budget (where the grid coarsens), and bars spanning many cells.

use proptest::prelude::*;
use rsg_geom::par::Parallelism;
use rsg_geom::{Point, Rect};
use rsg_layout::{drc, FlatBox, FlatLayout, Layer, Technology};

/// The ingest coordinate budget: every coordinate lies in ±2³⁰.
const BUDGET: i64 = 1 << 30;

fn flat_of(boxes: &[(Layer, Rect)]) -> FlatLayout {
    FlatLayout::from_boxes(
        boxes
            .iter()
            .map(|&(layer, rect)| FlatBox {
                layer,
                rect,
                depth: 0,
            })
            .collect(),
    )
}

/// Box soups over the interacting layers, on a fine grid so touching,
/// overlapping, and exactly-at-rule-distance configurations all occur;
/// width/height 0 included to exercise the zero-area exemption.
fn arb_boxes() -> impl Strategy<Value = Vec<(Layer, Rect)>> {
    proptest::collection::vec((0i64..30, 0i64..30, 0i64..9, 0i64..9, 0usize..4), 1..24).prop_map(
        |seeds| {
            let layers = [Layer::Poly, Layer::Diffusion, Layer::Metal1, Layer::Cut];
            seeds
                .into_iter()
                .map(|(x, y, w, h, l)| (layers[l], Rect::from_origin_size(Point::new(x, y), w, h)))
                .collect()
        },
    )
}

/// Box soups placed where the grid's edge cases live. The placement
/// mode shifts the whole soup across zero (negative coordinates), to
/// either corner of the ±2³⁰ budget, or splits it between both corners
/// so the grid must coarsen its cells by many doublings. Coordinates and
/// most sizes are multiples of 4, so with cell sides that are powers of
/// two of at least 4 boxes land exactly on cell boundaries and at
/// exactly a rule distance apart; long bars span many cells, and the
/// last mode makes every box zero-area.
fn arb_grid_cases() -> impl Strategy<Value = Vec<(Layer, Rect)>> {
    (
        0usize..6,
        proptest::collection::vec(
            (0i64..24, 0i64..24, 0i64..5, 0i64..5, 0usize..5, 0usize..4),
            0..24,
        ),
    )
        .prop_map(|(mode, seeds)| {
            let layers = [
                Layer::Poly,
                Layer::Diffusion,
                Layer::Metal1,
                Layer::Metal2,
                Layer::Cut,
            ];
            seeds
                .into_iter()
                .enumerate()
                .map(|(k, (x, y, w, h, l, shape))| {
                    let (x, y) = (x * 4, y * 4);
                    let (w, h) = match shape {
                        0 => (w * 4, h * 4),
                        1 => (w * 4 + 1, h * 4 + 3),
                        2 => (160 + w * 32, 8),
                        _ => (8, 160 + h * 32),
                    };
                    let (x, y, w) = match mode {
                        0 => (x - 48, y - 48, w),
                        1 => (BUDGET - 1024 + x, BUDGET - 1024 + y, w),
                        2 => (-BUDGET + x, -BUDGET + y, w),
                        3 if k % 2 == 0 => (-BUDGET + x, -BUDGET + y, w),
                        3 => (BUDGET - 1024 + x, BUDGET - 1024 + y, w),
                        4 => (x, y, w),
                        _ => (x, y, 0),
                    };
                    (layers[l], Rect::from_origin_size(Point::new(x, y), w, h))
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The grid checker is list-identical to the pairwise reference.
    #[test]
    fn sweep_equals_pairwise(boxes in arb_boxes()) {
        let rules = Technology::mead_conway(2).rules.clone();
        prop_assert_eq!(
            drc::check(&boxes, &rules),
            drc::check_pairwise(&boxes, &rules)
        );
    }

    /// Checking through a FlatLayout agrees too.
    #[test]
    fn flat_layout_check_agrees(boxes in arb_boxes()) {
        let rules = Technology::mead_conway(2).rules.clone();
        let flat = flat_of(&boxes);
        prop_assert_eq!(
            drc::check_flat(&flat, &rules),
            drc::check_pairwise(&boxes, &rules)
        );
    }
    /// On the grid's edge cases, every entry point at every worker count
    /// is list-identical to the pairwise reference.
    #[test]
    fn grid_edge_cases_match_pairwise(boxes in arb_grid_cases()) {
        let rules = Technology::mead_conway(2).rules.clone();
        let reference = drc::check_pairwise(&boxes, &rules);
        prop_assert_eq!(&drc::check(&boxes, &rules), &reference);
        let flat = flat_of(&boxes);
        prop_assert_eq!(&drc::check_flat(&flat, &rules), &reference);
        for n in [1, 2, 4, 9] {
            prop_assert_eq!(
                &drc::check_flat_par(&flat, &rules, Parallelism::Threads(n)),
                &reference
            );
        }
    }
}

/// Hand-picked adversarial cases the random soup may miss.
#[test]
fn directed_edge_cases() {
    let rules = Technology::mead_conway(2).rules.clone();
    let cases: Vec<Vec<(Layer, Rect)>> = vec![
        // Exactly at rule distance (poly–poly 4): clean on both paths.
        vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 20)),
            (Layer::Poly, Rect::from_coords(8, 0, 12, 20)),
        ],
        // One unit inside the rule distance.
        vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 20)),
            (Layer::Poly, Rect::from_coords(7, 0, 11, 20)),
        ],
        // Touching same-layer boxes: connected, exempt.
        vec![
            (Layer::Diffusion, Rect::from_coords(0, 0, 10, 4)),
            (Layer::Diffusion, Rect::from_coords(10, 0, 20, 4)),
        ],
        // Corner-touching same-layer boxes: still connected.
        vec![
            (Layer::Diffusion, Rect::from_coords(0, 0, 10, 10)),
            (Layer::Diffusion, Rect::from_coords(10, 10, 20, 20)),
        ],
        // Zero-area sliver between two violating boxes: ignored.
        vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 20)),
            (Layer::Poly, Rect::from_coords(5, 0, 5, 20)),
            (Layer::Poly, Rect::from_coords(6, 0, 10, 20)),
        ],
        // Diagonal L∞ violation only visible with both axes measured.
        vec![
            (Layer::Metal1, Rect::from_coords(0, 0, 6, 6)),
            (Layer::Metal1, Rect::from_coords(10, 10, 16, 16)),
        ],
        // Cross-layer overlap (poly over diffusion).
        vec![
            (Layer::Poly, Rect::from_coords(0, 0, 4, 20)),
            (Layer::Diffusion, Rect::from_coords(2, 0, 20, 8)),
        ],
    ];
    for (k, boxes) in cases.iter().enumerate() {
        assert_eq!(
            drc::check(boxes, &rules),
            drc::check_pairwise(boxes, &rules),
            "case {k}"
        );
    }
}

/// A pair that meets in many grid cells — long bars overlapping, or
/// running side by side too close — is reported exactly once.
#[test]
fn pair_meeting_in_many_cells_is_reported_once() {
    let rules = Technology::mead_conway(2).rules.clone();
    let cases: Vec<Vec<(Layer, Rect)>> = vec![
        // Poly crossing diffusion along 400 units: overlap, gap 0 < 2.
        vec![
            (Layer::Poly, Rect::from_coords(0, 0, 400, 4)),
            (Layer::Diffusion, Rect::from_coords(0, 2, 400, 10)),
        ],
        // Two poly bars 2 apart (rule 4) side by side along 400 units.
        vec![
            (Layer::Poly, Rect::from_coords(0, 0, 400, 4)),
            (Layer::Poly, Rect::from_coords(0, 6, 400, 10)),
        ],
        // Two tall metal bars 3 apart (rule 6), offset in y.
        vec![
            (Layer::Metal1, Rect::from_coords(0, -300, 6, 100)),
            (Layer::Metal1, Rect::from_coords(9, -200, 15, 300)),
        ],
    ];
    for (k, boxes) in cases.iter().enumerate() {
        let v = drc::check(boxes, &rules);
        assert_eq!(v.len(), 1, "case {k}: {v:?}");
        assert_eq!(v, drc::check_pairwise(boxes, &rules), "case {k}");
    }
}

/// Empty and all-zero-area inputs have nothing to check.
#[test]
fn empty_and_zero_area_inputs_are_clean() {
    let rules = Technology::mead_conway(2).rules.clone();
    let zero = vec![
        (Layer::Poly, Rect::from_coords(0, 0, 0, 20)),
        (Layer::Poly, Rect::from_coords(1, 0, 5, 0)),
        (Layer::Metal1, Rect::from_coords(3, 3, 3, 3)),
    ];
    for boxes in [Vec::new(), zero] {
        assert!(drc::check(&boxes, &rules).is_empty());
        let flat = flat_of(&boxes);
        assert!(drc::check_flat_par(&flat, &rules, Parallelism::Threads(4)).is_empty());
    }
}
