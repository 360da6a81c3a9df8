//! Property: a reused evaluation session changes no bit of any answer.
//!
//! A session carries buffers from one evaluation to the next: cached
//! chains, the successor buffer, the solve scratch and the decomposition
//! engine's single-class model. Random tier shapes are evaluated one after
//! another through one session per engine, each shape twice with different
//! rates, so every buffer holds data from an unrelated earlier model when
//! the next one starts. Then more new chain shapes than the session
//! keeps evict every cached chain, and the first shapes come back to be
//! explored afresh. Every answer must equal a one-shot evaluation's bit
//! for bit, and the session never holds more chains than its slots.
//!
//! The decomposition engine also replays per-class results from the
//! session's class memo. Further passes evaluate every model twice in a
//! row and then a variant of it with one class changed, so that most
//! classes are replayed rather than solved; the replayed answers must
//! equal one-shot evaluations bit for bit too.

use aved_avail::{
    AvailabilityEngine, CtmcEngine, DecompositionEngine, EvalHealth, EvalSession, FailureClass,
    TierAvailability, TierModel,
};
use aved_units::Duration;
use proptest::prelude::*;

/// The chain shapes an [`EvalSession`] keeps before it evicts the least
/// recently used one.
const CHAIN_SLOTS: usize = 16;

/// The exact chain of a drawn shape is cut to about this many failed-count
/// vectors (by dropping classes), so the exact engine stays quick in debug
/// builds.
const EXACT_VECTORS: u64 = 40;

/// One failure class: MTBF hours, MTTR hours, failover minutes, and
/// whether it fails over (only honoured when the tier has spares).
type ClassParams = (f64, f64, f64, bool);

#[derive(Debug, Clone)]
struct Shape {
    n: u32,
    m: u32,
    s: u32,
    exposed: bool,
    classes: Vec<ClassParams>,
}

impl Shape {
    /// The tier model of this shape over its first `classes` classes, with
    /// every MTBF scaled by `scale`.
    fn model(&self, classes: usize, scale: f64) -> TierModel {
        self.classes[..classes].iter().enumerate().fold(
            TierModel::new(self.n, self.m, self.s).with_exposed_spares(self.exposed),
            |tier, (i, &(mtbf_h, mttr_h, fo_m, fails_over))| {
                tier.with_class(FailureClass::new(
                    format!("class{i}"),
                    Duration::from_hours(mtbf_h * scale).rate(),
                    Duration::from_hours(mttr_h),
                    Duration::from_mins(fo_m),
                    fails_over && self.s > 0,
                ))
            },
        )
    }

    /// This shape's model over its first `classes` classes, with the MTTR
    /// of class `changed` scaled by `scale`.
    fn one_class_variant(&self, classes: usize, changed: usize, scale: f64) -> TierModel {
        let mut shape = self.clone();
        shape.classes[changed].1 *= scale;
        shape.model(classes, 1.0)
    }

    /// The most classes whose exact chain at truncation `depth` stays
    /// near [`EXACT_VECTORS`] failed-count vectors: `k` classes under cap
    /// `c` give `C(k + c, c)` of them. (The exact engine's chain cache on
    /// tiers of more than 64 classes has a unit test of its own.)
    fn exact_classes(&self, depth: u32) -> usize {
        let cap = u64::from(depth.min(self.n + self.s));
        let vectors = |k: u64| (1..=cap).fold(1_u64, |acc, i| acc * (k + i) / i);
        (1..=self.classes.len())
            .take_while(|&k| k == 1 || vectors(k as u64) <= EXACT_VECTORS)
            .last()
            .unwrap_or(1)
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        1_u32..6,
        0_u32..3,
        0_u32..3,
        prop::bool::ANY,
        proptest::collection::vec(
            (
                20.0_f64..5000.0,
                0.01_f64..48.0,
                0.5_f64..30.0,
                prop::bool::ANY,
            ),
            1..71,
        ),
    )
        .prop_map(|(m, extra, s, exposed, classes)| Shape {
            n: m + extra,
            m,
            s,
            exposed,
            classes,
        })
}

fn bits(r: &TierAvailability, h: &EvalHealth) -> (u64, u64, u32, Option<u64>) {
    (
        r.unavailability().to_bits(),
        r.down_event_rate().per_hour_value().to_bits(),
        h.fallbacks,
        h.worst_residual.map(f64::to_bits),
    )
}

/// Evaluates `models` in order through `session` and checks each answer
/// against a one-shot evaluation.
fn reused_matches_one_shot(
    engine: &dyn AvailabilityEngine,
    session: &mut EvalSession,
    models: &[TierModel],
) -> Result<(), String> {
    for (i, model) in models.iter().enumerate() {
        let (one_shot, one_shot_health) = engine.evaluate_with_health(model).unwrap();
        let (reused, reused_health) = engine.evaluate_with_session(model, session).unwrap();
        let (reused, one_shot) = (
            bits(&reused, &reused_health),
            bits(&one_shot, &one_shot_health),
        );
        prop_assert_eq!(
            reused,
            one_shot,
            "model {} of {}: reused {:?}, one-shot {:?}",
            i,
            models.len(),
            reused,
            one_shot
        );
        prop_assert!(
            session.cached_chains() <= CHAIN_SLOTS,
            "{} chains cached",
            session.cached_chains()
        );
    }
    Ok(())
}

/// Classes a model may have for the class memo to be sure to keep the
/// previous evaluation's results: the memo holds 16, and the previous
/// and the current evaluation must fit together.
const MEMO_CLASSES: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_reused_session_matches_one_shot_evaluation(
        shapes in proptest::collection::vec(arb_shape(), 2..5),
        depth in 1_u32..9,
    ) {
        // Every shape once, then every shape again with other rates: the
        // second pass repatches chains the session cached a shape or more
        // earlier. Then the first shape's first class alone at
        // `CHAIN_SLOTS` active counts above every drawn one: each is a
        // chain shape the session has not seen, so together they evict
        // every cached chain, and a last pass explores the drawn shapes
        // afresh.
        let top = shapes.iter().map(|shape| shape.n).max().unwrap_or(0);
        let ladder: Vec<TierModel> = (1..=CHAIN_SLOTS as u32)
            .map(|step| Shape { n: top + step, ..shapes[0].clone() }.model(1, 1.0))
            .collect();
        let pass = |shapes: &[Shape], scale: f64, exact: bool| -> Vec<TierModel> {
            shapes.iter().map(|shape| {
                let classes = if exact { shape.exact_classes(depth) } else { shape.classes.len() };
                shape.model(classes, scale)
            }).collect()
        };
        let decomp = DecompositionEngine::default().with_max_concurrent(depth);
        let ctmc = CtmcEngine::default().with_max_concurrent(depth);
        let engines: [(&dyn AvailabilityEngine, bool); 2] = [(&decomp, false), (&ctmc, true)];
        for (engine, exact) in engines {
            let mut session = EvalSession::new();
            let filling = [
                pass(&shapes, 1.0, exact),
                pass(&shapes, 1.3, exact),
                ladder.clone(),
            ];
            reused_matches_one_shot(engine, &mut session, &filling.concat())?;
            prop_assert_eq!(session.cached_chains(), CHAIN_SLOTS);
            reused_matches_one_shot(engine, &mut session, &pass(&shapes, 1.6, exact))?;
        }
    }

    #[test]
    fn per_class_reports_each_class_with_its_own_result(
        shape in arb_shape(),
        depth in 1_u32..9,
    ) {
        let model = shape.model(shape.classes.len(), 1.0);
        let exact = CtmcEngine::default().with_max_concurrent(depth);
        let parts = DecompositionEngine::default()
            .with_max_concurrent(depth)
            .per_class(&model)
            .unwrap();
        prop_assert_eq!(parts.len(), model.classes().len());
        for ((label, result), class) in parts.iter().zip(model.classes()) {
            prop_assert_eq!(label.as_str(), class.label());
            let alone = TierModel::new(model.n(), model.m(), model.s())
                .with_exposed_spares(model.spares_exposed())
                .with_class(class.clone());
            let expected = exact.evaluate(&alone).unwrap();
            prop_assert_eq!(
                result.unavailability().to_bits(),
                expected.unavailability().to_bits(),
                "{}", label
            );
            prop_assert_eq!(
                result.down_event_rate().per_hour_value().to_bits(),
                expected.down_event_rate().per_hour_value().to_bits(),
                "{}", label
            );
        }
    }

    #[test]
    fn repeated_and_one_class_variants_replay_the_memoised_classes(
        shapes in proptest::collection::vec(arb_shape(), 1..4),
        depth in 1_u32..9,
        changed in 0_usize..70,
    ) {
        let engine = DecompositionEngine::default().with_max_concurrent(depth);
        let mut session = EvalSession::new();
        // Each shape in full, where the memo may be too small to keep a
        // whole evaluation, and cut to the classes it is sure to keep.
        let sizes = |shape: &Shape| [shape.classes.len(), shape.classes.len().min(MEMO_CLASSES)];
        for (shape, classes) in shapes.iter().flat_map(|s| sizes(s).map(|c| (s, c))) {
            let model = shape.model(classes, 1.0);
            let variant = shape.one_class_variant(classes, changed % classes, 1.7);
            for (pass, model) in [&model, &model, &variant].into_iter().enumerate() {
                let hits = session.stats().class_hits;
                reused_matches_one_shot(&engine, &mut session, std::slice::from_ref(model))?;
                let replayed = session.stats().class_hits - hits;
                if classes <= MEMO_CLASSES {
                    // The repeat replays every class; the variant every
                    // class but the changed one.
                    let expected = match pass {
                        0 => 0,
                        1 => classes,
                        _ => classes - 1,
                    };
                    prop_assert!(
                        replayed >= expected as u64,
                        "pass {}: {} of {} classes replayed", pass, replayed, classes
                    );
                }
            }
        }
    }
}
